//! In-memory spans for the traced run, recorded at the program's two
//! injectable seams and around every request.
//!
//! * [`TimedBackend`] wraps the index handed to `ServingEngine::new`
//!   (`RetrievalBackend`): every call becomes an `index.*` span.
//! * [`TimedIo`] wraps `FsIo` in `StoreTierConfig::io` (`StoreIo`):
//!   every call becomes a `store.*` span.
//! * The dispatcher opens a `serve.search` / `serve.observe` span per
//!   request; seam spans on the dispatcher thread take it as parent and
//!   share its request id. Spans on any other thread (the store's
//!   writeback daemon) have no parent and count as background I/O.
//!
//! Spans stay in memory and are written out by [`Recorder::write_tsv`]
//! when the traced run ends.

use pws_index::{RetrievalBackend, SearchHit};
use pws_store::{FsIo, IoError, StoreIo};
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the process's
/// trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Small per-thread number, in order of each thread's first span.
    pub thread: u32,
    /// The request span this call ran under, if any.
    pub parent: Option<u32>,
    /// Request sequence number (0 outside requests).
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// The index searches of one request: (query tokens, hits) per call.
type PoolSeen = Vec<(Vec<String>, Vec<SearchHit>)>;

thread_local! {
    /// (request sequence number, request span id) of the request the
    /// current thread is serving.
    static CURRENT: Cell<(u64, Option<u32>)> = const { Cell::new((0, None)) };
    /// Armed by the dispatcher on requests whose base pool is captured
    /// for the replays; every index search of the request lands here.
    static POOL_CAPTURE: RefCell<Option<PoolSeen>> = const { RefCell::new(None) };
}

/// Collects spans and the store records seen written.
pub struct Recorder {
    on: AtomicBool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    written: Mutex<Vec<Vec<u8>>>,
    keep_written: usize,
}

impl Recorder {
    /// A recorder with recording switched off, keeping up to
    /// `keep_written` of the store records seen written.
    pub fn new(keep_written: usize) -> Self {
        epoch();
        Recorder {
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            written: Mutex::new(Vec::new()),
            keep_written,
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn recording(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    /// Open a request span on the current thread. Seam spans recorded
    /// until [`Recorder::end_request`] become its children.
    pub fn begin_request(&self, request: u64) -> (u32, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        CURRENT.with(|c| c.set((request, Some(id))));
        (id, now_nanos())
    }

    pub fn end_request(&self, name: &'static str, open: (u32, u64), request: u64) {
        let end = now_nanos();
        CURRENT.with(|c| c.set((0, None)));
        if self.recording() {
            self.push(Span {
                id: open.0,
                name,
                start: open.1,
                end,
                thread: thread_number(),
                parent: None,
                request,
            });
        }
    }

    fn record(&self, name: &'static str, start: u64) {
        if !self.recording() {
            return;
        }
        let end = now_nanos();
        let (request, parent) = CURRENT.with(|c| c.get());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span { id, name, start, end, thread: thread_number(), parent, request });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock poisoned").push(span);
    }

    fn keep_record(&self, bytes: &[u8]) {
        if !self.recording() {
            return;
        }
        let mut w = self.written.lock().expect("record buffer lock poisoned");
        if w.len() < self.keep_written {
            w.push(bytes.to_vec());
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock poisoned"))
    }

    pub fn take_written(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.written.lock().expect("record buffer lock poisoned"))
    }

    /// Write spans as tab-separated rows
    /// (`id name start_ns end_ns thread parent request`).
    pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tthread\tparent\trequest")?;
        for s in spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start, s.end, s.thread, parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Arm the pool capture for the next request on this thread.
pub fn arm_pool_capture() {
    POOL_CAPTURE.with(|p| *p.borrow_mut() = Some(Vec::new()));
}

/// Take what the armed request's index search for `tokens` returned
/// (`None` when the retrieval cache served it).
pub fn take_pool_capture(tokens: &[String]) -> Option<Vec<SearchHit>> {
    let seen = POOL_CAPTURE.with(|p| p.borrow_mut().take()).unwrap_or_default();
    seen.into_iter().find(|(t, _)| t == tokens).map(|(_, hits)| hits)
}

fn offer_pool(tokens: &[String], hits: &[SearchHit]) {
    POOL_CAPTURE.with(|p| {
        if let Some(seen) = p.borrow_mut().as_mut() {
            seen.push((tokens.to_vec(), hits.to_vec()));
        }
    });
}

/// Timing wrapper over the index, passed to `ServingEngine::new`.
pub struct TimedBackend<'a> {
    pub inner: &'a dyn RetrievalBackend,
    pub rec: &'a Recorder,
}

impl RetrievalBackend for TimedBackend<'_> {
    fn analyze_text(&self, text: &str) -> Vec<String> {
        let t = now_nanos();
        let out = self.inner.analyze_text(text);
        self.rec.record("index.analyze", t);
        out
    }

    fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        let t = now_nanos();
        let out = self.inner.search(query, k);
        self.rec.record("index.search", t);
        out
    }

    fn search_tokens(&self, q_tokens: &[String], k: usize) -> Vec<SearchHit> {
        let t = now_nanos();
        let out = self.inner.search_tokens(q_tokens, k);
        self.rec.record("index.search", t);
        offer_pool(q_tokens, &out);
        out
    }

    fn search_tokens_workers(
        &self,
        q_tokens: &[String],
        k: usize,
        workers: usize,
    ) -> Vec<SearchHit> {
        let t = now_nanos();
        let out = self.inner.search_tokens_workers(q_tokens, k, workers);
        self.rec.record("index.search", t);
        offer_pool(q_tokens, &out);
        out
    }

    fn score_docs(&self, query: &str, docs: &[u32]) -> Vec<f64> {
        let t = now_nanos();
        let out = self.inner.score_docs(query, docs);
        self.rec.record("index.score_docs", t);
        out
    }
}

/// Timing wrapper over the real filesystem, passed as
/// `StoreTierConfig::io`.
pub struct TimedIo {
    pub rec: std::sync::Arc<Recorder>,
}

impl std::fmt::Debug for TimedIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TimedIo(FsIo)")
    }
}

impl TimedIo {
    fn timed<T>(&self, name: &'static str, op: impl FnOnce() -> T) -> T {
        let t = now_nanos();
        let out = op();
        self.rec.record(name, t);
        out
    }
}

impl StoreIo for TimedIo {
    fn read(&self, path: &Path) -> Result<Vec<u8>, IoError> {
        self.timed("store.read", || FsIo.read(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), IoError> {
        self.rec.keep_record(bytes);
        self.timed("store.write", || FsIo.write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), IoError> {
        self.timed("store.rename", || FsIo.rename(from, to))
    }

    fn sync_file(&self, path: &Path) -> Result<(), IoError> {
        self.timed("store.sync", || FsIo.sync_file(path))
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), IoError> {
        self.timed("store.sync", || FsIo.sync_dir(dir))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, IoError> {
        self.timed("store.meta", || FsIo.list(dir))
    }

    fn remove(&self, path: &Path) -> Result<(), IoError> {
        self.timed("store.meta", || FsIo.remove(path))
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), IoError> {
        self.timed("store.meta", || FsIo.create_dir_all(dir))
    }
}
