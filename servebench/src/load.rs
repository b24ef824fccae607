//! Engine set-up, the request loop, and the output checks.
//!
//! Load comes from one dispatcher thread with one request in flight.
//! The closed loop issues turns back to back; the open loop sleeps
//! until each seeded Poisson due time (it never spins) and times every
//! search from its due time, so queueing behind a slow turn counts.

use crate::probe::HostLog;
use crate::spans::{self, Recorder};
use crate::workload::{self, Request, Stream, Workload, STORE_RESIDENT_PER_SHARD};
use pws_click::{SessionSimulator, UserId};
use pws_core::{EngineConfig, SearchTurn, UserState};
use pws_entropy::QueryStats;
use pws_eval::{ExperimentSpec, ExperimentWorld};
use pws_index::{RetrievalBackend, SearchHit};
use pws_serve::{SearchBudget, ServeConfig, ServingEngine, StoreTierConfig};
use pws_store::StoreIo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// User shards, as in the default `ServeConfig`.
pub const SHARDS: usize = 8;

pub fn build_world(small: bool) -> ExperimentWorld {
    ExperimentWorld::build(if small {
        ExperimentSpec::small()
    } else {
        ExperimentSpec::default_paper()
    })
}

/// Working directory for store tiers and span dumps, inside the
/// benchmark's own directory.
pub fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

/// A fresh, empty store directory for one engine.
pub fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = run_dir().join(format!("store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The serving engine under test. `store_dir` and `io` are used only by
/// workloads with a store tier.
pub fn engine<'w>(
    world: &'w ExperimentWorld,
    backend: &'w dyn RetrievalBackend,
    spec: &Workload,
    store_dir: &Path,
    io: Option<Arc<dyn StoreIo>>,
) -> ServingEngine<'w> {
    let serve = ServeConfig {
        shards: SHARDS,
        // One request in flight: intra-query fan-out stays serial.
        search_workers: 1,
        store: spec.store.then(|| StoreTierConfig {
            capacity_per_shard: STORE_RESIDENT_PER_SHARD,
            writeback: true,
            io,
            ..StoreTierConfig::new(store_dir)
        }),
        ..ServeConfig::default()
    };
    ServingEngine::new(backend, &world.world, EngineConfig::default(), serve)
}

/// Running totals of one session's requests and output checks.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub searches: u64,
    pub observes: u64,
    pub degraded: u64,
    pub shed: u64,
    /// Pages whose ranks are not exactly 1..n, that exceed the page
    /// size, or that repeat a document.
    pub bad_pages: u64,
    /// Query texts that were served an empty page (checked afterwards:
    /// the base pool must be empty too).
    pub empty_pages: Vec<String>,
    /// FNV-1a over (user, doc, rank) of every served page, in order.
    pub digest: u64,
    /// Click-simulation time on the dispatcher.
    pub sim_nanos: u64,
}

impl Tally {
    fn new() -> Self {
        Tally { digest: FNV_OFFSET, ..Tally::default() }
    }

    pub fn ops(&self) -> u64 {
        self.searches + self.observes
    }

    fn check_page(&mut self, user: UserId, text: &str, hits: &[SearchHit], top_k: usize) {
        let mut docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        docs.sort_unstable();
        docs.dedup();
        let ranks_ok = hits.iter().enumerate().all(|(i, h)| h.rank == i + 1);
        if !ranks_ok || hits.len() > top_k || docs.len() != hits.len() {
            self.bad_pages += 1;
        }
        if hits.is_empty() {
            self.empty_pages.push(text.to_string());
        }
        fnv(&mut self.digest, &user.0.to_le_bytes());
        for h in hits {
            fnv(&mut self.digest, &h.doc.to_le_bytes());
            fnv(&mut self.digest, &(h.rank as u32).to_le_bytes());
        }
        fnv(&mut self.digest, b"|");
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// When one turn's phases started and ended.
pub struct TurnTimes {
    pub search_start: Instant,
    pub search_end: Instant,
    pub observe_end: Instant,
}

/// What the traced run keeps of a request for the layer replays.
pub struct Capture {
    pub user: UserId,
    pub query: String,
    /// The base retrieval pool the request saw.
    pub pool: Vec<SearchHit>,
    pub page: Vec<SearchHit>,
    pub state: UserState,
    pub stats: Option<QueryStats>,
}

/// Tracing hooks of a session (traced run only).
pub struct Tracing {
    pub rec: Arc<Recorder>,
    /// Capture every n-th turn for the replays (n ≥ 1).
    pub capture_every: u64,
    pub max_captures: usize,
    pub captures: Vec<Capture>,
    /// Dispatcher time spent capturing, excluded from the overhead.
    pub capture_nanos: u64,
}

/// One engine driven by one request stream.
pub struct Session<'e, 'w> {
    engine: &'e ServingEngine<'w>,
    world: &'w ExperimentWorld,
    stream: Stream<'w>,
    clicks: SessionSimulator<'w>,
    pub tally: Tally,
    seq: u64,
    top_k: usize,
    pub tracing: Option<Tracing>,
}

impl<'e, 'w> Session<'e, 'w> {
    pub fn new(
        engine: &'e ServingEngine<'w>,
        world: &'w ExperimentWorld,
        spec: &'static Workload,
        seed: u64,
    ) -> Self {
        Session {
            engine,
            world,
            stream: Stream::new(spec, world, seed),
            clicks: workload::click_simulator(world, seed),
            tally: Tally::new(),
            seq: 0,
            top_k: engine.config().top_k,
            tracing: None,
        }
    }

    /// Issue `n` turns outside the measured phase, then start a fresh
    /// tally. Returns their timing (part of set-up).
    pub fn warm_up(&mut self, n: usize, host: &mut HostLog) -> ClosedLoop {
        let mut warm = ClosedLoop::default();
        warm.run(self, n as u64, host);
        self.tally = Tally::new();
        warm
    }

    /// One user turn: search, simulated clicks, observe. Each phase
    /// boundary is marked in `host`.
    pub fn turn(&mut self, host: &mut HostLog) -> TurnTimes {
        let req = self.stream.next_request();
        self.seq += 1;
        let seq = self.seq;
        let capture = self.tracing.as_ref().is_some_and(|t| {
            seq.is_multiple_of(t.capture_every) && t.captures.len() < t.max_captures
        });
        if capture {
            spans::arm_pool_capture();
        }
        let rec = self.tracing.as_ref().map(|t| Arc::clone(&t.rec));
        let rec = rec.as_deref();

        let search_start = host.mark();
        let open = rec.map(|r| r.begin_request(seq));
        let resp = self.engine.search_with(req.user, &req.text, SearchBudget::none());
        if let (Some(r), Some(o)) = (rec, open) {
            r.end_request("serve.search", o, seq);
        }
        let search_end = host.mark();
        self.tally.searches += 1;
        let turn = match resp {
            Ok(resp) => {
                if resp.is_degraded() {
                    self.tally.degraded += 1;
                }
                resp.turn
            }
            Err(_) => {
                self.tally.shed += 1;
                return TurnTimes { search_start, search_end, observe_end: search_end };
            }
        };
        self.tally.check_page(req.user, &req.text, &turn.hits, self.top_k);

        let sim_start = Instant::now();
        let mut impression = self
            .clicks
            .issue_on_hits(req.sim_user, req.query, req.intent, &req.text, &turn.hits)
            .impression;
        impression.user = req.user;
        self.tally.sim_nanos += sim_start.elapsed().as_nanos() as u64;

        let open = rec.map(|r| r.begin_request(seq));
        self.engine.observe(&turn, &impression);
        if let (Some(r), Some(o)) = (rec, open) {
            r.end_request("serve.observe", o, seq);
        }
        let observe_end = host.mark();
        self.tally.observes += 1;

        if capture {
            self.capture(&req, &turn);
        }
        TurnTimes { search_start, search_end, observe_end }
    }

    fn capture(&mut self, req: &Request, turn: &SearchTurn) {
        let started = Instant::now();
        let tracing = self.tracing.as_mut().expect("capture only runs traced");
        let was_on = tracing.rec.recording();
        tracing.rec.set_recording(false);
        let k = self.engine.config().rerank_pool;
        // A cache hit never reached the index; fetch the same pool
        // directly, outside any request span.
        let tokens = self.world.engine.analyze_text(&req.text);
        let pool = spans::take_pool_capture(&tokens)
            .unwrap_or_else(|| self.world.engine.search_tokens(&tokens, k));
        if let Some(state) = self.engine.user_state(req.user) {
            tracing.captures.push(Capture {
                user: req.user,
                query: req.text.clone(),
                pool,
                page: turn.hits.clone(),
                state,
                stats: self.engine.query_stats(&req.text),
            });
        }
        tracing.rec.set_recording(was_on);
        tracing.capture_nanos += started.elapsed().as_nanos() as u64;
    }

    /// Every empty page must come from an empty base pool.
    pub fn empty_pages_justified(&self) -> bool {
        let k = self.engine.config().rerank_pool;
        self.tally.empty_pages.iter().all(|text| self.world.engine.search(text, k).is_empty())
    }
}

/// One stretch of closed-loop turns between two probe readings.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Start and end, in seconds of the run's [`HostLog`].
    pub start: f64,
    pub end: f64,
    /// Seconds the dispatcher spent runnable but waiting for a CPU.
    pub wait: f64,
    /// Process CPU seconds (every thread) over the batch.
    pub cpu: f64,
}

/// Closed-loop measurements, accumulated over slices of the run.
#[derive(Default)]
pub struct ClosedLoop {
    pub ops: u64,
    pub elapsed: f64,
    pub cpu_seconds: f64,
    pub batches: Vec<Batch>,
}

impl ClosedLoop {
    /// One slice: `turns` turns back to back, with a probe reading
    /// between batches of them (outside the timed batches). A fixed
    /// count, so the state the engine builds does not depend on the
    /// host's speed.
    pub fn run(&mut self, session: &mut Session, turns: u64, host: &mut HostLog) {
        let mut left = turns;
        while left > 0 {
            let ops0 = session.tally.ops();
            let cpu0 = crate::stats::process_cpu_seconds();
            let t0 = host.mark();
            loop {
                session.turn(host);
                left -= 1;
                if left == 0 || host.due() {
                    break;
                }
            }
            let t1 = host.mark();
            let cpu = crate::stats::process_cpu_seconds() - cpu0;
            let ops = session.tally.ops() - ops0;
            self.ops += ops;
            self.elapsed += (t1 - t0).as_secs_f64();
            self.cpu_seconds += cpu;
            let (start, end) = (host.secs(t0), host.secs(t1));
            let wait = host.run_delay_ms(start, end) / 1e3;
            self.batches.push(Batch { start, end, wait, cpu });
            host.sample();
        }
    }

    /// Seconds the batches took, less the dispatcher's waits for a CPU,
    /// each scaled to the reference host speed.
    pub fn scaled_secs(&self, host: &HostLog) -> f64 {
        self.batches.iter().map(|b| (b.end - b.start - b.wait) * host_scale(host, b)).sum()
    }

    /// Seconds the dispatcher spent runnable but waiting for a CPU.
    pub fn wait_secs(&self) -> f64 {
        self.batches.iter().map(|b| b.wait).sum()
    }

    /// CPU seconds of the batches, each scaled to the reference host speed.
    pub fn scaled_cpu(&self, host: &HostLog) -> f64 {
        self.batches.iter().map(|b| b.cpu * host_scale(host, b)).sum()
    }
}

fn host_scale(host: &HostLog, b: &Batch) -> f64 {
    crate::probe::REFERENCE_MS / host.ms_around(b.start, b.end)
}

const ARRIVAL_SALT: u64 = 0xA771_7A15_0000_0003;

/// Open-loop measurements in milliseconds, accumulated over slices.
/// Searches arrive on one seeded Poisson schedule at `rate` per second
/// that continues across slices; each search's observe is due when the
/// search completes.
pub struct OpenLoop {
    rate: f64,
    rng: StdRng,
    pub search_ms: Vec<f64>,
    pub observe_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub wake_late_ms: Vec<f64>,
    /// Due time of each search, in seconds of the run's [`HostLog`].
    pub due_s: Vec<f64>,
    pub ops: u64,
}

impl OpenLoop {
    pub fn new(rate: f64, seed: u64) -> Self {
        OpenLoop {
            rate,
            rng: StdRng::seed_from_u64(seed ^ ARRIVAL_SALT),
            search_ms: Vec::new(),
            observe_ms: Vec::new(),
            queue_wait_ms: Vec::new(),
            wake_late_ms: Vec::new(),
            due_s: Vec::new(),
            ops: 0,
        }
    }

    fn gap(&mut self) -> Duration {
        let u: f64 = self.rng.gen();
        Duration::from_secs_f64(-(1.0 - u).ln() / self.rate)
    }

    /// One slice of `duration`: sleep until each due time (never spin),
    /// then serve the turn. Probe readings go into the idle gaps, only
    /// where they end well before the next due time.
    pub fn run(&mut self, session: &mut Session, duration: Duration, host: &mut HostLog) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let ops0 = session.tally.ops();
        let start = Instant::now();
        let mut offset = self.gap();
        while offset < duration {
            let due = start + offset;
            if due.saturating_duration_since(Instant::now()) > PROBE_HEADROOM && host.due() {
                host.sample();
            }
            let now = host.mark();
            if due > now {
                std::thread::sleep(due - now);
                self.wake_late_ms.push(ms(Instant::now().saturating_duration_since(due)));
            }
            let t = session.turn(host);
            self.due_s.push(host.secs(due));
            self.queue_wait_ms.push(ms(t.search_start.saturating_duration_since(due)));
            self.search_ms.push(ms(t.search_end.saturating_duration_since(due)));
            self.observe_ms.push(ms(t.observe_end.saturating_duration_since(t.search_end)));
            offset += self.gap();
        }
        self.ops += session.tally.ops() - ops0;
    }
}

/// A probe reading in the open loop must leave at least this much
/// time before the next search is due.
const PROBE_HEADROOM: Duration = Duration::from_millis(3);
