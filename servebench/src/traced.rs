//! The traced run: the per-layer metrics.
//!
//! 1. Engine A serves a fixed number of turns of the request stream
//!    closed-loop through the plain index — the untraced reference.
//! 2. Engine B serves the same turns through the timing wrappers
//!    ([`crate::spans`]), capturing layer inputs every few turns, then
//!    an open-loop phase at the workload's rate. Its page digest must
//!    equal A's; the wall-time difference is the tracing overhead.
//! 3. The captured inputs are replayed through the layers' public
//!    functions ([`crate::replay`]).

use crate::load::{self, ClosedLoop, OpenLoop, Session, Tracing};
use crate::probe::HostLog;
use crate::report::{self, Report};
use crate::spans::{Recorder, Span, TimedBackend, TimedIo};
use crate::stats::{mean, percentile, ratio};
use crate::workload::Workload;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Captures kept for the replays.
const MAX_CAPTURES: usize = 48;
/// Store records replayed through the timed I/O on workloads without a
/// store tier.
const STORE_REPLAY_RECORDS: usize = 16;

/// Program counters read around the measured phase.
const COUNTERS: &[&str] = &[
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.cache.evict",
    "engine.concepts.memo_hit",
    "engine.concepts.memo_miss",
    "ranksvm.train",
    "serve.store.fault_in",
    "serve.store.evict",
    "serve.store.writeback",
    "serve.store.backpressure",
    "serve.store.retry",
];

fn timed_io(rec: &Arc<Recorder>) -> Arc<dyn pws_store::StoreIo> {
    Arc::new(TimedIo { rec: rec.clone() })
}

fn counters() -> HashMap<&'static str, f64> {
    COUNTERS.iter().map(|n| (*n, pws_obs::stage(n).count() as f64)).collect()
}

pub fn run(spec: &'static Workload, seed: u64, seconds: f64, small: bool) -> Report {
    let world = load::build_world(small);
    let mut host = HostLog::new();
    let warm = crate::warmup_turns(small);
    // Each reference pass serves the untraced run's closed-loop turns.
    let turns = crate::closed_turns(spec, seconds);
    let mut r = Report::new(spec.name, true);
    let failures_before = report::failure_counters();

    // ── A: untraced reference ────────────────────────────────────────
    let dir_a = load::fresh_store_dir("trace-a");
    let (tally_a, secs_a, scaled_a, justified_a) = {
        let engine = load::engine(&world, &world.engine, spec, &dir_a, None);
        let mut s = Session::new(&engine, &world, spec, seed);
        s.warm_up(warm, &mut host);
        let mut c = ClosedLoop::default();
        c.run(&mut s, turns, &mut host);
        (s.tally.clone(), c.elapsed, c.scaled_secs(&host), s.empty_pages_justified())
    };
    let _ = std::fs::remove_dir_all(&dir_a);

    // ── B: traced, same turns, then the open loop ────────────────────
    let rec = Arc::new(Recorder::new(MAX_CAPTURES));
    let backend = TimedBackend { inner: &world.engine, rec: &rec };
    let dir_b = load::fresh_store_dir("trace-b");
    let engine = load::engine(&world, &backend, spec, &dir_b, Some(timed_io(&rec)));
    let mut s = Session::new(&engine, &world, spec, seed);
    s.warm_up(warm, &mut host);
    s.tracing = Some(Tracing {
        rec: rec.clone(),
        capture_every: (turns / MAX_CAPTURES as u64).max(1),
        max_captures: MAX_CAPTURES,
        captures: Vec::new(),
        capture_nanos: 0,
    });
    let c0 = counters();
    rec.set_recording(true);
    let mut closed_b = ClosedLoop::default();
    closed_b.run(&mut s, turns, &mut host);
    let digest_b = s.tally.digest;
    let open_secs = seconds * (1.0 - crate::CLOSED_SHARE);
    let mut open = OpenLoop::new(spec.open_rate, seed);
    open.run(&mut s, Duration::from_secs_f64(open_secs), &mut host);
    rec.set_recording(false);
    let c1 = counters();
    let delta = |name: &str| c1[name] - c0[name];
    let spans = rec.take_spans();
    let written = rec.take_written();
    let tracing = s.tracing.take().expect("tracing was set");
    let tally_b = s.tally.clone();
    let justified_b = s.empty_pages_justified();
    drop(s);
    let capture_secs = tracing.capture_nanos as f64 / 1e9;
    if spec.store {
        engine.flush_store();
    }
    drop(engine);
    let failures = report::failure_counters() - failures_before;

    r.check(
        "pages have ranks 1..n, no repeats, at most top_k",
        tally_a.bad_pages + tally_b.bad_pages == 0,
    );
    r.check("every empty page has an empty base pool", justified_a && justified_b);
    r.check("traced page digest equals the untraced one", tally_a.digest == digest_b);
    if spec.store {
        r.check("store scrub after flush reports clean", report::scrub_clean(&dir_b));
    }
    let _ = std::fs::remove_dir_all(&dir_b);
    r.attempted = tally_a.ops() + tally_b.ops();
    r.failed = tally_a.degraded + tally_a.shed + tally_b.degraded + tally_b.shed + failures;

    // ── Replays ──────────────────────────────────────────────────────
    let replayed = crate::replay::run(&world, &tracing.captures, &written);
    // Without a store tier no I/O happened in situ: time the store
    // layer by replaying the captured records through the same timed I/O.
    let store_spans = if spec.store {
        spans.clone()
    } else {
        let dir = load::fresh_store_dir("replay");
        rec.set_recording(true);
        if let Ok(store) = pws_store::UserStore::open_with_io(&dir, timed_io(&rec)) {
            for record in replayed.records.iter().take(STORE_REPLAY_RECORDS) {
                let _ = store.put(record).and_then(|()| store.get(record.user));
            }
        }
        rec.set_recording(false);
        let _ = std::fs::remove_dir_all(&dir);
        rec.take_spans()
    };
    let dump = load::run_dir().join(format!("spans-{}.tsv", spec.name));
    if let Err(e) = Recorder::write_tsv(&spans, &dump) {
        eprintln!("warn: could not write {}: {e}", dump.display());
    }

    // ── Span arithmetic ──────────────────────────────────────────────
    let ms = |s: &Span| s.nanos() as f64 / 1e6;
    let by_name =
        |name: &str| -> Vec<f64> { spans.iter().filter(|s| s.name == name).map(ms).collect() };
    let request_kind: HashMap<u32, &str> =
        spans.iter().filter(|s| s.name.starts_with("serve.")).map(|s| (s.id, s.name)).collect();
    let mut child_ms: HashMap<u32, f64> = HashMap::new();
    let (mut index_in_search, mut store_in_search) = (0.0, 0.0);
    for s in spans.iter() {
        let Some(p) = s.parent else { continue };
        *child_ms.entry(p).or_default() += ms(s);
        if request_kind.get(&p) == Some(&"serve.search") {
            if s.name.starts_with("index.") {
                index_in_search += ms(s);
            } else {
                store_in_search += ms(s);
            }
        }
    }
    let self_ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s) - child_ms.get(&s.id).copied().unwrap_or(0.0))
            .collect()
    };
    let search_ms = by_name("serve.search");
    let search_total: f64 = search_ms.iter().fold(0.0, |a, b| a + b);
    let index_search = by_name("index.search");
    let io = |name: &str| -> Vec<f64> {
        store_spans.iter().filter(|s| s.name == name).map(ms).collect()
    };
    let sync = io("store.sync");
    let sync_total: f64 = sync.iter().fold(0.0, |a, b| a + b);
    let sync_on_path: f64 = store_spans
        .iter()
        .filter(|s| s.name == "store.sync" && s.parent.is_some())
        .map(ms)
        .fold(0.0, |a, b| a + b);

    let searches = tally_b.searches as f64;
    let observes = tally_b.observes as f64;
    let (hits, misses) = (delta("serve.cache.hit"), delta("serve.cache.miss"));
    let (memo_hit, memo_miss) =
        (delta("engine.concepts.memo_hit"), delta("engine.concepts.memo_miss"));
    // Every search extracts concepts over its page; personalized ones
    // also over the pool first.
    let page_calls = searches;
    let pool_calls = (memo_hit + memo_miss - searches).max(0.0);
    let extract_mean = ratio(
        pool_calls * replayed.extract_pool_ms + page_calls * replayed.extract_page_ms,
        pool_calls + page_calls,
    );
    let concepts_est =
        ratio(memo_miss, memo_hit + memo_miss) * (pool_calls + page_calls) * extract_mean;
    let explained = index_in_search
        + store_in_search
        + concepts_est
        + pool_calls * replayed.features_ms
        + searches * (replayed.rank_us + replayed.beta_us) / 1e3;
    // Both passes scaled to the reference host speed; the capture work
    // is taken out of B in proportion.
    let capture_share = ratio(capture_secs, closed_b.elapsed);
    let overhead = ratio(closed_b.scaled_secs(&host) * (1.0 - capture_share), scaled_a) - 1.0;

    r.note(format!(
        "reference turns {turns} per pass: untraced {secs_a:.3}s, traced {:.3}s (capture {capture_secs:.3}s excluded)",
        closed_b.elapsed
    ));
    r.note(format!(
        "open loop {:.1}s at {}/s: {} searches; spans {} written to {}",
        open_secs,
        spec.open_rate,
        open.search_ms.len(),
        spans.len(),
        dump.display()
    ));
    r.note(format!(
        "replayed {} captures, {} store records; tracing overhead {:+.1}% (host-scaled); unexplained search time {:.1}%",
        tracing.captures.len(),
        replayed.records.len(),
        overhead * 100.0,
        (1.0 - ratio(explained, search_total)) * 100.0
    ));

    r.metric("serve.search_ms_mean", mean(&search_ms));
    r.metric("serve.search_self_ms_mean", mean(&self_ms("serve.search")));
    r.metric("serve.observe_ms_mean", mean(&by_name("serve.observe")));
    r.metric("serve.observe_self_ms_mean", mean(&self_ms("serve.observe")));
    r.metric("serve.queue_wait_ms_p50", percentile(&open.queue_wait_ms, 0.50));
    r.metric("serve.queue_wait_ms_p99", percentile(&open.queue_wait_ms, 0.99));
    r.metric("serve.search_p99_ms", percentile(&open.search_ms, 0.99));
    r.metric("serve.observe_p99_ms", percentile(&open.observe_ms, 0.99));
    r.metric("serve.retrieval_cache_hit_ratio", ratio(hits, hits + misses));
    r.metric("serve.retrieval_cache_evict_per_search", ratio(delta("serve.cache.evict"), searches));
    r.metric("core.retrievals_per_search", ratio(by_name("index.analyze").len() as f64, searches));
    r.metric("core.index_calls_per_search", ratio(index_search.len() as f64, searches));
    r.metric("core.concept_memo_hit_ratio", ratio(memo_hit, memo_hit + memo_miss));
    r.metric("index.search_ms_mean", mean(&index_search));
    r.metric("index.search_ms_p99", percentile(&index_search, 0.99));
    r.metric("index.score_docs_ms_mean", mean(&by_name("index.score_docs")));
    r.metric("index.busy_share", ratio(index_in_search, search_total));
    r.metric("concepts.extract_pool_ms_mean", replayed.extract_pool_ms);
    r.metric("concepts.extract_page_ms_mean", replayed.extract_page_ms);
    r.metric("concepts.busy_share_est", ratio(concepts_est, search_total));
    r.metric("profile.features_ms_mean", replayed.features_ms);
    r.metric("ranksvm.rank_us_mean", replayed.rank_us);
    r.metric("ranksvm.train_ms_mean", replayed.train_ms);
    r.metric("ranksvm.trains_per_observe", ratio(delta("ranksvm.train"), observes));
    r.metric("entropy.beta_us_mean", replayed.beta_us);
    r.metric("store.io_read_ms_mean", mean(&io("store.read")));
    r.metric("store.io_write_ms_mean", mean(&io("store.write")));
    r.metric("store.io_sync_ms_mean", mean(&sync));
    r.metric("store.io_sync_ms_p99", percentile(&sync, 0.99));
    r.metric("store.sync_on_request_path_share", ratio(sync_on_path, sync_total));
    r.metric("store.fault_in_per_search", ratio(delta("serve.store.fault_in"), searches));
    r.metric("store.evict_per_search", ratio(delta("serve.store.evict"), searches));
    r.metric("store.writeback_per_observe", ratio(delta("serve.store.writeback"), observes));
    r.metric("store.backpressure_count", delta("serve.store.backpressure"));
    r.metric("store.retry_count", delta("serve.store.retry"));
    r.metric("store.encode_us_mean", replayed.encode_us);
    r.metric("store.decode_us_mean", replayed.decode_us);
    r.metric("store.record_bytes_mean", replayed.record_bytes);
    r.metric("bench.wake_late_ms_p99", percentile(&open.wake_late_ms, 0.99));
    r.metric("bench.sim_us_mean", ratio(tally_b.sim_nanos as f64 / 1e3, observes));
    r.metric("bench.trace_overhead_share", overhead);
    r.metric("bench.unexplained_share", 1.0 - ratio(explained, search_total));
    r
}
