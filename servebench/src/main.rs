//! Serving benchmark of `pws_serve::ServingEngine`: one user turn is a
//! search, simulated clicks, and an observe. See README.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload warm_repeat --seed 1 --seconds 26 --trace 0
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run of the same request stream. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod load;
mod probe;
mod replay;
mod report;
mod spans;
mod stats;
mod traced;
mod workload;

use load::{ClosedLoop, OpenLoop, Session};
use probe::HostLog;
use report::Report;
use std::time::Duration;
use workload::Workload;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Untimed turns issued at set-up so caches and profiles are warm.
const WARMUP_TURNS: usize = 300;
/// Share of `--seconds` meant for the closed loop; the open loop gets the rest.
pub(crate) const CLOSED_SHARE: f64 = 0.15;
/// The measured time alternates closed- and open-loop slices this many
/// times, so both phases sample the host over the whole run.
const ROUNDS: u32 = 24;
/// Closed-loop turns in the whole run: about `CLOSED_SHARE` of
/// `seconds` at the workload's expected turn rate. A count fixed by the
/// arguments, so every run of a seed serves the same requests.
pub(crate) fn closed_turns(spec: &Workload, seconds: f64) -> u64 {
    (seconds * CLOSED_SHARE * spec.turn_rate / ROUNDS as f64).ceil() as u64 * ROUNDS as u64
}

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        std::process::exit(report::smoke());
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: servebench --workload <warm_repeat|cold_tail|store_churn> \
                 --seed <n> --seconds <s> --trace <0|1>  |  servebench --smoke"
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, false)
    } else {
        run_untraced(args.workload, args.seed, args.seconds, false)
    };
    report.print();
}

/// Timings of one set-up, in seconds.
struct Setup {
    world: f64,
    engine: f64,
    warm: f64,
    /// World + engine + warm-up, each phase less run-queue delay and
    /// scaled to the reference host speed.
    scaled: f64,
}

impl Setup {
    fn raw(&self) -> f64 {
        self.world + self.engine + self.warm
    }
}

/// Time `f` with a probe reading on either side; returns its result,
/// its raw seconds and its seconds less run-queue delay at the reference
/// host speed.
fn timed_phase<T>(host: &mut HostLog, f: impl FnOnce() -> T) -> (T, f64, f64) {
    host.sample_settled();
    let t0 = host.mark();
    let out = f();
    let t1 = host.mark();
    host.sample_settled();
    let raw = (t1 - t0).as_secs_f64();
    let (a, b) = (host.secs(t0), host.secs(t1));
    let scale = probe::REFERENCE_MS / host.ms_around(a, b);
    (out, raw, (raw - host.run_delay_ms(a, b) / 1e3) * scale)
}

pub(crate) fn warmup_turns(small: bool) -> usize {
    if small {
        WARMUP_TURNS / 10
    } else {
        WARMUP_TURNS
    }
}

/// Build the world and a warmed-up engine, drop both.
fn setup_once(
    spec: &'static Workload,
    seed: u64,
    small: bool,
    rep: usize,
    host: &mut HostLog,
) -> Setup {
    let (world, world_s, world_scaled) = timed_phase(host, || load::build_world(small));
    let dir = load::fresh_store_dir(&format!("setup{rep}"));
    let (engine, engine_s, engine_scaled) =
        timed_phase(host, || load::engine(&world, &world.engine, spec, &dir, None));
    let warm = Session::new(&engine, &world, spec, seed).warm_up(warmup_turns(small), host);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Setup {
        world: world_s,
        engine: engine_s,
        warm: warm.elapsed,
        scaled: world_scaled + engine_scaled + warm.scaled_secs(host),
    }
}

/// The end-to-end run: set-up (repeated), closed loop, open loop.
pub(crate) fn run_untraced(
    spec: &'static Workload,
    seed: u64,
    seconds: f64,
    small: bool,
) -> Report {
    let mut host = HostLog::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for rep in 1..SETUP_REPEATS {
        setups.push(setup_once(spec, seed, small, rep, &mut host));
    }
    // The last set-up is kept and measured.
    let (world, world_s, world_scaled) = timed_phase(&mut host, || load::build_world(small));
    let dir = load::fresh_store_dir("measured");
    let (engine, engine_s, engine_scaled) =
        timed_phase(&mut host, || load::engine(&world, &world.engine, spec, &dir, None));
    let mut session = Session::new(&engine, &world, spec, seed);
    let warm = session.warm_up(warmup_turns(small), &mut host);
    setups.push(Setup {
        world: world_s,
        engine: engine_s,
        warm: warm.elapsed,
        scaled: world_scaled + engine_scaled + warm.scaled_secs(&host),
    });

    let failures_before = report::failure_counters();
    let closed_slice = closed_turns(spec, seconds) / ROUNDS as u64;
    let open_slice = Duration::from_secs_f64(seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64);
    let mut closed = ClosedLoop::default();
    let mut open = OpenLoop::new(spec.open_rate, seed);
    for _ in 0..ROUNDS {
        closed.run(&mut session, closed_slice, &mut host);
        open.run(&mut session, open_slice, &mut host);
    }
    let failures = report::failure_counters() - failures_before;

    let mut r = Report::new(spec.name, false);
    r.check("pages have ranks 1..n, no repeats, at most top_k", session.tally.bad_pages == 0);
    r.check("every empty page has an empty base pool", session.empty_pages_justified());
    let tally = session.tally.clone();
    drop(session);
    if spec.store {
        engine.flush_store();
    }
    drop(engine);
    if spec.store {
        r.check("store scrub after flush reports clean", report::scrub_clean(&dir));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Every search and observe less the dispatcher's run-queue delay
    // inside it, scaled by the host's speed around it.
    let adjusted = |ms: f64, a: f64, b: f64| {
        (ms - host.run_delay_ms(a, b)) * probe::REFERENCE_MS / host.ms_around(a, b)
    };
    let mut search_scaled = Vec::with_capacity(open.search_ms.len());
    let mut observe_scaled = Vec::with_capacity(open.search_ms.len());
    let mut open_delay_ms = 0.0;
    for i in 0..open.search_ms.len() {
        let due = open.due_s[i];
        let s = open.search_ms[i];
        let o = open.observe_ms[i];
        let (search_end, observe_end) = (due + s / 1e3, due + (s + o) / 1e3);
        search_scaled.push(adjusted(s, due, search_end));
        observe_scaled.push(adjusted(o, search_end, observe_end));
        open_delay_ms += host.run_delay_ms(due, observe_end);
    }
    let scaled_secs = closed.scaled_secs(&host);
    let probe_ms: Vec<f64> = host.samples.iter().map(|s| s.1).collect();

    r.attempted = tally.ops();
    r.failed = tally.degraded + tally.shed + failures;
    r.note(format!(
        "ops: closed {} in {:.2}s, open {} ({} searches at {}/s); degraded {} shed {} store failures {}",
        closed.ops,
        closed.elapsed,
        open.ops,
        open.search_ms.len(),
        spec.open_rate,
        tally.degraded,
        tally.shed,
        failures
    ));
    r.note(format!(
        "host probe: {} readings, median {:.4} ms, quartiles {:.4}..{:.4} ms (reference {} ms)",
        probe_ms.len(),
        stats::median(&probe_ms),
        stats::percentile(&probe_ms, 0.25),
        stats::percentile(&probe_ms, 0.75),
        probe::REFERENCE_MS
    ));
    r.note(format!(
        "dispatcher run-queue delay: {:.3}s of {:.2}s closed-loop time, {:.3}s inside open-loop turns",
        closed.wait_secs(),
        closed.elapsed,
        open_delay_ms / 1e3
    ));
    r.note(format!(
        "samples beyond p99: search {} of {}, observe {} of {}",
        stats::beyond(&search_scaled, 0.99),
        search_scaled.len(),
        stats::beyond(&observe_scaled, 0.99),
        observe_scaled.len()
    ));
    // The tails are printed but not bounded: on a shared host they move
    // with every stall of the machine (see README.md).
    r.note(format!(
        "search_p99_ms {:.4} ms, observe_p99_ms {:.4} ms (scaled; printed, not bounded)",
        stats::percentile(&search_scaled, 0.99),
        stats::percentile(&observe_scaled, 0.99)
    ));
    r.note(format!(
        "raw (unscaled): capacity {:.1} ops/s, cpu/op {:.1} us, search p50 {:.3} ms, p99 {:.3} ms, observe p50 {:.3} ms, setup median {:.3} s",
        stats::ratio(closed.ops as f64, closed.elapsed),
        stats::ratio(closed.cpu_seconds * 1e6, closed.ops as f64),
        stats::percentile(&open.search_ms, 0.50),
        stats::percentile(&open.search_ms, 0.99),
        stats::percentile(&open.observe_ms, 0.50),
        stats::median(&setups.iter().map(Setup::raw).collect::<Vec<_>>())
    ));
    for (i, s) in setups.iter().enumerate() {
        r.note(format!(
            "set-up {}: world {:.3}s, engine {:.3}s, warm-up {:.3}s; scaled total {:.3}s",
            i + 1,
            s.world,
            s.engine,
            s.warm,
            s.scaled
        ));
    }
    r.note(format!("page digest {:016x}", tally.digest));
    r.note(format!(
        "open-loop wake-up lateness p50 {:.3} ms, p99 {:.3} ms",
        stats::percentile(&open.wake_late_ms, 0.50),
        stats::percentile(&open.wake_late_ms, 0.99)
    ));

    r.metric("setup_s", stats::median(&setups.iter().map(|s| s.scaled).collect::<Vec<_>>()));
    r.metric("capacity_rps", stats::ratio(closed.ops as f64, scaled_secs));
    r.metric("search_p50_ms", stats::percentile(&search_scaled, 0.50));
    r.metric("observe_p50_ms", stats::percentile(&observe_scaled, 0.50));
    r.metric("cpu_us_per_op", stats::ratio(closed.scaled_cpu(&host) * 1e6, closed.ops as f64));
    r.metric("peak_rss_mb", stats::peak_rss_mb());
    r
}
