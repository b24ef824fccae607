//! A fixed host-speed probe, timed beside the program's work.
//!
//! The probe is the benchmark's own code, so its work stays the same
//! whatever the program does: it reads how fast the host runs right now
//! (and, a little, the cache state the last turn left; see README.md).
//! It does what most of a search does — hashing short strings into a map
//! that grows, float arithmetic, allocating and sorting — and takes a few
//! tenths of a millisecond. Over windows of a few hundred milliseconds
//! its time tracks the program's own turn time with a slope near 1 (see
//! README.md), which a compute loop or a pointer chase over a large
//! buffer did not.
//!
//! Beside it, the dispatcher's run-queue delay (time runnable but not
//! running) is marked at every phase boundary and taken out of every
//! timing, since the probe cannot see time in which no CPU was free.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The probe's time on a quiet host: about its lower quartile when the
/// benchmark was written. Scaled timings read as if the host always ran
/// at this speed.
pub const REFERENCE_MS: f64 = 0.4;

struct ProbeData {
    words: Vec<String>,
    floats: Vec<f64>,
}

fn data() -> &'static ProbeData {
    static DATA: OnceLock<ProbeData> = OnceLock::new();
    DATA.get_or_init(|| {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let words = (0..3_000).map(|_| format!("term{:x}", rnd() % 1_000)).collect();
        let floats = (0..3_000).map(|_| (rnd() % 1_000_000) as f64 / 7.0).collect();
        ProbeData { words, floats }
    })
}

/// Milliseconds one pass of the probe takes now.
pub fn probe_ms() -> f64 {
    let d = data();
    let t = Instant::now();
    // Fixed hash keys: every process probes the same table layout.
    let mut counts: HashMap<&str, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (w, f) in d.words.iter().zip(&d.floats) {
        *counts.entry(w.as_str()).or_default() += f.sqrt().ln_1p();
    }
    let mut f = d.floats.clone();
    f.sort_by(f64::total_cmp);
    black_box((counts.len(), f[0]));
    t.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds the calling thread has spent runnable but waiting for a
/// CPU since it started: the second field of
/// `/proc/thread-self/schedstat`. That is time other threads took from
/// it — other processes on the host, or the program's own writeback
/// daemon when no second CPU was free. 0 where the file is missing.
pub fn thread_run_delay_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e6)
}

/// Probe readings and run-queue delay marks of one run, each stamped
/// with when it was taken.
pub struct HostLog {
    t0: Instant,
    last: f64,
    /// `(seconds since the log began, probe milliseconds)`.
    pub samples: Vec<(f64, f64)>,
    /// `(seconds since the log began, the dispatcher's total run-queue
    /// delay in milliseconds)`, taken at every [`HostLog::mark`].
    marks: Vec<(f64, f64)>,
}

/// Least time between two probe readings of a running phase.
pub const PROBE_EVERY_S: f64 = 0.015;

/// Readings taken together on either side of a phase that has no
/// readings of its own inside.
const SETTLE_READINGS: usize = 3;

/// Readings this close to an interval count as taken during it.
const AROUND_S: f64 = 0.03;

impl HostLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        data();
        HostLog {
            t0: Instant::now(),
            last: f64::NEG_INFINITY,
            samples: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Seconds from the log's start to `t`.
    pub fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Take a reading now, less any time the probe waited for a CPU.
    pub fn sample(&mut self) {
        let delay = thread_run_delay_ms();
        let ms = probe_ms() - (thread_run_delay_ms() - delay);
        let at = self.secs(Instant::now());
        self.last = at;
        self.samples.push((at, ms));
    }

    /// Take [`SETTLE_READINGS`] readings now. The first reading after
    /// other work (a world build, a teardown) runs with the probe's data
    /// out of cache and can take several times as long; the median over
    /// an interval's readings then ignores it.
    pub fn sample_settled(&mut self) {
        for _ in 0..SETTLE_READINGS {
            self.sample();
        }
    }

    /// Note the calling thread's run-queue delay now; returns the time
    /// of the mark. The dispatcher marks every phase boundary.
    pub fn mark(&mut self) -> Instant {
        let delay = thread_run_delay_ms();
        let now = Instant::now();
        self.marks.push((self.secs(now), delay));
        now
    }

    /// Milliseconds of run-queue delay the dispatcher had over `[a, b]`
    /// (seconds of this log), interpolated between marks.
    pub fn run_delay_ms(&self, a: f64, b: f64) -> f64 {
        (self.delay_at(b) - self.delay_at(a)).max(0.0)
    }

    fn delay_at(&self, t: f64) -> f64 {
        let i = self.marks.partition_point(|m| m.0 <= t);
        match (i.checked_sub(1).map(|j| self.marks[j]), self.marks.get(i)) {
            (Some(x), Some(y)) if y.0 > x.0 => x.1 + (y.1 - x.1) * (t - x.0) / (y.0 - x.0),
            (Some(x), _) => x.1,
            (None, Some(y)) => y.1,
            (None, None) => 0.0,
        }
    }

    /// The last reading is older than [`PROBE_EVERY_S`].
    pub fn due(&self) -> bool {
        self.secs(Instant::now()) - self.last >= PROBE_EVERY_S
    }

    /// Median probe reading over `[a, b]` (seconds of this log), padded
    /// by [`AROUND_S`]; the nearest reading when none falls there.
    pub fn ms_around(&self, a: f64, b: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < a - AROUND_S);
        let hi = self.samples.partition_point(|s| s.0 <= b + AROUND_S);
        if lo < hi {
            let within: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
            return crate::stats::median(&within);
        }
        // No reading inside: the nearest one on either side.
        let before = lo.checked_sub(1).map(|i| self.samples[i]);
        let after = self.samples.get(lo).copied();
        match (before, after) {
            (Some(x), Some(y)) => {
                if a - x.0 <= y.0 - b {
                    x.1
                } else {
                    y.1
                }
            }
            (Some(x), None) | (None, Some(x)) => x.1,
            (None, None) => f64::NAN,
        }
    }
}
