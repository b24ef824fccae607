//! Metric names and units, the result line, and the smoke mode.

use std::path::Path;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("capacity_rps", "ops/s"),
    ("search_p50_ms", "ms"),
    ("observe_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.search_ms_mean", "ms"),
    ("serve.search_self_ms_mean", "ms"),
    ("serve.observe_ms_mean", "ms"),
    ("serve.observe_self_ms_mean", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.search_p99_ms", "ms"),
    ("serve.observe_p99_ms", "ms"),
    ("serve.retrieval_cache_hit_ratio", "ratio"),
    ("serve.retrieval_cache_evict_per_search", "1/search"),
    ("core.retrievals_per_search", "1/search"),
    ("core.index_calls_per_search", "1/search"),
    ("core.concept_memo_hit_ratio", "ratio"),
    ("index.search_ms_mean", "ms"),
    ("index.search_ms_p99", "ms"),
    ("index.score_docs_ms_mean", "ms"),
    ("index.busy_share", "share"),
    ("concepts.extract_pool_ms_mean", "ms"),
    ("concepts.extract_page_ms_mean", "ms"),
    ("concepts.busy_share_est", "share"),
    ("profile.features_ms_mean", "ms"),
    ("ranksvm.rank_us_mean", "us"),
    ("ranksvm.train_ms_mean", "ms"),
    ("ranksvm.trains_per_observe", "1/observe"),
    ("entropy.beta_us_mean", "us"),
    ("store.io_read_ms_mean", "ms"),
    ("store.io_write_ms_mean", "ms"),
    ("store.io_sync_ms_mean", "ms"),
    ("store.io_sync_ms_p99", "ms"),
    ("store.sync_on_request_path_share", "share"),
    ("store.fault_in_per_search", "1/search"),
    ("store.evict_per_search", "1/search"),
    ("store.writeback_per_observe", "1/observe"),
    ("store.backpressure_count", "count"),
    ("store.retry_count", "count"),
    ("store.encode_us_mean", "us"),
    ("store.decode_us_mean", "us"),
    ("store.record_bytes_mean", "B"),
    ("bench.wake_late_ms_p99", "ms"),
    ("bench.sim_us_mean", "us"),
    ("bench.trace_overhead_share", "share"),
    ("bench.unexplained_share", "share"),
];

/// One run's result.
pub struct Report {
    workload: &'static str,
    traced: bool,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Every output check passed, and the metrics are exactly the
    /// table's, each a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics_complete()
    }

    fn metrics_complete(&self) -> bool {
        let names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = self.table().iter().map(|(n, _)| *n).collect();
        names == want && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    fn unit(&self, name: &str) -> &'static str {
        self.table().iter().find(|(n, _)| *n == name).map_or("?", |(_, u)| u)
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", self.unit(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print(&self) {
        let mode = if self.traced { "traced (per-layer)" } else { "end-to-end" };
        println!("servebench {} — {mode}", self.workload);
        for line in &self.notes {
            println!("  {line}");
        }
        for (what, ok) in &self.checks {
            println!("  check {:<4} {what}", if *ok { "ok" } else { "FAIL" });
        }
        for (name, v) in &self.metrics {
            println!("  {name:<40} {v:>14.4} {}", self.unit(name));
        }
        println!("  ops attempted {}  failed {}", self.attempted, self.failed);
        println!("{}", self.json());
    }
}

/// Store failures so far: `serve.state_io_error` (every exhausted retry
/// also counts `serve.store.retry_exhausted`, so the larger of the two
/// is the number of failed store operations).
pub fn failure_counters() -> u64 {
    let io = pws_obs::stage("serve.state_io_error").count();
    let exhausted = pws_obs::stage("serve.store.retry_exhausted").count();
    io.max(exhausted)
}

/// `UserStore::scrub` over a flushed store finds records and nothing
/// to quarantine, skip or sweep.
pub fn scrub_clean(dir: &Path) -> bool {
    match pws_store::UserStore::open(dir).and_then(|s| s.scrub()) {
        Ok(report) => report.is_clean() && report.ok > 0,
        Err(_) => false,
    }
}

/// A JSON value of the vendored serde tree, for reading BENCHMARK.json.
struct Raw(serde::Value);

impl serde::Deserialize for Raw {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Raw(v.clone()))
    }
}

/// `(name, unit)` pairs of one metric section of BENCHMARK.json.
fn declared(section: &str) -> Option<Vec<(String, String)>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).ok()?;
    let Raw(root) = serde_json::from_str::<Raw>(&text).ok()?;
    let serde::Value::Array(items) = root.get(section)? else { return None };
    let str_of = |v: Option<&serde::Value>| match v {
        Some(serde::Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    items.iter().map(|m| Some((str_of(m.get("name"))?, str_of(m.get("unit"))?))).collect()
}

/// Tiny runs of every workload, untraced and traced, on the small
/// world: every output check must pass, no op may fail, and the printed
/// metric names and units must match the tables and BENCHMARK.json.
pub fn smoke() -> i32 {
    let mut ok = true;
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, String)> =
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        match declared(section) {
            Some(got) if got == want => println!("smoke ok   BENCHMARK.json {section} matches"),
            Some(_) => {
                println!("smoke FAIL BENCHMARK.json {section} differs from the benchmark's table");
                ok = false;
            }
            None => {
                println!("smoke FAIL BENCHMARK.json {section} unreadable");
                ok = false;
            }
        }
    }
    for spec in &crate::workload::WORKLOADS {
        for traced in [false, true] {
            let r = if traced {
                crate::traced::run(spec, 7, 2.0, true)
            } else {
                crate::run_untraced(spec, 7, 2.0, true)
            };
            let pass = r.correct() && r.failed == 0 && r.attempted > 0;
            println!(
                "smoke {} {} trace={} attempted={} failed={}",
                if pass { "ok  " } else { "FAIL" },
                spec.name,
                traced as u8,
                r.attempted,
                r.failed
            );
            if !pass {
                r.print();
                ok = false;
            }
        }
    }
    if ok {
        0
    } else {
        1
    }
}
