//! The run report: environment, human-readable lines, and the closing
//! JSON object.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::{Path, PathBuf};

/// End-to-end metrics, printed by every `--trace 0` run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run: (name, unit).
/// A metric that does not apply to a workload reads 0 and is listed on
/// the run's `n/a` line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.frame_bytes", "bytes"),
    ("serve.server_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.overloaded", "count"),
    ("metrics.record_ns", "ns"),
    ("core.snapshot_us", "us"),
    ("core.query_us", "us"),
    ("core.keyword_us", "us"),
    ("qcache.hit_ratio", "ratio"),
    ("qcache.invalidations", "count"),
    ("query.lint_us", "us"),
    ("query.plan_us", "us"),
    ("query.exec_us", "us"),
    ("query.rows_examined_per_row", "ratio"),
    ("storage.get_us", "us"),
    ("pager.hit_ratio", "ratio"),
    ("pager.file_reads_per_req", "reads/req"),
    ("pager.evictions", "count"),
    ("wal.bytes_per_row", "bytes"),
    ("wal.syncs_per_commit", "ratio"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("router.leg_us", "us"),
    ("router.point_overhead_us", "us"),
    ("router.fanout_overhead_us", "us"),
    ("unattributed_us", "us"),
    ("trace_overhead_pct", "%"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("open_ms", "ms"),
    ("space_amp", "ratio"),
    ("memory.rss_growth_per_10k", "MiB/10k-req"),
];

/// Where the benchmark keeps its files: `.bench_data/` at the root of
/// the checkout it was built in.
pub fn data_root() -> PathBuf {
    repo_root().join(".bench_data")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf).unwrap_or_default()
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted in the measured phases.
    pub attempted: u64,
    /// Requests that failed, were refused, or were answered wrongly.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(String, String)>,
    checks: Vec<(String, bool)>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add an informational `key value` line.
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Record the outcome of a verification beyond per-request answers.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// Every request answered correctly and every verification passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Record the environment block every report carries.
    pub fn environment(&mut self, args: &Args) {
        self.info("env.seed", args.seed);
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        self.info("env.nproc", nproc);
        self.info("env.profile", if cfg!(debug_assertions) { "debug" } else { "release" });
        self.info("env.seconds", args.seconds.as_secs());
        self.info("env.qcache_capacity", qcache_capacity());
        self.info("env.revision", revision());
    }

    /// Human-readable lines followed by the closing JSON line. Fails if
    /// a metric the mode must print is missing or not finite.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let mut out = String::new();
        for (k, v) in &self.info {
            let _ = writeln!(out, "# {k} {v}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "# check {} {what}", if *ok { "ok" } else { "FAILED" });
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "# error_rate {error_rate}");
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        let mut na = Vec::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if trace => {
                    na.push(*name);
                    0.0
                }
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            let _ = writeln!(out, "{name:<30} {value:>16.4} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        for (name, value) in &self.metrics {
            if !catalogue.iter().any(|(n, _)| n == name) {
                let _ = writeln!(out, "# also {name} {value}");
            }
        }
        if !na.is_empty() {
            let _ = writeln!(out, "# n/a (reported as 0): {}", na.join(" "));
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        Ok(out)
    }
}

/// Capacity of the façade's default query cache, probed by filling one.
fn qcache_capacity() -> usize {
    let mut cache = quarry_core::QueryCache::default();
    let empty = quarry_query::QueryResult { columns: Vec::new(), rows: Vec::new() };
    for i in 0..4096 {
        cache.put(i.to_string(), Vec::new(), empty.clone());
    }
    cache.stats().entries
}

/// The git revision when the checkout is a repository, and always a
/// digest of the sources the benchmark was built from.
fn revision() -> String {
    let root = repo_root();
    // The ceiling keeps git from answering for a repository that merely
    // encloses a checkout without one.
    let git = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    format!("git={git} sources-fnv64={:016x}", source_digest(&root))
}

/// FNV-1a over every `.rs` and `Cargo.toml` under `crates/` and
/// `perfbench/src`, in path order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
