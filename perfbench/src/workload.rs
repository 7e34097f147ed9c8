//! Pieces every workload shares: scratch directories, repeated set-up,
//! end-to-end metrics, the traced run's samplers and counters.

use crate::counting::{CountingBackend, IoCounters, IoSnapshot};
use crate::load::{Kind, LoopRun};
use crate::report::{data_root, Report};
use crate::stats::{median, percentile, Percentile, MIN_BEYOND};
use quarry_core::{DurabilityMode, Quarry, QuarryConfig};
use quarry_exec::{MetricsRegistry, MetricsSnapshot};
use quarry_storage::Database;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A scratch directory under `.bench_data/`, removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    /// A fresh directory named after the workload, the process and `tag`.
    pub fn new(workload: &str, tag: usize) -> Result<DataDir, String> {
        let p = data_root().join(format!("{workload}-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(DataDir(p))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `setup` `times` times (at least once), dropping all but the last
/// result, and return it with the median set-up time in seconds.
pub fn repeated_setup<S>(
    times: usize,
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let s = setup(i)?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((last.expect("at least one set-up ran"), median(&secs)))
}

/// A durable façade over `wal` with full durability (fsync per commit,
/// group-committed), optionally through a counting backend.
pub fn durable_quarry(wal: &Path, io: Option<&CountingBackend>) -> Result<Quarry, String> {
    let mut b = QuarryConfig::builder().wal_path(wal).durability(DurabilityMode::Full);
    if let Some(backend) = io {
        b = b.storage_backend(Arc::new(backend.clone()));
    }
    Quarry::new(b.build()).map_err(|e| format!("open {}: {e}", wal.display()))
}

/// A `/proc/self/status` field in MiB (0 when unreadable).
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Memory of the loaded system, read when set-up ends.
pub struct Memory {
    peak_mb: f64,
    rss_mb: f64,
}

impl Memory {
    /// Read `VmHWM` and `VmRSS` now.
    pub fn after_setup() -> Memory {
        Memory { peak_mb: status_mb("VmHWM:"), rss_mb: status_mb("VmRSS:") }
    }

    /// `peak_rss_mb` is the peak at the end of set-up: the loaded store,
    /// server and caches, before the benchmark's own sample buffers and
    /// before serving grows anything. Growth while serving is reported
    /// beside it.
    pub fn report(&self, r: &mut Report) {
        r.set("peak_rss_mb", self.peak_mb);
        r.info("rss_growth_mb_while_measuring", status_mb("VmRSS:") - self.rss_mb);
    }
}

/// Bytes of the store's WAL and checkpoint files.
pub fn store_bytes(wal: &Path) -> u64 {
    [wal.to_path_buf(), wal.with_extension("ckpt")]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Encoded size of a row: the user bytes `space_amp` divides by.
pub fn row_bytes(row: &[quarry_storage::Value]) -> u64 {
    let mut buf = Vec::new();
    quarry_storage::codec::write_row(&mut buf, row).expect("rows of benchmark values encode");
    buf.len() as u64
}

/// Time slices a measured window is cut into. Throughput is the median
/// of the slices' rates and a latency percentile the median of the
/// slices' percentiles, on every workload alike. Medians keep a burst of
/// host noise in one slice from moving a run's figures.
pub const SLICES: usize = 10;

/// A latency percentile in µs of `kind` over `run`: the median of the
/// [`SLICES`] slices' nearest-rank percentiles. Prints a flag when a
/// slice has fewer than ten samples beyond its percentile.
fn latency_us<G, C>(label: &str, run: &LoopRun<G, C>, kind: Kind, q: f64) -> f64 {
    let slices: Vec<Percentile> =
        run.slice_latencies(kind, SLICES).iter().filter_map(|s| percentile(s, q)).collect();
    if let Some(thin) = slices.iter().filter(|p| !p.supported()).map(|p| p.beyond).min() {
        println!(
            "# flag {label}: p{} of a slice rests on {thin} samples beyond it (< {MIN_BEYOND})",
            q * 100.0
        );
    }
    let values: Vec<f64> = slices.iter().map(|p| p.value as f64 / 1e3).collect();
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
    println!("# slices {label} {}", shown.join(" "));
    median(&values)
}

/// Attempts, failures and the end-to-end metrics of a measured loop.
pub fn end_to_end<G, C>(r: &mut Report, run: &LoopRun<G, C>, setup_s: f64) {
    let reads = run.latencies(Kind::Read);
    r.attempted += run.samples().count() as u64;
    r.failed += run.failed();
    r.set("throughput_rps", median(&run.slice_rates(SLICES)));
    r.set("latency_p50_us", latency_us("latency_p50_us", run, Kind::Read, 0.50));
    r.set("latency_p95_us", latency_us("latency_p95_us", run, Kind::Read, 0.95));
    // Printed on an `# also` line: on a shared 2-CPU host the 99th
    // percentile follows the neighbours' scheduling more than the
    // program, so it is reported but not a bounded metric.
    r.set("latency_p99_us", latency_us("latency_p99_us", run, Kind::Read, 0.99));
    r.set("setup_s", setup_s);
    r.info("reads", reads.len());
    r.info("requests", run.samples().count());
    r.info("wall_s", run.wall.as_secs_f64());
    r.info("mean_rps", run.throughput());
    let rates: Vec<String> = run.slice_rates(SLICES).iter().map(|r| format!("{r:.0}")).collect();
    r.info("slice_rps", rates.join(" "));
    let overloaded = run.samples().filter(|s| s.overloaded).count();
    r.info("overloaded", overloaded);
}

/// Write latency percentiles of a measured loop.
pub fn write_latency<G, C>(r: &mut Report, run: &LoopRun<G, C>) {
    let writes = run.latencies(Kind::Write);
    r.info("writes", writes.len());
    r.set("write_p50_us", latency_us("write_p50_us", run, Kind::Write, 0.50));
    r.set("write_p99_us", latency_us("write_p99_us", run, Kind::Write, 0.99));
}

/// `metrics.record_ns`: ns per `incr` + `observe` pair on `registry`,
/// with two threads calling, as the serve path does per request.
pub fn metrics_record_ns(registry: &MetricsRegistry) -> f64 {
    const PAIRS: u64 = 200_000;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for i in 0..PAIRS {
                    registry.incr("server.requests", 1);
                    registry.observe("server.request_us", Duration::from_nanos(i % 4096));
                }
            });
        }
    });
    // Two threads ran PAIRS each over the same wall time.
    t0.elapsed().as_nanos() as f64 / PAIRS as f64
}

/// Sum of a counter over a node's metrics, or over every `shardN.`
/// prefix of a router's merged metrics.
pub fn counter_sum(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counters
        .iter()
        .filter(|(k, _)| *k == name || (k.starts_with("shard") && k.ends_with(&format!(".{name}"))))
        .map(|(_, v)| *v)
        .sum()
}

/// `qcache.hit_ratio` and `qcache.invalidations` from two Stats replies.
pub fn qcache_delta(r: &mut Report, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let d = |n: &str| counter_sum(after, n).saturating_sub(counter_sum(before, n));
    let (hits, misses) = (d("qcache.hits"), d("qcache.misses"));
    r.set("qcache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    r.set("qcache.invalidations", d("qcache.invalidations") as f64);
    r.info("qcache.lookups", hits + misses);
}

/// Pager and I/O counters summed over sampling intervals that contain no
/// checkpoint. The image's pool counters restart whenever a checkpoint
/// publishes a new image, so an interval in which a checkpoint ran (or
/// the epoch moved) is discarded.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolTotals {
    /// Pool hits.
    pub hits: u64,
    /// Pool misses.
    pub misses: u64,
    /// Pool evictions.
    pub evictions: u64,
    /// File reads through the counting backend.
    pub file_reads: u64,
    /// Requests completed.
    pub requests: u64,
    /// Intervals kept.
    pub kept: u64,
    /// Intervals discarded because a checkpoint touched them.
    pub discarded: u64,
    /// Intervals with no checkpoint image open (nothing to count).
    pub no_image: u64,
}

impl PoolTotals {
    /// Report the pager metrics and how they were taken.
    pub fn report(&self, r: &mut Report) {
        r.set("pager.hit_ratio", self.hits as f64 / (self.hits + self.misses).max(1) as f64);
        r.set("pager.file_reads_per_req", self.file_reads as f64 / self.requests.max(1) as f64);
        r.set("pager.evictions", self.evictions as f64);
        r.info(
            "pager.note",
            format!(
                "pool deltas over {} checkpoint-free 10 ms intervals; {} discarded \
                 because a checkpoint ran in them; {} without an open image",
                self.kept, self.discarded, self.no_image
            ),
        );
    }
}

struct PoolSample {
    ckpt_seq: u64,
    epoch: u64,
    pool: Option<quarry_storage::PoolStats>,
    io: IoSnapshot,
    requests: u64,
}

/// Sample `db`'s pool, the I/O counters and the completed-request count
/// every 10 ms until `stop`. `ckpt_seq` is odd while a checkpoint
/// request is in flight and bumps on each start and finish.
pub fn sample_pool(
    db: &Database,
    io: &IoCounters,
    completed: &AtomicU64,
    ckpt_seq: &AtomicU64,
    stop: &AtomicBool,
) -> PoolTotals {
    let take = || {
        let ckpt_seq = ckpt_seq.load(Ordering::SeqCst);
        let epoch = db.checkpoint_epoch();
        let pool = db.image_pool_stats();
        let io = io.snapshot();
        let requests = completed.load(Ordering::SeqCst);
        PoolSample { ckpt_seq, epoch, pool, io, requests }
    };
    let mut totals = PoolTotals::default();
    let mut prev = take();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(10));
        let cur = take();
        // Re-read after the counters: a checkpoint that began or ended
        // since the previous sample shows as a moved sequence or epoch.
        let quiet = prev.ckpt_seq % 2 == 0
            && prev.ckpt_seq == ckpt_seq.load(Ordering::SeqCst)
            && prev.epoch == db.checkpoint_epoch();
        match (quiet, prev.pool, cur.pool) {
            (_, None, _) | (_, _, None) => totals.no_image += 1,
            (true, Some(a), Some(b)) if b.hits >= a.hits && b.misses >= a.misses => {
                totals.hits += b.hits - a.hits;
                totals.misses += b.misses - a.misses;
                totals.evictions += b.evictions.saturating_sub(a.evictions);
                totals.file_reads += cur.io.file_reads - prev.io.file_reads;
                totals.requests += cur.requests - prev.requests;
                totals.kept += 1;
            }
            _ => totals.discarded += 1,
        }
        prev = cur;
    }
    totals
}
