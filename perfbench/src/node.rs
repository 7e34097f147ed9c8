//! Runs against a serving system: the measured (untraced) loop, and the
//! traced run's three phases.
//!
//! The traced run splits its window in thirds: an untraced closed loop
//! (the baseline for `trace_overhead_pct` and the source of write
//! latencies), the same loop over traced connections with the pool
//! sampler beside it, then the server is stopped and the stream
//! continues in process ([`crate::inproc`]). A single node and the
//! cluster router run the same phases; [`Target`] holds what differs.

use crate::counting::{IoCounters, IoSnapshot};
use crate::inproc::{replay, Replay};
use crate::load::{
    clients, closed_loop, LoopRun, OpGen, Sample, TracedConn, TracedWire, WireTrace,
};
use crate::report::{data_root, Report};
use crate::stats::mean;
use crate::trace::{Reconciliation, Tracer};
use crate::workload::{metrics_record_ns, qcache_delta, sample_pool, status_mb};
use crate::Args;
use quarry_core::{Quarry, SharedQuarry};
use quarry_exec::MetricsRegistry;
use quarry_serve::{Client, Server};
use quarry_storage::Database;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The measured loop of a `--trace 0` run.
pub fn measured<G: OpGen>(
    gens: Vec<G>,
    server: &Server,
    args: &Args,
) -> Result<LoopRun<G, Client>, String> {
    let completed = AtomicU64::new(0);
    let conns = clients(server.local_addr(), gens.len())?;
    Ok(closed_loop(gens, conns, args.seconds, &completed))
}

/// Everything the traced phases hand back to the workload.
pub struct Traced<G, C, R> {
    /// The untraced first third.
    pub base: LoopRun<(), ()>,
    /// The traced wire third.
    pub wire: LoopRun<(), ()>,
    /// The traced connections, with what each recorded.
    pub conns: Vec<C>,
    /// I/O counters around the wire third, when a pool was sampled.
    pub io: Option<(IoSnapshot, IoSnapshot)>,
    /// The in-process third.
    pub replay: Replay<G>,
    /// What the replay handed back besides (a single node's façade).
    pub after: R,
}

/// What the pool sampler watches beside the wire third.
pub struct PoolProbe<'a> {
    /// The store whose image pool is counted.
    pub db: &'a Database,
    /// I/O counters of its storage backend.
    pub io: &'a IoCounters,
    /// The in-flight checkpoint sequence the generators maintain (see
    /// [`crate::workload::sample_pool`]).
    pub ckpt_seq: &'a AtomicU64,
}

/// Stops serving, then replays generators in process for a duration
/// with span clock `origin`.
pub type ReplayFn<'a, G, R> = Box<dyn FnOnce(Vec<G>, Duration, Instant) -> (Replay<G>, R) + 'a>;

/// The system a traced run drives.
pub struct Target<'a, G, C, R> {
    /// Where clients connect.
    pub addr: SocketAddr,
    /// Open traced connection `c` with span clock `origin`.
    pub connect: Box<dyn Fn(usize, Instant) -> Result<C, String> + 'a>,
    /// The registry `metrics.record_ns` is timed on.
    pub metrics: MetricsRegistry,
    /// The pool to sample, when the system has one to count.
    pub pool: Option<PoolProbe<'a>>,
    /// The in-process third.
    pub replay: ReplayFn<'a, G, R>,
}

/// Stats reply from a fresh connection.
fn stats(addr: SocketAddr) -> Result<quarry_exec::MetricsSnapshot, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    c.stats().map_err(|e| e.to_string())
}

/// Report the wire half's per-layer metrics from its span trees.
fn wire_metrics(
    r: &mut Report,
    wire: &LoopRun<(), ()>,
    traces: &[&WireTrace],
    base_rps: f64,
) -> bool {
    let mut rec = Reconciliation::default();
    let mut frame_bytes = Vec::new();
    let mut server_us = Vec::new();
    for t in traces {
        frame_bytes.extend_from_slice(&t.frame_bytes);
        server_us.extend(t.server_us.iter().flatten());
        rec.merge(t.tracer.reconciliation());
    }
    r.set("protocol.encode_us", rec.mean_self_us("protocol.encode"));
    r.set("protocol.decode_us", rec.mean_self_us("protocol.decode"));
    r.set("protocol.frame_bytes", mean(&frame_bytes));
    r.set("serve.server_us", mean(&server_us));
    r.set("serve.wire_us", rec.mean_self_us("serve.wire"));
    r.set("serve.overloaded", wire.samples().filter(|s| s.overloaded).count() as f64);
    r.set("unattributed_us", mean(&rec.unattributed) / 1e3);
    let traced_rps = wire.throughput();
    r.set("trace_overhead_pct", (base_rps - traced_rps) / base_rps * 100.0);
    r.info("trace.wire_requests", rec.roots);
    r.info("trace.wire_mismatches", rec.mismatches);
    r.attempted += wire.samples().count() as u64;
    r.failed += wire.failed();
    rec.mismatches == 0
}

/// Report the in-process half's per-layer metrics. `true` when every
/// request tree reconciles.
fn replay_metrics<G>(r: &mut Report, replay: &Replay<G>) -> bool {
    let rec = replay.tracer.reconciliation();
    for (metric, span) in [
        ("core.snapshot_us", "core.snapshot"),
        ("core.query_us", "core.query"),
        ("core.keyword_us", "core.keyword"),
        ("storage.get_us", "storage.get"),
    ] {
        if rec.self_by_name.contains_key(span) {
            r.set(metric, rec.mean_self_us(span));
        }
    }
    let (lint, plan) = (rec.mean_self_us("query.lint"), rec.mean_self_us("query.plan"));
    if rec.self_by_name.contains_key("query.execute") {
        r.set("query.lint_us", lint);
        r.set("query.plan_us", plan);
        r.set("query.exec_us", rec.mean_self_us("query.execute") - lint - plan);
        r.set(
            "query.rows_examined_per_row",
            replay.acc.scanned as f64 / replay.acc.rows.max(1) as f64,
        );
    }
    r.info("trace.inproc_requests", replay.requests);
    r.info("trace.inproc_roots", rec.roots);
    r.info("trace.inproc_mismatches", rec.mismatches);
    r.info("trace.inproc_unattributed_us", mean(&rec.unattributed) / 1e3);
    r.attempted += replay.requests;
    r.failed += replay.failed;
    rec.mismatches == 0
}

/// Write every span of the run to `.bench_data/trace-<workload>.jsonl`.
fn write_spans(r: &mut Report, workload: &str, traces: &[&WireTrace], inproc: &Tracer) {
    let mut all = Tracer::new(Instant::now());
    for t in traces {
        all.absorb(&t.tracer);
    }
    all.absorb(inproc);
    let path = data_root().join(format!("trace-{workload}.jsonl"));
    match std::fs::create_dir_all(data_root()).and_then(|()| all.write_jsonl(&path)) {
        Ok(()) => {
            r.info("trace.spans", format!("{} written to {}", all.spans().len(), path.display()))
        }
        Err(e) => r.info("trace.spans", format!("not written: {e}")),
    }
}

/// The traced run against a single node: `server` serving `db`, whose
/// storage backend counts into `io`.
pub fn traced_node<G: OpGen>(
    r: &mut Report,
    args: &Args,
    gens: Vec<G>,
    server: Server,
    db: Arc<Database>,
    io: Arc<IoCounters>,
    ckpt_seq: &AtomicU64,
) -> Result<Traced<G, TracedConn, Quarry>, String> {
    let addr = server.local_addr();
    let target = Target {
        addr,
        connect: Box::new(move |c, origin| TracedConn::connect(addr, c, origin)),
        metrics: server.metrics(),
        pool: Some(PoolProbe { db: &db, io: &io, ckpt_seq }),
        replay: Box::new(|gens, third, origin| {
            let shared = SharedQuarry::new(server.join());
            let replay = replay(gens, &shared, &db, third, origin);
            (replay, shared.into_inner())
        }),
    };
    traced(r, args, gens, target)
}

/// The traced run. Its window is cut in thirds: an untraced closed loop,
/// the same loop over traced connections (with the pool sampler beside
/// it), then the in-process replay.
pub fn traced<G: OpGen, C: TracedWire, R>(
    r: &mut Report,
    args: &Args,
    gens: Vec<G>,
    target: Target<'_, G, C, R>,
) -> Result<Traced<G, C, R>, String> {
    let third = args.seconds / 3;
    let addr = target.addr;
    let completed = AtomicU64::new(0);
    let conns = clients(addr, gens.len())?;
    let rss_before = status_mb("VmRSS:");
    let (gens, conns, base) = closed_loop(gens, conns, third, &completed).split();
    rss_growth(r, &base, status_mb("VmRSS:") - rss_before);
    // A session holds a server worker until its client hangs up.
    drop(conns);
    let base_rps = base.throughput();
    r.attempted += base.samples().count() as u64;
    r.failed += base.failed();

    let before = stats(addr)?;
    let origin = Instant::now();
    let conns = (0..gens.len()).map(|c| (target.connect)(c, origin)).collect::<Result<_, _>>()?;
    let stop = AtomicBool::new(false);
    let io_before = target.pool.as_ref().map(|p| p.io.snapshot());
    let (wire, pool) = std::thread::scope(|s| {
        let sampler = target
            .pool
            .as_ref()
            .map(|p| s.spawn(|| sample_pool(p.db, p.io, &completed, p.ckpt_seq, &stop)));
        let wire = closed_loop(gens, conns, third, &completed);
        stop.store(true, Ordering::SeqCst);
        (wire, sampler.map(|h| h.join().expect("pool sampler panicked")))
    });
    let io_after = target.pool.as_ref().map(|p| p.io.snapshot());
    let (gens, conns, wire) = wire.split();
    let after = stats(addr)?;
    qcache_delta(r, &before, &after);
    if let Some(pool) = pool {
        pool.report(r);
    }

    let traces: Vec<&WireTrace> = conns.iter().map(TracedWire::wire).collect();
    let mut ok = wire_metrics(r, &wire, &traces, base_rps);
    r.set("metrics.record_ns", metrics_record_ns(&target.metrics));

    let (replay, after) = (target.replay)(gens, third, origin);
    ok &= replay_metrics(r, &replay);
    write_spans(r, &args.workload, &traces, &replay.tracer);
    r.check("every request's layer self times plus unattributed_us equal its total", ok);
    Ok(Traced { base, wire, conns, io: io_before.zip(io_after), replay, after })
}

/// `memory.rss_growth_per_10k`: resident growth of the process over a
/// closed loop, less the loop's own sample records, per 10 000 requests.
fn rss_growth(r: &mut Report, run: &LoopRun<(), ()>, grown_mb: f64) {
    let requests = run.samples().count();
    let own_mb = (requests * std::mem::size_of::<Sample>()) as f64 / (1024.0 * 1024.0);
    r.set("memory.rss_growth_per_10k", (grown_mb - own_mb) / requests.max(1) as f64 * 1e4);
    r.info("memory.rss_growth_mb_over_untraced_third", grown_mb);
}
