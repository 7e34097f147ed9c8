//! `cluster_read`: the healthy read mix through the shard router over a
//! 3-shard × 1-replica loopback cluster — primary-key point reads (routed
//! to the owning shard), a top-10 sorted fan-out, and a grouped count.
//! No shard is killed. The only workload that runs the router and the
//! hash ring.

use crate::inproc::{query_probe, ClientReplay, Lookup, QueryAcc, Replay};
use crate::load::{
    clients, closed_loop, Conn, Kind, OpGen, Planned, Rng, TracedConn, TracedWire, WireTrace,
    CLIENTS,
};
use crate::node::{traced, Target};
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workload::{end_to_end, repeated_setup, DataDir, Memory};
use crate::Args;
use quarry_cluster::{Cluster, ClusterConfig, HashRing};
use quarry_query::engine::{AggFn, Predicate, Query};
use quarry_serve::protocol::{Payload, Request, Response};
use quarry_serve::Client;
use quarry_storage::{Column, DataType, Database, TableSchema, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run (each is cheap and noisy: six small nodes and 3 000
/// rows); `setup_s` is their median.
const SETUPS: usize = 9;
const SHARDS: usize = 3;
const ROWS: i64 = 3_000;
const TABLE: &str = "readings";
const STATIONS: i64 = 7;

fn schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        vec![
            Column::new("id", DataType::Int),
            Column::new("station", DataType::Text),
            Column::new("value", DataType::Int),
        ],
        &["id"],
        &[],
    )
    .expect("static schema is valid")
}

/// Row `id` generated from `seed`.
fn row(seed: u64, id: i64) -> Vec<Value> {
    let value = 100 + Rng::new(seed, 0x3_0000_0000 + id as u64).below(1000) as i64;
    vec![Value::Int(id), Value::Text(format!("station-{}", id % STATIONS)), Value::Int(value)]
}

fn point(id: i64) -> Query {
    Query::scan(TABLE).filter(vec![Predicate::Eq("id".into(), Value::Int(id))])
}

/// The fan-out queries: a top-10 by value and a grouped count.
fn fan_outs() -> [Query; 2] {
    [
        Query::scan(TABLE).sort("value", true, Some(10)),
        Query::scan(TABLE).aggregate(Some("station"), AggFn::Count, "id"),
    ]
}

/// Merge per-shard answers (in shard order) the way a single node would
/// answer `q`: a stable sort of the concatenation for `Sort`, summed
/// counts per group for the grouped count, concatenation otherwise.
fn merge(q: &Query, legs: Vec<(Vec<String>, Vec<Vec<Value>>)>) -> Payload {
    let columns = legs.first().map(|(c, _)| c.clone()).unwrap_or_default();
    let mut rows: Vec<Vec<Value>> = legs.into_iter().flat_map(|(_, r)| r).collect();
    match q {
        Query::Sort { by, desc, limit, .. } => {
            let col = columns.iter().position(|c| c == by).unwrap_or(0);
            rows.sort_by(|a, b| if *desc { b[col].cmp(&a[col]) } else { a[col].cmp(&b[col]) });
            rows.truncate(limit.unwrap_or(usize::MAX));
        }
        Query::Aggregate { .. } => {
            let mut groups: BTreeMap<Value, i64> = BTreeMap::new();
            for r in rows.drain(..) {
                if let [k, Value::Int(n)] = r.as_slice() {
                    *groups.entry(k.clone()).or_default() += n;
                }
            }
            rows = groups.into_iter().map(|(k, n)| vec![k, Value::Int(n)]).collect();
        }
        _ => {}
    }
    Payload::Rows { columns, rows }
}

/// The shard that owns `id`, when `req` is a point read.
fn owner(ring: &HashRing, req: &Request) -> Option<usize> {
    let Request::Query(Query::Filter { predicates, .. }) = req else { return None };
    let [Predicate::Eq(_, v)] = predicates.as_slice() else { return None };
    Some(ring.shard_for_key(std::slice::from_ref(v)))
}

enum Expect {
    Point(i64),
    FanOut(usize),
}

/// Half point reads, a quarter each of the two fan-outs.
struct Gen {
    rng: Rng,
    seed: u64,
    expected: Arc<Vec<Payload>>,
}

impl OpGen for Gen {
    type Expect = Expect;

    fn next(&mut self) -> Planned<Expect> {
        let (q, expect) = match self.rng.below(4) {
            0 | 1 => {
                let id = self.rng.below(ROWS as u64) as i64;
                (point(id), Expect::Point(id))
            }
            k => {
                let i = k as usize - 2;
                (fan_outs()[i].clone(), Expect::FanOut(i))
            }
        };
        Planned { kind: Kind::Read, req: Request::Query(q), expect }
    }

    fn check(&mut self, planned: &Planned<Expect>, payload: &Payload) -> bool {
        match (&planned.expect, payload) {
            (Expect::Point(id), Payload::Rows { rows, .. }) => *rows == [row(self.seed, *id)],
            (Expect::FanOut(i), p) => *p == self.expected[*i],
            _ => false,
        }
    }
}

struct Setup {
    cluster: Cluster,
    shard_addrs: Vec<SocketAddr>,
    dbs: Vec<Arc<Database>>,
    expected: Arc<Vec<Payload>>,
    /// Removed last: the nodes' files live here.
    _dir: DataDir,
}

fn shard_answer(c: &mut Client, q: &Query) -> Result<(Vec<String>, Vec<Vec<Value>>), String> {
    c.query(q).map_err(|e| format!("shard query: {e}"))
}

/// Start the cluster, load the table through the router, wait for the
/// replicas, and derive the fan-out answers from the shards directly.
fn setup(seed: u64, tag: usize) -> Result<Setup, String> {
    let dir = DataDir::new("cluster_read", tag)?;
    let cfg = ClusterConfig { shards: SHARDS, replicas_per_shard: 1, ..ClusterConfig::default() };
    let cluster = Cluster::start(dir.path(), cfg).map_err(|e| format!("start cluster: {e}"))?;
    let mut c = cluster.client().map_err(|e| e.to_string())?;
    c.create_table(schema()).map_err(|e| format!("create table: {e}"))?;
    let ids: Vec<i64> = (0..ROWS).collect();
    for chunk in ids.chunks(500) {
        c.insert_rows(TABLE, chunk.iter().map(|&i| row(seed, i)).collect())
            .map_err(|e| format!("load: {e}"))?;
    }
    for s in 0..SHARDS {
        if !cluster.await_replicas_caught_up(s, Duration::from_secs(60)) {
            return Err(format!("shard {s} replica never caught up"));
        }
    }
    let primaries: Vec<_> = cluster.shards().iter().filter_map(|s| s.primary.as_ref()).collect();
    let shard_addrs: Vec<SocketAddr> = primaries.iter().map(|p| p.serve_addr()).collect();
    let dbs = primaries.iter().map(|p| p.database()).collect();
    let mut direct: Vec<Client> = shard_addrs
        .iter()
        .map(|a| Client::connect(a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut expected = Vec::new();
    for q in fan_outs() {
        let legs = direct.iter_mut().map(|c| shard_answer(c, &q)).collect::<Result<Vec<_>, _>>()?;
        let want = merge(&q, legs);
        // Warm-up, and the first check of the router against the merge.
        let got = c.request(&Request::Query(q.clone())).map_err(|e| e.to_string())?;
        if got.payload != want {
            return Err(format!(
                "router answer to {} differs from the merged shard answers",
                q.display()
            ));
        }
        expected.push(want);
    }
    Ok(Setup { cluster, shard_addrs, dbs, expected: Arc::new(expected), _dir: dir })
}

/// A traced router connection that, after each request, asks the shards
/// the request touches directly (`router.probe` → `router.leg` spans) and
/// checks the router's answer against the merge of theirs.
struct ClusterConn {
    router: TracedConn,
    legs: Vec<Client>,
    ring: HashRing,
    leg_ns: Vec<u64>,
    point_overhead_ns: Vec<f64>,
    fanout_overhead_ns: Vec<f64>,
    merge_mismatches: u64,
}

impl ClusterConn {
    fn connect(
        router: SocketAddr,
        shards: &[SocketAddr],
        c: usize,
        origin: Instant,
    ) -> Result<ClusterConn, String> {
        let legs = shards
            .iter()
            .map(|a| Client::connect(a).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ClusterConn {
            router: TracedConn::connect(router, c, origin)?,
            legs,
            ring: HashRing::new(shards.len()),
            leg_ns: Vec::new(),
            point_overhead_ns: Vec::new(),
            fanout_overhead_ns: Vec::new(),
            merge_mismatches: 0,
        })
    }
}

impl Conn for ClusterConn {
    fn call(&mut self, seq: u64, req: &Request) -> Result<Response, String> {
        let t0 = Instant::now();
        let resp = self.router.call(seq, req)?;
        let total = t0.elapsed().as_nanos() as u64;
        let id = self.router.id(seq);
        let t = &mut self.router.trace.tracer;
        let shards: Vec<usize> = match owner(&self.ring, req) {
            Some(s) => vec![s],
            None => (0..self.legs.len()).collect(),
        };
        let Request::Query(q) = req else { return Err("cluster_read sends queries only".into()) };
        let root = t.begin(id, "router.probe", None);
        let mut answers = Vec::with_capacity(shards.len());
        let mut slowest = 0u64;
        let mut leg_error = None;
        for &s in &shards {
            let t0 = Instant::now();
            let leg = t.span(id, "router.leg", Some(root), || self.legs[s].query(q));
            let ns = t0.elapsed().as_nanos() as u64;
            self.leg_ns.push(ns);
            slowest = slowest.max(ns);
            match leg {
                Ok(a) => answers.push(a),
                Err(e) => {
                    leg_error = Some(format!("direct shard {s}: {e}"));
                    break;
                }
            }
        }
        t.end_tree(root);
        if let Some(e) = leg_error {
            return Err(e);
        }
        let overhead = total as f64 - slowest as f64;
        if shards.len() == 1 {
            self.point_overhead_ns.push(overhead);
        } else {
            self.fanout_overhead_ns.push(overhead);
        }
        if merge(q, answers) != resp.payload {
            self.merge_mismatches += 1;
        }
        Ok(resp)
    }
}

impl TracedWire for ClusterConn {
    fn wire(&self) -> &WireTrace {
        &self.router.trace
    }
}

/// The in-process third: each planned read runs the query layer (and,
/// for point reads, the storage floor) on the owning shard's primary, or
/// on every shard for a fan-out, and the merged answer is checked.
fn replay_shards(
    gens: Vec<Gen>,
    dbs: &[Arc<Database>],
    duration: Duration,
    origin: Instant,
) -> Replay<Gen> {
    let ring = HashRing::new(dbs.len());
    let outs: Vec<ClientReplay<Gen>> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(c, mut gen)| {
                let ring = &ring;
                s.spawn(move || {
                    let mut t = Tracer::new(origin);
                    let mut acc = QueryAcc::default();
                    let (mut requests, mut failed) = (0u64, 0u64);
                    let deadline = Instant::now() + duration;
                    while Instant::now() < deadline {
                        let planned = gen.next();
                        let id = crate::inproc::INPROC_ID_BASE + ((c as u64) << 40) + requests + 1;
                        let Request::Query(q) = &planned.req else { continue };
                        let shards: Vec<usize> = match owner(ring, &planned.req) {
                            Some(s) => vec![s],
                            None => (0..dbs.len()).collect(),
                        };
                        let mut legs = Vec::new();
                        let mut ok = true;
                        for &s in &shards {
                            let snap = dbs[s].snapshot();
                            match query_probe(&mut t, id, &snap, q) {
                                Ok((res, a)) => {
                                    acc.add(a);
                                    legs.push((res.columns, res.rows));
                                }
                                Err(_) => ok = false,
                            }
                            if let Some(lookup) = Lookup::of(&dbs[s], q) {
                                ok &= lookup.probe(&mut t, id, &dbs[s]).len() == 1;
                            }
                        }
                        ok &= gen.check(&planned, &merge(q, legs));
                        requests += 1;
                        failed += u64::from(!ok);
                    }
                    ClientReplay { gen, tracer: t, acc, requests, failed }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    Replay::join(origin, outs)
}

fn traced_run(r: &mut Report, args: &Args, s: &Setup, gens: Vec<Gen>) -> Result<(), String> {
    let router = s.cluster.router_addr();
    let primary = s.cluster.shards()[0].primary.as_ref().ok_or("shard 0 has no primary")?;
    let target = Target {
        addr: router,
        connect: Box::new(|c, origin| ClusterConn::connect(router, &s.shard_addrs, c, origin)),
        metrics: primary.server().metrics(),
        pool: None,
        replay: Box::new(|gens, third, origin| (replay_shards(gens, &s.dbs, third, origin), ())),
    };
    let t = traced(r, args, gens, target)?;
    let (mut legs, mut point_oh, mut fanout_oh, mut merge_bad) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for c in &t.conns {
        legs.extend_from_slice(&c.leg_ns);
        point_oh.extend_from_slice(&c.point_overhead_ns);
        fanout_oh.extend_from_slice(&c.fanout_overhead_ns);
        merge_bad += c.merge_mismatches;
    }
    r.set("router.leg_us", mean(&legs) / 1e3);
    r.set("router.point_overhead_us", median(&point_oh) / 1e3);
    r.set("router.fanout_overhead_us", median(&fanout_oh) / 1e3);
    r.check(
        &format!("router answers equal the merge of the direct-shard answers ({merge_bad} differ)"),
        merge_bad == 0,
    );
    r.info("pager.note", "shards hold no checkpoint image: no pool to count");
    Ok(())
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let (mut s, setup_s) = repeated_setup(SETUPS, |i| setup(args.seed, i))?;
    let memory = Memory::after_setup();
    r.info("env.durability", "Full on every node (default); no writes while measuring");
    r.info("env.cluster", format!("{SHARDS} shards x 1 replica, loopback TCP, router in process"));
    r.info("env.pool_pages", "none (shards never checkpoint)");
    r.info("env.rows", format!("{TABLE}={ROWS} across {SHARDS} shards"));
    r.info("env.image_bytes", 0);
    r.check("router answers to the fan-outs equal the merged direct-shard answers at set-up", true);
    let gens: Vec<Gen> = (0..CLIENTS)
        .map(|c| Gen {
            rng: Rng::new(args.seed, c as u64),
            seed: args.seed,
            expected: Arc::clone(&s.expected),
        })
        .collect();
    r.info("env.clients", gens.len());
    if args.trace {
        traced_run(&mut r, args, &s, gens)?;
    } else {
        let completed = AtomicU64::new(0);
        let conns = clients(s.cluster.router_addr(), gens.len())?;
        let run = closed_loop(gens, conns, args.seconds, &completed);
        end_to_end(&mut r, &run, setup_s);
        memory.report(&mut r);
    }
    s.cluster.shutdown();
    Ok(r)
}
