//! The in-process half of the traced run: the seeded request stream
//! replayed against the façade and, beside it, against the query and
//! storage layers' public functions.
//!
//! Per request up to three span trees share its id:
//!
//! ```text
//! request                 the façade path a server worker runs
//! ├── core.snapshot       Quarry/SharedQuarry::snapshot
//! └── core.query          Snapshot::query (or core.keyword, core.explain,
//!                         core.stats, core.write, core.checkpoint)
//! query.probe             the query layer on the same snapshot
//! ├── query.lint          lint::check_query
//! ├── query.plan          planner::plan
//! └── query.execute       planner::execute_snapshot_with
//! storage.probe           the storage floor for a key or index lookup,
//! └── storage.get         Database::get / Database::index_lookup, run in
//!                         a pass of its own after the replay
//! ```
//!
//! `query.execute` lints and plans again inside, so the query layer's
//! execution time is `query.execute − query.lint − query.plan`.

use crate::load::{OpGen, Planned};
use crate::trace::{Tracer, REQUEST};
use quarry_core::{SharedQuarry, Snapshot};
use quarry_query::engine::{Predicate, Query, QueryResult};
use quarry_query::planner::{execute_snapshot_with, plan, PlannerConfig};
use quarry_serve::protocol::{ErrorKind, Payload, Request, WireCandidate, WireHit};
use quarry_storage::{Database, DbSnapshot, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Request ids of the in-process half live above the wire half's.
pub const INPROC_ID_BASE: u64 = 1 << 48;

/// Rows the query layer examined and returned over every probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryAcc {
    /// `OpTrace::total_scanned` summed.
    pub scanned: u64,
    /// Result rows summed.
    pub rows: u64,
    /// Probes whose answer differed from the façade's.
    pub mismatches: u64,
}

impl QueryAcc {
    /// Fold another total in.
    pub fn add(&mut self, o: QueryAcc) {
        self.scanned += o.scanned;
        self.rows += o.rows;
        self.mismatches += o.mismatches;
    }
}

fn query_error(message: String) -> Payload {
    Payload::Error { kind: ErrorKind::Query, message }
}

/// The wire form of a query result.
pub fn rows_payload(r: QueryResult) -> Payload {
    Payload::Rows { columns: r.columns, rows: r.rows }
}

/// The wire form of a keyword search, as the server builds it.
pub fn hits_payload(snap: &Snapshot, query: &str, k: usize) -> Payload {
    let (hits, candidates) = snap.keyword(query, k);
    Payload::Hits {
        hits: hits.into_iter().map(|h| WireHit { doc: h.doc.0, score: h.score }).collect(),
        candidates: candidates
            .into_iter()
            .map(|c| WireCandidate { query: c.query, score: c.score, explanation: c.explanation })
            .collect(),
    }
}

/// Apply one batch as a single transaction, as the server does.
fn apply_batch(
    db: &Database,
    items: &[Vec<Value>],
    op: impl Fn(quarry_storage::TxId, &[Value]) -> quarry_storage::Result<()>,
) -> Payload {
    let tx = db.begin();
    for item in items {
        if let Err(e) = op(tx, item) {
            let _ = db.abort(tx);
            return query_error(e.to_string());
        }
    }
    match db.commit(tx) {
        Ok(()) => Payload::Done,
        Err(e) => query_error(e.to_string()),
    }
}

/// Run `req` through the façade under a `request` root span. Returns the
/// reply and, for reads, the snapshot it ran on.
pub fn facade_request(
    t: &mut Tracer,
    id: u64,
    shared: &SharedQuarry,
    req: &Request,
) -> (Payload, Option<Snapshot>) {
    let root = t.begin(id, REQUEST, None);
    let snapshot = |t: &mut Tracer| t.span(id, "core.snapshot", Some(root), || shared.snapshot());
    let out = match req {
        Request::Query(q) => {
            let snap = snapshot(t);
            let res = t.span(id, "core.query", Some(root), || snap.query(q));
            (res.map_or_else(|e| query_error(e.to_string()), rows_payload), Some(snap))
        }
        Request::KeywordSearch { query, k } => {
            let snap = snapshot(t);
            let p = t.span(id, "core.keyword", Some(root), || hits_payload(&snap, query, *k));
            (p, Some(snap))
        }
        Request::Explain(q) => {
            let snap = snapshot(t);
            let res = t.span(id, "core.explain", Some(root), || snap.explain_query(q));
            (res.map_or_else(|e| query_error(e.to_string()), Payload::Plan), Some(snap))
        }
        Request::Stats => {
            let snap = snapshot(t);
            let p = t.span(id, "core.stats", Some(root), || Payload::Metrics(snap.stats()));
            (p, Some(snap))
        }
        Request::InsertRows { table, rows } => {
            let p = t.span(id, "core.write", Some(root), || {
                shared.with_writer(|q| {
                    apply_batch(&q.db, rows, |tx, r| q.db.insert(tx, table, r.to_vec()).map(|_| ()))
                })
            });
            (p, None)
        }
        Request::DeleteRows { table, keys } => {
            let p = t.span(id, "core.write", Some(root), || {
                shared.with_writer(|q| apply_batch(&q.db, keys, |tx, k| q.db.delete(tx, table, k)))
            });
            (p, None)
        }
        Request::Checkpoint => {
            let p = t.span(id, "core.checkpoint", Some(root), || {
                shared
                    .with_writer(|q| q.checkpoint())
                    .map_or_else(|e| query_error(e.to_string()), |()| Payload::Done)
            });
            (p, None)
        }
        other => (query_error(format!("not replayed in process: {other:?}")), None),
    };
    t.end_tree(root);
    out
}

/// Lint, plan and execute `q` on `snap` under a `query.probe` root.
pub fn query_probe(
    t: &mut Tracer,
    id: u64,
    snap: &DbSnapshot,
    q: &Query,
) -> Result<(QueryResult, QueryAcc), String> {
    let cfg = PlannerConfig::default();
    let root = t.begin(id, "query.probe", None);
    t.span(id, "query.lint", Some(root), || black_box(quarry_query::lint::check_query(snap, q)));
    t.span(id, "query.plan", Some(root), || black_box(plan(snap, q, &cfg)));
    let res = t.span(id, "query.execute", Some(root), || execute_snapshot_with(snap, q, &cfg));
    t.end_tree(root);
    let (result, trace) = res.map_err(|e| e.to_string())?;
    let acc = QueryAcc {
        scanned: trace.total_scanned() as u64,
        rows: result.rows.len() as u64,
        mismatches: 0,
    };
    Ok((result, acc))
}

/// A lookup the storage layer can answer directly: `SELECT * FROM t
/// WHERE c = v` where `c` is the one-column primary key or carries a
/// secondary index.
pub struct Lookup {
    table: String,
    /// Position of the looked-up column.
    column: usize,
    name: String,
    value: Value,
    /// A primary-key `get` rather than an index lookup.
    is_key: bool,
}

impl Lookup {
    /// The lookup `q` amounts to, if any.
    pub fn of(db: &Database, q: &Query) -> Option<Lookup> {
        let Query::Filter { input, predicates } = q else { return None };
        let Query::Scan { table } = input.as_ref() else { return None };
        let [Predicate::Eq(name, value)] = predicates.as_slice() else { return None };
        let schema = db.schema(table).ok()?;
        let column = schema.columns.iter().position(|c| c.name == *name)?;
        let is_key = schema.key == [column];
        (is_key || schema.indexes.contains(name)).then(|| Lookup {
            table: table.clone(),
            column,
            name: name.clone(),
            value: value.clone(),
            is_key,
        })
    }

    /// Run it under a `storage.probe` root: `Database::get` or
    /// `Database::index_lookup` in a `storage.get` span, the read
    /// transaction's begin and commit outside it.
    pub fn probe(&self, t: &mut Tracer, id: u64, db: &Database) -> Vec<Vec<Value>> {
        let root = t.begin(id, "storage.probe", None);
        let tx = db.begin();
        let rows = t.span(id, "storage.get", Some(root), || {
            if self.is_key {
                db.get(tx, &self.table, std::slice::from_ref(&self.value)).map(|r| vec![r])
            } else {
                db.index_lookup(tx, &self.table, &self.name, &self.value)
            }
        });
        let _ = db.commit(tx);
        t.end_tree(root);
        rows.unwrap_or_default()
    }

    /// Whether `rows` from the store agree with the façade's answer. The
    /// store may have moved past the façade's snapshot on a written
    /// table, so an index lookup is checked for its predicate and for
    /// finding rows where the façade did; a key lookup must match exactly.
    pub fn agrees(&self, rows: &[Vec<Value>], facade: &[Vec<Value>]) -> bool {
        if self.is_key {
            rows == facade
        } else {
            rows.iter().all(|r| r[self.column] == self.value)
                && rows.is_empty() == facade.is_empty()
        }
    }
}

/// What an in-process replay produced.
pub struct Replay<G> {
    /// Generators, positioned after the last replayed request.
    pub gens: Vec<G>,
    /// Spans of every client.
    pub tracer: Tracer,
    /// Query-layer totals.
    pub acc: QueryAcc,
    /// Requests replayed.
    pub requests: u64,
    /// Requests answered wrongly by the façade or a probe.
    pub failed: u64,
}

/// One replay thread's share of a [`Replay`].
pub struct ClientReplay<G> {
    /// Its generator.
    pub gen: G,
    /// Its spans.
    pub tracer: Tracer,
    /// Its query-layer totals.
    pub acc: QueryAcc,
    /// Requests it replayed.
    pub requests: u64,
    /// Requests it saw answered wrongly.
    pub failed: u64,
}

impl<G> Replay<G> {
    /// Combine the threads' shares, in client order.
    pub fn join(origin: Instant, clients: Vec<ClientReplay<G>>) -> Replay<G> {
        let mut out = Replay {
            gens: Vec::new(),
            tracer: Tracer::new(origin),
            acc: QueryAcc::default(),
            requests: 0,
            failed: 0,
        };
        for c in clients {
            out.gens.push(c.gen);
            out.tracer.absorb(&c.tracer);
            out.acc.add(c.acc);
            out.requests += c.requests;
            out.failed += c.failed;
        }
        out
    }
}

/// A key or index lookup the façade answered, kept for the storage pass.
struct Answered {
    id: u64,
    lookup: Lookup,
    rows: Vec<Vec<Value>>,
}

/// Replay each generator's stream on its own thread for `duration`
/// against `shared`, probing the query layer of every structured query
/// on the façade's snapshot. Afterwards, once every scan has finished,
/// the key and index lookups among those queries run once more straight
/// against the store (two threads): the storage floor.
pub fn replay<G: OpGen>(
    gens: Vec<G>,
    shared: &SharedQuarry,
    db: &Database,
    duration: Duration,
    origin: Instant,
) -> Replay<G> {
    let outs: Vec<(ClientReplay<G>, Vec<Answered>)> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(c, mut gen)| {
                s.spawn(move || {
                    let mut t = Tracer::new(origin);
                    let mut acc = QueryAcc::default();
                    let (mut requests, mut failed) = (0u64, 0u64);
                    let mut answered = Vec::new();
                    let deadline = Instant::now() + duration;
                    while Instant::now() < deadline {
                        let planned: Planned<G::Expect> = gen.next();
                        let id = INPROC_ID_BASE + ((c as u64) << 40) + requests + 1;
                        let (payload, snap) = facade_request(&mut t, id, shared, &planned.req);
                        let mut ok = gen.check(&planned, &payload);
                        if let (Request::Query(q), Some(snap), Payload::Rows { rows, .. }) =
                            (&planned.req, snap, &payload)
                        {
                            ok &= probe_query(&mut t, id, &snap, q, rows, &mut acc);
                            if let Some(lookup) = Lookup::of(db, q) {
                                answered.push(Answered { id, lookup, rows: rows.clone() });
                            }
                        }
                        requests += 1;
                        failed += u64::from(!ok);
                    }
                    (ClientReplay { gen, tracer: t, acc, requests, failed }, answered)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    let (clients, lookups): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    let mut out = Replay::join(origin, clients);
    let floors: Vec<(Tracer, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = lookups
            .iter()
            .map(|answered| {
                s.spawn(move || {
                    let mut t = Tracer::new(origin);
                    let wrong = answered
                        .iter()
                        .filter(|a| !a.lookup.agrees(&a.lookup.probe(&mut t, a.id, db), &a.rows))
                        .count();
                    (t, wrong as u64)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("storage pass panicked")).collect()
    });
    for (t, wrong) in floors {
        out.tracer.absorb(&t);
        out.failed += wrong;
    }
    out
}

/// Probe the query layer for `q` on the façade's snapshot; `true` when
/// it returns the façade's rows.
fn probe_query(
    t: &mut Tracer,
    id: u64,
    snap: &Snapshot,
    q: &Query,
    facade_rows: &[Vec<Value>],
    acc: &mut QueryAcc,
) -> bool {
    let ok = match query_probe(t, id, snap.db(), q) {
        Ok((result, probe)) => {
            acc.add(probe);
            result.rows == facade_rows
        }
        Err(_) => false,
    };
    acc.mismatches += u64::from(!ok);
    ok
}
