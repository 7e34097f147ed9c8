//! `point_lookup`: single-row reads by primary key (`Eq` on `id`), with
//! uniform seeded keys, over a checkpointed table whose B-tree image is
//! far larger than the image buffer pool. The keys are distinct, so the
//! query cache is bypassed and every read runs the planner's access path,
//! the B-tree and the pager.
//!
//! There is deliberately no secondary index on `id`: the planner only
//! routes `Eq` through secondary indexes, so today each read scans the
//! whole table — the defect this workload exposes.

use crate::counting::{CountingBackend, IoCounters};
use crate::load::{Kind, OpGen, Planned, Rng};
use crate::node::{measured, traced_node};
use crate::report::Report;
use crate::stats::median;
use crate::workload::{
    durable_quarry, end_to_end, repeated_setup, row_bytes, store_bytes, DataDir, Memory,
};
use crate::Args;
use quarry_query::engine::{Predicate, Query};
use quarry_serve::protocol::{Payload, Request};
use quarry_serve::{Client, ServeConfig, Server};
use quarry_storage::{Column, DataType, Database, TableSchema, Value};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run (each loads and checkpoints 20 000 rows); `setup_s` is their median.
const SETUPS: usize = 3;
/// One closed-loop client. Today a lookup scans the whole table under
/// the image's pager lock, so two clients get no more reads per second
/// than one (30.4 against 30.7 req/s) and each read waits out the
/// other's scan: the median doubles and the tail turns into steps of
/// whole scans that move from run to run. One client measures the read
/// itself.
const CLIENTS: usize = 1;
/// Rows in the table.
pub const ROWS: i64 = 20_000;
/// Rows per insert transaction while loading.
const LOAD_BATCH: i64 = 1_000;
/// Payload characters per row (rows encode to about 250 bytes).
const PAYLOAD: usize = 220;
const TABLE: &str = "items";

const WORDS: [&str; 8] = [
    "extracted ",
    "structure ",
    "curated ",
    "infobox ",
    "entity ",
    "mention ",
    "schema ",
    "value ",
];

fn schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        vec![
            Column::new("id", DataType::Int),
            Column::new("tag", DataType::Text),
            Column::new("payload", DataType::Text),
        ],
        &["id"],
        &["tag"],
    )
    .expect("static schema is valid")
}

/// Row `id` of the table generated from `seed`.
pub fn item(seed: u64, id: i64) -> Vec<Value> {
    let mut rng = Rng::new(seed, 0x1_0000_0000 + id as u64);
    let mut payload = format!("item-{id:06}:");
    while payload.len() < PAYLOAD {
        payload.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
    }
    payload.truncate(PAYLOAD);
    vec![Value::Int(id), Value::Text(format!("tag-{:02}", id % 41)), Value::Text(payload)]
}

fn lookup(id: i64) -> Request {
    Request::Query(Query::scan(TABLE).filter(vec![Predicate::Eq("id".into(), Value::Int(id))]))
}

/// Uniform keys over the whole table.
struct Gen {
    rng: Rng,
    seed: u64,
}

impl OpGen for Gen {
    type Expect = i64;

    fn next(&mut self) -> Planned<i64> {
        let id = self.rng.below(ROWS as u64) as i64;
        Planned { kind: Kind::Read, req: lookup(id), expect: id }
    }

    fn check(&mut self, planned: &Planned<i64>, payload: &Payload) -> bool {
        match payload {
            Payload::Rows { rows, .. } => {
                rows.len() == 1
                    && rows[0].first() == Some(&Value::Int(planned.expect))
                    && rows[0] == item(self.seed, planned.expect)
            }
            _ => false,
        }
    }
}

struct Setup {
    server: Server,
    db: Arc<Database>,
    io: Arc<IoCounters>,
    open_ms: f64,
    space_amp: f64,
    image_bytes: u64,
    pool_pages: usize,
    /// Removed last: the server's files live here.
    _dir: DataDir,
}

/// Load, checkpoint, close, and reopen the store, then serve it.
fn setup(seed: u64, tag: usize, trace: bool) -> Result<Setup, String> {
    let dir = DataDir::new("point_lookup", tag)?;
    let wal = dir.path().join("store.wal");
    let mut live_bytes = 0u64;
    {
        let q = durable_quarry(&wal, None)?;
        q.db.create_table(schema()).map_err(|e| e.to_string())?;
        for start in (0..ROWS).step_by(LOAD_BATCH as usize) {
            let tx = q.db.begin();
            for id in start..(start + LOAD_BATCH).min(ROWS) {
                let row = item(seed, id);
                live_bytes += row_bytes(&row);
                q.db.insert(tx, TABLE, row).map_err(|e| e.to_string())?;
            }
            q.db.commit(tx).map_err(|e| e.to_string())?;
        }
        q.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    }
    let (backend, io) = CountingBackend::new();
    let t0 = Instant::now();
    let quarry = durable_quarry(&wal, trace.then_some(&backend))?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let db = Arc::clone(&quarry.db);
    if db.row_count(TABLE).map_err(|e| e.to_string())? != ROWS as usize {
        return Err("reopened store lost rows".into());
    }
    let image_bytes = std::fs::metadata(wal.with_extension("ckpt")).map_or(0, |m| m.len());
    let space_amp = store_bytes(&wal) as f64 / live_bytes as f64;
    let server = Server::start(quarry, "127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    // Warm-up: fault in the tree's upper levels.
    let mut c = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut gen = Gen { rng: Rng::new(seed, u64::MAX), seed };
    for _ in 0..4 {
        let p = gen.next();
        let resp = c.request(&p.req).map_err(|e| format!("warm-up: {e}"))?;
        if !gen.check(&p, &resp.payload) {
            return Err(format!("warm-up lookup of id {} answered wrongly", p.expect));
        }
    }
    let pool_pages = db.image_cached_pages().unwrap_or(0);
    Ok(Setup { server, db, io, open_ms, space_amp, image_bytes, pool_pages, _dir: dir })
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let mut opens = Vec::new();
    let (s, setup_s) = repeated_setup(SETUPS, |i| {
        let s = setup(args.seed, i, args.trace)?;
        opens.push(s.open_ms);
        Ok(s)
    })?;
    let memory = Memory::after_setup();
    r.info("env.durability", "Full (fsync per commit, group commit); no writes while measuring");
    r.info("env.pool_pages", format!("{} (cached image pages after warm-up)", s.pool_pages));
    r.info("env.rows", format!("{TABLE}={ROWS}"));
    r.info("env.image_bytes", s.image_bytes);
    r.set("open_ms", median(&opens));
    r.set("space_amp", s.space_amp);
    let gens: Vec<Gen> =
        (0..CLIENTS).map(|c| Gen { rng: Rng::new(args.seed, c as u64), seed: args.seed }).collect();
    r.info("env.clients", gens.len());
    if args.trace {
        let ckpt_seq = AtomicU64::new(0);
        traced_node(&mut r, args, gens, s.server, s.db, s.io, &ckpt_seq)?;
    } else {
        let run = measured(gens, &s.server, args)?;
        end_to_end(&mut r, &run, setup_s);
        memory.report(&mut r);
    }
    Ok(r)
}
