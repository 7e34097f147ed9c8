//! `write_mix`: writes beside reads on a durable store under full
//! durability (every commit fsynced, concurrent commits grouped). Each
//! client repeats a fixed cycle — one `InsertRows` batch of new rows, one
//! `DeleteRows` batch of its oldest rows (so the table size stays
//! constant), then a few secondary-index `Eq` reads that return a
//! handful of rows. Client 0 also sends `Checkpoint` every
//! [`CKPT_EVERY`] cycles, so several checkpoints complete per run.

use crate::counting::{CountingBackend, FileKind, IoCounters};
use crate::load::{Kind, OpGen, Planned, Rng, Sample, CLIENTS};
use crate::node::{measured, traced_node};
use crate::report::Report;
use crate::stats::median;
use crate::workload::{
    durable_quarry, end_to_end, repeated_setup, row_bytes, store_bytes, write_latency, DataDir,
    Memory,
};
use crate::Args;
use quarry_core::Quarry;
use quarry_query::engine::{Predicate, Query};
use quarry_serve::protocol::{Payload, Request};
use quarry_serve::{ServeConfig, Server};
use quarry_storage::{Column, DataType, Database, TableSchema, Value};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Set-ups per run (each loads and checkpoints 4 400 rows); `setup_s` is
/// their median.
const SETUPS: usize = 5;
const TABLE: &str = "notes";
/// Rows that are never deleted: ids `0..BASE`.
const BASE: i64 = 4_000;
/// Distinct `grp` values; every group holds `BASE / GROUPS` base rows.
const GROUPS: i64 = 400;
/// Rows each client keeps live beyond the base rows.
const WINDOW: usize = 200;
/// Rows per insert and per delete batch.
const BATCH: usize = 10;
/// Index reads per cycle.
const READS: u64 = 4;
/// Client 0 checkpoints once every this many cycles.
const CKPT_EVERY: u64 = 150;
/// Body characters per row (rows encode to about 250 bytes).
const BODY: usize = 220;

const WORDS: [&str; 6] = ["curated ", "feedback ", "row ", "edit ", "user ", "correction "];

fn schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int),
            Column::new("body", DataType::Text),
        ],
        &["id"],
        &["grp"],
    )
    .expect("static schema is valid")
}

/// Row `id` generated from `seed`.
fn row(seed: u64, id: i64) -> Vec<Value> {
    let mut rng = Rng::new(seed, 0x2_0000_0000 + id as u64);
    let mut body = format!("note-{id}:");
    while body.len() < BODY {
        body.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
    }
    body.truncate(BODY);
    vec![Value::Int(id), Value::Int(id % GROUPS), Value::Text(body)]
}

/// First id of client `c`'s own rows.
fn first_id(c: usize) -> i64 {
    1_000_000 * (c as i64 + 1)
}

enum Expect {
    Insert(Vec<i64>),
    Delete(usize),
    Read(i64),
    Checkpoint,
}

/// One client's cycle. `window` holds the client's acknowledged live
/// rows, oldest first.
struct Gen {
    client: usize,
    seed: u64,
    rng: Rng,
    next_id: i64,
    window: VecDeque<i64>,
    step: u64,
    cycle: u64,
    /// Odd while a checkpoint is in flight; shared with the pool sampler.
    ckpt_seq: Arc<AtomicU64>,
}

impl Gen {
    fn steps(&self) -> u64 {
        let ckpt = self.client == 0 && self.cycle % CKPT_EVERY == CKPT_EVERY - 1;
        2 + READS + u64::from(ckpt)
    }
}

impl OpGen for Gen {
    type Expect = Expect;

    fn next(&mut self) -> Planned<Expect> {
        let step = self.step;
        self.step += 1;
        if self.step == self.steps() {
            self.step = 0;
            self.cycle += 1;
        }
        match step {
            0 => {
                let ids: Vec<i64> = (self.next_id..self.next_id + BATCH as i64).collect();
                self.next_id += BATCH as i64;
                let rows = ids.iter().map(|&id| row(self.seed, id)).collect();
                Planned {
                    kind: Kind::Write,
                    req: Request::InsertRows { table: TABLE.into(), rows },
                    expect: Expect::Insert(ids),
                }
            }
            1 => {
                let n = BATCH.min(self.window.len());
                let keys = self.window.iter().take(n).map(|&id| vec![Value::Int(id)]).collect();
                Planned {
                    kind: Kind::Write,
                    req: Request::DeleteRows { table: TABLE.into(), keys },
                    expect: Expect::Delete(n),
                }
            }
            s if s < 2 + READS => {
                let g = self.rng.below(GROUPS as u64) as i64;
                let q = Query::scan(TABLE).filter(vec![Predicate::Eq("grp".into(), Value::Int(g))]);
                Planned { kind: Kind::Read, req: Request::Query(q), expect: Expect::Read(g) }
            }
            _ => {
                self.ckpt_seq.fetch_add(1, Ordering::SeqCst);
                Planned { kind: Kind::Other, req: Request::Checkpoint, expect: Expect::Checkpoint }
            }
        }
    }

    fn check(&mut self, planned: &Planned<Expect>, payload: &Payload) -> bool {
        let done = matches!(payload, Payload::Done);
        match &planned.expect {
            Expect::Insert(ids) => {
                if done {
                    self.window.extend(ids);
                }
                done
            }
            Expect::Delete(n) => {
                if done {
                    self.window.drain(..*n);
                }
                done
            }
            Expect::Read(g) => match payload {
                Payload::Rows { rows, .. } => {
                    rows.len() as i64 >= BASE / GROUPS
                        && rows.iter().all(|r| {
                            r.get(1) == Some(&Value::Int(*g))
                                && matches!(r.first(), Some(Value::Int(id)) if *r == row(self.seed, *id))
                        })
                }
                _ => false,
            },
            Expect::Checkpoint => {
                self.ckpt_seq.fetch_add(1, Ordering::SeqCst);
                done
            }
        }
    }

    fn failed(&mut self, planned: &Planned<Expect>) {
        // No reply: the checkpoint is no longer in flight either way.
        if matches!(planned.expect, Expect::Checkpoint) {
            self.ckpt_seq.fetch_add(1, Ordering::SeqCst);
        }
    }
}

struct Setup {
    server: Server,
    db: Arc<Database>,
    io: Arc<IoCounters>,
    wal: PathBuf,
    image_bytes: u64,
    /// Removed last: the server's files live here.
    _dir: DataDir,
}

/// Load the base rows and each client's window, checkpoint, serve.
fn setup(seed: u64, tag: usize, trace: bool) -> Result<Setup, String> {
    let dir = DataDir::new("write_mix", tag)?;
    let wal = dir.path().join("store.wal");
    let (backend, io) = CountingBackend::new();
    let quarry = durable_quarry(&wal, trace.then_some(&backend))?;
    let db = Arc::clone(&quarry.db);
    db.create_table(schema()).map_err(|e| e.to_string())?;
    let own = (0..CLIENTS).flat_map(|c| first_id(c)..first_id(c) + WINDOW as i64);
    let ids: Vec<i64> = (0..BASE).chain(own).collect();
    for chunk in ids.chunks(1_000) {
        let tx = db.begin();
        for &id in chunk {
            db.insert(tx, TABLE, row(seed, id)).map_err(|e| e.to_string())?;
        }
        db.commit(tx).map_err(|e| e.to_string())?;
    }
    quarry.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let image_bytes = std::fs::metadata(wal.with_extension("ckpt")).map_or(0, |m| m.len());
    let server = Server::start(quarry, "127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    Ok(Setup { server, db, io, wal, image_bytes, _dir: dir })
}

fn gens(seed: u64, ckpt_seq: &Arc<AtomicU64>) -> Vec<Gen> {
    (0..CLIENTS)
        .map(|c| Gen {
            client: c,
            seed,
            rng: Rng::new(seed, c as u64),
            next_id: first_id(c) + WINDOW as i64,
            window: (first_id(c)..first_id(c) + WINDOW as i64).collect(),
            step: 0,
            cycle: 0,
            ckpt_seq: Arc::clone(ckpt_seq),
        })
        .collect()
}

/// After the run: the row count must equal inserts − deletes, and after
/// a final checkpoint and a reopen from the files every acknowledged row
/// must be present. Reports `space_amp` from the final checkpoint.
fn verify(
    r: &mut Report,
    seed: u64,
    quarry: Quarry,
    wal: &Path,
    gens: &[Gen],
) -> Result<(), String> {
    let live: Vec<i64> =
        (0..BASE).chain(gens.iter().flat_map(|g| g.window.iter().copied())).collect();
    let count = quarry.db.row_count(TABLE).map_err(|e| e.to_string())?;
    r.check(
        &format!("final row count {count} equals base + inserts − deletes ({})", live.len()),
        count == live.len(),
    );
    quarry.checkpoint().map_err(|e| format!("final checkpoint: {e}"))?;
    drop(quarry);
    let live_bytes: u64 = live.iter().map(|&id| row_bytes(&row(seed, id))).sum();
    r.set("space_amp", store_bytes(wal) as f64 / live_bytes as f64);
    let reopened = durable_quarry(wal, None)?;
    let db = &reopened.db;
    let tx = db.begin();
    let present = live
        .iter()
        .filter(|&&id| db.get(tx, TABLE, &[Value::Int(id)]).ok() == Some(row(seed, id)))
        .count();
    let _ = db.commit(tx);
    let reopened_count = db.row_count(TABLE).map_err(|e| e.to_string())?;
    r.check(
        &format!("after reopening, {present} of {} acknowledged rows present, {reopened_count} rows in all", live.len()),
        present == live.len() && reopened_count == live.len(),
    );
    Ok(())
}

/// Server times of the answered samples of one kind in a traced run;
/// `server_us` has one entry per sample.
fn server_ms_of(kind: Kind, samples: &[Sample], server_us: &[Option<u64>]) -> Vec<f64> {
    samples
        .iter()
        .zip(server_us)
        .filter(|(s, _)| s.kind == kind)
        .filter_map(|(_, us)| us.map(|us| us as f64 / 1e3))
        .collect()
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let (s, setup_s) = repeated_setup(SETUPS, |i| setup(args.seed, i, args.trace))?;
    let memory = Memory::after_setup();
    r.info("env.durability", "Full: every commit fsynced, concurrent commits grouped");
    r.info(
        "env.cycle",
        format!("per client: insert {BATCH}, delete oldest {BATCH}, {READS} index reads; client 0 checkpoints every {CKPT_EVERY} cycles"),
    );
    r.info("env.pool_pages", "64 (engine image pool; restarts at every checkpoint)");
    r.info("env.rows", format!("{TABLE}={} (constant)", BASE as usize + CLIENTS * WINDOW));
    r.info("env.image_bytes", s.image_bytes);
    let ckpt_seq = Arc::new(AtomicU64::new(0));
    let gens = gens(args.seed, &ckpt_seq);
    r.info("env.clients", gens.len());
    if args.trace {
        let t = traced_node(&mut r, args, gens, s.server, s.db, s.io, &ckpt_seq)?;
        write_latency(&mut r, &t.base);
        // WAL and checkpoint costs over the traced wire third.
        let (io_before, io_after) = t.io.ok_or("the traced run sampled no I/O")?;
        let io = io_after.since(&io_before);
        let (wal, ckpt) = (FileKind::Wal as usize, FileKind::Checkpoint as usize);
        let mut writes = 0u64;
        let mut ckpt_ms = Vec::new();
        for (c, conn) in t.wire.clients.iter().zip(&t.conns) {
            writes += c.samples.iter().filter(|s| s.kind == Kind::Write && s.ok).count() as u64;
            ckpt_ms.extend(server_ms_of(Kind::Other, &c.samples, &conn.trace.server_us));
        }
        let rows = writes * BATCH as u64;
        r.set("wal.bytes_per_row", io.bytes[wal] as f64 / rows.max(1) as f64);
        r.set("wal.syncs_per_commit", io.syncs[wal] as f64 / writes.max(1) as f64);
        r.set("checkpoint.ms", median(&ckpt_ms));
        r.set("checkpoint.bytes", io.bytes[ckpt] as f64 / ckpt_ms.len().max(1) as f64);
        r.info("io_in_wire_third", format!("{io:?}"));
        r.info("checkpoints_in_wire_third", ckpt_ms.len());
        verify(&mut r, args.seed, t.after, &s.wal, &t.replay.gens)?;
    } else {
        let run = measured(gens, &s.server, args)?;
        end_to_end(&mut r, &run, setup_s);
        write_latency(&mut r, &run);
        memory.report(&mut r);
        r.info("checkpoints", run.latencies(Kind::Other).len());
        let (gens, conns, _) = run.split();
        drop(conns);
        verify(&mut r, args.seed, s.server.join(), &s.wal, &gens)?;
    }
    Ok(r)
}
