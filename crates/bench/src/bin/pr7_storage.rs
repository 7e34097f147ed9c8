//! PR7 — paged binary storage benchmark: what the binary WAL codec, the
//! paged checkpoint, and group commit cost and buy.
//!
//! Phase A ingests a deterministic row stream with the binary record codec
//! under `Deferred` durability (one final sync), so the measurement
//! isolates encoding cost and log size rather than fsync latency. It
//! asserts the WAL is ≥2x smaller per row than the recorded JSON-codec
//! figure ([`JSON_WAL_BYTES_PER_ROW`]), and also reports the paged
//! checkpoint image size for the same data.
//!
//! Phase B measures per-commit latency and fsync counts under each
//! [`DurabilityMode`] — the contract table in `docs/storage.md`, as
//! numbers.
//!
//! Phase C commits from several threads at once under `Full` durability
//! and reports fsyncs per commit: group commit lets one leader's fsync
//! cover a whole batch, so the ratio is ≤ 1 and drops as contention grows.
//!
//! Writes `BENCH_pr7.json`. `--check` runs a small variant for CI smoke
//! (the size ratio still asserted ≥ 1.2x to catch regressions without
//! flaking on tiny inputs).

use quarry_bench::{banner, f3, Table};
use quarry_storage::{
    Column, DataType, Database, DurabilityMode, FaultBackend, Op, RealBackend, TableSchema, Value,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// WAL bytes per row of the retired JSON record codec on this workload:
/// 4 846 368 bytes over 30 000 rows, the full-mode JSON ingest row of the
/// committed `BENCH_pr7.json` from before that codec was removed. Kept
/// here because every run, `--check` included, overwrites that file.
const JSON_WAL_BYTES_PER_ROW: f64 = 4_846_368.0 / 30_000.0;

fn schema() -> TableSchema {
    TableSchema::new(
        "readings",
        vec![
            Column::new("id", DataType::Int),
            Column::new("station", DataType::Text),
            Column::new("temp_c", DataType::Float),
            Column::new("humidity", DataType::Int),
            Column::new("pressure", DataType::Int),
            Column::new("ok", DataType::Bool),
        ],
        &["id"],
        &["station"],
    )
    .unwrap()
}

/// One extracted structured record: mostly typed scalars plus a short key
/// string — the row shape the final-structure store holds.
fn reading(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Text(format!("st-{:03}", i % 97)),
        Value::Float((i % 400) as f64 / 10.0 - 20.0),
        Value::Int(30 + i % 60),
        Value::Int(980 + i % 50),
        Value::Bool(i % 7 != 0),
    ]
}

fn tmp(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("quarry-pr7-{label}-{}", std::process::id()))
}

fn cleanup(p: &Path) {
    for ext in ["", "ckpt", "snap-tmp", "tmp"] {
        let q = if ext.is_empty() { p.to_path_buf() } else { p.with_extension(ext) };
        let _ = std::fs::remove_file(q);
    }
}

struct IngestPoint {
    wall_ms: f64,
    rows_per_s: f64,
    wal_bytes: u64,
    ckpt_bytes: u64,
}

/// Ingest `rows` rows in `batch`-row transactions, returning wall time,
/// WAL size, and the paged checkpoint image size.
fn ingest(rows: usize, batch: usize) -> IngestPoint {
    let p = tmp("ingest");
    cleanup(&p);
    let mut db = Database::open(&p).unwrap();
    db.set_durability(DurabilityMode::Deferred);
    db.create_table(schema()).unwrap();

    let start = Instant::now();
    let mut i = 0i64;
    while (i as usize) < rows {
        let tx = db.begin();
        for _ in 0..batch {
            db.insert(tx, "readings", reading(i)).unwrap();
            i += 1;
        }
        db.commit(tx).unwrap();
    }
    db.sync_wal().unwrap();
    let wall = start.elapsed();

    let wal_bytes = std::fs::metadata(&p).unwrap().len();
    db.checkpoint().unwrap();
    let ckpt_bytes = std::fs::metadata(p.with_extension("ckpt")).unwrap().len();
    assert_eq!(db.row_count("readings").unwrap(), rows);
    drop(db);
    cleanup(&p);
    IngestPoint {
        wall_ms: wall.as_secs_f64() * 1e3,
        rows_per_s: rows as f64 / wall.as_secs_f64(),
        wal_bytes,
        ckpt_bytes,
    }
}

struct ModePoint {
    mode: &'static str,
    commits: usize,
    mean_us: f64,
    p95_us: u64,
    syncs: usize,
}

/// Per-commit latency and fsync count for one durability mode: `commits`
/// single-row transactions, one at a time.
fn mode_point(mode: DurabilityMode, label: &'static str, commits: usize) -> ModePoint {
    let p = tmp(&format!("mode-{label}"));
    cleanup(&p);
    let rec = FaultBackend::recording(RealBackend);
    let mut db = Database::open_with(Arc::new(rec.clone()), &p).unwrap();
    db.set_durability(mode);
    db.create_table(schema()).unwrap();
    let before: usize = rec.ops().iter().filter(|o| matches!(o, Op::Sync { .. })).count();

    let mut lat = Vec::with_capacity(commits);
    for i in 0..commits as i64 {
        let tx = db.begin();
        db.insert(tx, "readings", reading(i)).unwrap();
        let start = Instant::now();
        db.commit(tx).unwrap();
        lat.push(start.elapsed().as_micros() as u64);
    }
    let syncs = rec.ops().iter().filter(|o| matches!(o, Op::Sync { .. })).count() - before;
    drop(db);
    cleanup(&p);
    lat.sort_unstable();
    ModePoint {
        mode: label,
        commits,
        mean_us: lat.iter().sum::<u64>() as f64 / commits as f64,
        p95_us: lat[(commits - 1) * 95 / 100],
        syncs,
    }
}

struct GroupPoint {
    threads: usize,
    commits: usize,
    syncs: usize,
    syncs_per_commit: f64,
}

/// `threads` threads each land `per_thread` single-row commits under Full
/// durability; group commit batches their fsyncs.
fn group_commit(threads: usize, per_thread: usize) -> GroupPoint {
    let p = tmp(&format!("group-{threads}"));
    cleanup(&p);
    let rec = FaultBackend::recording(RealBackend);
    let mut db = Database::open_with(Arc::new(rec.clone()), &p).unwrap();
    db.set_durability(DurabilityMode::Full);
    db.create_table(schema()).unwrap();
    let before: usize = rec.ops().iter().filter(|o| matches!(o, Op::Sync { .. })).count();

    let db = Arc::new(db);
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    let tx = db.begin();
                    db.insert(tx, "readings", reading((t * per_thread + i) as i64)).unwrap();
                    db.commit(tx).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let syncs = rec.ops().iter().filter(|o| matches!(o, Op::Sync { .. })).count() - before;
    let commits = threads * per_thread;
    assert_eq!(db.row_count("readings").unwrap(), commits);
    drop(db);
    cleanup(&p);
    GroupPoint { threads, commits, syncs, syncs_per_commit: syncs as f64 / commits as f64 }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    banner(
        "PR7",
        "fixed-size pages, a binary row/WAL codec, and group commit: the \
         same durable relational engine, at a fraction of the bytes and \
         the fsyncs of a JSON record log",
    );

    let (rows, batch, commits, min_ratio) =
        if check { (3_000, 100, 100, 1.2) } else { (30_000, 100, 400, 2.0) };

    // Phase A: ingest throughput and on-disk footprint.
    let bin = ingest(rows, batch);
    let bytes_per_row = bin.wal_bytes as f64 / rows as f64;
    let shrink = JSON_WAL_BYTES_PER_ROW / bytes_per_row;
    println!("\ningest: {rows} rows in {batch}-row transactions, deferred durability");
    let mut t = Table::new(&["rows/s", "wall (ms)", "WAL bytes", "WAL bytes/row", "ckpt bytes"]);
    t.row(&[
        format!("{:.0}", bin.rows_per_s),
        f3(bin.wall_ms),
        bin.wal_bytes.to_string(),
        format!("{bytes_per_row:.1}"),
        bin.ckpt_bytes.to_string(),
    ]);
    t.print();
    println!(
        "binary WAL: {shrink:.2}x smaller per row than the recorded JSON codec \
         ({JSON_WAL_BYTES_PER_ROW:.1} B/row)"
    );
    assert!(
        bytes_per_row <= JSON_WAL_BYTES_PER_ROW / min_ratio,
        "binary WAL must be >= {min_ratio}x smaller per row than the recorded JSON codec \
         ({bytes_per_row:.1} vs {JSON_WAL_BYTES_PER_ROW:.1} B/row)"
    );

    // Phase B: the durability-mode contract as numbers.
    let modes = [
        mode_point(DurabilityMode::Full, "full", commits),
        mode_point(DurabilityMode::Normal, "normal", commits),
        mode_point(DurabilityMode::Deferred, "deferred", commits),
    ];
    println!("\ncommit latency by durability mode ({commits} single-row commits)");
    let mut t = Table::new(&["mode", "mean (us)", "p95 (us)", "fsyncs"]);
    for m in &modes {
        t.row(&[
            m.mode.to_string(),
            format!("{:.1}", m.mean_us),
            m.p95_us.to_string(),
            m.syncs.to_string(),
        ]);
    }
    t.print();
    assert!(modes[0].syncs >= commits, "Full mode must fsync at least once per commit batch");
    assert_eq!(modes[1].syncs, 0, "Normal mode must not fsync on commit");
    assert_eq!(modes[2].syncs, 0, "Deferred mode must not fsync on commit");

    // Phase C: group commit under concurrent committers.
    let threads = if check { 2 } else { 8 };
    let per_thread = commits / threads;
    let g = group_commit(threads, per_thread);
    println!(
        "\ngroup commit: {} commits from {} threads -> {} fsyncs ({:.3} per commit)",
        g.commits, g.threads, g.syncs, g.syncs_per_commit
    );
    assert!(
        g.syncs <= g.commits,
        "group commit must never fsync more than once per commit ({} > {})",
        g.syncs,
        g.commits
    );

    let json_out = format!(
        "{{\n  \"experiment\": \"pr7_storage\",\n  \"mode\": \"{}\",\n  \"ingest\": {{\n    \
         \"rows\": {rows},\n    \"batch\": {batch},\n    \"binary\": {{\"rows_per_s\": {:.1}, \
         \"wal_bytes\": {}, \"ckpt_bytes\": {}}},\n    \
         \"wal_bytes_per_row\": {bytes_per_row:.2},\n    \
         \"json_recorded_wal_bytes_per_row\": {JSON_WAL_BYTES_PER_ROW:.2},\n    \
         \"wal_shrink\": {shrink:.3}\n  }},\n  \"commit_latency\": [\n{}\n  ],\n  \
         \"group_commit\": {{\"threads\": {}, \"commits\": {}, \"fsyncs\": {}, \
         \"syncs_per_commit\": {:.4}}}\n}}\n",
        if check { "check" } else { "full" },
        bin.rows_per_s,
        bin.wal_bytes,
        bin.ckpt_bytes,
        modes
            .iter()
            .map(|m| format!(
                "    {{\"mode\": \"{}\", \"commits\": {}, \"mean_us\": {:.2}, \"p95_us\": {}, \
                 \"fsyncs\": {}}}",
                m.mode, m.commits, m.mean_us, m.p95_us, m.syncs
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        g.threads,
        g.commits,
        g.syncs,
        g.syncs_per_commit,
    );
    std::fs::write("BENCH_pr7.json", json_out).unwrap();
    println!("\nwrote BENCH_pr7.json");
}
