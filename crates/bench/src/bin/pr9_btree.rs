//! PR9 — B-tree checkpoint benchmark: what lazy, paged table bases buy
//! over a fully materialized table.
//!
//! Builds the same table twice: once left in the WAL with no checkpoint
//! (`resident`: `open` replays every row into the in-memory overlay, the
//! fully materialized read path), and once checkpointed to a B-tree image
//! (`btree-v2`: `open` merely points at the image — rows fault in through
//! a bounded buffer pool on first touch). For each it measures:
//!
//! - open wall time, and how many rows are resident right after open
//!   (the overlay row count: N for the resident path, 0 for the B-tree);
//! - cached image pages after open and after a random point-lookup
//!   storm — always bounded by the pool, never the corpus;
//! - point-lookup latency through each path, plus the image buffer
//!   pool's hit/miss/eviction counters ([`PoolStats`]) for the B-tree.
//!
//! Asserts the PR-9 shape of the numbers: a B-tree open materializes
//! zero rows and caches at most a pool's worth of pages, while reads
//! through it still return the same rows. Writes `BENCH_pr9.json`;
//! `--check` runs a small variant for CI smoke with the same assertions.

use quarry_bench::{banner, f3, Table};
use quarry_storage::{Column, DataType, Database, DurabilityMode, TableSchema, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The image buffer pool's frame budget (`CKPT_POOL_PAGES` in the
/// engine): the bound we assert on resident image pages.
const POOL_PAGES: usize = 64;

fn items_schema() -> TableSchema {
    TableSchema::new(
        "items",
        vec![
            Column::new("id", DataType::Int),
            Column::new("tag", DataType::Text),
            Column::new("payload", DataType::Text),
        ],
        &["id"],
        &["tag"],
    )
    .unwrap()
}

/// One row: a small key, an indexed low-cardinality tag, and a ~200-byte
/// payload so the corpus dwarfs the buffer pool.
fn item(i: i64) -> Vec<Value> {
    let mut payload = format!("item-{i:06}:");
    while payload.len() < 200 {
        payload.push_str("structured-extraction-output ");
    }
    vec![Value::Int(i), Value::Text(format!("tag-{:02}", i % 41)), Value::Text(payload)]
}

fn tmp(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("quarry-pr9-{label}-{}", std::process::id()))
}

fn cleanup(p: &Path) {
    for ext in ["", "ckpt", "ckpt-tmp", "tmp"] {
        let q = if ext.is_empty() { p.to_path_buf() } else { p.with_extension(ext) };
        let _ = std::fs::remove_file(q);
    }
}

/// Ingest `rows` rows, then either publish one checkpoint or leave every
/// row in the WAL, keeping the files on disk for the open-phase
/// measurement.
fn build_store(checkpoint: bool, rows: usize, label: &str) -> PathBuf {
    let p = tmp(label);
    cleanup(&p);
    let mut db = Database::open(&p).unwrap();
    db.set_durability(DurabilityMode::Deferred);
    db.create_table(items_schema()).unwrap();
    let mut i = 0i64;
    while (i as usize) < rows {
        let tx = db.begin();
        for _ in 0..500.min(rows as i64 - i) {
            db.insert(tx, "items", item(i)).unwrap();
            i += 1;
        }
        db.commit(tx).unwrap();
    }
    if checkpoint {
        db.checkpoint().unwrap();
    } else {
        db.sync_wal().unwrap();
    }
    p
}

struct OpenPoint {
    format: &'static str,
    open_ms: f64,
    resident_rows: usize,
    cached_after_open: Option<usize>,
    cached_after_reads: Option<usize>,
    lookup_mean_us: f64,
    lookup_p95_us: u64,
    pool: Option<(u64, u64, u64)>, // hits, misses, evictions
    ckpt_bytes: Option<u64>,
}

/// Open the prepared store, then hammer it with `lookups` random point
/// reads by primary key.
fn measure(checkpoint: bool, label: &'static str, rows: usize, lookups: usize) -> OpenPoint {
    let p = build_store(checkpoint, rows, label);
    let ckpt_bytes = std::fs::metadata(p.with_extension("ckpt")).ok().map(|m| m.len());

    let start = Instant::now();
    let db = Database::open(&p).unwrap();
    let open_ms = start.elapsed().as_secs_f64() * 1e3;
    let resident_rows = db.overlay_row_count("items").unwrap();
    let cached_after_open = db.image_cached_pages();

    // Deterministic pseudo-random probe sequence (no clock seeding: runs
    // must be comparable across read paths).
    let mut lat = Vec::with_capacity(lookups);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..lookups {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let id = (x >> 17) as usize % rows;
        let tx = db.begin();
        let t0 = Instant::now();
        let row = db.get(tx, "items", &[Value::Int(id as i64)]).unwrap();
        lat.push(t0.elapsed().as_micros() as u64);
        db.commit(tx).unwrap();
        assert_eq!(row[0], Value::Int(id as i64), "lookup returned the wrong row");
    }
    let cached_after_reads = db.image_cached_pages();
    let pool = db.image_pool_stats().map(|s| (s.hits, s.misses, s.evictions));
    assert_eq!(db.row_count("items").unwrap(), rows);
    drop(db);
    cleanup(&p);

    lat.sort_unstable();
    OpenPoint {
        format: label,
        open_ms,
        resident_rows,
        cached_after_open,
        cached_after_reads,
        lookup_mean_us: lat.iter().sum::<u64>() as f64 / lookups as f64,
        lookup_p95_us: lat[(lookups - 1) * 95 / 100],
        pool,
        ckpt_bytes,
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    banner(
        "PR9",
        "B-tree checkpoint images: opening a store no longer loads the \
         corpus — rows fault in through a bounded buffer pool, and point \
         reads go straight down the tree",
    );

    let (rows, lookups) = if check { (2_000, 300) } else { (20_000, 2_000) };

    let resident = measure(false, "resident", rows, lookups);
    let tree = measure(true, "btree-v2", rows, lookups);

    println!("\nopen + {lookups} random point lookups over {rows} rows");
    let mut t = Table::new(&[
        "read path",
        "open (ms)",
        "resident rows",
        "cached pages",
        "lookup mean (us)",
        "p95 (us)",
        "ckpt bytes",
    ]);
    for p in [&resident, &tree] {
        t.row(&[
            p.format.to_string(),
            f3(p.open_ms),
            p.resident_rows.to_string(),
            p.cached_after_reads.map_or("-".into(), |c| c.to_string()),
            format!("{:.1}", p.lookup_mean_us),
            p.lookup_p95_us.to_string(),
            p.ckpt_bytes.map_or("-".into(), |b| b.to_string()),
        ]);
    }
    t.print();
    if let Some((hits, misses, evictions)) = tree.pool {
        let rate = hits as f64 / (hits + misses).max(1) as f64;
        println!(
            "btree pool: {hits} hits / {misses} misses ({:.1}% hit rate), {evictions} evictions",
            rate * 100.0
        );
    }

    // The PR-9 contract: the WAL-only open materializes every row; the
    // B-tree open materializes none and stays within the pool budget.
    assert_eq!(resident.resident_rows, rows, "WAL-only open must materialize the table");
    assert_eq!(tree.resident_rows, 0, "btree open must not materialize any rows");
    let cached_open = tree.cached_after_open.expect("btree store must expose an image pool");
    let cached_reads = tree.cached_after_reads.unwrap();
    assert!(
        cached_open <= POOL_PAGES && cached_reads <= POOL_PAGES,
        "image residency must stay within the pool ({cached_open}/{cached_reads} > {POOL_PAGES})"
    );
    let (_, misses, _) = tree.pool.unwrap();
    assert!(misses > 0, "a corpus larger than the pool must fault pages in on read");

    let pool_json = tree
        .pool
        .map(|(h, m, e)| {
            format!(
                "{{\"hits\": {h}, \"misses\": {m}, \"evictions\": {e}, \"hit_rate\": {:.4}}}",
                h as f64 / (h + m).max(1) as f64
            )
        })
        .unwrap();
    let point = |p: &OpenPoint| {
        format!(
            "    {{\"format\": \"{}\", \"open_ms\": {:.3}, \"resident_rows_after_open\": {}, \
             \"cached_pages_after_reads\": {}, \"lookup_mean_us\": {:.2}, \"lookup_p95_us\": {}, \
             \"ckpt_bytes\": {}}}",
            p.format,
            p.open_ms,
            p.resident_rows,
            p.cached_after_reads.map_or("null".into(), |c| c.to_string()),
            p.lookup_mean_us,
            p.lookup_p95_us,
            p.ckpt_bytes.map_or("null".into(), |b| b.to_string())
        )
    };
    let json_out = format!(
        "{{\n  \"experiment\": \"pr9_btree\",\n  \"mode\": \"{}\",\n  \"rows\": {rows},\n  \
         \"lookups\": {lookups},\n  \"pool_pages\": {POOL_PAGES},\n  \"formats\": [\n{},\n{}\n  \
         ],\n  \"btree_pool\": {pool_json}\n}}\n",
        if check { "check" } else { "full" },
        point(&resident),
        point(&tree),
    );
    std::fs::write("BENCH_pr9.json", json_out).unwrap();
    println!("\nwrote BENCH_pr9.json");
}
