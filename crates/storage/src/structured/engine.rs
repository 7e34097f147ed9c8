//! The [`Database`] engine: tables + locks + WAL, behind a thread-safe API.
//!
//! Concurrency model: callers `begin()` a transaction, perform operations
//! (each taking strict-2PL locks that are held to transaction end), then
//! `commit()` (WAL commit record + fsync) or `abort()` (in-memory undo).
//! Auto-commit wrappers exist for one-shot operations. Any operation may
//! fail with [`StorageError::TxAborted`] (wait-die victim); the caller is
//! expected to `abort()` and retry with a fresh transaction.

use crate::error::StorageError;
use crate::faultfs::{RealBackend, StorageBackend};
use crate::page::{PageType, NO_PAGE};
use crate::pager::{read_chain, ChainWriter, Pager, PoolStats};
use crate::value::Value;
use crate::wal::{CommitQueue, DurabilityMode, Wal};
use crate::Result;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::index::SecondaryIndex;
use super::lock::{LockManager, LockMode, LockTarget};
use super::paged::{self, CheckpointImage, TableBase};
use super::recovery::LogRecord;
use super::table::{Row, RowId, TableSchema};
use super::view::{DbSnapshot, TableView};

/// Buffer-pool frames used while building or loading a checkpoint image:
/// bounds peak checkpoint memory to ~256 KiB of pages regardless of table
/// size.
const CKPT_POOL_PAGES: usize = 64;

/// Transaction identifier; doubles as the wait-die age (smaller = older).
pub type TxId = u64;

/// Cardinality statistics of one secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Total (value, row) pairs indexed (= indexed rows).
    pub entries: usize,
    /// Number of distinct indexed values.
    pub distinct: usize,
}

impl IndexStats {
    /// Expected rows matched by an equality probe under a uniform
    /// assumption (at least 1 when the index is non-empty).
    pub fn eq_estimate(&self) -> usize {
        self.entries.checked_div(self.distinct).map_or(0, |e| e.max(1))
    }
}

/// How [`Database::select`] reaches a table's rows.
#[derive(Debug, Clone, Copy)]
pub enum ScanAccess<'a> {
    /// Walk the whole heap in row-id order (table-level shared lock).
    Full,
    /// Probe the secondary index on `column` for values in `[lo, hi]`
    /// (inclusive, either bound optional), then fetch the matching rows in
    /// row-id order. Errors when the column carries no index.
    Index {
        /// Indexed column.
        column: &'a str,
        /// Inclusive lower bound (`None` = unbounded).
        lo: Option<&'a Value>,
        /// Inclusive upper bound (`None` = unbounded).
        hi: Option<&'a Value>,
    },
}

/// One table: a checkpoint-image **base** (immutable, on disk, faulted in
/// through a bounded buffer pool) plus an in-memory **overlay** of
/// everything written since that checkpoint. A table with no base (fresh,
/// in-memory, or rebuilt from the WAL alone) is fully resident:
/// `base = None` and the overlay is the table.
#[derive(Clone)]
struct Table {
    schema: TableSchema,
    /// Overlay rows: written (or rewritten) since the last checkpoint.
    heap: HashMap<RowId, Row>,
    /// Primary-key values → row id, overlay rows only.
    pk: HashMap<Vec<Value>, RowId>,
    /// Column name → secondary index over the overlay rows (plus, for an
    /// index created after the checkpoint, a backfill of the base rows
    /// until the next checkpoint folds it into a tree).
    indexes: HashMap<String, SecondaryIndex>,
    /// The checkpoint image slice this overlay stacks on, if any.
    base: Option<TableBase>,
    /// Base row ids deleted or superseded since the checkpoint. A base row
    /// is live iff its id is neither here nor in `heap`.
    tombstones: HashSet<RowId>,
    /// Exact number of live rows across base + overlay.
    live_rows: u64,
    next_row: u64,
    /// Write version: stamped from the database-wide write clock on every
    /// change to this table's rows (including undo and redo), so two
    /// observations of the same version imply identical table contents.
    /// Creation takes a fresh stamp too, so a dropped-and-recreated table
    /// never aliases versions with its predecessor.
    version: u64,
    /// Version of the last change that is *committed*. Strictly trails
    /// `version` exactly while some active transaction holds uncommitted
    /// changes to this table — `version != stable_version` is the dirty
    /// test that routes [`Database::snapshot`] onto its rollback path.
    /// Commit and abort restamp both fields together (with a fresh clock
    /// tick), so a stable version, like `version`, never aliases two
    /// different committed contents.
    stable_version: u64,
}

impl Table {
    fn new(schema: TableSchema, stamp: u64) -> Table {
        let indexes = schema.indexes.iter().map(|n| (n.clone(), SecondaryIndex::new())).collect();
        Table {
            schema,
            heap: HashMap::new(),
            pk: HashMap::new(),
            indexes,
            base: None,
            tombstones: HashSet::new(),
            live_rows: 0,
            next_row: 0,
            version: stamp,
            stable_version: stamp,
        }
    }

    /// A lazily-loaded table: empty overlay over a checkpoint base.
    fn from_base(schema: TableSchema, base: TableBase, stamp: u64) -> Table {
        let mut t = Table::new(schema, stamp);
        t.live_rows = base.meta.nrows;
        t.next_row = base.meta.next_row;
        t.base = Some(base);
        t
    }

    /// Drop the overlay onto a freshly-published checkpoint base (which
    /// holds identical contents, so versions are untouched).
    fn reset_to_base(&mut self, base: TableBase) {
        self.heap = HashMap::new();
        self.pk = HashMap::new();
        self.tombstones = HashSet::new();
        self.indexes =
            self.schema.indexes.iter().map(|n| (n.clone(), SecondaryIndex::new())).collect();
        self.live_rows = base.meta.nrows;
        self.next_row = self.next_row.max(base.meta.next_row);
        self.base = Some(base);
    }

    /// The overlay sorted by row id, borrowed — the shape the merge
    /// helpers in [`paged`] consume.
    fn sorted_overlay(heap: &HashMap<RowId, Row>) -> Vec<(RowId, &Row)> {
        let mut v: Vec<(RowId, &Row)> = heap.iter().map(|(id, r)| (*id, r)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    fn index_row(&mut self, row_id: RowId, row: &Row) {
        for (name, ix) in &mut self.indexes {
            let ci = self.schema.column_index(name).expect("index column exists");
            ix.insert(row[ci].clone(), row_id);
        }
    }

    fn unindex_row(&mut self, row_id: RowId, row: &Row) {
        for (name, ix) in &mut self.indexes {
            let ci = self.schema.column_index(name).expect("index column exists");
            ix.remove(&row[ci], row_id);
        }
    }

    /// True when `row_id` could have a row in the base image.
    fn in_base_range(&self, row_id: RowId) -> bool {
        self.base.as_ref().is_some_and(|b| row_id.0 < b.meta.next_row)
    }

    /// The base image's row for `row_id`, ignoring the overlay and
    /// tombstones.
    fn base_row(&self, row_id: RowId) -> Result<Option<Row>> {
        match &self.base {
            Some(b) if row_id.0 < b.meta.next_row => b.get_row(row_id),
            _ => Ok(None),
        }
    }

    /// Remove `row_id` from the overlay maps; `None` if not overlaid.
    fn overlay_unhook(&mut self, row_id: RowId) -> Option<Row> {
        let row = self.heap.remove(&row_id)?;
        self.pk.remove(&self.schema.key_of(&row));
        self.unindex_row(row_id, &row);
        Some(row)
    }

    /// Install `row` into the overlay maps.
    fn overlay_hook(&mut self, row_id: RowId, row: Row) {
        self.pk.insert(self.schema.key_of(&row), row_id);
        self.index_row(row_id, &row);
        self.heap.insert(row_id, row);
        self.next_row = self.next_row.max(row_id.0 + 1);
    }

    /// The live row under `row_id`: overlay first, then (unless
    /// tombstoned) the base image.
    fn effective_row(&self, row_id: RowId) -> Result<Option<Row>> {
        if let Some(r) = self.heap.get(&row_id) {
            return Ok(Some(r.clone()));
        }
        if self.tombstones.contains(&row_id) {
            return Ok(None);
        }
        self.base_row(row_id)
    }

    /// The row id holding primary key `key`, if live: overlay pk first;
    /// a base pk hit counts only if that base row isn't shadowed.
    fn lookup_pk(&self, key: &[Value]) -> Result<Option<RowId>> {
        if let Some(id) = self.pk.get(key) {
            return Ok(Some(*id));
        }
        let Some(b) = &self.base else { return Ok(None) };
        match b.lookup_pk(key)? {
            Some(id) if !self.heap.contains_key(&id) && !self.tombstones.contains(&id) => {
                Ok(Some(id))
            }
            _ => Ok(None),
        }
    }

    /// Remove the live row under `row_id` from wherever it lives and
    /// return it: overlay rows are unhooked (tombstoning the id if the
    /// base may also hold it); base rows are tombstoned.
    fn unhook_effective(&mut self, row_id: RowId) -> Result<Option<Row>> {
        if let Some(row) = self.overlay_unhook(row_id) {
            if self.in_base_range(row_id) {
                self.tombstones.insert(row_id);
            }
            return Ok(Some(row));
        }
        if self.tombstones.contains(&row_id) {
            return Ok(None);
        }
        match self.base_row(row_id)? {
            Some(row) => {
                // A post-checkpoint CREATE INDEX backfills base rows into
                // the overlay index; those entries die with the row.
                self.unindex_row(row_id, &row);
                self.tombstones.insert(row_id);
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    /// Candidate row ids for an index probe, merged from the base index
    /// tree and the overlay index, in (value, row-id) order.
    fn index_candidates(
        &self,
        column: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<RowId>> {
        let ix = self.indexes.get(column).ok_or_else(|| {
            StorageError::SchemaViolation(format!("no index on {}.{column}", self.schema.name))
        })?;
        let shadowed = |id: RowId| self.heap.contains_key(&id) || self.tombstones.contains(&id);
        paged::merged_index_ids(self.base.as_ref(), column, ix, &shadowed, lo, hi)
    }

    /// Cardinality statistics for the index on `column`, if any. With a
    /// base tree the distinct count is estimated (base distinct + overlay
    /// distinct, capped at the row count); without one it is exact.
    fn index_stats(&self, column: &str) -> Option<IndexStats> {
        let ix = self.indexes.get(column)?;
        let distinct = match self.base.as_ref().and_then(|b| b.meta.indexes.get(column)) {
            Some(m) => (m.distinct as usize + ix.distinct_values()).min(self.live_rows as usize),
            None => ix.distinct_values(),
        };
        Some(IndexStats { entries: self.live_rows as usize, distinct })
    }

    /// Add a secondary index on `column`, backfilled from every live row
    /// (base included — the backfill lives in the overlay index until the
    /// next checkpoint folds it into a tree). No-op when the index already
    /// exists; `Ok(false)` if the column is unknown.
    fn build_index(&mut self, column: &str) -> Result<bool> {
        let Some(ci) = self.schema.column_index(column) else { return Ok(false) };
        if self.indexes.contains_key(column) {
            return Ok(true);
        }
        let mut ix = SecondaryIndex::new();
        let overlay = Self::sorted_overlay(&self.heap);
        paged::for_each_live_row(
            self.base.as_ref(),
            &overlay,
            &self.tombstones,
            &mut |id, row| {
                ix.insert(row[ci].clone(), id);
                Ok(())
            },
        )?;
        self.schema.indexes.push(column.to_string());
        self.indexes.insert(column.to_string(), ix);
        Ok(true)
    }

    /// Apply an insert with a predetermined row id (redo path & normal
    /// path). Convergent under replay: re-inserting a row the base
    /// already holds keeps `live_rows` exact.
    fn apply_insert(&mut self, stamp: u64, row_id: RowId, row: Row) -> Result<()> {
        let prev = self.overlay_unhook(row_id);
        let was_tombstoned = self.tombstones.remove(&row_id);
        let was_live = prev.is_some() || (!was_tombstoned && self.base_row(row_id)?.is_some());
        self.overlay_hook(row_id, row);
        if !was_live {
            self.live_rows += 1;
        }
        self.version = stamp;
        Ok(())
    }

    fn apply_update(&mut self, stamp: u64, row_id: RowId, row: Row) -> Result<Option<Row>> {
        let Some(old) = self.unhook_effective(row_id)? else { return Ok(None) };
        self.overlay_hook(row_id, row);
        self.version = stamp;
        Ok(Some(old))
    }

    fn apply_delete(&mut self, stamp: u64, row_id: RowId) -> Result<Option<Row>> {
        let old = self.unhook_effective(row_id)?;
        if old.is_some() {
            self.live_rows -= 1;
            self.version = stamp;
        }
        Ok(old)
    }
}

/// Per-transaction bookkeeping: how to undo each change, newest last.
enum Undo {
    Insert { table: String, row_id: RowId },
    Update { table: String, row_id: RowId, old: Row },
    Delete { table: String, row_id: RowId, old: Row },
}

impl Undo {
    fn table(&self) -> &str {
        match self {
            Undo::Insert { table, .. }
            | Undo::Update { table, .. }
            | Undo::Delete { table, .. } => table,
        }
    }

    /// Apply the inverse of the logged change to `t`. Used by both abort
    /// (the caller restamps versions) and the snapshot rollback path
    /// (where `t` is a private clone).
    ///
    /// Works purely on the overlay, which makes it infallible: every row
    /// a live transaction wrote sits in the overlay (strict 2PL pins it
    /// there — no checkpoint can fold it away while the transaction is
    /// active, since checkpoints require quiescence), so undo never needs
    /// to read the base image.
    fn apply_to(&self, t: &mut Table) {
        match self {
            Undo::Insert { row_id, .. } => {
                if t.overlay_unhook(*row_id).is_some() {
                    t.live_rows -= 1;
                }
            }
            Undo::Update { row_id, old, .. } => {
                if t.overlay_unhook(*row_id).is_some() {
                    // If the updated row was a base row its id stays
                    // tombstoned; the restored overlay copy shadows it.
                    t.overlay_hook(*row_id, old.clone());
                }
            }
            Undo::Delete { row_id, old, .. } => {
                let prev = t.overlay_unhook(*row_id);
                t.tombstones.remove(row_id);
                t.overlay_hook(*row_id, old.clone());
                if prev.is_none() {
                    t.live_rows += 1;
                }
            }
        }
    }
}

#[derive(Default)]
struct TxState {
    undo: Vec<Undo>,
}

/// A transactional, WAL-backed, multi-table store.
///
/// All methods take `&self`; the engine is internally synchronized and is
/// meant to be shared across threads via `Arc`.
///
/// ```
/// use quarry_storage::{Column, Database, DataType, TableSchema, Value};
///
/// let db = Database::in_memory();
/// db.create_table(TableSchema::new(
///     "cities",
///     vec![Column::new("name", DataType::Text), Column::new("population", DataType::Int)],
///     &["name"],
///     &[],
/// )?)?;
///
/// let tx = db.begin();
/// db.insert(tx, "cities", vec!["Madison".into(), Value::Int(250_000)])?;
/// db.commit(tx)?;
///
/// let rows = db.scan_autocommit("cities")?;
/// assert_eq!(rows[0][1], Value::Int(250_000));
/// # Ok::<(), quarry_storage::StorageError>(())
/// ```
pub struct Database {
    tables: Mutex<HashMap<String, Table>>,
    locks: LockManager,
    wal: Mutex<Option<Wal>>,
    /// Storage backend shared by the WAL and the checkpoint files.
    backend: Arc<dyn StorageBackend>,
    active: Mutex<HashMap<TxId, TxState>>,
    next_tx: AtomicU64,
    /// Monotone clock stamping every table mutation; see [`Table::version`].
    write_clock: AtomicU64,
    /// Last published per-table views, keyed by table name: the snapshot
    /// cache. A table whose version is unchanged since the last
    /// [`Database::snapshot`] reuses its `Arc` instead of re-copying rows.
    views: Mutex<HashMap<String, Arc<TableView>>>,
    /// What a commit waits for before returning (see [`DurabilityMode`]).
    durability: DurabilityMode,
    /// Group-commit queue batching concurrent commit fsyncs (Full mode).
    commit_queue: CommitQueue,
    /// The open checkpoint image backing the tables' bases (`None` until
    /// a B-tree image is loaded or published). Held here so diagnostics
    /// can reach the shared buffer pool; the per-table handles live in
    /// each [`Table::base`].
    image: Mutex<Option<Arc<CheckpointImage>>>,
    /// Checkpoint epoch: bumped every time the WAL is truncated (a
    /// checkpoint publishing, or a replica reseed). A WAL byte offset is
    /// only meaningful *within* one epoch, so replication handshakes carry
    /// `(epoch, offset)` pairs and any epoch mismatch forces a reseed.
    /// Process-lifetime only — it restarts at zero on open, which is
    /// always safe because a replica whose remembered epoch cannot be
    /// matched simply reseeds (see `structured::replication`).
    epoch: AtomicU64,
}

impl Database {
    /// An ephemeral in-memory database (no WAL, no durability).
    pub fn in_memory() -> Database {
        Database {
            tables: Mutex::new(HashMap::new()),
            locks: LockManager::new(),
            wal: Mutex::new(None),
            backend: Arc::new(RealBackend),
            active: Mutex::new(HashMap::new()),
            next_tx: AtomicU64::new(1),
            write_clock: AtomicU64::new(0),
            views: Mutex::new(HashMap::new()),
            durability: DurabilityMode::Full,
            commit_queue: CommitQueue::new(),
            image: Mutex::new(None),
            epoch: AtomicU64::new(0),
        }
    }

    /// Path of the durable checkpoint image for a WAL at `path`.
    fn checkpoint_path(path: &Path) -> PathBuf {
        path.with_extension("ckpt")
    }

    /// Path of the in-progress checkpoint build for a WAL at `path`.
    fn checkpoint_tmp_path(path: &Path) -> PathBuf {
        path.with_extension("ckpt-tmp")
    }

    /// Next write-clock stamp.
    fn stamp(&self) -> u64 {
        self.write_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Open (or recover) a durable database whose WAL lives at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(Arc::new(RealBackend), path)
    }

    /// [`Database::open`] against an explicit storage backend.
    ///
    /// Recovery order: load the durable checkpoint image first (if one was
    /// published by [`Database::checkpoint`]), then replay the WAL over it.
    /// A missing `.ckpt` means no checkpoint was ever published; any other
    /// failure to open it — a short, zeroed, or non-paged file, or a
    /// directory in an older layout — is returned as an error, never
    /// treated as an empty database.
    ///
    /// A crash between checkpoint publication (the rename) and the log
    /// reset leaves a WAL holding history the checkpoint already contains;
    /// replaying that suffix over the checkpoint state is convergent —
    /// every record either recreates exactly what the checkpoint holds or
    /// re-applies a committed change idempotently (see docs/durability.md).
    pub fn open_with(backend: Arc<dyn StorageBackend>, path: impl AsRef<Path>) -> Result<Database> {
        let path = path.as_ref();
        // A stale checkpoint build means we crashed mid-checkpoint, before
        // the rename: the image is unpublished and must be discarded.
        let _ = backend.remove_file(&Self::checkpoint_tmp_path(path));
        let ckpt = Self::checkpoint_path(path);
        let db = Database::in_memory();
        match CheckpointImage::open(&*backend, &ckpt, CKPT_POOL_PAGES) {
            Ok(image) => db.load_checkpoint_image(Arc::new(image))?,
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let records = Wal::replay_with(&*backend, path)?;
        let max_tx = db.apply_records(&records)?;
        db.next_tx.store(max_tx + 1, Ordering::SeqCst);
        *db.wal.lock() = Some(Wal::open_with(Arc::clone(&backend), path)?);
        Ok(Database { backend, ..db })
    }

    /// Load a checkpoint image **lazily**: each table becomes an empty
    /// overlay over a [`TableBase`], and rows fault in through the image's
    /// buffer pool on first touch — open-time resident rows are zero
    /// regardless of corpus size.
    fn load_checkpoint_image(&self, image: Arc<CheckpointImage>) -> Result<()> {
        let dir = {
            let mut pager = image.pager.lock();
            let root = pager.root();
            if root == NO_PAGE {
                return Ok(()); // image of an empty database
            }
            read_chain(&mut pager, root)?
        };
        let mut tables = self.tables.lock();
        for e in paged::decode_directory_v2(&dir)? {
            let stamp = self.stamp();
            let base = TableBase { image: Arc::clone(&image), meta: Arc::new(e.meta) };
            let t = Table::from_base(e.schema, base, stamp);
            tables.insert(t.schema.name.clone(), t);
        }
        *self.image.lock() = Some(image);
        Ok(())
    }

    /// Replay a decoded record sequence into this database (redo-only) and
    /// return the highest transaction id seen. Committed sets are computed
    /// per call, which is safe because no transaction ever spans files:
    /// checkpoints require quiescence, so the WAL after a checkpoint starts
    /// at a transaction boundary.
    fn apply_records(&self, records: &[crate::wal::WalRecord]) -> Result<u64> {
        let db = self;
        // Pass 1: committed set.
        let mut committed = std::collections::HashSet::new();
        let mut max_tx = 0u64;
        let mut decoded = Vec::with_capacity(records.len());
        for r in records {
            let rec = LogRecord::decode(&r.payload)?;
            if let Some(tx) = rec.tx() {
                max_tx = max_tx.max(tx);
            }
            if let LogRecord::Commit { tx } = rec {
                committed.insert(tx);
            }
            decoded.push(rec);
        }
        // Pass 2: redo DDL and committed DML in log order.
        {
            let mut tables = db.tables.lock();
            for rec in decoded {
                match rec {
                    LogRecord::CreateTable { schema } => {
                        let stamp = db.stamp();
                        tables.insert(schema.name.clone(), Table::new(schema, stamp));
                    }
                    LogRecord::DropTable { table } => {
                        tables.remove(&table);
                    }
                    LogRecord::CreateIndex { table, column } => {
                        if let Some(t) = tables.get_mut(&table) {
                            t.build_index(&column)?;
                        }
                    }
                    LogRecord::Insert { tx, table, row_id, row } if committed.contains(&tx) => {
                        let stamp = db.stamp();
                        if let Some(t) = tables.get_mut(&table) {
                            t.apply_insert(stamp, row_id, row)?;
                        }
                    }
                    LogRecord::Update { tx, table, row_id, row } if committed.contains(&tx) => {
                        let stamp = db.stamp();
                        if let Some(t) = tables.get_mut(&table) {
                            t.apply_update(stamp, row_id, row)?;
                        }
                    }
                    LogRecord::Delete { tx, table, row_id } if committed.contains(&tx) => {
                        let stamp = db.stamp();
                        if let Some(t) = tables.get_mut(&table) {
                            t.apply_delete(stamp, row_id)?;
                        }
                    }
                    _ => {}
                }
            }
            // Everything replayed is committed history.
            for t in tables.values_mut() {
                t.stable_version = t.version;
            }
        }
        Ok(max_tx)
    }

    /// Set what a commit waits for before returning. Defaults to
    /// [`DurabilityMode::Full`]. Takes `&mut self`, so the mode is fixed
    /// before the database is shared.
    pub fn set_durability(&mut self, mode: DurabilityMode) {
        self.durability = mode;
    }

    /// The configured durability mode.
    pub fn durability(&self) -> DurabilityMode {
        self.durability
    }

    /// Rows resident in a table's in-memory overlay (diagnostics: after a
    /// B-tree checkpoint or lazy open this is 0 until writes arrive,
    /// however large the table).
    pub fn overlay_row_count(&self, table: &str) -> Result<usize> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.heap.len())
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    /// Buffer-pool counters of the open checkpoint image, if any.
    pub fn image_pool_stats(&self) -> Option<PoolStats> {
        let image = self.image.lock().clone()?;
        Some(image.pool_stats())
    }

    /// Pages currently cached by the open checkpoint image's pool.
    pub fn image_cached_pages(&self) -> Option<usize> {
        let image = self.image.lock().clone()?;
        Some(image.cached_pages())
    }

    /// Flush and fsync the WAL now, regardless of durability mode. The
    /// explicit durability point for `Normal`/`Deferred` users (e.g. a
    /// serve-loop drain or a bulk load's final barrier).
    pub fn sync_wal(&self) -> Result<()> {
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    fn log(&self, rec: &LogRecord) -> Result<()> {
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.append(&rec.encode()?)?;
        }
        Ok(())
    }

    /// Append `rec` and make it as durable as the configured mode demands.
    /// In `Full` mode the fsync goes through the group-commit queue:
    /// concurrent committers that appended before the queue's leader takes
    /// the WAL lock are covered by the leader's single fsync.
    fn log_durable(&self, rec: &LogRecord) -> Result<()> {
        let target = {
            let mut guard = self.wal.lock();
            let Some(wal) = guard.as_mut() else { return Ok(()) };
            wal.append(&rec.encode()?)?;
            match self.durability {
                DurabilityMode::Full => wal.len(),
                DurabilityMode::Normal => {
                    wal.flush()?;
                    return Ok(());
                }
                DurabilityMode::Deferred => return Ok(()),
            }
        };
        self.commit_queue.sync_through(&self.wal, target)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table (auto-committed DDL).
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        let mut tables = self.tables.lock();
        if tables.contains_key(&schema.name) {
            return Err(StorageError::SchemaViolation(format!(
                "table {} already exists",
                schema.name
            )));
        }
        self.log_durable(&LogRecord::CreateTable { schema: schema.clone() })?;
        let stamp = self.stamp();
        tables.insert(schema.name.clone(), Table::new(schema, stamp));
        Ok(())
    }

    /// Create a secondary index on `table.column`, backfilled from the
    /// existing rows (auto-committed DDL, `CREATE INDEX`-style). Idempotent:
    /// indexing an already-indexed column is a no-op. The index is
    /// WAL-logged, so it survives recovery, and from this call on it is
    /// maintained by every write and eligible for access-path selection by
    /// the query planner.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        let mut tables = self.tables.lock();
        let t =
            tables.get_mut(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        if t.indexes.contains_key(column) {
            return Ok(());
        }
        if t.schema.column_index(column).is_none() {
            return Err(StorageError::SchemaViolation(format!(
                "unknown column {column} in table {table}"
            )));
        }
        self.log_durable(&LogRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
        })?;
        t.build_index(column)?;
        t.version = self.stamp();
        if !Self::touched_by_active(&self.active.lock(), table) {
            t.stable_version = t.version;
        }
        Ok(())
    }

    /// The write version of a table: any change to the table's rows (or a
    /// drop-and-recreate) yields a new version, so equal versions imply
    /// equal contents. This is what keys the result cache upstairs.
    pub fn table_version(&self, table: &str) -> Result<u64> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.version)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    /// Names of the indexed columns of a table, sorted.
    pub fn indexed_columns(&self, table: &str) -> Result<Vec<String>> {
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let mut names: Vec<String> = t.indexes.keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    /// Cardinality statistics of one secondary index (`None` when the
    /// column carries no index). Feeds the planner's selectivity estimates.
    pub fn index_stats(&self, table: &str, column: &str) -> Result<Option<IndexStats>> {
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        Ok(t.index_stats(column))
    }

    /// Drop a table (auto-committed DDL).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut tables = self.tables.lock();
        if tables.remove(name).is_none() {
            return Err(StorageError::NoSuchTable(name.to_string()));
        }
        self.log_durable(&LogRecord::DropTable { table: name.to_string() })?;
        Ok(())
    }

    /// Checkpoint: publish a snapshot of current committed state and reset
    /// the WAL, bounding recovery time by live data size instead of history
    /// length. Requires quiescence (no active transactions) and is a no-op
    /// for in-memory databases.
    ///
    /// The image is a paged binary file (see `docs/storage.md`): each
    /// table gets three B-trees — rows by id, primary keys, and one per
    /// secondary index — plus a v2 directory of schemas and tree roots,
    /// all behind per-page CRCs, streamed through a bounded buffer pool so
    /// checkpointing never materializes the database twice in memory.
    /// After publication every table's in-memory overlay is dropped onto
    /// the fresh image: reads fault base pages in on demand from then on.
    ///
    /// Crash-safe by construction: the image is built in a `.ckpt-tmp`
    /// side file, fsynced, then atomically renamed to the durable `.ckpt`
    /// image — the rename is the commit point — and only then is the log
    /// truncated. A crash before the rename leaves the previous
    /// checkpoint + full WAL; a crash between rename and truncation leaves
    /// the new checkpoint + a WAL whose replay over it is convergent (see
    /// [`Database::open_with`]). Recovery always loads the checkpoint
    /// first, then replays the WAL. B-tree page splits add no new crash
    /// windows: every split happens inside the unpublished `.ckpt-tmp`
    /// build, so a torn multi-page split simply discards that build.
    pub fn checkpoint(&self) -> Result<()> {
        {
            let active = self.active.lock();
            if !active.is_empty() {
                return Err(StorageError::TxAborted(format!(
                    "checkpoint requires quiescence; {} transactions active",
                    active.len()
                )));
            }
        }
        // `tables` before `wal`: the commit path acquires them in that
        // order (see audit/lock-order.toml), so taking `wal` first here
        // would be an ABBA inversion. Holding `tables` across the image
        // build also pins exactly the state the checkpoint captures.
        let mut tables = self.tables.lock();
        let mut wal_guard = self.wal.lock();
        let Some(wal) = wal_guard.as_mut() else {
            return Ok(()); // ephemeral database: nothing to compact
        };
        let path = wal.path().to_path_buf();
        let ckpt = Self::checkpoint_path(&path);
        let tmp = Self::checkpoint_tmp_path(&path);
        let _ = self.backend.remove_file(&tmp); // stale build from an earlier crash
        let mut names: Vec<String> = tables.keys().cloned().collect();
        names.sort();
        // Tree roots of the build, collected so the post-publication swap
        // can point each table at its slice of the new image.
        let mut metas: Vec<(String, paged::BaseMeta)> = Vec::new();
        {
            let mut pager = Pager::create(&*self.backend, &tmp, CKPT_POOL_PAGES)?;
            let mut entries = Vec::with_capacity(names.len());
            for name in &names {
                let t = &tables[name];
                let overlay = Table::sorted_overlay(&t.heap);
                let meta = paged::build_table_trees(
                    &mut pager,
                    &t.schema,
                    t.base.as_ref(),
                    &overlay,
                    &t.tombstones,
                    t.next_row,
                )?;
                metas.push((name.clone(), meta.clone()));
                entries.push(paged::DirectoryEntry { schema: t.schema.clone(), meta });
            }
            let directory = paged::encode_directory_v2(&entries)?;
            let mut dir_chain = ChainWriter::new(&mut pager, PageType::Directory)?;
            dir_chain.push_record(&mut pager, &directory)?;
            let (dir_head, _) = dir_chain.finish(&mut pager)?;
            pager.set_root(dir_head);
            pager.flush()?;
        }
        self.backend.rename(&tmp, &ckpt)?; // commit point
        wal.reset()?;
        // Invalidate the group-commit watermark (log offsets restarted at
        // zero). Safe to do only now: the image published by the rename
        // already covers everything pre-reset waiters were waiting for.
        self.commit_queue.reset();
        // New epoch: replication offsets into the pre-truncation log are
        // now meaningless, and any tailing replica must renegotiate.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Swap every table onto the fresh image and drop the overlays:
        // from here on, reads fault base pages in on demand. Contents are
        // unchanged, so versions (and cached snapshot views, which keep the
        // old image alive via their own `Arc`s) stay valid. If the open
        // fails the checkpoint is still durable and the tables simply stay
        // resident; the error is surfaced.
        let image = Arc::new(CheckpointImage::open(&*self.backend, &ckpt, CKPT_POOL_PAGES)?);
        for (name, meta) in metas {
            if let Some(t) = tables.get_mut(&name) {
                t.reset_to_base(TableBase { image: Arc::clone(&image), meta: Arc::new(meta) });
            }
        }
        *self.image.lock() = Some(image);
        Ok(())
    }

    /// The schema of a table.
    pub fn schema(&self, table: &str) -> Result<TableSchema> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.schema.clone())
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Replace a table's schema and rows wholesale (schema-evolution
    /// migration path; auto-committed, logged as drop + create + inserts).
    pub fn replace_table(&self, schema: TableSchema, rows: Vec<Row>) -> Result<()> {
        for row in &rows {
            schema.validate(row)?;
        }
        let name = schema.name.clone();
        {
            let tables = self.tables.lock();
            if !tables.contains_key(&name) {
                return Err(StorageError::NoSuchTable(name));
            }
        }
        self.drop_table(&name)?;
        self.create_table(schema)?;
        let tx = self.begin();
        for row in rows {
            self.insert(tx, &name, row)?;
        }
        self.commit(tx)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Start a transaction.
    pub fn begin(&self) -> TxId {
        let tx = self.next_tx.fetch_add(1, Ordering::SeqCst);
        // quarry-audit: allow(QA102, reason = "HashMap::insert on the guarded map, not Database::insert; the name-based call graph over-approximates")
        self.active.lock().insert(tx, TxState::default());
        // Begin records make logs self-describing; recovery doesn't need them.
        let _ = self.log(&LogRecord::Begin { tx });
        tx
    }

    /// True when any active transaction in `active` holds uncommitted
    /// changes to `table`. Callers hold the `tables` lock (lock order is
    /// always tables → active).
    fn touched_by_active(active: &HashMap<TxId, TxState>, table: &str) -> bool {
        active.values().any(|st| st.undo.iter().any(|u| u.table() == table))
    }

    /// Tables touched by `state`, deduplicated.
    fn touched_tables(state: &TxState) -> Vec<String> {
        let mut names: Vec<String> = state.undo.iter().map(|u| u.table().to_string()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Commit: durable once this returns.
    ///
    /// Every touched table takes a fresh *post-commit* stamp on both its
    /// version fields, so the committed-content version only changes at
    /// commit boundaries — a [`Database::snapshot`] taken mid-transaction
    /// sorts strictly before the commit in version order.
    pub fn commit(&self, tx: TxId) -> Result<()> {
        {
            let mut tables = self.tables.lock();
            let mut active = self.active.lock();
            let state = active.remove(&tx).ok_or(StorageError::NoSuchTx(tx))?;
            for name in Self::touched_tables(&state) {
                if let Some(t) = tables.get_mut(&name) {
                    t.version = self.stamp();
                    // Another in-flight writer on the same table keeps it
                    // dirty; its commit/abort will publish a stable stamp.
                    if !Self::touched_by_active(&active, &name) {
                        t.stable_version = t.version;
                    }
                }
            }
        }
        self.log_durable(&LogRecord::Commit { tx })?;
        self.locks.release_all(tx);
        Ok(())
    }

    /// Abort: rolls back every in-memory change of `tx`.
    pub fn abort(&self, tx: TxId) -> Result<()> {
        {
            // Take the tables lock *before* removing the transaction from
            // the active set: a concurrent snapshot must never observe the
            // not-yet-rolled-back changes as committed state.
            let mut tables = self.tables.lock();
            let mut active = self.active.lock();
            let state = active.remove(&tx).ok_or(StorageError::NoSuchTx(tx))?;
            for undo in state.undo.iter().rev() {
                if let Some(t) = tables.get_mut(undo.table()) {
                    undo.apply_to(t);
                    t.version = self.stamp();
                }
            }
            for name in Self::touched_tables(&state) {
                if let Some(t) = tables.get_mut(&name) {
                    if !Self::touched_by_active(&active, &name) {
                        t.stable_version = t.version;
                    }
                }
            }
        }
        self.log(&LogRecord::Abort { tx })?;
        self.locks.release_all(tx);
        Ok(())
    }

    fn check_active(&self, tx: TxId) -> Result<()> {
        if self.active.lock().contains_key(&tx) {
            Ok(())
        } else {
            Err(StorageError::NoSuchTx(tx))
        }
    }

    fn push_undo(&self, tx: TxId, undo: Undo) {
        if let Some(st) = self.active.lock().get_mut(&tx) {
            st.undo.push(undo);
        }
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert a row. Fails on duplicate primary key.
    pub fn insert(&self, tx: TxId, table: &str, row: Row) -> Result<RowId> {
        self.check_active(tx)?;
        self.locks.acquire(
            tx,
            LockTarget::Table(table.to_string()),
            LockMode::IntentionExclusive,
        )?;
        let mut tables = self.tables.lock();
        let t =
            tables.get_mut(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        t.schema.validate(&row)?;
        let key = t.schema.key_of(&row);
        if t.lookup_pk(&key)?.is_some() {
            return Err(StorageError::DuplicateKey(format!("{table} key {key:?} already exists")));
        }
        let row_id = RowId(t.next_row);
        // Lock the new row before publishing it.
        self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Exclusive)?;
        self.log(&LogRecord::Insert { tx, table: table.to_string(), row_id, row: row.clone() })?;
        let stamp = self.stamp();
        t.apply_insert(stamp, row_id, row)?;
        // Register the undo entry while still holding the tables lock: a
        // snapshot taken in between must see the table as dirty.
        self.push_undo(tx, Undo::Insert { table: table.to_string(), row_id });
        drop(tables);
        Ok(row_id)
    }

    fn row_id_for_key(&self, table: &str, key: &[Value]) -> Result<RowId> {
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        t.lookup_pk(key)?.ok_or_else(|| StorageError::NotFound(format!("{table} key {key:?}")))
    }

    /// Read one row by primary key (shared-locked until transaction end).
    pub fn get(&self, tx: TxId, table: &str, key: &[Value]) -> Result<Row> {
        self.check_active(tx)?;
        self.locks.acquire(tx, LockTarget::Table(table.to_string()), LockMode::IntentionShared)?;
        let row_id = self.row_id_for_key(table, key)?;
        self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Shared)?;
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.into()))?;
        t.effective_row(row_id)?
            .ok_or_else(|| StorageError::NotFound(format!("{table} key {key:?}")))
    }

    /// Replace the row at `key` with `row` (which may change the key).
    pub fn update(&self, tx: TxId, table: &str, key: &[Value], row: Row) -> Result<()> {
        self.check_active(tx)?;
        self.locks.acquire(
            tx,
            LockTarget::Table(table.to_string()),
            LockMode::IntentionExclusive,
        )?;
        let row_id = self.row_id_for_key(table, key)?;
        self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Exclusive)?;
        let mut tables = self.tables.lock();
        let t =
            tables.get_mut(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        t.schema.validate(&row)?;
        let new_key = t.schema.key_of(&row);
        if new_key != key && t.pk.contains_key(&new_key) {
            return Err(StorageError::DuplicateKey(format!(
                "{table} key {new_key:?} already exists"
            )));
        }
        self.log(&LogRecord::Update { tx, table: table.to_string(), row_id, row: row.clone() })?;
        let stamp = self.stamp();
        let old = t
            .apply_update(stamp, row_id, row)?
            .ok_or_else(|| StorageError::NotFound(format!("{table} row {row_id}")))?;
        self.push_undo(tx, Undo::Update { table: table.to_string(), row_id, old });
        drop(tables);
        Ok(())
    }

    /// Delete the row at `key`.
    pub fn delete(&self, tx: TxId, table: &str, key: &[Value]) -> Result<()> {
        self.check_active(tx)?;
        self.locks.acquire(
            tx,
            LockTarget::Table(table.to_string()),
            LockMode::IntentionExclusive,
        )?;
        let row_id = self.row_id_for_key(table, key)?;
        self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Exclusive)?;
        let mut tables = self.tables.lock();
        let t =
            tables.get_mut(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        self.log(&LogRecord::Delete { tx, table: table.to_string(), row_id })?;
        let stamp = self.stamp();
        let old = t
            .apply_delete(stamp, row_id)?
            .ok_or_else(|| StorageError::NotFound(format!("{table} row {row_id}")))?;
        self.push_undo(tx, Undo::Delete { table: table.to_string(), row_id, old });
        drop(tables);
        Ok(())
    }

    /// Scan a whole table (table-level shared lock; serializes against
    /// writers, including inserts — no phantoms).
    pub fn scan(&self, tx: TxId, table: &str) -> Result<Vec<Row>> {
        self.check_active(tx)?;
        self.locks.acquire(tx, LockTarget::Table(table.to_string()), LockMode::Shared)?;
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let overlay = Table::sorted_overlay(&t.heap);
        let mut out = Vec::with_capacity(t.live_rows as usize);
        paged::for_each_live_row(t.base.as_ref(), &overlay, &t.tombstones, &mut |_, row| {
            out.push(row.clone());
            Ok(())
        })?;
        Ok(out)
    }

    /// Equality probe on a secondary index.
    pub fn index_lookup(
        &self,
        tx: TxId,
        table: &str,
        column: &str,
        value: &Value,
    ) -> Result<Vec<Row>> {
        self.index_range(tx, table, column, Some(value), Some(value))
    }

    /// Range probe (inclusive bounds) on a secondary index.
    pub fn index_range(
        &self,
        tx: TxId,
        table: &str,
        column: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<Row>> {
        self.check_active(tx)?;
        self.locks.acquire(tx, LockTarget::Table(table.to_string()), LockMode::IntentionShared)?;
        // Collect candidate row ids under the table mutex, then shared-lock them.
        let row_ids: Vec<RowId> = {
            let tables = self.tables.lock();
            let t =
                tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
            t.index_candidates(column, lo, hi)?
        };
        let mut rows = Vec::with_capacity(row_ids.len());
        for row_id in row_ids {
            self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Shared)?;
            let tables = self.tables.lock();
            let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.into()))?;
            if let Some(r) = t.effective_row(row_id)? {
                rows.push(r);
            }
        }
        Ok(rows)
    }

    /// Filtered, projected read — the query planner's table-access
    /// primitive, with predicate and projection *pushdown*: `filter` is
    /// evaluated against each candidate row while it is still borrowed from
    /// the heap, and only the `projection` columns of accepted rows are
    /// cloned out. Non-matching rows are never copied at all.
    ///
    /// Rows come back in row-id (insertion) order for **both** access
    /// paths, so an index-routed read is bit-identical — including order —
    /// to a full scan with the same filter. Returns `(rows, scanned)` where
    /// `scanned` counts the candidate rows the filter examined.
    ///
    /// Locking matches the underlying path: `Full` takes a table-level
    /// shared lock (serializes against writers, no phantoms);
    /// `Index` takes intention-shared + per-row shared locks, like
    /// [`Database::index_range`].
    pub fn select(
        &self,
        tx: TxId,
        table: &str,
        access: ScanAccess<'_>,
        filter: &mut dyn FnMut(&[Value]) -> bool,
        projection: Option<&[usize]>,
    ) -> Result<(Vec<Row>, usize)> {
        self.check_active(tx)?;
        let materialize = |row: &Row| -> Row {
            match projection {
                Some(cols) => cols.iter().map(|&i| row[i].clone()).collect(),
                None => row.clone(),
            }
        };
        match access {
            ScanAccess::Full => {
                self.locks.acquire(tx, LockTarget::Table(table.to_string()), LockMode::Shared)?;
                let tables = self.tables.lock();
                let t = tables
                    .get(table)
                    .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
                let overlay = Table::sorted_overlay(&t.heap);
                let mut out = Vec::new();
                let mut scanned = 0usize;
                paged::for_each_live_row(
                    t.base.as_ref(),
                    &overlay,
                    &t.tombstones,
                    &mut |_, row| {
                        scanned += 1;
                        if filter(row) {
                            out.push(materialize(row));
                        }
                        Ok(())
                    },
                )?;
                Ok((out, scanned))
            }
            ScanAccess::Index { column, lo, hi } => {
                self.locks.acquire(
                    tx,
                    LockTarget::Table(table.to_string()),
                    LockMode::IntentionShared,
                )?;
                let mut row_ids: Vec<RowId> = {
                    let tables = self.tables.lock();
                    let t = tables
                        .get(table)
                        .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
                    t.index_candidates(column, lo, hi)?
                };
                // Row-id order = full-scan order; also canonicalizes the
                // lock-acquisition order.
                row_ids.sort_unstable();
                for row_id in &row_ids {
                    self.locks.acquire(
                        tx,
                        LockTarget::Row(table.to_string(), *row_id),
                        LockMode::Shared,
                    )?;
                }
                let tables = self.tables.lock();
                let t = tables
                    .get(table)
                    .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
                let mut out = Vec::new();
                let mut scanned = 0usize;
                for row_id in &row_ids {
                    if let Some(row) = t.effective_row(*row_id)? {
                        scanned += 1;
                        if filter(&row) {
                            out.push(materialize(&row));
                        }
                    }
                }
                Ok((out, scanned))
            }
        }
    }

    // ------------------------------------------------------------------
    // MVCC snapshots
    // ------------------------------------------------------------------

    /// Capture a consistent, immutable snapshot of all **committed**
    /// state, pinned to the current write-clock LSN.
    ///
    /// Reads against the returned [`DbSnapshot`] take no locks and never
    /// block (or are blocked by) writers. The snapshot is cheap when the
    /// database is quiet: per-table views are cached in the engine and
    /// re-used by `Arc` as long as a table's version is unchanged, so the
    /// steady-state cost is one `Arc` clone per table. Only tables that
    /// changed since the last snapshot are re-copied; tables with
    /// uncommitted in-flight changes are rolled back to their committed
    /// contents via the owning transactions' undo logs (strict 2PL makes
    /// undo entries of concurrent transactions row-disjoint, so the
    /// rollback order across transactions is immaterial).
    pub fn snapshot(&self) -> DbSnapshot {
        let tables = self.tables.lock();
        let active = self.active.lock();
        let mut cache = self.views.lock();
        cache.retain(|name, _| tables.contains_key(name));
        let mut out = HashMap::with_capacity(tables.len());
        for (name, t) in tables.iter() {
            let clean = t.version == t.stable_version;
            let view = if clean {
                // quarry-audit: allow(QA102, reason = "HashMap::get on the view cache, not Database::get; the name-based call graph over-approximates")
                let hit = cache.get(name).filter(|v| v.version() == t.version).cloned();
                match hit {
                    Some(v) => v,
                    None => {
                        let v = Arc::new(TableView::capture(
                            t.schema.clone(),
                            &t.heap,
                            &t.indexes,
                            t.base.clone(),
                            &t.tombstones,
                            t.live_rows,
                            t.version,
                        ));
                        // quarry-audit: allow(QA102, reason = "HashMap::insert on the view cache, not Database::insert")
                        cache.insert(name.clone(), Arc::clone(&v));
                        v
                    }
                }
            } else {
                // Dirty: subtract every active transaction's
                // uncommitted changes from a private clone. The view
                // is stamped with a fresh clock tick (never cached):
                // a fresh stamp can't alias any other content, and the
                // table will publish a real stable version at the next
                // commit or abort.
                let mut tmp = t.clone();
                for st in active.values() {
                    for undo in st.undo.iter().rev() {
                        if undo.table() == name.as_str() {
                            undo.apply_to(&mut tmp);
                        }
                    }
                }
                Arc::new(TableView::capture(
                    tmp.schema,
                    &tmp.heap,
                    &tmp.indexes,
                    tmp.base,
                    &tmp.tombstones,
                    tmp.live_rows,
                    self.stamp(),
                ))
            };
            // quarry-audit: allow(QA102, reason = "HashMap::insert on the result map, not Database::insert")
            out.insert(name.clone(), view);
        }
        let lsn = self.write_clock.load(Ordering::SeqCst);
        DbSnapshot::new(lsn, out)
    }

    /// Number of rows in a table (unlocked, diagnostics only).
    pub fn row_count(&self, table: &str) -> Result<usize> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.live_rows as usize)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    // ------------------------------------------------------------------
    // Replication support (see `structured::replication`)
    // ------------------------------------------------------------------

    /// The current checkpoint epoch (see the `epoch` field docs): a WAL
    /// byte offset identifies a stream position only together with the
    /// epoch it was read under.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Current WAL append offset in bytes (0 for in-memory databases).
    /// At a transaction boundary under `Full`/`Normal` durability this
    /// equals the flushed file length, which makes it the primary-side
    /// target of the replication ack barrier (`docs/replication.md`).
    pub fn wal_len(&self) -> u64 {
        self.wal.lock().as_ref().map(Wal::len).unwrap_or(0)
    }

    /// Path of the WAL file (`None` for in-memory databases).
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.wal.lock().as_ref().map(|w| w.path().to_path_buf())
    }

    /// The storage backend the WAL and checkpoints go through. A WAL
    /// tail reader must read through this backend so fault injection
    /// observes one consistent world: backend reads are not crash
    /// points, but they do die with an injected crash — exactly the
    /// "primary death" a replica must survive.
    pub fn storage_backend(&self) -> Arc<dyn StorageBackend> {
        Arc::clone(&self.backend)
    }

    /// The current write-clock value — the LSN a snapshot taken *now*
    /// would pin to.
    pub fn current_lsn(&self) -> u64 {
        self.write_clock.load(Ordering::SeqCst)
    }

    /// Capture a reseed payload: the current epoch, the WAL offset
    /// streaming resumes from, and a synthetic committed record stream
    /// that recreates every table when replayed into an empty database.
    /// Uncommitted changes of in-flight transactions are rolled back out
    /// of the capture exactly like [`Database::snapshot`] does. The
    /// offset is read under the same `tables` lock as the records, so
    /// frames at `>= start_offset` may double-cover the seed's tail —
    /// which is safe, because replaying committed records over state
    /// that already contains them is convergent (the checkpoint-recovery
    /// argument; see docs/durability.md).
    pub fn seed_state(&self) -> Result<super::replication::ReplicationSeed> {
        let tables = self.tables.lock();
        let active = self.active.lock();
        let epoch = self.epoch.load(Ordering::SeqCst);
        let start_offset = self.wal.lock().as_ref().map(Wal::len).unwrap_or(0);
        let tx = self.next_tx.fetch_add(1, Ordering::SeqCst);
        let mut names: Vec<String> = tables.keys().cloned().collect();
        names.sort();
        let mut records = Vec::new();
        for name in &names {
            records.push(LogRecord::CreateTable { schema: tables[name].schema.clone() });
        }
        records.push(LogRecord::Begin { tx });
        for name in &names {
            let t = &tables[name];
            let rolled_back;
            let t = if t.version == t.stable_version {
                t
            } else {
                // Dirty: subtract uncommitted in-flight changes from a
                // private clone (strict 2PL makes undo entries of
                // concurrent transactions row-disjoint).
                let mut tmp = t.clone();
                for st in active.values() {
                    for undo in st.undo.iter().rev() {
                        if undo.table() == name.as_str() {
                            undo.apply_to(&mut tmp);
                        }
                    }
                }
                rolled_back = tmp;
                &rolled_back
            };
            let overlay = Table::sorted_overlay(&t.heap);
            paged::for_each_live_row(t.base.as_ref(), &overlay, &t.tombstones, &mut |id, row| {
                records.push(LogRecord::Insert {
                    tx,
                    table: name.clone(),
                    row_id: id,
                    row: row.clone(),
                });
                Ok(())
            })?;
        }
        records.push(LogRecord::Commit { tx });
        Ok(super::replication::ReplicationSeed { epoch, start_offset, records })
    }

    /// Replication (replica side): append one already-encoded WAL frame
    /// payload verbatim to this database's own log and flush it, so the
    /// replica's log is a real recovery source for its applied history.
    pub fn replicate_append(&self, payload: &[u8]) -> Result<()> {
        let mut guard = self.wal.lock();
        if let Some(wal) = guard.as_mut() {
            wal.append(payload)?;
            wal.flush()?;
        }
        Ok(())
    }

    /// Replication (replica side): apply the DML records of one
    /// *committed* transaction in log order. Stamps and stable versions
    /// move exactly like recovery's redo pass, so the result is
    /// bit-identical to a local replay of the same records.
    pub fn replicate_apply_commit(&self, records: &[LogRecord]) -> Result<()> {
        let mut tables = self.tables.lock();
        for rec in records {
            match rec {
                LogRecord::Insert { table, row_id, row, .. } => {
                    let stamp = self.stamp();
                    if let Some(t) = tables.get_mut(table) {
                        t.apply_insert(stamp, *row_id, row.clone())?;
                    }
                }
                LogRecord::Update { table, row_id, row, .. } => {
                    let stamp = self.stamp();
                    if let Some(t) = tables.get_mut(table) {
                        t.apply_update(stamp, *row_id, row.clone())?;
                    }
                }
                LogRecord::Delete { table, row_id, .. } => {
                    let stamp = self.stamp();
                    if let Some(t) = tables.get_mut(table) {
                        t.apply_delete(stamp, *row_id)?;
                    }
                }
                _ => {}
            }
        }
        // The replica holds only committed history: every version it
        // reaches is immediately stable.
        for t in tables.values_mut() {
            t.stable_version = t.version;
        }
        Ok(())
    }

    /// Replication (replica side): apply one auto-committed DDL record.
    pub fn replicate_apply_ddl(&self, rec: &LogRecord) -> Result<()> {
        let mut tables = self.tables.lock();
        match rec {
            LogRecord::CreateTable { schema } => {
                let stamp = self.stamp();
                tables.insert(schema.name.clone(), Table::new(schema.clone(), stamp));
            }
            LogRecord::DropTable { table } => {
                tables.remove(table);
            }
            LogRecord::CreateIndex { table, column } => {
                if let Some(t) = tables.get_mut(table) {
                    t.build_index(column)?;
                    t.version = self.stamp();
                    t.stable_version = t.version;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Replication (replica side): discard every table, cached view, and
    /// log byte ahead of a reseed. Any on-disk checkpoint image of *this*
    /// database is removed too — after a reseed the local log is the only
    /// recovery source until the next local checkpoint.
    pub fn replicate_reset(&self) -> Result<()> {
        let mut tables = self.tables.lock();
        let mut wal = self.wal.lock();
        tables.clear();
        self.views.lock().clear();
        if let Some(w) = wal.as_mut() {
            let ckpt = Self::checkpoint_path(w.path());
            w.reset()?;
            let _ = self.backend.remove_file(&ckpt);
        }
        *self.image.lock() = None;
        self.commit_queue.reset();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Replication (replica side): raise the transaction-id floor past
    /// every id seen in shipped history. Called at promotion so the new
    /// primary never reissues a transaction id that already appears in
    /// its log.
    pub fn adopt_tx_floor(&self, max_tx: u64) {
        self.next_tx.fetch_max(max_tx + 1, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Auto-commit conveniences
    // ------------------------------------------------------------------

    /// Insert under a fresh single-operation transaction.
    pub fn insert_autocommit(&self, table: &str, row: Row) -> Result<RowId> {
        let tx = self.begin();
        match self.insert(tx, table, row) {
            Ok(id) => {
                self.commit(tx)?;
                Ok(id)
            }
            Err(e) => {
                let _ = self.abort(tx);
                Err(e)
            }
        }
    }

    /// Scan under a fresh single-operation transaction.
    pub fn scan_autocommit(&self, table: &str) -> Result<Vec<Row>> {
        let tx = self.begin();
        let out = self.scan(tx, table);
        match out {
            Ok(rows) => {
                self.commit(tx)?;
                Ok(rows)
            }
            Err(e) => {
                let _ = self.abort(tx);
                Err(e)
            }
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("tables", &self.table_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::structured::table::Column;
    use crate::value::DataType;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn people_schema() -> TableSchema {
        TableSchema::new(
            "people",
            vec![
                Column::new("name", DataType::Text),
                Column::new("age", DataType::Int),
                Column::nullable("city", DataType::Text),
            ],
            &["name"],
            &["age"],
        )
        .unwrap()
    }

    fn person(name: &str, age: i64, city: &str) -> Row {
        vec![name.into(), Value::Int(age), city.into()]
    }

    #[test]
    fn insert_get_update_delete_cycle() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        let tx = db.begin();
        db.insert(tx, "people", person("ada", 36, "london")).unwrap();
        db.insert(tx, "people", person("alan", 41, "cambridge")).unwrap();
        assert_eq!(db.get(tx, "people", &["ada".into()]).unwrap()[1], Value::Int(36));
        db.update(tx, "people", &["ada".into()], person("ada", 37, "london")).unwrap();
        db.delete(tx, "people", &["alan".into()]).unwrap();
        db.commit(tx).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 1);
    }

    #[test]
    fn duplicate_key_rejected() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("x", 1, "a")).unwrap();
        let err = db.insert_autocommit("people", person("x", 2, "b")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey(_)));
    }

    #[test]
    fn abort_rolls_back_everything() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("keep", 1, "a")).unwrap();

        let tx = db.begin();
        db.insert(tx, "people", person("new", 2, "b")).unwrap();
        db.update(tx, "people", &["keep".into()], person("keep", 99, "z")).unwrap();
        db.delete(tx, "people", &["keep".into()]).unwrap();
        db.abort(tx).unwrap();

        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows, vec![person("keep", 1, "a")]);
        // Index state rolled back too.
        let tx = db.begin();
        let by_age = db.index_lookup(tx, "people", "age", &Value::Int(1)).unwrap();
        assert_eq!(by_age.len(), 1);
        let by_age99 = db.index_lookup(tx, "people", "age", &Value::Int(99)).unwrap();
        assert!(by_age99.is_empty());
        db.commit(tx).unwrap();
    }

    #[test]
    fn index_range_probe() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for i in 0..20 {
            db.insert_autocommit("people", person(&format!("p{i}"), i, "c")).unwrap();
        }
        let tx = db.begin();
        let rows = db
            .index_range(tx, "people", "age", Some(&Value::Int(5)), Some(&Value::Int(8)))
            .unwrap();
        assert_eq!(rows.len(), 4);
        db.commit(tx).unwrap();
    }

    #[test]
    fn scan_is_key_ordered_by_rowid_and_stable() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for name in ["c", "a", "b"] {
            db.insert_autocommit("people", person(name, 1, "x")).unwrap();
        }
        let rows = db.scan_autocommit("people").unwrap();
        let names: Vec<_> = rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["c", "a", "b"], "scan returns insertion order");
    }

    #[test]
    fn operations_on_unknown_entities_fail() {
        let db = Database::in_memory();
        assert!(matches!(db.insert_autocommit("ghost", vec![]), Err(StorageError::NoSuchTable(_))));
        db.create_table(people_schema()).unwrap();
        let tx = db.begin();
        assert!(matches!(db.get(tx, "people", &["ghost".into()]), Err(StorageError::NotFound(_))));
        db.commit(tx).unwrap();
        assert!(matches!(db.commit(999), Err(StorageError::NoSuchTx(999))));
    }

    #[test]
    fn two_phase_locking_isolates_writers() {
        let db = Arc::new(Database::in_memory());
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("shared", 0, "x")).unwrap();

        // Older tx writes the row; younger tx must fail (wait-die) on read.
        let t_old = db.begin();
        let t_young = db.begin();
        db.update(t_old, "people", &["shared".into()], person("shared", 1, "x")).unwrap();
        let err = db.get(t_young, "people", &["shared".into()]).unwrap_err();
        assert!(matches!(err, StorageError::TxAborted(_)));
        db.abort(t_young).unwrap();
        db.commit(t_old).unwrap();
    }

    #[test]
    fn concurrent_counter_has_no_lost_updates() {
        let db = Arc::new(Database::in_memory());
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("ctr", 0, "x")).unwrap();
        let threads = 4;
        let per_thread = 25;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < per_thread {
                    let tx = db.begin();
                    let res = db.get(tx, "people", &["ctr".into()]).and_then(|row| {
                        let n = row[1].as_f64().unwrap() as i64;
                        db.update(tx, "people", &["ctr".into()], person("ctr", n + 1, "x"))
                    });
                    match res {
                        Ok(()) => {
                            db.commit(tx).unwrap();
                            done += 1;
                        }
                        Err(_) => {
                            let _ = db.abort(tx);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows[0][1], Value::Int((threads * per_thread) as i64));
    }

    fn tmpwal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quarry-db-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(Database::checkpoint_path(&p));
        let _ = std::fs::remove_file(Database::checkpoint_tmp_path(&p));
        p
    }

    #[test]
    fn durable_database_recovers_committed_work_only() {
        let p = tmpwal("recovery");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("committed", 1, "a")).unwrap();
            let tx = db.begin();
            db.insert(tx, "people", person("uncommitted", 2, "b")).unwrap();
            // Crash: drop db without commit.
        }
        let db = Database::open(&p).unwrap();
        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows, vec![person("committed", 1, "a")]);
        // The recovered database stays usable and durable.
        db.insert_autocommit("people", person("after", 3, "c")).unwrap();
        drop(db);
        let db = Database::open(&p).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 2);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn recovery_replays_updates_and_deletes() {
        let p = tmpwal("recovery2");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            let tx = db.begin();
            db.insert(tx, "people", person("a", 1, "x")).unwrap();
            db.insert(tx, "people", person("b", 2, "x")).unwrap();
            db.commit(tx).unwrap();
            let tx = db.begin();
            db.update(tx, "people", &["a".into()], person("a", 10, "y")).unwrap();
            db.delete(tx, "people", &["b".into()]).unwrap();
            db.commit(tx).unwrap();
        }
        let db = Database::open(&p).unwrap();
        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows, vec![person("a", 10, "y")]);
        // Secondary index rebuilt by redo.
        let tx = db.begin();
        assert_eq!(db.index_lookup(tx, "people", "age", &Value::Int(10)).unwrap().len(), 1);
        db.commit(tx).unwrap();
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn checkpoint_compacts_log_and_preserves_state() {
        let p = tmpwal("checkpoint");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            // History: many inserts, updates, and deletes.
            for i in 0..50 {
                db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
            }
            for i in 0..50 {
                let tx = db.begin();
                if i % 2 == 0 {
                    db.update(
                        tx,
                        "people",
                        &[format!("p{i}").into()],
                        person(&format!("p{i}"), i + 100, "y"),
                    )
                    .unwrap();
                } else {
                    db.delete(tx, "people", &[format!("p{i}").into()]).unwrap();
                }
                db.commit(tx).unwrap();
            }
            let before = std::fs::metadata(&p).unwrap().len();
            db.checkpoint().unwrap();
            let after = std::fs::metadata(&p).unwrap().len();
            assert!(after < before / 2, "log {before} → {after} should shrink");
            // The database keeps working after a checkpoint.
            db.insert_autocommit("people", person("post", 1, "z")).unwrap();
        }
        let db = Database::open(&p).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 26);
        let tx = db.begin();
        assert_eq!(db.get(tx, "people", &["p0".into()]).unwrap()[1], Value::Int(100));
        assert!(db.get(tx, "people", &["p1".into()]).is_err(), "deleted row stays deleted");
        // Secondary index rebuilt from the snapshot.
        assert_eq!(db.index_lookup(tx, "people", "age", &Value::Int(100)).unwrap().len(), 1);
        db.commit(tx).unwrap();
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn checkpoint_survives_crash_at_every_operation() {
        use crate::faultfs::{CrashPlan, FaultBackend};

        // Reference state: three committed rows, one later update.
        let build = |db: &Database| {
            db.create_table(people_schema()).unwrap();
            for i in 0..3 {
                db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
            }
            let tx = db.begin();
            db.update(tx, "people", &["p0".into()], person("p0", 100, "y")).unwrap();
            db.commit(tx).unwrap();
        };
        let expected = {
            let db = Database::in_memory();
            build(&db);
            db.scan_autocommit("people").unwrap()
        };

        // Count the checkpoint's operations with a recording backend.
        let p = tmpwal("ckpt-crash-rec");
        let total = {
            let rec = FaultBackend::recording(RealBackend);
            let db = Database::open_with(Arc::new(rec.clone()), &p).unwrap();
            build(&db);
            let before = rec.op_count();
            db.checkpoint().unwrap();
            rec.op_count() - before
        };
        assert!(total >= 3, "checkpoint is several ops (build, sync, rename, reset)");

        // Crash the checkpoint at every one of its operations; committed
        // state must survive every time — including the window between the
        // rename (publication) and the WAL reset.
        for k in 1..=total {
            let p = tmpwal(&format!("ckpt-crash-{k}"));
            let fb = FaultBackend::recording(RealBackend);
            let db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            build(&db);
            let at = fb.op_count() + k;
            fb.arm(CrashPlan::kill_at(at));
            assert!(db.checkpoint().is_err(), "crash point {k} must fail the checkpoint");
            drop(db);
            let db = Database::open(&p).unwrap();
            assert_eq!(db.scan_autocommit("people").unwrap(), expected, "crash point {k}");
            let _ = std::fs::remove_file(&p);
            let _ = std::fs::remove_file(Database::checkpoint_path(&p));
            let _ = std::fs::remove_file(Database::checkpoint_tmp_path(&p));
        }
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(Database::checkpoint_path(&p));
    }

    /// Commit `n` people through a WAL at `p` without checkpointing.
    fn wal_only_people(p: &Path, n: i64) -> Vec<Row> {
        let db = Database::open(p).unwrap();
        db.create_table(people_schema()).unwrap();
        for i in 0..n {
            db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
        }
        db.scan_autocommit("people").unwrap()
    }

    #[test]
    fn missing_checkpoint_with_wal_opens_every_row() {
        let p = tmpwal("no-ckpt");
        let expected = wal_only_people(&p, 25);
        assert!(!Database::checkpoint_path(&p).exists());
        let db = Database::open(&p).unwrap();
        assert_eq!(db.scan_autocommit("people").unwrap(), expected);
        assert_eq!(db.overlay_row_count("people").unwrap(), 25);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn non_paged_checkpoint_is_corrupt() {
        // A WAL-framed file of JSON records (the retired checkpoint
        // format), an empty file and a zeroed page: none is a paged image,
        // and none may open as "no checkpoint" over the WAL beside it.
        let p = tmpwal("bad-ckpt");
        wal_only_people(&p, 3);
        let ckpt = Database::checkpoint_path(&p);
        {
            let mut ck = Wal::open(&ckpt).unwrap();
            ck.append(br#"{"Begin":{"tx":0}}"#).unwrap();
            ck.append(br#"{"Commit":{"tx":0}}"#).unwrap();
            ck.sync().unwrap();
        }
        let json_ckpt = std::fs::read(&ckpt).unwrap();
        for bad in [json_ckpt, Vec::new(), vec![0u8; crate::page::PAGE_SIZE]] {
            std::fs::write(&ckpt, &bad).unwrap();
            let res = Database::open(&p);
            assert!(matches!(res, Err(StorageError::Corrupt(_))), "{} bytes", bad.len());
        }
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(&ckpt).unwrap();
    }

    #[test]
    fn v1_checkpoint_directory_is_corrupt() {
        // Hand-build a retired heap-chain image: one heap chain of
        // `(row_id, row)` records and a directory that opens with the
        // table count instead of the v2 sentinel.
        let p = tmpwal("v1-dir");
        {
            let mut pager = Pager::create(&RealBackend, &Database::checkpoint_path(&p), 8).unwrap();
            let mut heap = ChainWriter::new(&mut pager, PageType::Heap).unwrap();
            let mut rec = Vec::new();
            codec::write_u64(&mut rec, 0).unwrap();
            codec::write_row(&mut rec, &person("old", 50, "past")).unwrap();
            heap.push_record(&mut pager, &rec).unwrap();
            let (head, nrows) = heap.finish(&mut pager).unwrap();
            let mut dir = Vec::new();
            codec::write_u64(&mut dir, 1).unwrap();
            codec::write_schema(&mut dir, &people_schema()).unwrap();
            codec::write_u64(&mut dir, u64::from(head)).unwrap();
            codec::write_u64(&mut dir, nrows).unwrap();
            let mut dir_chain = ChainWriter::new(&mut pager, PageType::Directory).unwrap();
            dir_chain.push_record(&mut pager, &dir).unwrap();
            let (dir_head, _) = dir_chain.finish(&mut pager).unwrap();
            pager.set_root(dir_head);
            pager.flush().unwrap();
        }
        let res = Database::open(&p);
        assert!(matches!(res, Err(StorageError::Corrupt(_))), "{:?}", res.err());
        std::fs::remove_file(Database::checkpoint_path(&p)).unwrap();
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn json_wal_record_is_corrupt() {
        let p = tmpwal("json-wal");
        wal_only_people(&p, 2);
        {
            let mut wal = Wal::open(&p).unwrap();
            wal.append(br#"{"Begin":{"tx":9}}"#).unwrap();
            wal.sync().unwrap();
        }
        let res = Database::open(&p);
        assert!(matches!(res, Err(StorageError::Corrupt(_))), "{:?}", res.err());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn durability_modes_contract() {
        use crate::faultfs::{CrashPlan, FaultBackend, Op};

        // Full: one fsync boundary per commit/DDL.
        let p = tmpwal("dur-full");
        {
            let fb = FaultBackend::recording(RealBackend);
            let db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("a", 1, "x")).unwrap();
            let syncs = fb.ops().iter().filter(|o| matches!(o, Op::Sync { .. })).count();
            assert_eq!(syncs, 2, "create_table + autocommit insert");
        }
        let _ = std::fs::remove_file(&p);

        // Normal: commits flush to the OS (durable in the fault model's
        // flushed-is-durable terms) but never fsync.
        let p = tmpwal("dur-normal");
        {
            let fb = FaultBackend::recording(RealBackend);
            let mut db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            db.set_durability(DurabilityMode::Normal);
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("a", 1, "x")).unwrap();
            assert!(!fb.ops().iter().any(|o| matches!(o, Op::Sync { .. })));
            // Power loss: everything already flushed survives.
            fb.arm(CrashPlan::kill_at(fb.op_count() + 1));
            drop(db);
        }
        {
            let db = Database::open(&p).unwrap();
            assert_eq!(db.row_count("people").unwrap(), 1);
        }
        let _ = std::fs::remove_file(&p);

        // Deferred: commits only buffer; a crash loses them...
        let p = tmpwal("dur-deferred");
        {
            let fb = FaultBackend::recording(RealBackend);
            let mut db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            db.set_durability(DurabilityMode::Deferred);
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("a", 1, "x")).unwrap();
            fb.arm(CrashPlan::kill_at(fb.op_count() + 1));
            drop(db); // buffered frames die with the process-model
        }
        {
            let db = Database::open(&p).unwrap();
            assert!(db.row_count("people").is_err(), "deferred work was lost");
        }
        let _ = std::fs::remove_file(&p);

        // ...unless an explicit sync_wal() intervenes.
        let p = tmpwal("dur-deferred-sync");
        {
            let fb = FaultBackend::recording(RealBackend);
            let mut db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            db.set_durability(DurabilityMode::Deferred);
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("a", 1, "x")).unwrap();
            db.sync_wal().unwrap();
            fb.arm(CrashPlan::kill_at(fb.op_count() + 1));
            drop(db);
        }
        {
            let db = Database::open(&p).unwrap();
            assert_eq!(db.row_count("people").unwrap(), 1);
        }
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn checkpoint_requires_quiescence_and_is_noop_in_memory() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.checkpoint().unwrap(); // no-op, no error
        let tx = db.begin();
        db.insert(tx, "people", person("a", 1, "x")).unwrap();
        assert!(matches!(db.checkpoint(), Err(StorageError::TxAborted(_))));
        db.commit(tx).unwrap();
        db.checkpoint().unwrap();
    }

    fn snap_rows(db: &Database) -> Vec<Row> {
        db.snapshot().scan("people").unwrap()
    }

    #[test]
    fn snapshot_sees_committed_state_only() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("base", 1, "a")).unwrap();

        let tx = db.begin();
        db.insert(tx, "people", person("pending", 2, "b")).unwrap();
        db.update(tx, "people", &["base".into()], person("base", 99, "z")).unwrap();

        // Mid-transaction snapshot: the uncommitted insert and update are
        // both invisible.
        assert_eq!(snap_rows(&db), vec![person("base", 1, "a")]);
        // The index state of the view is rolled back too.
        let snap = db.snapshot();
        let (rows, _) = snap
            .select(
                "people",
                ScanAccess::Index { column: "age", lo: Some(&Value::Int(99)), hi: None },
                &mut |_| true,
                None,
            )
            .unwrap();
        assert!(rows.is_empty(), "uncommitted index entries must not leak");

        db.commit(tx).unwrap();
        let mut after = snap_rows(&db);
        after.sort_by_key(|r| r[0].to_string());
        assert_eq!(after, vec![person("base", 99, "z"), person("pending", 2, "b")]);
        // The pre-commit snapshot is immutable: it still shows old state.
        assert_eq!(snap.scan("people").unwrap(), vec![person("base", 1, "a")]);
    }

    #[test]
    fn snapshot_is_stable_while_writers_proceed() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("p0", 0, "x")).unwrap();
        let snap = db.snapshot();
        let lsn = snap.lsn();
        for i in 1..10 {
            db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
        }
        assert_eq!(snap.row_count("people").unwrap(), 1);
        assert_eq!(snap.lsn(), lsn);
        let later = db.snapshot();
        assert!(later.lsn() > lsn, "LSN advances with committed writes");
        assert_eq!(later.row_count("people").unwrap(), 10);
    }

    #[test]
    fn snapshot_views_are_shared_until_tables_change() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("a", 1, "x")).unwrap();
        let s1 = db.snapshot();
        let s2 = db.snapshot();
        assert!(
            Arc::ptr_eq(s1.table("people").unwrap(), s2.table("people").unwrap()),
            "unchanged table views are Arc-shared"
        );
        db.insert_autocommit("people", person("b", 2, "x")).unwrap();
        let s3 = db.snapshot();
        assert!(!Arc::ptr_eq(s1.table("people").unwrap(), s3.table("people").unwrap()));
        assert_ne!(
            s1.table_version("people").unwrap(),
            s3.table_version("people").unwrap(),
            "changed contents imply a new version"
        );
    }

    #[test]
    fn snapshot_excludes_aborted_work_and_matches_select_semantics() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for i in 0..8 {
            db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
        }
        let tx = db.begin();
        db.delete(tx, "people", &["p3".into()]).unwrap();
        db.abort(tx).unwrap();

        let snap = db.snapshot();
        // Full-path and index-path reads agree with the live engine.
        let tx = db.begin();
        for access in [
            ScanAccess::Full,
            ScanAccess::Index { column: "age", lo: Some(&Value::Int(2)), hi: Some(&Value::Int(6)) },
        ] {
            let mut live_filter = |row: &[Value]| row[1].as_f64().unwrap() as i64 % 2 == 0;
            let live =
                db.select(tx, "people", access, &mut live_filter, Some(&[0, 1][..])).unwrap();
            let mut snap_filter = |row: &[Value]| row[1].as_f64().unwrap() as i64 % 2 == 0;
            let snapped = snap.select("people", access, &mut snap_filter, Some(&[0, 1])).unwrap();
            assert_eq!(live, snapped, "access {access:?}");
        }
        db.commit(tx).unwrap();

        // Unknown table / unindexed column give the live error kinds.
        assert!(matches!(snap.scan("ghost"), Err(StorageError::NoSuchTable(_))));
        let err = snap
            .select(
                "people",
                ScanAccess::Index { column: "city", lo: None, hi: None },
                &mut |_| true,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaViolation(_)));
    }

    #[test]
    fn concurrent_snapshots_see_consistent_prefixes() {
        let db = Arc::new(Database::in_memory());
        db.create_table(people_schema()).unwrap();
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..200i64 {
                    db.insert_autocommit("people", person(&format!("p{i:04}"), i, "x")).unwrap();
                }
            })
        };
        let mut last_lsn = 0;
        let mut last_len = 0;
        for _ in 0..300 {
            let snap = db.snapshot();
            let rows = snap.scan("people").unwrap();
            // Row-id order = insertion order, so a consistent cut is a
            // strict prefix of the writer's sequence.
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row[1], Value::Int(i as i64), "snapshot must be a prefix");
            }
            assert!(rows.len() >= last_len, "later snapshots never lose writes");
            assert!(snap.lsn() >= last_lsn, "LSN is monotone");
            last_len = rows.len();
            last_lsn = snap.lsn();
            // Re-reading the same snapshot is repeatable.
            assert_eq!(snap.scan("people").unwrap().len(), rows.len());
        }
        writer.join().unwrap();
        assert_eq!(db.snapshot().row_count("people").unwrap(), 200);
    }

    #[test]
    fn btree_checkpoint_opens_lazily_and_reads_through_base() {
        let p = tmpwal("btree-lazy");
        let n = 300i64;
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            for i in 0..n {
                db.insert_autocommit("people", person(&format!("p{i:03}"), i % 10, "x")).unwrap();
            }
            db.checkpoint().unwrap();
            // Post-checkpoint the live table itself is an empty overlay
            // over the fresh image.
            assert_eq!(db.overlay_row_count("people").unwrap(), 0);
            assert_eq!(db.row_count("people").unwrap(), n as usize);
        }
        let db = Database::open(&p).unwrap();
        // Lazy open: nothing materialized.
        assert_eq!(db.overlay_row_count("people").unwrap(), 0);
        assert_eq!(db.row_count("people").unwrap(), n as usize);
        assert!(db.image_pool_stats().is_some());

        // Point lookups, index probes, and scans read through the trees.
        let tx = db.begin();
        assert_eq!(db.get(tx, "people", &["p042".into()]).unwrap()[1], Value::Int(2));
        let by_age = db.index_lookup(tx, "people", "age", &Value::Int(3)).unwrap();
        assert_eq!(by_age.len(), 30);
        db.commit(tx).unwrap();
        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows.len(), n as usize);
        assert_eq!(rows[7][0], Value::Text("p007".into()), "row-id order preserved");
        // Stats follow the merged shape.
        let st = db.index_stats("people", "age").unwrap().unwrap();
        assert_eq!(st.entries, n as usize);
        assert_eq!(st.distinct, 10);
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(Database::checkpoint_path(&p)).unwrap();
    }

    #[test]
    fn base_rows_update_delete_and_merge_across_checkpoints() {
        let p = tmpwal("btree-merge");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            for i in 0..50 {
                db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
            }
            db.checkpoint().unwrap();
        }
        {
            // Mutate base rows through the overlay: update, delete,
            // key-change update, fresh insert.
            let db = Database::open(&p).unwrap();
            let tx = db.begin();
            db.update(tx, "people", &["p00".into()], person("p00", 100, "y")).unwrap();
            db.delete(tx, "people", &["p01".into()]).unwrap();
            db.update(tx, "people", &["p02".into()], person("renamed", 2, "z")).unwrap();
            db.insert(tx, "people", person("fresh", 7, "w")).unwrap();
            db.commit(tx).unwrap();
            assert_eq!(db.row_count("people").unwrap(), 50);
            // The old key of a renamed base row is gone; the new one hits.
            let tx = db.begin();
            assert!(db.get(tx, "people", &["p02".into()]).is_err());
            assert_eq!(db.get(tx, "people", &["renamed".into()]).unwrap()[1], Value::Int(2));
            // Index probe must not surface the shadowed base entry for the
            // updated row's old value.
            assert!(db.index_lookup(tx, "people", "age", &Value::Int(0)).unwrap().is_empty());
            assert_eq!(db.index_lookup(tx, "people", "age", &Value::Int(100)).unwrap().len(), 1);
            db.commit(tx).unwrap();
            // Fold the overlay into a second-generation image.
            db.checkpoint().unwrap();
            assert_eq!(db.overlay_row_count("people").unwrap(), 0);
        }
        let db = Database::open(&p).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 50);
        let tx = db.begin();
        assert_eq!(db.get(tx, "people", &["p00".into()]).unwrap()[1], Value::Int(100));
        assert!(db.get(tx, "people", &["p01".into()]).is_err(), "deleted base row stays gone");
        assert_eq!(db.get(tx, "people", &["renamed".into()]).unwrap()[2], Value::Text("z".into()));
        assert_eq!(db.get(tx, "people", &["fresh".into()]).unwrap()[1], Value::Int(7));
        db.commit(tx).unwrap();
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(Database::checkpoint_path(&p)).unwrap();
    }

    #[test]
    fn create_index_after_checkpoint_backfills_from_base() {
        let p = tmpwal("btree-backfill");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            for i in 0..40 {
                db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
            }
            db.checkpoint().unwrap();
            // New index over a lazily-held table must see base rows.
            db.create_index("people", "city").unwrap();
            let tx = db.begin();
            assert_eq!(
                db.index_lookup(tx, "people", "city", &Value::Text("x".into())).unwrap().len(),
                40
            );
            db.commit(tx).unwrap();
            // Deleting a base row drops its backfilled entry too.
            let tx = db.begin();
            db.delete(tx, "people", &["p05".into()]).unwrap();
            db.commit(tx).unwrap();
            let tx = db.begin();
            assert_eq!(
                db.index_lookup(tx, "people", "city", &Value::Text("x".into())).unwrap().len(),
                39
            );
            db.commit(tx).unwrap();
            db.checkpoint().unwrap();
        }
        // The folded index survives recovery as a tree.
        let db = Database::open(&p).unwrap();
        let tx = db.begin();
        assert_eq!(
            db.index_lookup(tx, "people", "city", &Value::Text("x".into())).unwrap().len(),
            39
        );
        db.commit(tx).unwrap();
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(Database::checkpoint_path(&p)).unwrap();
    }

    #[test]
    fn snapshots_over_bases_stay_stable_across_checkpoints() {
        let p = tmpwal("btree-snap");
        let db = Database::open(&p).unwrap();
        db.create_table(people_schema()).unwrap();
        for i in 0..20 {
            db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
        }
        db.checkpoint().unwrap();
        // Snapshot over the lazy table reads through the base.
        let snap = db.snapshot();
        assert_eq!(snap.row_count("people").unwrap(), 20);
        assert_eq!(snap.scan("people").unwrap().len(), 20);
        // Keep writing and re-checkpoint: the old snapshot keeps reading
        // the superseded image through its own handle.
        let tx = db.begin();
        db.update(tx, "people", &["p00".into()], person("p00", 99, "y")).unwrap();
        db.commit(tx).unwrap();
        db.checkpoint().unwrap();
        let rows = snap.scan("people").unwrap();
        assert_eq!(rows[0][1], Value::Int(0), "old snapshot sees pre-update state");
        let fresh = db.snapshot();
        assert_eq!(fresh.scan("people").unwrap()[0][1], Value::Int(99));
        // Index access over the snapshot merges base + overlay like the
        // live engine.
        let (rows, scanned) = snap
            .select(
                "people",
                ScanAccess::Index {
                    column: "age",
                    lo: Some(&Value::Int(5)),
                    hi: Some(&Value::Int(9)),
                },
                &mut |_| true,
                None,
            )
            .unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(scanned, 5);
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(Database::checkpoint_path(&p)).unwrap();
    }

    #[test]
    fn replace_table_migrates_rows() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("a", 1, "x")).unwrap();
        let new_schema = TableSchema::new(
            "people",
            vec![Column::new("name", DataType::Text), Column::new("age", DataType::Int)],
            &["name"],
            &[],
        )
        .unwrap();
        db.replace_table(new_schema, vec![vec!["a".into(), Value::Int(1)]]).unwrap();
        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows, vec![vec![Value::Text("a".into()), Value::Int(1)]]);
    }
}
