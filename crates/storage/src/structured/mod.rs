//! The "final structure" store: a small relational engine.
//!
//! The blueprint argues the final extracted structure — edited concurrently
//! by many users — belongs in an RDBMS "to ensure fast and correct
//! concurrency control". This module is that engine, from scratch:
//!
//! - typed, schema-checked tables with primary keys ([`table`]);
//! - secondary B-tree indexes maintained on every write ([`index`]);
//! - strict two-phase locking with intention locks and wait-die deadlock
//!   avoidance ([`lock`]);
//! - a write-ahead log and redo recovery that restores exactly the
//!   committed prefix after a crash ([`recovery`]);
//! - lock-free MVCC snapshot reads pinned to a write-clock LSN ([`view`]);
//! - the [`Database`] façade tying them together ([`engine`]).

pub mod engine;
pub mod index;
pub mod lock;
pub(crate) mod paged;
pub mod recovery;
pub mod replication;
pub mod table;
pub mod view;

pub use engine::{Database, IndexStats, ScanAccess, TxId};
pub use lock::{LockManager, LockMode};
pub use recovery::LogRecord;
pub use replication::{ReplicaApplier, ReplicaPosition, ReplicationSeed};
pub use table::{Column, Row, RowId, TableSchema};
pub use view::{DbSnapshot, TableView};
