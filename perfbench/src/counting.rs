//! A storage backend that counts I/O, for the traced run only.
//!
//! [`CountingBackend`] wraps [`RealBackend`] through the public
//! [`StorageBackend`]/[`BackendFile`] traits and is handed to the store
//! via `QuarryConfig::storage_backend`. It counts positioned and
//! whole-file reads, bytes written per file kind, and `sync_data` calls
//! per file kind. Untraced runs use the stock backend.

use quarry_storage::{BackendFile, RealBackend, StorageBackend};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which store file a handle writes; indexes the per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// The write-ahead log.
    Wal = 0,
    /// A checkpoint image or its unpublished `.ckpt-tmp` side file.
    Checkpoint = 1,
    /// Anything else.
    Other = 2,
}

impl FileKind {
    fn of(path: &Path) -> FileKind {
        match path.extension().and_then(|e| e.to_str()) {
            Some("ckpt" | "ckpt-tmp") => FileKind::Checkpoint,
            Some("wal") => FileKind::Wal,
            _ => FileKind::Other,
        }
    }
}

/// Running totals; every counter only grows.
#[derive(Debug, Default)]
pub struct IoCounters {
    file_reads: AtomicU64,
    bytes: [AtomicU64; 3],
    syncs: [AtomicU64; 3],
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Positioned page reads plus whole-file reads.
    pub file_reads: u64,
    /// Bytes written, by [`FileKind`].
    pub bytes: [u64; 3],
    /// `sync_data` calls, by [`FileKind`].
    pub syncs: [u64; 3],
}

impl IoSnapshot {
    /// What was counted between `earlier` and this snapshot.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        let diff = |a: [u64; 3], b: [u64; 3]| std::array::from_fn(|i| a[i] - b[i]);
        IoSnapshot {
            file_reads: self.file_reads - earlier.file_reads,
            bytes: diff(self.bytes, earlier.bytes),
            syncs: diff(self.syncs, earlier.syncs),
        }
    }
}

impl IoCounters {
    /// Read every counter.
    pub fn snapshot(&self) -> IoSnapshot {
        let load = |c: &[AtomicU64; 3]| c.each_ref().map(|a| a.load(Ordering::Relaxed));
        IoSnapshot {
            file_reads: self.file_reads.load(Ordering::Relaxed),
            bytes: load(&self.bytes),
            syncs: load(&self.syncs),
        }
    }
}

/// [`RealBackend`] with counters.
#[derive(Debug, Default, Clone)]
pub struct CountingBackend {
    counters: Arc<IoCounters>,
}

impl CountingBackend {
    /// A fresh backend and a handle on its counters.
    pub fn new() -> (CountingBackend, Arc<IoCounters>) {
        let counters = Arc::new(IoCounters::default());
        (CountingBackend { counters: Arc::clone(&counters) }, counters)
    }

    fn wrap(&self, path: &Path, inner: Box<dyn BackendFile>) -> Box<dyn BackendFile> {
        Box::new(CountingFile {
            inner,
            kind: FileKind::of(path),
            counters: Arc::clone(&self.counters),
        })
    }
}

struct CountingFile {
    inner: Box<dyn BackendFile>,
    kind: FileKind,
    counters: Arc<IoCounters>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters.bytes[self.kind as usize].fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl BackendFile for CountingFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.counters.syncs[self.kind as usize].fetch_add(1, Ordering::Relaxed);
        self.inner.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_at(offset, buf)?;
        self.counters.bytes[self.kind as usize].fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.counters.file_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_at(offset, buf)
    }

    fn file_len(&mut self) -> io::Result<u64> {
        self.inner.file_len()
    }
}

impl StorageBackend for CountingBackend {
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn BackendFile>> {
        Ok(self.wrap(path, RealBackend.open_append(path, truncate_to)?))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        Ok(self.wrap(path, RealBackend.create_new(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        Ok(self.wrap(path, RealBackend.open_rw(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.counters.file_reads.fetch_add(1, Ordering::Relaxed);
        RealBackend.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealBackend.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealBackend.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealBackend.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        RealBackend.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_bytes_syncs_and_reads_by_file_kind() {
        let dir = std::env::temp_dir().join(format!("perfbench-counting-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (backend, counters) = CountingBackend::new();
        let mut wal = backend.open_append(&dir.join("s.wal"), 0).unwrap();
        wal.write_all(b"hello").unwrap();
        wal.sync_data().unwrap();
        let mut ckpt = backend.create_new(&dir.join("s.ckpt-tmp")).unwrap();
        ckpt.write_at(0, &[1u8; 16]).unwrap();
        let mut buf = [0u8; 4];
        ckpt.read_at(4, &mut buf).unwrap();
        backend.read(&dir.join("s.wal")).unwrap();
        let s = counters.snapshot();
        assert_eq!((s.bytes, s.syncs, s.file_reads), ([5, 16, 0], [1, 0, 0], 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
