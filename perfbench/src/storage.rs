//! A counting, tracing wrapper around [`FileStorage`].
//!
//! Every [`Storage`] call the engine makes is sorted by blob class
//! (from the blob name) and by operation, and counted: calls, bytes and
//! busy time. Every trait method is forwarded explicitly — the trait's
//! defaults would turn a ranged read into a whole-blob read and so
//! measure a different program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lsm_engine::{Error, FileStorage, Storage, Value};

use crate::trace;

/// What a blob holds, judged by its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Wal,
    Sst,
    Obs,
    Manifest,
    Other,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Wal,
        Class::Sst,
        Class::Obs,
        Class::Manifest,
        Class::Other,
    ];

    pub fn of(name: &str) -> Class {
        if name.starts_with("wal-") {
            Class::Wal
        } else if name.starts_with("sst-") {
            Class::Sst
        } else if name.starts_with("obs-") {
            Class::Obs
        } else if name.starts_with("MANIFEST") || name == "CURRENT" {
            Class::Manifest
        } else {
            Class::Other
        }
    }

    /// The span layer of calls on this class.
    pub fn layer(self) -> &'static str {
        match self {
            Class::Wal => "storage.wal",
            Class::Sst => "storage.sst",
            Class::Obs => "storage.obs",
            Class::Manifest => "storage.manifest",
            Class::Other => "storage.other",
        }
    }
}

/// Which trait method was called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Write,
    WriteAtomic,
    Read,
    ReadRange,
    Len,
    Delete,
    Contains,
    List,
}

impl Op {
    pub const ALL: [Op; 8] = [
        Op::Write,
        Op::WriteAtomic,
        Op::Read,
        Op::ReadRange,
        Op::Len,
        Op::Delete,
        Op::Contains,
        Op::List,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Write => "write",
            Op::WriteAtomic => "write_atomic",
            Op::Read => "read",
            Op::ReadRange => "read_range",
            Op::Len => "len",
            Op::Delete => "delete",
            Op::Contains => "contains",
            Op::List => "list",
        }
    }

    /// `true` for the calls that write a blob (one fsync + rename each
    /// in [`FileStorage`]).
    pub fn is_write(self) -> bool {
        matches!(self, Op::Write | Op::WriteAtomic)
    }

    pub fn is_read(self) -> bool {
        matches!(self, Op::Read | Op::ReadRange)
    }
}

const CLASSES: usize = Class::ALL.len();
const OPS: usize = Op::ALL.len();

/// Calls, bytes and busy nanoseconds of one (class, operation) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell {
    pub calls: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

#[derive(Debug, Default)]
struct AtomicCell {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

/// Counters shared by every wrapper of one store (all its shards).
#[derive(Debug, Default)]
pub struct IoCounters {
    cells: [[AtomicCell; OPS]; CLASSES],
}

impl IoCounters {
    fn record(&self, class: Class, op: Op, bytes: u64, busy_ns: u64) {
        let cell = &self.cells[class as usize][op as usize];
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        cell.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> IoSnapshot {
        let mut cells = [[Cell::default(); OPS]; CLASSES];
        for (c, row) in self.cells.iter().enumerate() {
            for (o, cell) in row.iter().enumerate() {
                cells[c][o] = Cell {
                    calls: cell.calls.load(Ordering::Relaxed),
                    bytes: cell.bytes.load(Ordering::Relaxed),
                    busy_ns: cell.busy_ns.load(Ordering::Relaxed),
                };
            }
        }
        IoSnapshot { cells }
    }
}

/// A point-in-time copy of [`IoCounters`]; subtract two for a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    cells: [[Cell; OPS]; CLASSES],
}

impl IoSnapshot {
    pub fn since(&self, before: &IoSnapshot) -> IoSnapshot {
        let mut cells = self.cells;
        for (c, row) in cells.iter_mut().enumerate() {
            for (o, cell) in row.iter_mut().enumerate() {
                let b = before.cells[c][o];
                cell.calls -= b.calls;
                cell.bytes -= b.bytes;
                cell.busy_ns -= b.busy_ns;
            }
        }
        IoSnapshot { cells }
    }

    /// Sum over the cells of `class` whose operation passes `filter`.
    pub fn sum(&self, class: Option<Class>, filter: impl Fn(Op) -> bool) -> Cell {
        let mut total = Cell::default();
        for c in Class::ALL {
            if class.is_some_and(|want| want != c) {
                continue;
            }
            for o in Op::ALL {
                if filter(o) {
                    let cell = self.cells[c as usize][o as usize];
                    total.calls += cell.calls;
                    total.bytes += cell.bytes;
                    total.busy_ns += cell.busy_ns;
                }
            }
        }
        total
    }

    pub fn writes(&self, class: Option<Class>) -> Cell {
        self.sum(class, Op::is_write)
    }

    pub fn reads(&self, class: Option<Class>) -> Cell {
        self.sum(class, Op::is_read)
    }
}

/// [`FileStorage`] with every call counted into shared [`IoCounters`]
/// and, when tracing is on, recorded as a span.
#[derive(Debug)]
pub struct CountingStorage {
    inner: FileStorage,
    counters: Arc<IoCounters>,
}

impl CountingStorage {
    pub fn new(inner: FileStorage, counters: Arc<IoCounters>) -> Self {
        Self { inner, counters }
    }

    fn timed<T>(
        &self,
        name: &str,
        op: Op,
        call: impl FnOnce(&FileStorage) -> Result<T, Error>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> Result<T, Error> {
        let class = Class::of(name);
        let _span = trace::storage_span(class, op);
        let start = Instant::now();
        let result = call(&self.inner);
        let busy = start.elapsed().as_nanos() as u64;
        let moved = result.as_ref().map_or(0, bytes);
        self.counters.record(class, op, moved, busy);
        result
    }
}

impl Storage for CountingStorage {
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        self.timed(
            name,
            Op::Write,
            |s| s.write_blob(name, data),
            |_| data.len() as u64,
        )
    }

    fn write_blob_atomic(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        self.timed(
            name,
            Op::WriteAtomic,
            |s| s.write_blob_atomic(name, data),
            |_| data.len() as u64,
        )
    }

    fn read_blob(&self, name: &str) -> Result<Value, Error> {
        self.timed(name, Op::Read, |s| s.read_blob(name), |b| b.len() as u64)
    }

    fn read_blob_range(&self, name: &str, offset: u64, len: usize) -> Result<Value, Error> {
        self.timed(
            name,
            Op::ReadRange,
            |s| s.read_blob_range(name, offset, len),
            |b| b.len() as u64,
        )
    }

    fn blob_len(&self, name: &str) -> Result<u64, Error> {
        self.timed(name, Op::Len, |s| s.blob_len(name), |_| 0)
    }

    fn delete_blob(&self, name: &str) -> Result<(), Error> {
        self.timed(name, Op::Delete, |s| s.delete_blob(name), |_| 0)
    }

    fn contains_blob(&self, name: &str) -> bool {
        self.timed(name, Op::Contains, |s| Ok(s.contains_blob(name)), |_| 0)
            .unwrap_or(false)
    }

    fn list_blobs(&self) -> Vec<String> {
        self.timed("", Op::List, |s| Ok(s.list_blobs()), |_| 0)
            .unwrap_or_default()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};

    use lsm_engine::{CompactionPolicy, Lsm, LsmOptions, WriteBatch};

    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-storage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .expect("readable directory")
            .map(|entry| {
                let entry = entry.expect("directory entry");
                let name = entry.file_name().into_string().expect("utf-8 name");
                let bytes = std::fs::read(entry.path()).expect("readable file");
                (name, bytes)
            })
            .collect()
    }

    /// Drives the engine and the raw trait through one backend, and
    /// returns everything the calls answered.
    fn exercise(storage: Arc<dyn Storage>) -> Vec<String> {
        let mut answers = Vec::new();
        {
            let db = Lsm::open(
                Arc::clone(&storage),
                LsmOptions::default()
                    .memtable_capacity(64)
                    .compaction_policy(CompactionPolicy::Threshold { live_tables: 3 }),
            )
            .expect("open");
            for round in 0u64..6 {
                let mut batch = WriteBatch::new();
                for key in 0u64..100 {
                    batch.put_u64(key * 7 % 150, format!("v{round}-{key}").into_bytes());
                }
                db.write_batch(batch).expect("write batch");
                db.put_u64(round, b"single".to_vec()).expect("put");
            }
            db.delete_u64(3).expect("delete");
            db.flush().expect("flush");
            db.auto_compact().expect("compact");
            for key in [0u64, 3, 7, 149, 500] {
                answers.push(format!("{key}={:?}", db.get_u64(key).expect("get")));
            }
            answers.push(format!("{:?}", db.scan_all().expect("scan").len()));
        }
        storage
            .write_blob("x-plain", b"hello world")
            .expect("write");
        storage
            .write_blob_atomic("x-atomic", b"swap")
            .expect("atomic write");
        answers.push(format!("{:?}", storage.read_blob("x-plain").expect("read")));
        answers.push(format!(
            "{:?}",
            storage.read_blob_range("x-plain", 6, 5).expect("range")
        ));
        answers.push(format!(
            "{:?}",
            storage.read_blob_range("x-plain", 6, 9).is_err()
        ));
        answers.push(format!("{:?}", storage.blob_len("x-plain").expect("len")));
        answers.push(format!("{:?}", storage.blob_len("missing").is_err()));
        answers.push(format!("{}", storage.contains_blob("x-atomic")));
        storage.delete_blob("x-atomic").expect("delete");
        storage.delete_blob("x-atomic").expect("idempotent delete");
        let mut names = storage.list_blobs();
        names.sort();
        answers.push(names.join(","));
        answers
    }

    #[test]
    fn wrapped_and_bare_storage_leave_identical_directories() {
        let bare_dir = scratch_dir("bare");
        let wrapped_dir = scratch_dir("wrapped");
        let bare: Arc<dyn Storage> = Arc::new(FileStorage::open(&bare_dir).expect("bare"));
        let counters = Arc::new(IoCounters::default());
        let wrapped: Arc<dyn Storage> = Arc::new(CountingStorage::new(
            FileStorage::open(&wrapped_dir).expect("wrapped"),
            Arc::clone(&counters),
        ));
        let bare_answers = exercise(Arc::clone(&bare));
        let wrapped_answers = exercise(Arc::clone(&wrapped));
        assert_eq!(bare_answers, wrapped_answers);
        assert_eq!(dir_contents(&bare_dir), dir_contents(&wrapped_dir));
        assert_eq!(bare.bytes_written(), wrapped.bytes_written());
        assert_eq!(bare.bytes_read(), wrapped.bytes_read());

        // Ranged reads stay ranged, and every class saw traffic.
        let io = counters.snapshot();
        let ranged = io.sum(None, |op| op == Op::ReadRange);
        assert!(ranged.calls > 0);
        for class in [Class::Wal, Class::Sst, Class::Manifest, Class::Other] {
            assert!(io.writes(Some(class)).calls > 0, "{class:?} writes counted");
        }
        assert_eq!(
            io.writes(None).bytes + io.sum(None, |op| op.is_read()).bytes,
            wrapped.bytes_written() + wrapped.bytes_read(),
            "wrapper bytes agree with the backend's own accounting"
        );
        let _ = std::fs::remove_dir_all(&bare_dir);
        let _ = std::fs::remove_dir_all(&wrapped_dir);
    }

    #[test]
    fn blob_names_sort_into_classes() {
        assert_eq!(Class::of("wal-000001"), Class::Wal);
        assert_eq!(Class::of("sst-000000000042.sst"), Class::Sst);
        assert_eq!(Class::of("obs-000000000042.keys"), Class::Obs);
        assert_eq!(Class::of("MANIFEST-00000000000000000003"), Class::Manifest);
        assert_eq!(Class::of("CURRENT"), Class::Manifest);
        assert_eq!(Class::of("SHARDS"), Class::Other);
    }
}
