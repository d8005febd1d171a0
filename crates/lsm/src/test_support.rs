//! Shared test doubles for integration tests (this crate's and its
//! dependents').
//!
//! Not part of the engine's API contract — these exist so the engine,
//! service and harness test suites can deterministically freeze
//! storage-level events without each carrying its own copy of the
//! wrapper (the copies had already drifted into four near-identical
//! implementations before this module consolidated them).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use bytes::{BufMut, Bytes};

use crate::block::{crc32, BlockBuilder};
use crate::bloom::BloomFilter;
use crate::compress::encode_block_envelope;
use crate::sstable::{encode_meta, FOOTER_MAGIC_V1, FOOTER_MAGIC_V2, FOOTER_MAGIC_V3};
use crate::storage::{MemoryStorage, Storage};
use crate::types::{Entry, Key};
use crate::CompressionType;
use crate::Error;

/// A [`MemoryStorage`] wrapper that can stall sstable writes on demand:
/// while the gate is closed, any `write_blob` of an `sst-*` blob blocks
/// until [`GatedStorage::open_gate`]. This freezes a compaction (or
/// flush) at its first output write, deterministically, so tests can
/// assert what the rest of the system does while that operation is
/// mid-flight — reads proceeding, admission control shedding, scans
/// surviving the manifest flip.
#[derive(Debug)]
pub struct GatedStorage {
    inner: MemoryStorage,
    gate_enabled: AtomicBool,
    /// `true` = open.
    gate: Mutex<bool>,
    signal: Condvar,
}

impl Default for GatedStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl GatedStorage {
    /// An empty gated store with the gate open (writes pass through).
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: MemoryStorage::new(),
            gate_enabled: AtomicBool::new(false),
            gate: Mutex::new(true),
            signal: Condvar::new(),
        }
    }

    /// Arms the gate: subsequent sstable writes block until
    /// [`GatedStorage::open_gate`].
    pub fn close_gate(&self) {
        *self.gate.lock().unwrap() = false;
        self.gate_enabled.store(true, Ordering::SeqCst);
    }

    /// Opens the gate, releasing every blocked writer.
    pub fn open_gate(&self) {
        *self.gate.lock().unwrap() = true;
        self.signal.notify_all();
    }

    fn wait_if_gated(&self, name: &str) {
        if !self.gate_enabled.load(Ordering::SeqCst) || !name.starts_with("sst-") {
            return;
        }
        let mut open = self.gate.lock().unwrap();
        while !*open {
            open = self.signal.wait(open).unwrap();
        }
    }
}

impl Storage for GatedStorage {
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        self.wait_if_gated(name);
        self.inner.write_blob(name, data)
    }

    fn read_blob(&self, name: &str) -> Result<Bytes, Error> {
        self.inner.read_blob(name)
    }

    fn read_blob_range(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, Error> {
        self.inner.read_blob_range(name, offset, len)
    }

    fn blob_len(&self, name: &str) -> Result<u64, Error> {
        self.inner.blob_len(name)
    }

    fn delete_blob(&self, name: &str) -> Result<(), Error> {
        self.inner.delete_blob(name)
    }

    fn contains_blob(&self, name: &str) -> bool {
        self.inner.contains_blob(name)
    }

    fn list_blobs(&self) -> Vec<String> {
        self.inner.list_blobs()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// A [`MemoryStorage`] wrapper that simulates a process death at an
/// exact write offset: after a scripted byte budget is exhausted, the
/// write in flight dies and every subsequent mutation fails — what a
/// power cut leaves on disk. Tear semantics mirror the real backends'
/// write-new-then-rename: an *existing* blob keeps its previous
/// contents (the rename never happened; acked bytes cannot tear), a
/// *brand-new* blob is left as a partial prefix (a torn tail recovery
/// must treat as unacked).
///
/// [`Storage::write_blob_atomic`] honors its contract even at the
/// crash point: the swap either happens entirely (budget covers it) or
/// not at all — a torn `CURRENT`-style pointer can only come from
/// backends that ignore the atomic hint, which the fault battery also
/// exercises by corrupting blobs directly via
/// [`CrashPointStorage::corrupt_byte`].
///
/// Drive it with [`CrashPointStorage::crash_after`], run the workload
/// until it errors, then [`CrashPointStorage::surviving`] hands the
/// post-crash bytes to a fresh reopen.
#[derive(Debug)]
pub struct CrashPointStorage {
    inner: MemoryStorage,
    /// Mutation bytes remaining before the simulated death;
    /// `u64::MAX` = no crash scripted.
    budget: AtomicU64,
    dead: AtomicBool,
}

impl Default for CrashPointStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl CrashPointStorage {
    /// An empty store with no crash scripted.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: MemoryStorage::new(),
            budget: AtomicU64::new(u64::MAX),
            dead: AtomicBool::new(false),
        }
    }

    /// Scripts the death: after `bytes` more mutation bytes, the write
    /// in flight tears and the process is "dead" (all later mutations
    /// fail).
    pub fn crash_after(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::SeqCst);
        self.dead.store(false, Ordering::SeqCst);
    }

    /// `true` once the scripted crash has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Copies the surviving (post-crash) blob set into a fresh
    /// [`MemoryStorage`], the disk image a reopen would see.
    #[must_use]
    pub fn surviving(&self) -> MemoryStorage {
        let copy = MemoryStorage::new();
        for name in self.inner.list_blobs() {
            if let Ok(bytes) = self.inner.read_blob(&name) {
                copy.write_blob(&name, &bytes).unwrap();
            }
        }
        copy
    }

    /// Flips one bit of `name` at `offset` in place (bit-rot
    /// injection). Returns `false` if the blob is missing or shorter
    /// than `offset`.
    pub fn corrupt_byte(&self, name: &str, offset: usize) -> bool {
        corrupt_blob_byte(&self.inner, name, offset)
    }

    /// Charges `len` against the budget. `Ok(len)` = full write goes
    /// through; `Ok(prefix)` = tear the write at `prefix` bytes and
    /// die; `Err` = already dead.
    fn charge(&self, len: usize) -> Result<usize, Error> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead_storage_error());
        }
        let budget = self.budget.load(Ordering::SeqCst);
        if budget == u64::MAX {
            return Ok(len);
        }
        if (len as u64) <= budget {
            self.budget.store(budget - len as u64, Ordering::SeqCst);
            Ok(len)
        } else {
            self.dead.store(true, Ordering::SeqCst);
            Ok(budget as usize)
        }
    }
}

/// Encodes sorted `entries` as a legacy **v1** sstable blob: no meta
/// block, raw (un-enveloped) data blocks, 5-field footer. The builder
/// stopped emitting this layout at v2, but decoders must keep
/// accepting it; tests use this to stage mixed-version table sets.
#[must_use]
pub fn encode_v1_sstable(entries: &[Entry], block_size: usize) -> Bytes {
    encode_legacy_sstable(entries, block_size, 1)
}

/// Encodes sorted `entries` as a legacy **v2** sstable blob: min/max
/// meta block, raw (un-enveloped) data blocks, 6-field footer. The
/// builder stopped emitting this layout at v3 (compression
/// envelopes), but decoders must keep accepting it.
#[must_use]
pub fn encode_v2_sstable(entries: &[Entry], block_size: usize) -> Bytes {
    encode_legacy_sstable(entries, block_size, 2)
}

/// Encodes sorted `entries` as a legacy **v3** sstable blob: min/max
/// meta block, LZ-enveloped data blocks, 6-field footer — no
/// range-tombstone section. The builder stopped emitting this layout
/// at v4 (range deletes), but decoders must keep accepting it.
#[must_use]
pub fn encode_v3_sstable(entries: &[Entry], block_size: usize) -> Bytes {
    encode_legacy_sstable(entries, block_size, 3)
}

fn encode_legacy_sstable(entries: &[Entry], block_size: usize, version: u8) -> Bytes {
    let mut finished: Vec<(Key, Bytes)> = Vec::new();
    let mut current = BlockBuilder::new();
    for entry in entries {
        current.add(entry);
        if current.size_in_bytes() >= block_size {
            let last = Bytes::copy_from_slice(current.last_key().expect("non-empty block"));
            finished.push((last, current.finish()));
        }
    }
    if !current.is_empty() {
        let last = Bytes::copy_from_slice(current.last_key().expect("non-empty block"));
        finished.push((last, current.finish()));
    }
    let bloom = BloomFilter::build(entries.iter().map(|e| e.key.as_ref()), 10);

    let mut buf = Vec::new();
    let mut index: Vec<(Key, u64, u64)> = Vec::new();
    for (last_key, encoded) in &finished {
        let offset = buf.len();
        // v3 stores each block inside a compression envelope; the index
        // records the stored (enveloped) length.
        if version >= 3 {
            encode_block_envelope(CompressionType::Lz, encoded, &mut buf);
        } else {
            buf.put_slice(encoded);
        }
        index.push((last_key.clone(), offset as u64, (buf.len() - offset) as u64));
    }
    let bloom_offset = buf.len() as u64;
    let bloom_bytes = bloom.encode();
    buf.put_slice(&bloom_bytes);
    let meta_offset = buf.len() as u64;
    if version >= 2 {
        let min = entries.first().map(|e| e.key.clone());
        let max = entries.last().map(|e| e.key.clone());
        encode_meta(&mut buf, min.as_ref(), max.as_ref());
    }
    let index_offset = buf.len() as u64;
    buf.put_u32_le(index.len() as u32);
    for (last_key, offset, len) in &index {
        buf.put_u32_le(last_key.len() as u32);
        buf.put_slice(last_key);
        buf.put_u64_le(*offset);
        buf.put_u64_le(*len);
    }
    let footer_start = buf.len();
    buf.put_u64_le(bloom_offset);
    buf.put_u64_le(bloom_bytes.len() as u64);
    if version >= 2 {
        buf.put_u64_le(meta_offset);
    }
    buf.put_u64_le(index_offset);
    buf.put_u64_le(entries.len() as u64);
    buf.put_u64_le(match version {
        1 => FOOTER_MAGIC_V1,
        2 => FOOTER_MAGIC_V2,
        _ => FOOTER_MAGIC_V3,
    });
    let crc = crc32(&buf[footer_start..]);
    buf.put_u32_le(crc);
    Bytes::from(buf)
}

/// A [`MemoryStorage`] wrapper that charges a fixed latency on every
/// *read* call (`read_blob` / `read_blob_range`), simulating a device
/// where each round-trip costs real time. Writes stay free so load,
/// flush and compaction phases are unaffected. This exists to make
/// read-path *round-trip counts* visible in wall-clock benchmarks
/// (the scan-readahead column): over a plain `MemoryStorage`, a 10x
/// difference in fetch counts hides behind nanosecond reads.
#[derive(Debug)]
pub struct LatencyStorage {
    inner: MemoryStorage,
    read_latency: Duration,
}

impl LatencyStorage {
    /// An empty store charging `read_latency` per read round-trip.
    #[must_use]
    pub fn new(read_latency: Duration) -> Self {
        Self {
            inner: MemoryStorage::new(),
            read_latency,
        }
    }

    fn charge_read(&self) {
        if !self.read_latency.is_zero() {
            std::thread::sleep(self.read_latency);
        }
    }
}

impl Storage for LatencyStorage {
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        self.inner.write_blob(name, data)
    }

    fn read_blob(&self, name: &str) -> Result<Bytes, Error> {
        self.charge_read();
        self.inner.read_blob(name)
    }

    fn read_blob_range(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, Error> {
        self.charge_read();
        self.inner.read_blob_range(name, offset, len)
    }

    fn blob_len(&self, name: &str) -> Result<u64, Error> {
        self.inner.blob_len(name)
    }

    fn delete_blob(&self, name: &str) -> Result<(), Error> {
        self.inner.delete_blob(name)
    }

    fn contains_blob(&self, name: &str) -> bool {
        self.inner.contains_blob(name)
    }

    fn list_blobs(&self) -> Vec<String> {
        self.inner.list_blobs()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// The error every mutation returns after the scripted death.
fn dead_storage_error() -> Error {
    Error::Io(std::io::Error::other("simulated crash: storage is dead"))
}

/// Flips one bit of `name` at `offset` on any [`MemoryStorage`].
/// Returns `false` if the blob is missing or shorter than `offset`.
pub fn corrupt_blob_byte(storage: &MemoryStorage, name: &str, offset: usize) -> bool {
    let Ok(bytes) = storage.read_blob(name) else {
        return false;
    };
    if offset >= bytes.len() {
        return false;
    }
    let mut data = bytes.to_vec();
    data[offset] ^= 0x40;
    storage.write_blob(name, &data).unwrap();
    true
}

impl Storage for CrashPointStorage {
    fn write_blob(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        let allowed = self.charge(data.len())?;
        if allowed == data.len() {
            self.inner.write_blob(name, data)
        } else if self.inner.contains_blob(name) {
            // Both real backends replace blobs atomically (FileStorage
            // writes a temp file and renames), so a crash mid-rewrite
            // leaves the *previous* contents — acked bytes never tear.
            Err(dead_storage_error())
        } else {
            // A brand-new blob tears: the partial file exists but holds
            // only a prefix, which recovery must treat as unacked (the
            // WAL's torn-tail taxon, or an orphaned partial sstable).
            self.inner.write_blob(name, &data[..allowed])?;
            Err(dead_storage_error())
        }
    }

    fn write_blob_atomic(&self, name: &str, data: &[u8]) -> Result<(), Error> {
        let allowed = self.charge(data.len())?;
        if allowed == data.len() {
            self.inner.write_blob(name, data)
        } else {
            // All-or-nothing: the swap never happened.
            Err(dead_storage_error())
        }
    }

    fn read_blob(&self, name: &str) -> Result<Bytes, Error> {
        self.inner.read_blob(name)
    }

    fn read_blob_range(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, Error> {
        self.inner.read_blob_range(name, offset, len)
    }

    fn blob_len(&self, name: &str) -> Result<u64, Error> {
        self.inner.blob_len(name)
    }

    fn delete_blob(&self, name: &str) -> Result<(), Error> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead_storage_error());
        }
        self.inner.delete_blob(name)
    }

    fn contains_blob(&self, name: &str) -> bool {
        self.inner.contains_blob(name)
    }

    fn list_blobs(&self) -> Vec<String> {
        self.inner.list_blobs()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}
