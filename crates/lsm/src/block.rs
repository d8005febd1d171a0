//! Data block encoding for sstables.
//!
//! A block is a sorted sequence of entries encoded as length-prefixed
//! records followed by a CRC32 checksum. Blocks are the unit of read I/O
//! within a single sstable; the sstable index maps the last key of each
//! block to its offset, so point lookups binary-search the index and
//! decode a single block.

use std::ops::Range;

use bytes::{BufMut, Bytes};

use crate::types::{Entry, ValueKind};
use crate::Error;

/// Incrementally builds one encoded data block from sorted entries.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    count: u32,
    /// Where the last added key sits inside `buf`.
    last_key: Range<usize>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry. Entries must be appended in internal-key order;
    /// the builder does not reorder them.
    pub fn add(&mut self, entry: &Entry) {
        self.buf.put_u32_le(entry.key.len() as u32);
        let key_start = self.buf.len();
        self.buf.put_slice(&entry.key);
        self.last_key = key_start..self.buf.len();
        self.buf.put_u32_le(entry.value.len() as u32);
        self.buf.put_slice(&entry.value);
        self.buf.put_u64_le(entry.seqno);
        self.buf.put_u8(entry.kind.as_u8());
        self.count += 1;
    }

    /// Number of entries added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if no entry has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Current encoded payload size in bytes (before the trailer).
    #[must_use]
    pub fn size_in_bytes(&self) -> usize {
        self.buf.len()
    }

    /// First key added to the block, if any.
    #[must_use]
    pub fn first_key(&self) -> Option<&[u8]> {
        let len = u32::from_le_bytes(self.buf.get(..4)?.try_into().expect("4 bytes")) as usize;
        Some(&self.buf[4..4 + len])
    }

    /// Last key added to the block, if any.
    #[must_use]
    pub fn last_key(&self) -> Option<&[u8]> {
        (!self.is_empty()).then(|| &self.buf[self.last_key.clone()])
    }

    /// Finishes the block: appends the entry count and CRC32 trailer and
    /// returns the encoded bytes, resetting the builder for reuse.
    #[must_use]
    pub fn finish(&mut self) -> Bytes {
        self.finish_with(Bytes::copy_from_slice)
    }

    /// [`BlockBuilder::finish`] that lends the encoded block to `f`
    /// instead of copying it out, so the builder's buffer is reused.
    pub(crate) fn finish_with<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> R {
        self.buf.put_u32_le(self.count);
        let crc = crc32(&self.buf);
        self.buf.put_u32_le(crc);
        let out = f(&self.buf);
        self.buf.clear();
        self.count = 0;
        out
    }
}

/// A decoded, immutable data block. Its entries' keys and values are
/// slices of the block's logical bytes, not copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    entries: Vec<Entry>,
}

impl Block {
    /// Decodes a block produced by [`BlockBuilder::finish`], verifying its
    /// checksum. Keys and values share `data`'s buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the trailer is missing, the CRC
    /// does not match, or a record is truncated.
    pub fn decode(data: &Bytes) -> Result<Self, Error> {
        if data.len() < 8 {
            return Err(Error::corruption("block shorter than trailer"));
        }
        let (payload_and_count, crc_bytes) = data.split_at(data.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("split at 4"));
        if crc32(payload_and_count) != stored_crc {
            return Err(Error::corruption("block checksum mismatch"));
        }
        let (payload, count_bytes) = payload_and_count.split_at(payload_and_count.len() - 4);
        let count = u32::from_le_bytes(count_bytes.try_into().expect("split at 4"));

        // Claims the next `n` payload bytes, or reports `what`.
        let mut pos = 0usize;
        let mut take = |n: usize, what: &'static str| -> Result<Range<usize>, Error> {
            if payload.len() - pos < n {
                return Err(Error::corruption(what));
            }
            pos += n;
            Ok(pos - n..pos)
        };
        let u32_at =
            |at: Range<usize>| u32::from_le_bytes(payload[at].try_into().expect("4 bytes"));

        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let klen = u32_at(take(4, "truncated key length")?) as usize;
            let key = data.slice(take(klen, "truncated key")?);
            let vlen = u32_at(take(4, "truncated value length")?) as usize;
            let value = data.slice(take(vlen, "truncated value")?);
            let meta = take(9, "truncated entry metadata")?;
            let seqno = u64::from_le_bytes(
                payload[meta.start..meta.start + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            let kind = ValueKind::from_u8(payload[meta.start + 8])
                .ok_or_else(|| Error::corruption("unknown value kind tag"))?;
            entries.push(Entry {
                key,
                value,
                seqno,
                kind,
            });
        }
        if pos != payload.len() {
            return Err(Error::corruption("trailing bytes after last entry"));
        }
        Ok(Self { entries })
    }

    /// The decoded entries, in the order they were added.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the block holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident size of the decoded block: the struct, its
    /// entry vector, and the key/value bytes the entries view. The
    /// block cache charges this — it stores *decoded* blocks, so
    /// charging encoded (possibly compressed) length would understate
    /// RAM by the compression ratio.
    #[must_use]
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
            + self
                .entries
                .iter()
                .map(|e| e.key.len() + e.value.len())
                .sum::<usize>()
    }

    /// Finds the newest entry for `key` within this block.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        // Entries are sorted by (user key asc, seqno desc); the first
        // entry at or after `key` is therefore the newest version of it,
        // reachable by binary search instead of a linear scan.
        let idx = self.entries.partition_point(|e| e.key.as_ref() < key);
        self.entries.get(idx).filter(|e| e.key.as_ref() == key)
    }

    /// Finds the newest entry for `key` with `seqno <= upto` — the
    /// pinned-snapshot variant of [`Block::get`]. Versions of one user
    /// key are adjacent (key asc, seqno desc) and the sstable builder
    /// never splits a key across blocks, so the walk stays local.
    #[must_use]
    pub fn get_visible(&self, key: &[u8], upto: u64) -> Option<&Entry> {
        let idx = self.entries.partition_point(|e| e.key.as_ref() < key);
        self.entries[idx..]
            .iter()
            .take_while(|e| e.key.as_ref() == key)
            .find(|e| e.seqno <= upto)
    }

    /// Consumes the block, returning its entries.
    #[must_use]
    pub fn into_entries(self) -> Vec<Entry> {
        self.entries
    }
}

/// Slice-by-8 lookup tables for the reflected IEEE 802.3 polynomial,
/// built at compile time: `CRC_TABLES[0]` is the classic bytewise table
/// and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table lookups consume eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven slice-by-8.
/// Every block, envelope, WAL frame, manifest and sidecar checksum uses
/// it; the value is the standard CRC-32, bit for bit.
#[must_use]
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::key_from_u64;

    fn sample_entries(n: u64) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    Entry::tombstone(key_from_u64(i), 100 + i)
                } else {
                    Entry::put(key_from_u64(i), Bytes::from(format!("value-{i}")), 100 + i)
                }
            })
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" has the well-known CRC-32 of 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC-32 the table-driven one must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_bitwise_oracle(
            len in 0usize..=4_099,
            seed in proptest::prelude::any::<u64>(),
            offset in 0usize..8,
            trim in 0usize..8,
        ) {
            let mut state = seed;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 33) as u8
                })
                .collect();
            proptest::prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
            // Unaligned sub-slices exercise every remainder length and
            // every start alignment of the 8-byte loop.
            let start = offset.min(len);
            let end = len.saturating_sub(trim).max(start);
            let sub = &data[start..end];
            proptest::prop_assert_eq!(crc32(sub), crc32_bitwise(sub), "sub-slice {}..{}", start, end);
        }
    }

    #[test]
    fn build_and_decode_roundtrip() {
        let entries = sample_entries(100);
        let mut builder = BlockBuilder::new();
        for e in &entries {
            builder.add(e);
        }
        assert_eq!(builder.len(), 100);
        assert!(!builder.is_empty());
        assert_eq!(builder.first_key().unwrap(), key_from_u64(0).as_ref());
        assert_eq!(builder.last_key().unwrap(), key_from_u64(99).as_ref());
        let encoded = builder.finish();
        assert!(builder.is_empty(), "finish resets the builder");

        let block = Block::decode(&encoded).unwrap();
        assert_eq!(block.entries(), entries.as_slice());
        assert_eq!(block.get(&key_from_u64(13)).unwrap().seqno, 113);
        assert!(block.get(b"missing!").is_none());
    }

    #[test]
    fn decode_detects_corruption() {
        let mut builder = BlockBuilder::new();
        for e in sample_entries(10) {
            builder.add(&e);
        }
        let encoded = builder.finish();
        let mut tampered = encoded.to_vec();
        tampered[3] ^= 0xFF;
        assert!(matches!(
            Block::decode(&Bytes::from(tampered)),
            Err(Error::Corruption { .. })
        ));
        assert!(Block::decode(&encoded.slice(..4)).is_err());
        assert!(Block::decode(&Bytes::new()).is_err());
    }

    #[test]
    fn empty_block_roundtrips() {
        let mut builder = BlockBuilder::new();
        let encoded = builder.finish();
        let block = Block::decode(&encoded).unwrap();
        assert!(block.is_empty());
        assert_eq!(block.len(), 0);
    }
}
