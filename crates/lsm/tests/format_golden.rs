//! Golden-bytes lock on every checksummed on-disk encoding: a fixed v4
//! sstable (LZ on and off), a WAL segment, a manifest checkpoint with
//! its `CURRENT` pointer, and a key-observation sidecar. Each blob is
//! pinned by its length and an FNV-1a-64 digest computed independently
//! of the engine's CRC-32, so any change to the checksum, the block
//! codec or the framing shows up here — and the pinned bytes are then
//! decoded back, so stores written in these formats keep opening.

use bytes::Bytes;
use lsm_engine::{
    key_from_u64, CompressionType, Entry, Manifest, ManifestEdit, MemoryStorage, RangeTombstone,
    Sstable, SstableBuilder, Storage, TableKeyObservation, TableMeta, ValueKind, Wal, WalRecord,
};

/// FNV-1a, 64-bit: a digest that shares no code with the engine.
fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn assert_golden(what: &str, blob: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (blob.len(), fnv1a64(blob)),
        (len, digest),
        "{what}: encoded bytes drifted from the pinned format (len, fnv1a64)"
    );
}

/// 300 versions over 120 keys: puts with compressible values, every
/// 9th a tombstone, some keys holding two versions.
fn golden_entries() -> Vec<Entry> {
    let mut entries = Vec::new();
    for k in 0..120u64 {
        let versions = if k % 3 == 0 { 2 } else { 1 };
        for v in 0..versions {
            let seqno = 10_000 - k * 4 - v;
            if (k + v) % 9 == 0 {
                entries.push(Entry::tombstone(key_from_u64(k), seqno));
            } else {
                let value = format!("value-{k:05}-v{v}-{}", "abc".repeat((k % 7) as usize));
                entries.push(Entry::put(key_from_u64(k), Bytes::from(value), seqno));
            }
        }
    }
    entries
}

fn golden_table(compression: CompressionType) -> Bytes {
    let mut builder = SstableBuilder::new(42, 512, 10).compression(compression);
    for entry in golden_entries() {
        builder.add(&entry);
    }
    builder.add_range_del(RangeTombstone::new(
        key_from_u64(30),
        key_from_u64(40),
        20_000,
    ));
    builder.add_range_del(RangeTombstone::new(
        key_from_u64(200),
        key_from_u64(210),
        20_001,
    ));
    builder.finish().0
}

#[test]
fn sstable_v4_lz_bytes_are_pinned() {
    let blob = golden_table(CompressionType::Lz);
    assert_golden("v4 sstable, LZ", &blob, 4_138, 0x2F08_AD56_544E_FEB6);
    let table = Sstable::decode(42, blob).unwrap();
    let back: Vec<Entry> = table.iter().collect::<Result<_, _>>().unwrap();
    assert_eq!(back, golden_entries());
    assert_eq!(table.range_dels().len(), 2);
}

#[test]
fn sstable_v4_raw_bytes_are_pinned() {
    let blob = golden_table(CompressionType::None);
    assert_golden("v4 sstable, raw", &blob, 8_437, 0x77E6_08EA_8BD5_1285);
    let table = Sstable::decode(42, blob).unwrap();
    let back: Vec<Entry> = table.iter().collect::<Result<_, _>>().unwrap();
    assert_eq!(back, golden_entries());
}

#[test]
fn wal_segment_bytes_are_pinned() {
    let storage = MemoryStorage::new();
    let segment = Wal::generation_blob_name(7);
    let mut wal = Wal::new(segment.clone());
    let records: Vec<WalRecord> = golden_entries()
        .into_iter()
        .take(40)
        .map(|e| WalRecord {
            key: e.key,
            value: e.value,
            seqno: e.seqno,
            kind: e.kind,
        })
        .collect();
    for batch in records.chunks(7) {
        wal.append_batch(&storage, batch).unwrap();
    }
    wal.append(
        &storage,
        &WalRecord {
            key: key_from_u64(5),
            value: key_from_u64(9),
            seqno: 20_002,
            kind: ValueKind::RangeDelete,
        },
    )
    .unwrap();
    let blob = storage.read_blob(&segment).unwrap();
    assert_golden("WAL segment", &blob, 1_974, 0x31E2_4B72_D465_F337);
    let replayed = Wal::replay(&storage, &segment).unwrap();
    assert_eq!(replayed.len(), 41);
    assert_eq!(replayed[..40], records[..]);
}

#[test]
fn manifest_checkpoint_bytes_are_pinned() {
    let storage = MemoryStorage::new();
    let mut manifest = Manifest::new();
    for i in 0..5u64 {
        let table_id = manifest.allocate_table_id();
        for _ in 0..=i {
            manifest.allocate_seqno();
        }
        manifest
            .apply(ManifestEdit::AddTable(TableMeta {
                table_id,
                entry_count: 1_000 + i,
                encoded_len: 40_000 + i * 17,
                tombstone_count: i,
                range_tombstone_count: i % 2,
                max_seqno: manifest.current_seqno(),
            }))
            .unwrap();
    }
    manifest
        .apply(ManifestEdit::RemoveTable { table_id: 2 })
        .unwrap();
    manifest.persist(&storage).unwrap();
    let checkpoint = storage
        .read_blob(&Manifest::checkpoint_blob_name(manifest.checkpoint_seq()))
        .unwrap();
    assert_golden(
        "manifest checkpoint",
        &checkpoint,
        224,
        0x681C_8D9B_721C_DA89,
    );
    let current = storage.read_blob("CURRENT").unwrap();
    assert_golden("CURRENT pointer", &current, 20, 0x24CF_B270_5EB8_6930);
    assert_eq!(Manifest::load(&storage).unwrap(), manifest);
}

#[test]
fn observation_sidecar_bytes_are_pinned() {
    let keys: Vec<u64> = (0..200u64).map(|i| i * i % 997).collect();
    let observation = TableKeyObservation::new(42, keys);
    let blob = observation.encode();
    assert_golden("observation sidecar", &blob, 1_613, 0x0E9A_D060_2B65_2EE3);
    assert_eq!(TableKeyObservation::decode(42, &blob).unwrap(), observation);
}
