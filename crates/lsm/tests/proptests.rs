//! Property-based tests: the LSM store behaves like a model `BTreeMap`
//! under arbitrary sequences of puts, deletes, flushes and compactions,
//! and the streaming compaction merge produces exactly what a merge over
//! fully collected inputs produces.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use lsm_engine::{
    key_from_u64, CompactionStep, Entry, Lsm, LsmOptions, Manifest, ManifestEdit, MemoryStorage,
    ParallelExecutor, RangeTombstone, SeqNo, Sstable, SstableBuilder, Storage, TableMeta,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
    Flush,
    MajorCompact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..200, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u64..200).prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::MajorCompact),
    ]
}

/// Builds a left-to-right (caterpillar) merge schedule over `n` tables.
fn caterpillar(n: usize) -> Vec<CompactionStep> {
    let mut steps = Vec::new();
    if n < 2 {
        return steps;
    }
    let mut acc = 0usize;
    for next in 1..n {
        let output_slot = n + steps.len();
        steps.push(CompactionStep::new(vec![acc, next]));
        acc = output_slot;
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any operation sequence, every key reads back exactly what a
    /// model BTreeMap says it should be, and scan_all matches the model.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(8)).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    db.put_u64(*k, v.clone()).unwrap();
                    model.insert(*k, v.clone());
                }
                Op::Delete(k) => {
                    db.delete_u64(*k).unwrap();
                    model.remove(k);
                }
                Op::Flush => {
                    db.flush().unwrap();
                }
                Op::MajorCompact => {
                    db.flush().unwrap();
                    let n = db.live_tables().len();
                    let steps = caterpillar(n);
                    if !steps.is_empty() {
                        db.major_compact(&steps).unwrap();
                        prop_assert_eq!(db.live_tables().len(), 1);
                    }
                }
            }
        }

        for (k, v) in &model {
            let got = db.get_u64(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()), "key {}", k);
        }
        // Spot-check some absent keys.
        for k in 200..205u64 {
            prop_assert_eq!(db.get_u64(k).unwrap(), None);
        }
        // Full scan equals the model (keys and values).
        let scanned: Vec<(u64, Vec<u8>)> = db
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(k, v)| (lsm_engine::key_to_u64(&k).unwrap(), v.to_vec()))
            .collect();
        let expected: Vec<(u64, Vec<u8>)> =
            model.iter().map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    /// Major compaction never changes the visible contents of the store.
    #[test]
    fn compaction_preserves_contents(
        keys in proptest::collection::vec(0u64..500, 1..300),
        deletes in proptest::collection::vec(0u64..500, 0..50),
    ) {
        let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(16)).unwrap();
        for (i, k) in keys.iter().enumerate() {
            db.put_u64(*k, format!("v{i}").into_bytes()).unwrap();
        }
        for k in &deletes {
            db.delete_u64(*k).unwrap();
        }
        db.flush().unwrap();
        let before = db.scan_all().unwrap();

        let n = db.live_tables().len();
        let steps = caterpillar(n);
        if !steps.is_empty() {
            db.major_compact(&steps).unwrap();
        }
        let after = db.scan_all().unwrap();
        prop_assert_eq!(before, after);
        // After a major compaction a read probes at most one table.
        prop_assert!(db.live_tables().len() <= 1);
    }
}

/// Small deterministic PRNG for shaping one merge case from a seed.
struct CaseRng(u64);

impl CaseRng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }
}

/// One merge case: `fanin` sorted inputs (oldest first) drawn from a
/// pool of uniquely sequenced versions over 40 keys — puts and point
/// tombstones, some versions copied into a second input — plus range
/// tombstones per input and a retain floor that is either absent or
/// cuts through the versions.
struct MergeCase {
    inputs: Vec<Vec<Entry>>,
    range_dels: Vec<Vec<RangeTombstone>>,
    floor: SeqNo,
}

fn merge_case(seed: u64, fanin: usize) -> MergeCase {
    let mut rng = CaseRng(seed);
    let mut inputs: Vec<Vec<Entry>> = vec![Vec::new(); fanin];
    let mut range_dels: Vec<Vec<RangeTombstone>> = vec![Vec::new(); fanin];
    let mut seqno = 0u64;
    for _ in 0..20 + rng.below(100) {
        seqno += 1;
        let key = key_from_u64(rng.below(40));
        let entry = if rng.below(5) == 0 {
            Entry::tombstone(key, seqno)
        } else {
            let len = rng.below(40) as usize;
            Entry::put(
                key,
                Bytes::from(format!("{seqno:06}").repeat(len / 6 + 1)),
                seqno,
            )
        };
        let home = rng.below(fanin as u64) as usize;
        if rng.below(8) == 0 {
            // The same version present in two inputs — sometimes with a
            // different payload, where the newer input must win.
            let mut copy = entry.clone();
            if !copy.is_tombstone() && rng.below(2) == 0 {
                copy.value = Bytes::from(format!("copy-{seqno}"));
            }
            inputs[(home + 1) % fanin].push(copy);
        }
        inputs[home].push(entry);
        if rng.below(25) == 0 {
            seqno += 1;
            let start = rng.below(40);
            let rd = RangeTombstone::new(
                key_from_u64(start),
                key_from_u64(start + 1 + rng.below(10)),
                seqno,
            );
            range_dels[rng.below(fanin as u64) as usize].push(rd);
        }
    }
    for input in &mut inputs {
        input.sort_by(|a, b| a.key.cmp(&b.key).then(b.seqno.cmp(&a.seqno)));
    }
    let floor = match rng.below(3) {
        0 => SeqNo::MAX,
        _ => 1 + rng.below(seqno),
    };
    MergeCase {
        inputs,
        range_dels,
        floor,
    }
}

/// The reference merge over fully collected inputs: every entry in one
/// vector, sorted by internal key with the newer input first on ties,
/// then the visibility rules applied in one pass.
fn collected_merge(case: &MergeCase, drop_tombstones: bool) -> Vec<Entry> {
    let range_dels: Vec<&RangeTombstone> = case.range_dels.iter().flatten().collect();
    let mut all: Vec<(usize, &Entry)> = case
        .inputs
        .iter()
        .enumerate()
        .flat_map(|(source, input)| input.iter().map(move |e| (source, e)))
        .collect();
    all.sort_by(|(sa, a), (sb, b)| {
        a.key
            .cmp(&b.key)
            .then(b.seqno.cmp(&a.seqno))
            .then(a.kind.cmp(&b.kind))
            .then(sb.cmp(sa))
    });
    let mut out: Vec<Entry> = Vec::new();
    let mut key_done_for: Option<&Bytes> = None;
    for (_, entry) in all {
        if key_done_for == Some(&entry.key) {
            continue;
        }
        if out
            .last()
            .is_some_and(|last| last.key == entry.key && last.seqno == entry.seqno)
        {
            continue;
        }
        let visible_floor = entry.seqno <= case.floor;
        let shadowed = range_dels
            .iter()
            .any(|rd| rd.seqno <= case.floor && rd.shadows(&entry.key, entry.seqno));
        if shadowed || (drop_tombstones && entry.is_tombstone() && visible_floor) {
            key_done_for = Some(&entry.key);
            continue;
        }
        if visible_floor {
            key_done_for = Some(&entry.key);
        }
        out.push(entry.clone());
    }
    out
}

fn stage_input(
    storage: &MemoryStorage,
    manifest: &mut Manifest,
    options: &LsmOptions,
    entries: &[Entry],
    range_dels: &[RangeTombstone],
) -> u64 {
    let id = manifest.allocate_table_id();
    let mut builder = SstableBuilder::new(id, options.block_size_bytes(), options.bloom_bits())
        .compression(options.compression_type());
    for entry in entries {
        builder.add(entry);
    }
    for rd in range_dels {
        builder.add_range_del(rd.clone());
    }
    let (data, meta) = builder.finish();
    storage.write_blob(&Sstable::blob_name(id), &data).unwrap();
    manifest
        .apply(ManifestEdit::AddTable(TableMeta {
            table_id: id,
            entry_count: meta.entry_count,
            encoded_len: meta.encoded_len,
            tombstone_count: meta.tombstone_count,
            range_tombstone_count: meta.range_tombstone_count,
            max_seqno: meta.max_seqno,
        }))
        .unwrap();
    id
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A compaction step streams its inputs block by block; its output
    /// entries and its encoded table equal those of a merge over the
    /// fully collected inputs — for fan-in 2 and 4, with point and range
    /// tombstones, versions present in two inputs, a retain floor below
    /// some versions, and tombstone dropping on and off.
    #[test]
    fn streaming_merge_equals_collected_merge(
        seed in any::<u64>(),
        wide in 0u8..2,
        drop in 0u8..2,
    ) {
        let fanin = if wide == 1 { 4 } else { 2 };
        let drop_tombstones = drop == 1;
        let case = merge_case(seed, fanin);
        let options = LsmOptions::default()
            .block_size(128)
            .compaction_fanin(fanin)
            .drop_tombstones(drop_tombstones);

        let storage = Arc::new(MemoryStorage::new());
        let mut manifest = Manifest::new();
        let ids: Vec<u64> = case
            .inputs
            .iter()
            .zip(&case.range_dels)
            .map(|(entries, rds)| stage_input(&storage, &mut manifest, &options, entries, rds))
            .collect();
        let outcome = ParallelExecutor::new(storage.clone(), options.clone())
            .with_retain_floor(case.floor)
            .execute(&mut manifest, &ids, &[CompactionStep::new((0..fanin).collect())])
            .unwrap();
        let output_id = outcome.final_table_id.unwrap();
        let streamed = storage.read_blob(&Sstable::blob_name(output_id)).unwrap();

        let expected = collected_merge(&case, drop_tombstones);
        let table = Sstable::decode(output_id, streamed.clone()).unwrap();
        let merged: Vec<Entry> = table.iter().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&merged, &expected);

        // The same table built from the collected merge, byte for byte.
        let mut range_dels: Vec<RangeTombstone> = case.range_dels.concat();
        range_dels.sort_by(|a, b| {
            a.start.cmp(&b.start).then(b.seqno.cmp(&a.seqno)).then(a.end.cmp(&b.end))
        });
        range_dels.retain(|rd| !(drop_tombstones && rd.seqno <= case.floor));
        let mut builder =
            SstableBuilder::new(output_id, options.block_size_bytes(), options.bloom_bits())
                .compression(options.compression_type());
        for entry in &expected {
            builder.add(entry);
        }
        for rd in range_dels {
            builder.add_range_del(rd);
        }
        let (collected, _) = builder.finish();
        prop_assert!(streamed == collected, "encoded output tables differ");
    }
}
