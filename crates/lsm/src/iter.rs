//! Heap-based k-way merging iterator.
//!
//! This is the heart of physical compaction: it merge-sorts the entries of
//! `k` sorted sources, keeps only the newest version of each user key
//! (largest sequence number), and can optionally drop tombstones when the
//! merge produces the final table of a major compaction.
//!
//! Sources are pulled lazily, one entry at a time, so a merge over
//! sstables holds one decoded block per input rather than every input's
//! entries.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::types::{Entry, RangeTombstone, SeqNo};
use crate::Error;

/// An entry tagged with the index of the source it came from, ordered so
/// the binary heap pops the smallest internal key first (user key
/// ascending, newest version first — the
/// [`InternalKey`](crate::InternalKey) order) and, on ties, prefers the
/// newer source (higher source index = more recent sstable).
#[derive(Debug)]
struct HeapItem {
    entry: Entry,
    source: usize,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.entry
            .key
            .cmp(&other.entry.key)
            .then_with(|| other.entry.seqno.cmp(&self.entry.seqno))
            .then_with(|| self.entry.kind.cmp(&other.entry.kind))
            .then_with(|| other.source.cmp(&self.source))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapItem {}

/// Merges multiple sorted entry streams, de-duplicating by user key.
///
/// Each source is any iterator of `Result<Entry, Error>` — an
/// [`SstableIter`](crate::SstableIter) decoding its table block by
/// block, or `entries.into_iter().map(Ok)` over a vector — sorted by
/// internal key (user key ascending, newest first), which is how
/// memtables and sstables naturally iterate. When two sources contain
/// the same user key with the same sequence number (the same version
/// present in two inputs), the source with the larger index wins;
/// callers list sources oldest-to-newest. A source error is yielded
/// once and ends the merge.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use lsm_engine::{Entry, MergingIter};
///
/// let old = vec![Entry::put(Bytes::from_static(b"a"), Bytes::from_static(b"1"), 1)];
/// let new = vec![Entry::put(Bytes::from_static(b"a"), Bytes::from_static(b"2"), 5)];
/// let sources = vec![old.into_iter().map(Ok), new.into_iter().map(Ok)];
/// let merged: Vec<Entry> = MergingIter::new(sources, false)
///     .collect::<Result<_, _>>()
///     .unwrap();
/// assert_eq!(merged.len(), 1);
/// assert_eq!(merged[0].value.as_ref(), b"2");
/// ```
#[derive(Debug)]
pub struct MergingIter<S> {
    heap: BinaryHeap<Reverse<HeapItem>>,
    sources: Vec<S>,
    /// A source's error, yielded by the next call to `next`.
    error: Option<Error>,
    drop_tombstones: bool,
    /// Smallest pinned sequence number (`u64::MAX` with no pins, which
    /// collapses history to the newest version — the classic behavior).
    retain_floor: SeqNo,
    /// Range tombstones drawn from the merge inputs; point versions they
    /// shadow below the floor are dropped during the merge.
    range_dels: Vec<RangeTombstone>,
    /// The user key currently being merged.
    current_key: Option<bytes::Bytes>,
    /// All remaining (older) versions of `current_key` are dropped.
    key_done: bool,
    /// Seqno of the last version emitted for `current_key`, so the same
    /// version arriving from two sources is emitted once.
    last_emitted_seqno: Option<SeqNo>,
}

impl<S: Iterator<Item = Result<Entry, Error>>> MergingIter<S> {
    /// Creates a merging iterator over `sources` (each already sorted).
    /// When `drop_tombstones` is true, tombstone versions are swallowed —
    /// appropriate only for a merge that produces the single final table
    /// of a major compaction. History collapses to the newest version
    /// per key; use [`MergingIter::with_visibility`] when snapshots are
    /// pinned or range tombstones apply.
    #[must_use]
    pub fn new(sources: Vec<S>, drop_tombstones: bool) -> Self {
        Self::with_visibility(sources, drop_tombstones, SeqNo::MAX, Vec::new())
    }

    /// Creates a merging iterator that retains every version a snapshot
    /// pinned at or above `retain_floor` can still observe: per user
    /// key, the newest version plus all versions down to — and
    /// including — the first at or below the floor. Point versions
    /// shadowed by one of `range_dels` below the floor are dropped, and
    /// when `drop_tombstones` is set, a point tombstone at or below the
    /// floor deletes its key (and all older versions) from the output.
    #[must_use]
    pub fn with_visibility(
        mut sources: Vec<S>,
        drop_tombstones: bool,
        retain_floor: SeqNo,
        range_dels: Vec<RangeTombstone>,
    ) -> Self {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        let mut error = None;
        for (source, iter) in sources.iter_mut().enumerate() {
            match iter.next() {
                Some(Ok(entry)) => heap.push(Reverse(HeapItem { entry, source })),
                Some(Err(e)) => error = error.or(Some(e)),
                None => {}
            }
        }
        Self {
            heap,
            sources,
            error,
            drop_tombstones,
            retain_floor,
            range_dels,
            current_key: None,
            key_done: false,
            last_emitted_seqno: None,
        }
    }

    /// Takes the smallest entry, refilling the heap from its source in
    /// place (one sift instead of a pop and a push).
    fn pop(&mut self) -> Option<Entry> {
        let mut top = self.heap.peek_mut()?;
        let source = top.0.source;
        match self.sources[source].next() {
            Some(Ok(entry)) => {
                Some(std::mem::replace(&mut top.0, HeapItem { entry, source }).entry)
            }
            next => {
                if let Some(Err(e)) = next {
                    self.error = Some(e);
                }
                Some(PeekMut::pop(top).0.entry)
            }
        }
    }
}

impl<S: Iterator<Item = Result<Entry, Error>>> Iterator for MergingIter<S> {
    type Item = Result<Entry, Error>;

    fn next(&mut self) -> Option<Result<Entry, Error>> {
        loop {
            if let Some(e) = self.error.take() {
                self.heap.clear();
                return Some(Err(e));
            }
            let entry = self.pop()?;
            if self
                .current_key
                .as_ref()
                .is_none_or(|last| *last != entry.key)
            {
                self.current_key = Some(entry.key.clone());
                self.key_done = false;
                self.last_emitted_seqno = None;
            } else if self.key_done {
                continue; // an older version no possible reader can see
            } else if self.last_emitted_seqno == Some(entry.seqno) {
                continue; // the same version supplied by two sources
            }
            // A range tombstone at or below the floor shadows this
            // version — and, having a larger seqno, every older version
            // of the key too.
            if self
                .range_dels
                .iter()
                .any(|rd| rd.seqno <= self.retain_floor && rd.shadows(&entry.key, entry.seqno))
            {
                self.key_done = true;
                continue;
            }
            // On a final merge, a point tombstone at or below the floor
            // deletes the key outright: every older version is among the
            // inputs, so nothing can resurrect.
            if self.drop_tombstones && entry.is_tombstone() && entry.seqno <= self.retain_floor {
                self.key_done = true;
                continue;
            }
            // Retention: keep versions newest-first until one at or
            // below the floor has been kept; everything older is
            // unobservable by any pin.
            if entry.seqno <= self.retain_floor {
                self.key_done = true;
            }
            self.last_emitted_seqno = Some(entry.seqno);
            return Some(Ok(entry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{key_from_u64, key_to_u64};
    use bytes::Bytes;

    fn put(key: u64, val: &str, seq: u64) -> Entry {
        Entry::put(key_from_u64(key), Bytes::from(val.to_owned()), seq)
    }

    fn sources(inputs: Vec<Vec<Entry>>) -> Vec<impl Iterator<Item = Result<Entry, Error>>> {
        inputs.into_iter().map(|v| v.into_iter().map(Ok)).collect()
    }

    fn merge(inputs: Vec<Vec<Entry>>, drop_tombstones: bool) -> Vec<Entry> {
        MergingIter::new(sources(inputs), drop_tombstones)
            .collect::<Result<_, _>>()
            .unwrap()
    }

    fn merge_visible(
        inputs: Vec<Vec<Entry>>,
        drop_tombstones: bool,
        floor: SeqNo,
        range_dels: Vec<RangeTombstone>,
    ) -> Vec<Entry> {
        MergingIter::with_visibility(sources(inputs), drop_tombstones, floor, range_dels)
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn merges_disjoint_sources_in_key_order() {
        let a = vec![put(1, "a", 1), put(3, "c", 1), put(5, "e", 1)];
        let b = vec![put(2, "b", 2), put(4, "d", 2)];
        let merged: Vec<u64> = merge(vec![a, b], false)
            .into_iter()
            .map(|e| key_to_u64(&e.key).unwrap())
            .collect();
        assert_eq!(merged, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn newest_version_wins() {
        let old = vec![put(1, "old", 1), put(2, "keep", 1)];
        let new = vec![put(1, "new", 9)];
        let merged: Vec<Entry> = merge(vec![old, new], false);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].value.as_ref(), b"new");
        assert_eq!(merged[1].value.as_ref(), b"keep");
    }

    #[test]
    fn tombstones_kept_or_dropped() {
        let base = vec![put(1, "v", 1), put(2, "w", 1)];
        let newer = vec![Entry::tombstone(key_from_u64(1), 5)];

        let kept: Vec<Entry> = merge(vec![base.clone(), newer.clone()], false);
        assert_eq!(kept.len(), 2);
        assert!(kept[0].is_tombstone());

        let dropped: Vec<Entry> = merge(vec![base, newer], true);
        assert_eq!(dropped.len(), 1);
        assert_eq!(key_to_u64(&dropped[0].key), Some(2));
    }

    #[test]
    fn tombstone_shadows_older_put_even_when_dropped() {
        // Key 1 has an old put and a newer tombstone: with drop_tombstones
        // the key must vanish entirely, not resurrect the old value.
        let old = vec![put(1, "zombie", 1)];
        let newer = vec![Entry::tombstone(key_from_u64(1), 2)];
        let merged: Vec<Entry> = merge(vec![old, newer], true);
        assert!(merged.is_empty());
    }

    #[test]
    fn equal_seqno_prefers_later_source() {
        let s0 = vec![put(1, "from-source-0", 7)];
        let s1 = vec![put(1, "from-source-1", 7)];
        let merged: Vec<Entry> = merge(vec![s0, s1], false);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value.as_ref(), b"from-source-1");
    }

    #[test]
    fn empty_sources_and_no_sources() {
        assert_eq!(merge(vec![], false).len(), 0);
        assert_eq!(merge(vec![vec![], vec![]], false).len(), 0);
    }

    #[test]
    fn retain_floor_keeps_pinned_history() {
        // Versions of key 1 at seqnos 9, 6, 3, 1; floor (oldest pin) 5.
        // A pin P ≥ 5 reads the newest version ≤ P, so 9 and 6 are
        // reachable, 3 is the newest version a pin at exactly 5 sees,
        // and 1 is unobservable by every possible pin.
        let src = vec![vec![
            put(1, "v9", 9),
            put(1, "v6", 6),
            put(1, "v3", 3),
            put(1, "v1", 1),
        ]];
        let merged: Vec<u64> = merge_visible(src, false, 5, Vec::new())
            .into_iter()
            .map(|e| e.seqno)
            .collect();
        assert_eq!(
            merged,
            vec![9, 6, 3],
            "3 is the newest version a pin at 5 sees"
        );
    }

    #[test]
    fn range_del_below_floor_drops_covered_versions() {
        let rd = RangeTombstone::new(key_from_u64(0), key_from_u64(10), 5);
        let src = vec![vec![put(1, "new", 8), put(1, "old", 2), put(20, "out", 2)]];
        let merged: Vec<Entry> = merge_visible(src, false, SeqNo::MAX, vec![rd.clone()]);
        assert_eq!(merged.len(), 2);
        assert_eq!(
            merged[0].seqno, 8,
            "version newer than the range del survives"
        );
        assert_eq!(key_to_u64(&merged[1].key), Some(20), "outside the interval");

        // With the floor below the range del's seqno, nothing may drop:
        // a pin between the two could still read the old version.
        let src = vec![vec![put(1, "new", 8), put(1, "old", 2)]];
        let merged: Vec<Entry> = merge_visible(src, false, 3, vec![rd]);
        assert_eq!(
            merged.len(),
            2,
            "floor 3 < rd seqno 5: covered version retained"
        );
    }

    #[test]
    fn tombstone_above_floor_survives_final_merge() {
        let src = vec![vec![
            Entry::tombstone(key_from_u64(1), 8),
            put(1, "pinned", 4),
        ]];
        let merged: Vec<Entry> = merge_visible(src, true, 5, Vec::new());
        assert_eq!(merged.len(), 2, "pin at 5 still reads seqno-4 value");
        assert!(merged[0].is_tombstone());

        // Once the floor passes the tombstone, the whole key vanishes.
        let src = vec![vec![
            Entry::tombstone(key_from_u64(1), 8),
            put(1, "dead", 4),
        ]];
        let merged: Vec<Entry> = merge_visible(src, true, SeqNo::MAX, Vec::new());
        assert!(merged.is_empty());
    }

    #[test]
    fn duplicate_version_from_two_sources_emits_once() {
        let s0 = vec![put(1, "copy", 7), put(1, "older", 2)];
        let s1 = vec![put(1, "copy", 7)];
        let merged: Vec<Entry> = merge_visible(vec![s0, s1], false, 0, Vec::new());
        let seqnos: Vec<u64> = merged.iter().map(|e| e.seqno).collect();
        assert_eq!(seqnos, vec![7, 2]);
    }

    #[test]
    fn source_error_is_yielded_once_and_ends_the_merge() {
        let good = vec![Ok(put(1, "a", 1)), Ok(put(4, "d", 1))];
        let bad = vec![
            Ok(put(2, "b", 2)),
            Err(Error::corruption("rotten block")),
            Ok(put(3, "c", 2)),
        ];
        let mut merged = MergingIter::new(vec![good.into_iter(), bad.into_iter()], false);
        assert_eq!(
            merged.next().unwrap().unwrap().seqno,
            1,
            "key 1 precedes the failure"
        );
        assert_eq!(key_to_u64(&merged.next().unwrap().unwrap().key), Some(2));
        assert!(matches!(merged.next(), Some(Err(Error::Corruption { .. }))));
        assert!(merged.next().is_none(), "nothing after the error");
    }

    #[test]
    fn many_sources_stress() {
        // 16 sources, overlapping key ranges, newest source has the
        // largest seqnos; result must be sorted and contain each key once.
        let mut sources = Vec::new();
        for s in 0..16u64 {
            let entries: Vec<Entry> = (0..100).map(|k| put(k, &format!("s{s}"), s + 1)).collect();
            sources.push(entries);
        }
        let merged: Vec<Entry> = merge(sources, false);
        assert_eq!(merged.len(), 100);
        assert!(merged.windows(2).all(|w| w[0].key < w[1].key));
        assert!(merged.iter().all(|e| e.value.as_ref() == b"s15"));
    }
}
