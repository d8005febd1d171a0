//! In-memory spans recorded by the benchmark's own code.
//!
//! A span wraps one call into a layer: a client request, an engine call
//! made in process, or a [`Storage`](lsm_engine::Storage) call seen by
//! the counting wrapper. Spans carry a name, a layer, start and end, the
//! recording thread and a parent. On the thread that opened a span, the
//! parent is that thread's innermost open span. Storage calls made on
//! server or maintenance threads have no such parent; after the run
//! they are given the shortest enclosing span in time, flagged as such.
//! Recording is off unless [`enable`] was called.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::storage::{Class, Op};

/// Spans kept at most; later ones are counted as dropped.
const MAX_SPANS: usize = 4_000_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static THREADS: Mutex<BTreeMap<u64, String>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = register_thread();
}

fn register_thread() -> u64 {
    let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_owned();
    THREADS
        .lock()
        .expect("thread registry poisoned")
        .insert(id, name);
    id
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 when the span has no parent.
    pub parent: u64,
    /// `true` when `parent` was assigned by time overlap after the run.
    pub parent_by_overlap: bool,
    pub layer: &'static str,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Closes its span when dropped.
#[derive(Debug)]
#[must_use = "the span ends when the guard is dropped"]
pub struct Guard(Option<Open>);

#[derive(Debug)]
struct Open {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&open.id) {
                stack.pop();
            }
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            parent_by_overlap: false,
            layer: open.layer,
            name: open.name,
            thread: THREAD.with(|t| *t),
            start_ns: open.start_ns,
            end_ns,
        };
        keep(span);
    }
}

fn keep(span: Span) {
    let mut spans = SPANS.lock().expect("span buffer poisoned");
    if spans.len() < MAX_SPANS {
        spans.push(span);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Opens a span in `layer`; a no-op unless tracing is enabled.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    Guard(Some(Open {
        id,
        parent,
        layer,
        name,
        start_ns: now_ns(),
    }))
}

/// Records an already finished interval with no parent: the client's
/// view of a pipelined request, whose send and completion interleave
/// with other requests on the same thread.
pub fn record(layer: &'static str, name: &'static str, start: Instant, end: Instant) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let at = |t: Instant| t.saturating_duration_since(epoch()).as_nanos() as u64;
    keep(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        parent_by_overlap: false,
        layer,
        name,
        thread: THREAD.with(|t| *t),
        start_ns: at(start),
        end_ns: at(end).max(at(start)),
    });
}

/// The span of one storage call: layer `storage.<class>`, name = op.
pub fn storage_span(class: Class, op: Op) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    span(class.layer(), op.name())
}

/// Starts recording, discarding anything recorded before.
pub fn enable() {
    SPANS.lock().expect("span buffer poisoned").clear();
    DROPPED.store(0, Ordering::Relaxed);
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and hands back every span, overlap parents assigned.
pub fn finish() -> Recording {
    ENABLED.store(false, Ordering::SeqCst);
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    assign_overlap_parents(&mut spans);
    Recording {
        spans,
        dropped: DROPPED.load(Ordering::Relaxed),
        threads: THREADS.lock().expect("thread registry poisoned").clone(),
    }
}

/// Gives each parentless storage span the shortest non-storage span
/// that encloses it in time (a sweep over spans ordered by start).
fn assign_overlap_parents(spans: &mut [Span]) {
    let mut hosts: Vec<(u64, u64, u64)> = spans
        .iter()
        .filter(|s| !s.layer.starts_with("storage"))
        .map(|s| (s.start_ns, s.end_ns, s.id))
        .collect();
    hosts.sort_unstable();
    let mut orphans: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent == 0 && spans[i].layer.starts_with("storage"))
        .collect();
    orphans.sort_unstable_by_key(|&i| spans[i].start_ns);
    // Open hosts by (duration, id, end), and their expiry order.
    let mut active: BTreeSet<(u64, u64, u64)> = BTreeSet::new();
    let mut expiry: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut next = 0;
    for i in orphans {
        let (start, end) = (spans[i].start_ns, spans[i].end_ns);
        while next < hosts.len() && hosts[next].0 <= start {
            let (s, e, id) = hosts[next];
            active.insert((e - s, id, e));
            expiry.push(Reverse((e, e - s, id)));
            next += 1;
        }
        while let Some(&Reverse((e, dur, id))) = expiry.peek() {
            if e >= start {
                break;
            }
            active.remove(&(dur, id, e));
            expiry.pop();
        }
        if let Some(&(_, id, _)) = active.iter().find(|&&(_, _, e)| e >= end) {
            spans[i].parent = id;
            spans[i].parent_by_overlap = true;
        }
    }
}

/// Everything one traced pass recorded.
#[derive(Debug)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub threads: BTreeMap<u64, String>,
}

/// Per-layer totals: spans, wall time, self time (wall minus the part
/// covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recording {
    /// Self time of every span, by id.
    pub fn self_times(&self) -> HashMap<u64, u64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                children
                    .entry(span.parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|span| {
                let covered = children
                    .get(&span.id)
                    .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
                (span.id, span.duration_ns().saturating_sub(covered))
            })
            .collect()
    }

    pub fn by_layer(&self) -> BTreeMap<&'static str, LayerTime> {
        let self_times = self.self_times();
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for span in &self.spans {
            let entry = layers.entry(span.layer).or_default();
            entry.spans += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_times[&span.id];
        }
        layers
    }

    /// The spans named `name` in `layer`.
    pub fn named<'a>(
        &'a self,
        layer: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    /// Time of the descendants of span `root` (the root itself
    /// excluded), by layer and span name.
    pub fn descendants(&self, root: u64) -> BTreeMap<(&'static str, &'static str), LayerTime> {
        let mut kids: HashMap<u64, Vec<&Span>> = HashMap::new();
        for span in &self.spans {
            kids.entry(span.parent).or_default().push(span);
        }
        let self_times = self.self_times();
        let mut out: BTreeMap<(&'static str, &'static str), LayerTime> = BTreeMap::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for child in kids.get(&id).into_iter().flatten() {
                let entry = out.entry((child.layer, child.name)).or_default();
                entry.spans += 1;
                entry.total_ns += child.duration_ns();
                entry.self_ns += self_times[&child.id];
                stack.push(child.id);
            }
        }
        out
    }

    /// Spans as JSON lines: one object per span.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"parent_by_overlap\":{},\"layer\":\"{}\",\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id,
                s.parent,
                s.parent_by_overlap,
                s.layer,
                s.name,
                self.threads.get(&s.thread).map_or("?", String::as_str),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_is_the_union_of_clipped_children() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (15, 30), (90, 150)]), 30);
        assert_eq!(covered_ns(50, 60, &[(0, 100)]), 10);
    }

    #[test]
    fn storage_spans_off_thread_get_the_shortest_enclosing_parent() {
        let mk = |id, layer, start, end| Span {
            id,
            parent: 0,
            parent_by_overlap: false,
            layer,
            name: "x",
            thread: 1,
            start_ns: start,
            end_ns: end,
        };
        let mut spans = vec![
            mk(1, "engine", 0, 1_000),
            mk(2, "client", 100, 300),
            mk(3, "storage.wal", 150, 200),
            mk(4, "storage.sst", 900, 2_000),
        ];
        assign_overlap_parents(&mut spans);
        assert_eq!(spans[2].parent, 2);
        assert!(spans[2].parent_by_overlap);
        assert_eq!(spans[3].parent, 0, "no span encloses it");
    }
}
