//! The three workloads and the pass that runs one of them.
//!
//! Every pass has the same shape:
//!
//! 1. **Set up** the store several times, each in a fresh directory:
//!    open over counting [`FileStorage`] wrappers with the WAL on, then
//!    load through `apply_batch`. Each set-up is timed (`setup_s`), then
//!    its store gets one timed major compaction (`compact_s`), checked
//!    by a full-scan checksum, one live table per shard and the
//!    planner's predicted cost. Then every key is read back in key order
//!    and checked, timed (`readback_us_per_get`); the block cache holds
//!    none of the new table's blocks yet, since scans do not fill it.
//!    Only the last store is kept.
//! 2. **Serve** it over TCP, if the workload serves: open-loop rounds at
//!    a fixed offered rate, then unthrottled rounds (see [`crate::tcp`]).
//! 3. **Check** durability: reopen the directories and read back every
//!    acked key at its last acked version or later.
//!
//! Per-layer numbers are before/after deltas over one window: the
//! serving rounds, or the kept store's timed compaction for a workload
//! that does not serve.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kv_service::{KvClient, KvServer, ServerOptions, ShardedKv};
use lsm_engine::{
    CompactionPolicy, FileStorage, LsmOptions, LsmStats, MetricsSnapshot, Storage, WriteBatch,
};
use ycsb_gen::Distribution;

use crate::report::{self, hist_delta, hist_quantile, median, percentile_us, ratio, Metrics};
use crate::storage::{Class, CountingStorage, IoCounters, IoSnapshot};
use crate::tcp::{self, PhaseOutcome, PointMix, ServeConfig};
use crate::trace;
use crate::value::{self, Versions, KEY_LEN, VALUE_LEN};

/// Keys per memtable: the one engine setting every workload chooses.
const MEMTABLE_KEYS: usize = 2_048;
/// Operations per `apply_batch` call while loading.
const LOAD_BATCH: usize = 1_024;
/// Compaction policy of a store while it serves over TCP.
const SERVING_POLICY: CompactionPolicy = CompactionPolicy::Threshold { live_tables: 4 };
/// Server worker threads: one per load-generator connection.
const SERVER_WORKERS: usize = 2;
/// Share of `--seconds` spent in the unthrottled rounds; the rest is open
/// loop.
const UNTHROTTLED_SHARE: f64 = 0.4;

/// The client's own view, reported first among the per-layer metrics.
pub const CLIENT_METRICS: [&str; 7] = [
    "throughput_ops_s",
    "put_p50_us",
    "put_p99_us",
    "get_p50_us",
    "get_p99_us",
    "scan_p50_us",
    "scan_p99_us",
];

/// How a workload fills its store before serving.
#[derive(Debug, Clone, Copy)]
enum Build {
    /// Keys `0..records`, each written once.
    Preload { records: u64 },
    /// A YCSB `Latest` write stream: `update_percent`% updates of
    /// recent keys, the rest inserts of new keys.
    Ingest { writes: u64, update_percent: u32 },
}

/// How a workload is served over TCP.
#[derive(Debug, Clone, Copy)]
struct Serving {
    mix: PointMix,
    scan_distribution: Distribution,
    /// Offered point requests per second in the open-loop rounds.
    rate: f64,
}

/// One workload: its store, how it is built, and how it is served.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    shards: usize,
    build: Build,
    /// Set-ups per pass. A workload that does not serve keeps setting up
    /// and compacting until its timed compactions add up to `--seconds`.
    setups: usize,
    /// `None`: the workload measures the timed compaction only, and its
    /// per-layer maintenance metrics cover it.
    serving: Option<Serving>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "write_heavy",
        shards: 2,
        build: Build::Preload { records: 57_000 },
        setups: 5,
        serving: Some(Serving {
            mix: PointMix {
                distribution: Distribution::Latest,
                read: 0.10,
                update: 0.54,
                insert: 0.36,
            },
            scan_distribution: Distribution::Latest,
            rate: 200.0,
        }),
    },
    Workload {
        name: "read_heavy",
        shards: 2,
        build: Build::Preload { records: 250_000 },
        setups: 2,
        serving: Some(Serving {
            mix: PointMix {
                distribution: Distribution::Zipfian { theta: 0.99 },
                read: 0.95,
                update: 0.05,
                insert: 0.0,
            },
            scan_distribution: Distribution::Zipfian { theta: 0.99 },
            rate: 2_000.0,
        }),
    },
    Workload {
        name: "major_compact",
        shards: 1,
        build: Build::Ingest {
            writes: 200_000,
            update_percent: 60,
        },
        setups: 2,
        serving: None,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    /// Failed requests plus correctness violations.
    pub failed: u64,
    pub violations: u64,
    pub messages: Vec<String>,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Human-readable lines about the phases.
    pub notes: Vec<String>,
    /// Merge-step time of the kept store's timed compaction, in µs.
    pub compaction_merge_us: f64,
}

impl Pass {
    pub fn correct(&self) -> bool {
        self.violations == 0
    }

    fn violation(&mut self, message: String) {
        self.violations += 1;
        self.failed += 1;
        self.attempted += 1;
        if self.messages.len() < 16 {
            self.messages.push(message);
        }
    }

    fn absorb(&mut self, phase: &PhaseOutcome) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.violations += phase.wrong;
        for m in &phase.messages {
            if self.messages.len() < 16 {
                self.messages.push(m.clone());
            }
        }
    }
}

/// A store on counting wrappers, one directory per shard.
struct Store {
    kv: Arc<ShardedKv>,
    io: Arc<IoCounters>,
    dir: PathBuf,
}

impl Workload {
    /// Engine options: defaults plus the memtable size, and for a store
    /// that serves the [`SERVING_POLICY`]. Loads run under the default
    /// `Manual` policy, so the flushed tables pile up for the timed
    /// major compaction.
    fn options(&self, serving: bool) -> LsmOptions {
        let options = LsmOptions::default().memtable_capacity(MEMTABLE_KEYS);
        if serving {
            options.compaction_policy(SERVING_POLICY)
        } else {
            options
        }
    }

    fn open(
        &self,
        dir: &Path,
        io: &Arc<IoCounters>,
        serving: bool,
    ) -> Result<Arc<ShardedKv>, String> {
        let _span = trace::span("engine", "open");
        let storages = (0..self.shards)
            .map(|i| {
                let files = FileStorage::open(dir.join(format!("shard-{i}")))
                    .map_err(|e| format!("opening {}: {e}", dir.display()))?;
                Ok(Arc::new(CountingStorage::new(files, Arc::clone(io))) as Arc<dyn Storage>)
            })
            .collect::<Result<Vec<_>, String>>()?;
        ShardedKv::open_with_storages(storages, self.options(serving))
            .map(Arc::new)
            .map_err(|e| format!("opening the store: {e}"))
    }

    /// Opens a fresh store in `dir` and loads it; returns the store and
    /// the versions it holds.
    fn build(&self, dir: &Path, seed: u64) -> Result<(Store, Versions), String> {
        let io = Arc::new(IoCounters::default());
        let _span = trace::span("engine", "setup");
        let kv = self.open(dir, &io, false)?;
        let versions = match self.build {
            Build::Preload { records } => {
                let versions = Versions::preloaded(records);
                for chunk_start in (0..records).step_by(LOAD_BATCH) {
                    let mut batch = WriteBatch::with_capacity(LOAD_BATCH);
                    for key in chunk_start..(chunk_start + LOAD_BATCH as u64).min(records) {
                        batch.put_u64(key, value::encode(key, 1));
                    }
                    apply(&kv, batch)?;
                }
                versions
            }
            Build::Ingest {
                writes,
                update_percent,
            } => {
                let versions = Versions::preloaded(0);
                let spec = ycsb_gen::WorkloadSpec::builder()
                    .record_count(1)
                    .operation_count(writes)
                    .update_percent(update_percent)
                    .distribution(Distribution::Latest)
                    .seed(seed)
                    .build()
                    .map_err(|e| format!("ingest spec: {e}"))?;
                let mut batch = WriteBatch::with_capacity(LOAD_BATCH);
                for op in spec.generator().run_phase() {
                    let version = versions.applied(op.key);
                    batch.put_u64(op.key, value::encode(op.key, version));
                    if batch.len() == LOAD_BATCH {
                        apply(
                            &kv,
                            std::mem::replace(&mut batch, WriteBatch::with_capacity(LOAD_BATCH)),
                        )?;
                    }
                }
                apply(&kv, batch)?;
                versions
            }
        };
        // A preloaded store keeps the load's tail in its memtable, as a
        // running store would; an ingest is flushed so the timed
        // compaction covers all of it.
        if matches!(self.build, Build::Ingest { .. }) {
            kv.flush_all().map_err(|e| format!("flush: {e}"))?;
        }
        Ok((
            Store {
                kv,
                io,
                dir: dir.to_owned(),
            },
            versions,
        ))
    }
}

fn apply(kv: &ShardedKv, batch: WriteBatch) -> Result<(), String> {
    let _span = trace::span("engine", "apply_batch");
    kv.apply_batch(batch)
        .map_err(|e| format!("apply_batch: {e}"))
}

/// Flushes dirty pages system-wide so one phase's writeback is not
/// billed to the next.
pub fn sync_disks() {
    let _ = std::process::Command::new("sync").status();
}

/// Sum of file sizes under `dir`.
fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A full scan folded into one order-sensitive checksum.
fn checksum(kv: &ShardedKv) -> Result<(u64, u64), String> {
    let _span = trace::span("engine", "scan_all");
    let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for item in kv.scan(..) {
        let (k, v) = item.map_err(|e| format!("scan: {e}"))?;
        for byte in k.iter().chain(v.iter()) {
            sum = (sum ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3);
        }
        count += 1;
    }
    Ok((sum, count))
}

fn fetch_metrics(addr: std::net::SocketAddr) -> Result<MetricsSnapshot, String> {
    KvClient::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("METRICS: {e}"))
}

/// Histogram snapshots at both ends of a window.
struct Hists {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Hists {
    fn hist(&self, name: &str) -> lsm_engine::HistogramSnapshot {
        hist_delta(&self.after, &self.before, name)
    }
}

/// Counter deltas over one window.
struct Window {
    io: IoSnapshot,
    stats: LsmStats,
    hists: Hists,
}

fn stats_delta(after: &LsmStats, before: &LsmStats) -> LsmStats {
    let mut d = after.clone();
    macro_rules! sub {
        ($($f:ident),*) => { $( d.$f = after.$f - before.$f; )* };
    }
    sub!(
        puts,
        gets,
        flushes,
        tables_probed,
        range_scans,
        range_pruned_tables,
        bloom_negative_probes,
        data_block_reads,
        data_block_read_bytes,
        data_block_logical_bytes,
        table_cache_hits,
        table_cache_misses,
        block_cache_hits,
        block_cache_misses,
        block_cache_evictions,
        compactions,
        compaction_entries_read,
        compaction_entries_written,
        compaction_predicted_cost,
        slowdown_stalls,
        stop_stalls
    );
    d.compaction_stall = after.compaction_stall - before.compaction_stall;
    d
}

/// What the set-ups left behind.
struct SetUp {
    store: Store,
    versions: Versions,
    setup_s: Vec<f64>,
    compact_s: Vec<f64>,
    /// µs per GET of each set-up's timed read-back, which starts from a
    /// block cache without the compacted table's blocks.
    readback_us: Vec<f64>,
    /// The kept store's timed compaction, and its wall time in µs.
    compaction: Window,
    compaction_wall_us: f64,
    /// Bytes the kept store's storage wrote before serving.
    written_before_serving: u64,
}

/// What serving observed.
struct Served {
    open: Vec<PhaseOutcome>,
    unthrottled: Vec<PhaseOutcome>,
    /// Both phases.
    window: Window,
    /// The open-loop rounds only.
    open_hists: Hists,
}

impl Served {
    /// A workload that does not serve observed nothing.
    fn nothing() -> Self {
        let hists = || Hists {
            before: MetricsSnapshot::default(),
            after: MetricsSnapshot::default(),
        };
        Served {
            open: Vec::new(),
            unthrottled: Vec::new(),
            window: Window {
                io: IoCounters::default().snapshot(),
                stats: LsmStats::default(),
                hists: hists(),
            },
            open_hists: hists(),
        }
    }
}

/// Runs one pass of `workload` with its data under `data`.
pub fn run(workload: &Workload, data: &Path, seed: u64, seconds: f64) -> Pass {
    let mut pass = Pass::default();
    if let Err(message) = run_inner(workload, data, seed, seconds, &mut pass) {
        pass.violation(message);
    }
    pass
}

fn run_inner(
    workload: &Workload,
    data: &Path,
    seed: u64,
    seconds: f64,
    pass: &mut Pass,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(data);
    std::fs::create_dir_all(data).map_err(|e| format!("creating {}: {e}", data.display()))?;
    let set_up = set_up(workload, data, seed, seconds, pass)?;
    let served = match &workload.serving {
        Some(serving) => {
            sync_disks();
            serve(serving, &set_up, seed, seconds)?
        }
        None => Served::nothing(),
    };
    for (label, rounds) in [
        ("open-loop", &served.open),
        ("unthrottled", &served.unthrottled),
    ] {
        for (i, round) in rounds.iter().enumerate() {
            pass.absorb(round);
            let secs = round.elapsed.as_secs_f64();
            pass.notes.push(format!(
                "{label} round {i}: {secs:.2} s, {:.1} point/s ({} puts, {} gets), {:.1} scans/s, {} failed",
                (round.put_ns.len() + round.get_ns.len()) as f64 / secs,
                round.put_ns.len(),
                round.get_ns.len(),
                round.scans as f64 / secs,
                round.failed
            ));
        }
    }
    pass.notes.push(format!(
        "set-up s {:?}; compaction s {:?}; read-back us per GET {:.3?}",
        set_up.setup_s, set_up.compact_s, set_up.readback_us
    ));

    // Space, then durability.
    let live = set_up.versions.all_acked();
    let logical = (live.len() * (KEY_LEN + VALUE_LEN)) as f64;
    let space_amp = ratio(disk_bytes(&set_up.store.dir) as f64, logical);
    let dir = set_up.store.dir.clone();
    let Served {
        open,
        unthrottled,
        window,
        open_hists,
    } = served;
    let SetUp {
        store,
        setup_s,
        compact_s,
        readback_us,
        compaction,
        compaction_wall_us,
        written_before_serving,
        ..
    } = set_up;
    drop(store);
    let (open_s, replayed) = check_recovery(workload, &dir, &live, pass)?;

    // End-to-end metrics: medians over set-ups.
    let throughput: Vec<f64> = unthrottled
        .iter()
        .map(|r| ratio(r.completed as f64, r.elapsed.as_secs_f64()))
        .collect();
    let e2e = &mut pass.e2e;
    e2e.push("setup_s", median(&setup_s), "s");
    e2e.push("compact_s", median(&compact_s), "s");
    e2e.push("space_amp", space_amp, "ratio");
    e2e.push("peak_rss_mb", report::peak_rss_mb(), "MB");
    e2e.push("readback_us_per_get", median(&readback_us), "us");

    // Client throughput and latencies come first among the layers: their
    // run-to-run spread follows the disk's fsync latency (see README), too
    // wide to gate on. A workload that does not serve reports zeros.
    let l = &mut pass.layers;
    l.push("throughput_ops_s", median(&throughput), "ops/s");
    let mut open = open;
    let mut round_median =
        |name: &'static str, permille: u64, pick: fn(&mut PhaseOutcome) -> &mut Vec<u64>| {
            let per_round: Vec<f64> = open
                .iter_mut()
                .map(|r| percentile_us(pick(r), permille))
                .collect();
            l.push(name, median(&per_round), "us");
        };
    round_median("put_p50_us", 500, |r| &mut r.put_ns);
    round_median("put_p99_us", 990, |r| &mut r.put_ns);
    round_median("get_p50_us", 500, |r| &mut r.get_ns);
    round_median("get_p99_us", 990, |r| &mut r.get_ns);
    round_median("scan_p50_us", 500, |r| &mut r.scan_ns);
    round_median("scan_p99_us", 990, |r| &mut r.scan_ns);
    let mut open = merged(open);
    let unthrottled = merged(unthrottled);
    let acked = (unthrottled.puts_acked + open.puts_acked) as f64;
    let user_bytes = (KEY_LEN + VALUE_LEN) as f64;

    // Service and write path: always the serving window.
    let client_put = l.get("put_p50_us").unwrap_or(0.0);
    let client_get = l.get("get_p50_us").unwrap_or(0.0);
    let server_put = hist_quantile(&open_hists.hist("server_put_us"), 500);
    let server_get = hist_quantile(&open_hists.hist("server_get_us"), 500);
    let server_scan = hist_quantile(&open_hists.hist("server_scan_us"), 500);
    l.push("service.put_wire_p50_us", client_put - server_put, "us");
    l.push("service.get_wire_p50_us", client_get - server_get, "us");
    l.push("service.scan_server_p50_us", server_scan, "us");
    let lag = percentile_us(&mut open.gen_lag_ns, 990);
    l.push("client.gen_lag_p99_us", lag, "us");
    let error_frac = ratio(pass.failed as f64, pass.attempted as f64);
    let l = &mut pass.layers;
    l.push("client.error_frac", error_frac, "ratio");
    let engine_put = open_hists.hist("engine_put_us");
    l.push("engine.put_p50_us", hist_quantile(&engine_put, 500), "us");
    l.push("engine.put_p99_us", hist_quantile(&engine_put, 990), "us");
    let wal = window.io.writes(Some(Class::Wal));
    l.push("wal.bytes_per_write", ratio(wal.bytes as f64, acked), "B");
    l.push(
        "wal.syncs_per_write",
        ratio(wal.calls as f64, acked),
        "count",
    );
    l.push(
        "wal.busy_us_per_write",
        ratio(wal.busy_ns as f64 / 1e3, acked),
        "us",
    );
    l.push(
        "engine.stall_us",
        window.hists.hist("engine_stall_us").sum() as f64,
        "us",
    );
    l.push(
        "engine.slowdown_stalls",
        window.stats.slowdown_stalls as f64,
        "count",
    );
    l.push(
        "engine.stop_stalls",
        window.stats.stop_stalls as f64,
        "count",
    );

    // Maintenance: serving, or the kept store's timed compaction for a
    // workload that does not serve.
    let (w, compaction_wall) = if workload.serving.is_none() {
        (&compaction, compaction_wall_us)
    } else {
        (&window, window.stats.compaction_stall.as_secs_f64() * 1e6)
    };
    let steps = w.hists.hist("engine_compaction_step_us").sum() as f64;
    let entry_cost = (w.stats.compaction_entries_read + w.stats.compaction_entries_written) as f64;
    let predicted = w.stats.compaction_predicted_cost as f64;
    let obs = w.io.reads(Some(Class::Obs));
    let manifest = w.io.writes(Some(Class::Manifest));
    let sst_w = w.io.writes(Some(Class::Sst));
    l.push("flush.count", w.stats.flushes as f64, "count");
    l.push(
        "flush.busy_us",
        w.hists.hist("engine_flush_us").sum() as f64,
        "us",
    );
    l.push("compaction.count", w.stats.compactions as f64, "count");
    l.push("compaction.entry_cost", entry_cost, "entries");
    l.push(
        "compaction.cost_vs_predicted",
        ratio(entry_cost, predicted),
        "ratio",
    );
    l.push("compaction.merge_busy_us", steps, "us");
    l.push(
        "compaction.parallelism",
        ratio(steps, compaction_wall),
        "ratio",
    );
    l.push("observe.read_bytes", obs.bytes as f64, "B");
    l.push("observe.read_us", obs.busy_ns as f64 / 1e3, "us");
    l.push("manifest.writes", manifest.calls as f64, "count");
    l.push("manifest.busy_us", manifest.busy_ns as f64 / 1e3, "us");
    l.push("sst.write_bytes", sst_w.bytes as f64, "B");
    l.push("sst.write_us", sst_w.busy_ns as f64 / 1e3, "us");

    // Read path: always the serving window.
    let s = &window.stats;
    let gets = s.gets as f64;
    let scans = (unthrottled.scans + open.scans) as f64;
    let scan_keys = (unthrottled.scan_keys + open.scan_keys) as f64;
    let block_lookups = (s.block_cache_hits + s.block_cache_misses) as f64;
    let table_lookups = (s.table_cache_hits + s.table_cache_misses) as f64;
    let sst_r = window.io.reads(Some(Class::Sst));
    l.push(
        "read.tables_probed_per_get",
        ratio(s.tables_probed as f64, gets),
        "count",
    );
    l.push(
        "read.bloom_negative_frac",
        ratio(s.bloom_negative_probes as f64, s.tables_probed as f64),
        "ratio",
    );
    l.push(
        "cache.block_hit_rate",
        ratio(s.block_cache_hits as f64, block_lookups),
        "ratio",
    );
    l.push(
        "cache.block_evictions",
        s.block_cache_evictions as f64,
        "count",
    );
    l.push(
        "cache.table_hit_rate",
        ratio(s.table_cache_hits as f64, table_lookups),
        "ratio",
    );
    l.push(
        "read.block_reads_per_get",
        ratio(s.data_block_reads as f64, gets),
        "count",
    );
    l.push(
        "read.block_bytes_per_get",
        ratio(s.data_block_read_bytes as f64, gets),
        "B",
    );
    l.push(
        "read.compression_ratio",
        ratio(
            s.data_block_logical_bytes as f64,
            s.data_block_read_bytes as f64,
        ),
        "ratio",
    );
    l.push("sst.read_calls", sst_r.calls as f64, "count");
    l.push("sst.read_us", sst_r.busy_ns as f64 / 1e3, "us");
    l.push("scan.keys_per_scan", ratio(scan_keys, scans), "count");
    l.push(
        "scan.block_reads_per_scan",
        ratio(s.data_block_reads as f64, scans),
        "count",
    );
    l.push(
        "scan.pruned_tables_per_scan",
        ratio(s.range_pruned_tables as f64, scans),
        "count",
    );

    // Storage and recovery.
    let write_amp = if workload.serving.is_none() {
        let loaded = match workload.build {
            Build::Preload { records } => records,
            Build::Ingest { writes, .. } => writes,
        };
        ratio(written_before_serving as f64, loaded as f64 * user_bytes)
    } else {
        ratio(window.io.writes(None).bytes as f64, acked * user_bytes)
    };
    l.push("storage.write_amp", write_amp, "ratio");
    l.push("storage.syncs", w.io.writes(None).calls as f64, "count");
    l.push("recovery.open_s", open_s, "s");
    l.push("recovery.records_replayed", replayed as f64, "count");
    pass.compaction_merge_us = compaction.hists.hist("engine_compaction_step_us").sum() as f64;
    Ok(())
}

fn merged(rounds: Vec<PhaseOutcome>) -> PhaseOutcome {
    rounds
        .into_iter()
        .fold(PhaseOutcome::default(), |mut all, r| {
            all.absorb(r);
            all
        })
}

/// Builds the store `workload.setups` times (or, for a workload that does
/// not serve, until the timed compactions add up to `seconds`), timing
/// each build and its major compaction; keeps the last, reopened under
/// the serving policy.
fn set_up(
    workload: &Workload,
    data: &Path,
    seed: u64,
    seconds: f64,
    pass: &mut Pass,
) -> Result<SetUp, String> {
    let mut setup_s = Vec::new();
    let mut compact_s: Vec<f64> = Vec::new();
    let mut readback_us = Vec::new();
    for i in 0.. {
        let dir = data.join(format!("setup-{i}"));
        // Writeback and discards of the deleted data are not billed to
        // this set-up.
        sync_disks();
        let started = Instant::now();
        let (store, versions) = workload.build(&dir, seed)?;
        setup_s.push(started.elapsed().as_secs_f64());

        let before_sum = checksum(&store.kv)?;
        sync_disks();
        let io_before = store.io.snapshot();
        let stats_before = store.kv.stats().aggregate();
        let metrics_before = store.kv.metrics_snapshot();
        let started = Instant::now();
        {
            let _span = trace::span("engine", "major_compact");
            store
                .kv
                .compact_all()
                .map_err(|e| format!("major compaction: {e}"))?;
        }
        let wall = started.elapsed();
        compact_s.push(wall.as_secs_f64());
        let stats_after = store.kv.stats();
        let compaction = Window {
            io: store.io.snapshot().since(&io_before),
            stats: stats_delta(&stats_after.aggregate(), &stats_before),
            hists: Hists {
                before: metrics_before,
                after: store.kv.metrics_snapshot(),
            },
        };
        check_compaction(&store, &stats_after, &compaction.stats, before_sum, pass)?;
        let live = versions.all_acked();
        readback_us.push(read_back(&store.kv, &live, |message| {
            pass.violation(message)
        })?);
        pass.attempted += live.len() as u64;
        drop(store.kv);
        let measured: f64 = compact_s.iter().sum();
        if i + 1 < workload.setups || (workload.serving.is_none() && measured < seconds) {
            let _ = std::fs::remove_dir_all(&store.dir);
            continue;
        }
        let kv = workload.open(&store.dir, &store.io, workload.serving.is_some())?;
        return Ok(SetUp {
            written_before_serving: store.io.snapshot().writes(None).bytes,
            store: Store { kv, ..store },
            versions,
            setup_s,
            compact_s,
            readback_us,
            compaction,
            compaction_wall_us: wall.as_secs_f64() * 1e6,
        });
    }
    unreachable!("the set-up loop only ends by returning")
}

/// Serves the kept store over TCP: open-loop rounds, then unthrottled.
fn serve(serving: &Serving, set_up: &SetUp, seed: u64, seconds: f64) -> Result<Served, String> {
    let store = &set_up.store;
    let server = KvServer::bind_with(
        Arc::clone(&store.kv),
        "127.0.0.1:0",
        ServerOptions::default().workers(SERVER_WORKERS),
    )
    .map_err(|e| format!("binding the server: {e}"))?
    .spawn();
    let addr = server.addr();
    let records = set_up.versions.frontier();
    let mut points = tcp::point_stream(serving.mix, records, seed).run_phase();
    let config = ServeConfig {
        scan_distribution: serving.scan_distribution,
        unthrottled: Duration::from_secs_f64(seconds * UNTHROTTLED_SHARE),
        open_loop: Duration::from_secs_f64(seconds * (1.0 - UNTHROTTLED_SHARE)),
        rate: serving.rate,
        seed,
    };
    let io_before = store.io.snapshot();
    let stats_before = store.kv.stats().aggregate();
    let metrics_before = fetch_metrics(addr);
    let mut metrics_mid = None;
    let (open, unthrottled) = tcp::serve(addr, &set_up.versions, &mut points, &config, || {
        metrics_mid = Some(fetch_metrics(addr));
    });
    let metrics_after = fetch_metrics(addr);
    server.shutdown();
    let (before, mid, after) = (
        metrics_before?,
        metrics_mid.expect("called between the phases")?,
        metrics_after?,
    );
    Ok(Served {
        open,
        unthrottled,
        window: Window {
            io: store.io.snapshot().since(&io_before),
            stats: stats_delta(&store.kv.stats().aggregate(), &stats_before),
            hists: Hists {
                before: before.clone(),
                after,
            },
        },
        open_hists: Hists { before, after: mid },
    })
}

/// After a major compaction: same contents, one table per shard, and
/// the measured entry cost equal to the planner's prediction.
fn check_compaction(
    store: &Store,
    stats: &kv_service::ServiceStats,
    delta: &LsmStats,
    before: (u64, u64),
    pass: &mut Pass,
) -> Result<(), String> {
    let after = checksum(&store.kv)?;
    if after != before {
        pass.violation(format!(
            "full-scan checksum changed across compaction: {before:?} -> {after:?}"
        ));
    }
    for (i, shard) in stats.per_shard.iter().enumerate() {
        if shard.live_tables != 1 {
            pass.violation(format!(
                "shard {i}: {} live tables after major compaction",
                shard.live_tables
            ));
        }
    }
    let measured = delta.compaction_entries_read + delta.compaction_entries_written;
    if measured != delta.compaction_predicted_cost {
        pass.violation(format!(
            "compaction cost {measured} entries, planner predicted {}",
            delta.compaction_predicted_cost
        ));
    }
    Ok(())
}

/// Reopens `dir` and reads back every acked key at its acked version
/// or later. Returns the reopen time and the records it replayed.
fn check_recovery(
    workload: &Workload,
    dir: &Path,
    live: &[(u64, u64)],
    pass: &mut Pass,
) -> Result<(f64, u64), String> {
    let io = Arc::new(IoCounters::default());
    let started = Instant::now();
    let kv = {
        let _span = trace::span("engine", "reopen");
        workload.open(dir, &io, workload.serving.is_some())?
    };
    let open_s = started.elapsed().as_secs_f64();
    let replayed = kv.stats().aggregate().recovery_records_replayed;
    read_back(&kv, live, |message| pass.violation(message))?;
    pass.attempted += live.len() as u64;
    Ok((open_s, replayed))
}

/// Reads every key of `live` in key order and checks it holds its acked
/// version or later; hands each violation to `violation`. Returns the
/// wall time per GET in µs.
fn read_back(
    kv: &ShardedKv,
    live: &[(u64, u64)],
    mut violation: impl FnMut(String),
) -> Result<f64, String> {
    let _span = trace::span("engine", "read_back");
    let started = Instant::now();
    for &(key, acked) in live {
        let found = kv
            .get(&value::key_bytes(key))
            .map_err(|e| format!("read-back GET: {e}"))?;
        let result = match found {
            None => Err(format!("key {key}: lost (acked version {acked})")),
            Some(v) => value::decode(key, &v).and_then(|version| {
                if version < acked {
                    Err(format!("key {key}: version {version}, acked {acked}"))
                } else {
                    Ok(())
                }
            }),
        };
        if let Err(message) = result {
            violation(message);
        }
    }
    Ok(ratio(
        started.elapsed().as_secs_f64() * 1e6,
        live.len() as f64,
    ))
}
