//! Regenerates the live-engine validation table: the paper's Figure 7
//! comparison, but measured on the real self-compacting LSM engine
//! instead of the simulator, with the planner's prediction and the
//! one-shot simulator cost alongside.
//!
//! Run with:
//! `cargo run --release --bin live_engine [--quick] [--csv] [--json PATH]`
//!
//! `--json` also writes the rows, with each strategy's merge-kernel
//! throughput (`merge_keys_per_sec`), to `PATH` for the bench gate; it
//! runs the experiment nine times and reports each strategy's run with
//! the median merge time.

use compaction_sim::report::{live_engine_csv, live_engine_json, live_engine_table};
use compaction_sim::LiveEngineConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let config = if quick {
        LiveEngineConfig::quick()
    } else {
        LiveEngineConfig::default_paper()
    };
    eprintln!(
        "live-engine: {} ops ({}% updates), memtable {}, trigger {} tables, fan-in {}, {} threads",
        config.operation_count,
        config.update_percent,
        config.memtable_capacity,
        config.trigger_tables,
        config.fanin,
        config.threads,
    );
    let rows = if json_path.is_some() {
        config.run_median_of(9)
    } else {
        config.run()
    };
    if csv {
        print!("{}", live_engine_csv(&rows));
    } else {
        print!("{}", live_engine_table(&rows));
    }
    if let Some(path) = json_path {
        std::fs::write(&path, live_engine_json(&rows))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
