//! The repository benchmark: fsync'd TCP serving and major compaction on
//! real files, with end-to-end metrics and a per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload write_heavy --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Data lives under `.perfbench/data`
//! (emptied at the start of every run), trace output under
//! `.perfbench/out`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Any correctness violation exits with code 1.
//!
//! With `--trace 1` the workload runs twice: untraced, which gives the
//! per-layer metrics, then with spans recorded, which gives the span
//! dump, the per-layer self-time summary and the tracing overhead.

mod report;
mod storage;
mod tcp;
mod trace;
mod value;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{num, ratio, Metrics};
use workloads::{Pass, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let data = root.join("data");
    let name = args.workload.name;
    println!(
        "perfbench: workload {name}, seed {}, {} s per pass, trace {}",
        args.seed, args.seconds, args.trace as u8
    );

    let plain = workloads::run(&args.workload, &data, args.seed, args.seconds);
    print_pass("untraced", &plain);
    let (metrics, attempted, failed, correct) = if args.trace {
        trace::enable();
        let traced = workloads::run(&args.workload, &data, args.seed, args.seconds);
        let recording = trace::finish();
        print_pass("traced", &traced);
        let mut layers = plain.layers.clone();
        let summary = trace_summary(&plain, &traced, &recording, &mut layers);
        println!("{summary}");
        let out = root.join("out");
        if let Err(e) = write_trace(&out, name, args.seed, &recording, &summary) {
            eprintln!("perfbench: writing the trace: {e}");
        }
        (
            layers,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            plain.correct() && traced.correct(),
        )
    } else {
        (
            plain.e2e.clone(),
            plain.attempted,
            plain.failed,
            plain.correct(),
        )
    };
    let _ = std::fs::remove_dir_all(&data);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_pass(label: &str, pass: &Pass) {
    println!(
        "{label} pass: attempted {}, failed {}, correctness violations {}",
        pass.attempted, pass.failed, pass.violations
    );
    for note in &pass.notes {
        println!("  {note}");
    }
    for message in &pass.messages {
        println!("  violation: {message}");
    }
    println!("end-to-end ({label}):\n{}", pass.e2e.table());
    println!("per-layer ({label}):\n{}", pass.layers.table());
}

/// Self time per layer, the compaction's attribution, and the tracing
/// overhead. Adds the trace-derived per-layer metrics to `layers`.
fn trace_summary(
    plain: &Pass,
    traced: &Pass,
    recording: &trace::Recording,
    layers: &mut Metrics,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "trace: {} spans ({} dropped); self time by layer:",
        recording.spans.len(),
        recording.dropped
    );
    let _ = writeln!(
        s,
        "  {:<20} {:>10} {:>14} {:>14}",
        "layer", "spans", "total_ms", "self_ms"
    );
    for (layer, t) in recording.by_layer() {
        let _ = writeln!(
            s,
            "  {layer:<20} {:>10} {:>14.3} {:>14.3}",
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    // The kept store's major compaction: the storage spans beneath it,
    // merge self time (the engine's merge-step time less the storage
    // calls made inside steps: sst reads and writes, and the output's
    // observation sidecar), and what neither explains (planning and
    // bookkeeping outside the steps).
    let compaction = recording
        .named("engine", "major_compact")
        .max_by_key(|span| span.start_ns);
    let mut unattributed_frac = 0.0;
    if let Some(span) = compaction {
        let wall_us = (span.end_ns - span.start_ns) as f64 / 1e3;
        let below = recording.descendants(span.id);
        let us = |t: &trace::LayerTime| t.total_ns as f64 / 1e3;
        let storage_us: f64 = below
            .iter()
            .filter(|((layer, _), _)| layer.starts_with("storage"))
            .map(|(_, t)| us(t))
            .sum();
        let in_steps_us: f64 = below
            .iter()
            .filter(|((layer, name), _)| {
                *layer == "storage.sst" || (*layer == "storage.obs" && name.starts_with("write"))
            })
            .map(|(_, t)| us(t))
            .sum();
        let merge_self_us = (traced.compaction_merge_us - in_steps_us).max(0.0);
        let unattributed = wall_us - storage_us - merge_self_us;
        unattributed_frac = ratio(unattributed, wall_us);
        let _ = writeln!(
            s,
            "major compaction of the kept store: {:.3} ms",
            wall_us / 1e3
        );
        for ((layer, name), t) in &below {
            let _ = writeln!(
                s,
                "  {layer:<17} {name:<12} {:>8} spans {:>12.3} ms",
                t.spans,
                t.total_ns as f64 / 1e6
            );
        }
        let _ = writeln!(s, "  merge self time      {:>30.3} ms", merge_self_us / 1e3);
        let _ = writeln!(
            s,
            "  unattributed         {:>30.3} ms ({:.1}%)",
            unattributed / 1e3,
            unattributed_frac * 100.0
        );
    }
    layers.push(
        "trace.compact_unattributed_frac",
        unattributed_frac,
        "ratio",
    );
    let overlap = recording
        .spans
        .iter()
        .filter(|s| s.parent_by_overlap)
        .count();
    layers.push(
        "trace.overlap_parent_frac",
        ratio(overlap as f64, recording.spans.len() as f64),
        "ratio",
    );

    // Overhead on the end-to-end metrics and on the client's own
    // throughput and latencies (reported with the layers).
    let _ = writeln!(s, "tracing overhead (traced - untraced):");
    let client = |m: &&(&str, f64, &str)| workloads::CLIENT_METRICS.contains(&m.0);
    let traced_values: BTreeMap<&str, f64> = traced
        .e2e
        .0
        .iter()
        .chain(traced.layers.0.iter().filter(client))
        .map(|m| (m.0, m.1))
        .collect();
    for (name, value, unit) in plain
        .e2e
        .0
        .iter()
        .chain(plain.layers.0.iter().filter(client))
    {
        let t = traced_values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(
            s,
            "  {name:<20} {:>14} {unit} ({:+.1}%)",
            num(t - value),
            ratio(t - value, *value) * 100.0
        );
    }
    s
}

fn write_trace(
    out: &Path,
    name: &str,
    seed: u64,
    recording: &trace::Recording,
    summary: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    std::fs::write(
        out.join(format!("{name}-seed{seed}-spans.jsonl")),
        recording.spans_jsonl(),
    )?;
    std::fs::write(out.join(format!("{name}-seed{seed}-summary.txt")), summary)
}
