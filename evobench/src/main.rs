//! evobench: end-to-end and per-layer benchmark of schema evolution.
//!
//! ```text
//! evobench --workload evolve|recover|migrate|all [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Each workload is a single-threaded closed loop over in-memory journals
//! (`MemIo`, default options: a checkpoint every 256 ops, an fsync on
//! every commit). `--trace 0` measures the end-to-end metrics; `--trace 1`
//! makes a separate run with the same seed that times each layer from
//! outside. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; any failed output check
//! exits 1. Every run does a fixed number of rounds; `--seconds` only
//! guards against a run that takes far longer than expected. `all` runs the
//! three workloads in turn, each in its own process so peak memory is per
//! workload. See README.md.

mod common;
mod evolve;
mod io;
mod migrate;
mod recover;
mod replicas;

use common::{peak_rss_mb, Outcome, Pace};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["evolve", "recover", "migrate"];
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 35;
const USAGE: &str =
    "usage: evobench --workload evolve|recover|migrate|all [--seed N] [--seconds N] [--trace 0|1]";

/// Every per-layer metric, in report order, with its unit. A workload that
/// never reaches a layer reports 0 for it.
const LAYERS: &[(&str, &str)] = &[
    ("model.clone_us", "us"),
    ("model.interface_us", "us"),
    ("engine.apply_p50_us", "us"),
    ("engine.apply_p99_us", "us"),
    ("engine.replay_ms", "ms"),
    ("engine.types_derived", "count"),
    ("engine.cow_copies", "count"),
    ("concurrent.publish_us", "us"),
    ("concurrent.snapshot_us", "us"),
    ("journal.commit_us", "us"),
    ("journal.checkpoints", "count"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.checkpoint_load_ms", "ms"),
    ("journal.replayed_ops", "count"),
    ("snapshot.parse_ms", "ms"),
    ("wire.decode_us", "us"),
    ("io.append_us", "us"),
    ("io.fsync_us", "us"),
    ("io.appends", "count"),
    ("io.fsyncs", "count"),
    ("io.bytes_written", "bytes"),
    ("io.bytes_read", "bytes"),
    ("analysis.calls", "count"),
    ("analysis.impact_ms", "ms"),
    ("analysis.plan_steps", "count"),
    ("store.calls", "count"),
    ("store.propagate_ms", "ms"),
    ("store.lazy_conversions", "count"),
    ("store.marked_stale", "count"),
    ("store.slots_added", "count"),
    ("store.slots_dropped", "count"),
    ("store.conversions_per_read", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("threads_available", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// A workload's measured part, after set-up. Both runs do a fixed number
/// of rounds, each preceded by [`Pace::next`].
trait Workload {
    /// The untraced run: pushes the end-to-end metrics into `out`.
    fn run(&self, pace: &Pace, out: &mut Outcome);
    /// The traced run: returns the per-layer metrics it measured.
    fn run_traced(&self, pace: &Pace, out: &mut Outcome) -> BTreeMap<&'static str, f64>;
}

/// Set up and run one workload; returns the layer metrics (traced run)
/// and the median set-up time in seconds.
fn measure<W: Workload>(
    setup: impl Fn() -> W,
    args: &Args,
    out: &mut Outcome,
) -> (BTreeMap<&'static str, f64>, f64) {
    let start = Instant::now();
    let w = setup();
    let first_s = start.elapsed().as_secs_f64();
    let again = || {
        let start = Instant::now();
        let w = setup();
        let secs = start.elapsed().as_secs_f64();
        drop(w);
        secs
    };
    // Only the untraced run reports set-up time.
    let again: Option<&dyn Fn() -> f64> = (!args.trace).then_some(&again);
    let pace = Pace::new(args.seconds, first_s, again);
    let layers = if args.trace {
        w.run_traced(&pace, out)
    } else {
        w.run(&pace, out);
        BTreeMap::new()
    };
    (layers, pace.setup_s())
}

fn run_one(args: &Args) -> Outcome {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "# {} seed={} seconds={} trace={} threads_available={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let seed = args.seed;
    let (layers, setup_s) = match args.workload.as_str() {
        "evolve" => measure(|| evolve::setup(seed), args, &mut out),
        "recover" => measure(|| recover::setup(seed), args, &mut out),
        _ => measure(|| migrate::setup(seed), args, &mut out),
    };
    if args.trace {
        let mut layers = layers;
        layers.insert("threads_available", threads as f64);
        for (name, unit) in LAYERS {
            let value = layers.remove(name).unwrap_or(0.0);
            out.metric(name, value, unit);
        }
        assert!(layers.is_empty(), "unlisted layer metrics {layers:?}");
    } else {
        let ok = out.ok_ratio();
        let w = &args.workload;
        out.aliased("setup_s", &format!("{w}.setup_s"), setup_s, "s");
        out.aliased(
            "peak_rss_mb",
            &format!("{w}.peak_rss_mb"),
            peak_rss_mb(),
            "MB",
        );
        out.aliased("ok_ratio", &format!("{w}.ok_ratio"), ok, "ratio");
    }
    let broken: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.alias.as_deref().unwrap_or(m.name))
        .collect();
    if !broken.is_empty() {
        out.mismatches
            .push(format!("metrics without a finite value: {broken:?}"));
    }
    out
}

/// The human-readable lines: one per metric as `name = value unit`, under
/// the workload-specific name where the metric has one.
fn print(out: &Outcome) {
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        let (name, mut value, mut unit) = (m.alias.as_deref().unwrap_or(m.name), m.value, m.unit);
        if name.ends_with("_ms") && unit == "us" {
            value /= 1e3;
            unit = "ms";
        }
        println!("  {name} = {value} {unit}");
    }
    for miss in &out.mismatches {
        println!("MISMATCH {miss}");
    }
    println!("{}", out.result_json());
}

/// `--workload all`: each workload in a child process. The children's
/// report lines pass through; the last line gathers the metrics of each
/// child's result line, named `<workload>.<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("evobench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("evobench: cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        match stdout.lines().last().and_then(parse_result) {
            Some(r) => {
                correct &= child.status.success() && r.correct;
                attempted += r.attempted;
                failed += r.failed;
                metrics.extend(
                    r.metrics
                        .into_iter()
                        .map(|(name, value, unit)| (format!("{w}.{name}"), value, unit)),
                );
            }
            None => {
                eprintln!("evobench: {w} printed no result line");
                correct = false;
            }
        }
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A result line as [`common::Outcome::result_json`] writes it.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value as written, unit)`.
    metrics: Vec<(String, String, String)>,
}

/// Read back a line written by [`common::Outcome::result_json`]; `None`
/// for any other line.
fn parse_result(line: &str) -> Option<ChildResult> {
    let rest = line.strip_prefix("{\"correct\": ")?;
    let (correct, rest) = rest.split_once(", \"attempted\": ")?;
    let (attempted, rest) = rest.split_once(", \"failed\": ")?;
    let (failed, rest) = rest.split_once(", \"metrics\": {")?;
    let mut body = rest.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    while let Some(entry) = body.strip_prefix('"') {
        let (name, entry) = entry.split_once("\": {\"value\": ")?;
        let (value, entry) = entry.split_once(", \"unit\": \"")?;
        let (unit, entry) = entry.split_once("\"}")?;
        metrics.push((name.to_string(), value.to_string(), unit.to_string()));
        body = entry.strip_prefix(", ").unwrap_or(entry);
    }
    body.is_empty().then_some(())?;
    Some(ChildResult {
        correct: correct.parse().ok()?,
        attempted: attempted.parse().ok()?,
        failed: failed.parse().ok()?,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out = run_one(&args);
    print(&out);
    if out.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::parse_result;
    use crate::common::Outcome;

    #[test]
    fn result_line_reads_back() {
        let mut out = Outcome {
            attempted: 7,
            failed: 1,
            ..Outcome::default()
        };
        out.metric("call_p50_us", 81.25, "us");
        out.metric("ok_ratio", 6.0 / 7.0, "ratio");
        out.shown("evolve_p99_us", 300.0, "us");
        let r = parse_result(&out.result_json()).expect("a result line");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (7, 1));
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, ["call_p50_us", "ok_ratio"]);
        assert_eq!(r.metrics[0].1.parse::<f64>(), Ok(81.25));
        assert_eq!(r.metrics[1].2, "ratio");
        assert!(parse_result("  layer check: x = 0.840 (expected >= 0.5)").is_none());
    }
}
