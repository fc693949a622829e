//! Inputs shared by the workloads, sample statistics, and the report.

use axiombase_core::{EngineKind, LatticeConfig, RecordedOp, Schema};
use axiombase_workload::{generate_trace, LatticeGen, OpMix};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Journal directory inside each in-memory filesystem.
pub const DIR: &str = "/evobench";

/// How many times each run builds its inputs; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// The base schema of every workload: the 1000-type ORION lattice of
/// `bench_ops_json`, fixed at lattice seed 42 so the workload seed varies
/// only the trace and the object population.
pub fn base_schema() -> Schema {
    LatticeGen {
        types: 1000,
        max_parents: 3,
        props_per_type: 1.5,
        redeclare_prob: 0.1,
        seed: 42,
    }
    .generate(LatticeConfig::ORION, EngineKind::Incremental)
    .schema
}

/// A mix that keeps the number of live types steady: types, edges and
/// properties are added as often as they are dropped.
pub const STEADY: OpMix = OpMix {
    add_type: 2,
    drop_type: 2,
    add_edge: 2,
    drop_edge: 2,
    add_prop: 2,
    drop_prop: 2,
};

/// The instance-migration mix: like [`STEADY`] but without type drops, so
/// no populated type disappears and every stored object stays readable.
pub const NO_TYPE_DROPS: OpMix = OpMix {
    drop_type: 0,
    add_type: 1,
    ..STEADY
};

/// The first `want` successful operations of the seeded trace over `base`.
pub fn trace_of(base: &Schema, want: usize, mix: OpMix, seed: u64) -> Vec<RecordedOp> {
    let mut attempts = want * 2;
    loop {
        let (mut ops, _) = generate_trace(base, attempts, mix, seed);
        if ops.len() >= want {
            ops.truncate(want);
            return ops;
        }
        attempts *= 2;
    }
}

/// Independent trace seeds for one run. A run cycles over several traces
/// so that its medians are not those of a single trace, which would make
/// them swing with the seed.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x7ace);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Per-call minimum over a fixed number of repeats of identical rounds.
/// Rounds of one trace replay the same calls on the same states, so call
/// `i` of one repeat is call `i` of every other. Load from elsewhere on the
/// host only ever slows a call, so the minimum over repeats measures the
/// program; percentiles are then taken across calls, where the workload's
/// own spread lives. Every timed figure of the benchmark, end-to-end and
/// per-layer, goes through this one estimator.
#[derive(Debug, Default)]
pub struct Repeats(BTreeMap<(&'static str, usize), Vec<u64>>);

impl Repeats {
    /// Fold one repeat of `series` in round kind `round` into the minima.
    pub fn record(&mut self, series: &'static str, round: usize, samples: &[u64]) {
        let mins = self.0.entry((series, round)).or_default();
        if mins.is_empty() {
            mins.extend_from_slice(samples);
        } else {
            assert_eq!(mins.len(), samples.len(), "repeats of {series} line up");
            for (m, &s) in mins.iter_mut().zip(samples) {
                *m = (*m).min(s);
            }
        }
    }

    /// The minima of `series` over every round kind, pooled.
    pub fn pooled(&self, series: &str) -> Vec<u64> {
        self.0
            .iter()
            .filter(|((name, _), _)| *name == series)
            .flat_map(|(_, mins)| mins.iter().copied())
            .collect()
    }
}

/// Counts of one traced pass, by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Keep the first traced pass's counts; every later pass replays the same
/// calls, so its counts must equal them exactly.
pub fn repeat_counts(
    first: &mut Option<Counts>,
    counts: Counts,
    workload: &str,
    out: &mut Outcome,
) {
    match first {
        None => *first = Some(counts),
        Some(first) => out.check(*first == counts, || {
            format!("{workload} traced: counts differ between identical passes: {first:?} vs {counts:?}")
        }),
    }
}

/// Paces the measured part of a run, between its rounds: a time guard,
/// and the set-up repeats spread over the run.
///
/// Work is fixed by count, so `--seconds` does not set how much is
/// measured; a run whose measured part takes longer than [`GUARD_FACTOR`]
/// times `--seconds` stops and fails, which keeps a run on a badly
/// overloaded host inside the time a caller allows.
///
/// `setup_s` is the median of [`SETUP_REPEATS`] set-ups: the one before
/// the measured part and the rest at even steps through it, so the median
/// samples the host over the whole run rather than at its start. A
/// workload calls [`Pace::next`] before each round, when the previous
/// round's state is already dropped: on `migrate` a set-up's store takes
/// the place of the dropped store copy, so peak memory does not grow.
pub struct Pace<'a> {
    deadline: Instant,
    limit_s: u64,
    /// Builds and drops one set-up, returning its build time in seconds.
    setup: Option<&'a dyn Fn() -> f64>,
    setup_s: RefCell<Vec<f64>>,
}

const GUARD_FACTOR: u64 = 3;

impl<'a> Pace<'a> {
    pub fn new(seconds: u64, first_setup_s: f64, setup: Option<&'a dyn Fn() -> f64>) -> Self {
        let limit_s = seconds.saturating_mul(GUARD_FACTOR);
        Pace {
            deadline: Instant::now() + Duration::from_secs(limit_s),
            limit_s,
            setup,
            setup_s: RefCell::new(vec![first_setup_s]),
        }
    }

    /// Before round `round` of `rounds`: runs the set-ups due by now, and
    /// returns false (recording the failure once) past the time guard.
    pub fn next(&self, round: usize, rounds: usize, out: &mut Outcome) -> bool {
        if Instant::now() >= self.deadline {
            let msg = format!("run exceeded its time guard of {} s", self.limit_s);
            if !out.mismatches.contains(&msg) {
                out.mismatches.push(msg);
            }
            return false;
        }
        if let Some(setup) = self.setup {
            let due = (round * SETUP_REPEATS / rounds.max(1)).min(SETUP_REPEATS - 1);
            while self.setup_s.borrow().len() <= due {
                let secs = setup();
                self.setup_s.borrow_mut().push(secs);
            }
        }
        true
    }

    /// The median set-up time in seconds.
    pub fn setup_s(&self) -> f64 {
        let mut v = self.setup_s.borrow().clone();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }
}

/// splitmix64: a small deterministic generator for the benchmark's own
/// choices (read targets, object placement), independent of the trace.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nanoseconds of a duration.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile `q` (0..=1) of `samples`, in the samples' unit.
pub fn pct(samples: &[u64], q: f64) -> f64 {
    pct_f(&samples.iter().map(|&v| v as f64).collect::<Vec<_>>(), q)
}

/// [`pct`] over signed or fractional samples.
pub fn pct_f(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Sum of samples as f64.
pub fn sum(samples: &[u64]) -> f64 {
    samples.iter().map(|&v| v as f64).sum()
}

/// Mean of samples, 0 when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        sum(samples) / samples.len() as f64
    }
}

pub const US: f64 = 1e3;
pub const MS: f64 = 1e6;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The workload-specific name the same number carries in the report.
    pub alias: Option<String>,
    /// In the result line (else printed in the report only).
    pub gated: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            alias: None,
            gated: true,
        });
    }

    pub fn aliased(&mut self, name: &'static str, alias: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            alias: Some(alias.to_string()),
            gated: true,
        });
    }

    /// A number printed in the report but left out of the result line.
    pub fn shown(&mut self, label: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: "",
            value,
            unit,
            alias: Some(label.to_string()),
            gated: false,
        });
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Count one call into the program and whether it returned `Ok`.
    pub fn call<T, E>(&mut self, r: &Result<T, E>) {
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The last line of a run: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.gated)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` carries (`v` must be finite).
pub fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
