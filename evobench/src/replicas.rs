//! Lockstep replicas of the write path, for the traced runs.
//!
//! One journaled evolve is a version copy (`Schema::clone`), the engine's
//! apply and recompute, the journal's encode, append and fsync, and a
//! publish. Timing only public calls from outside, the traced run feeds
//! the same operations to three replicas that hold the same schema at
//! every step, and reads each layer off the differences:
//!
//! - an owned [`Schema`]: `clone` plus the drop of the superseded version
//!   is the version copy, `apply_trace` on the copy is the engine;
//! - a [`SharedSchema`]: `evolve` is version copy + engine + publish;
//! - a [`JournaledSchema`] on a [`CountingIo`] over `MemIo`, opened with
//!   `create_observed`: `apply_trace` is the whole durable evolve, the I/O
//!   wrapper times append and fsync, and the observer counts engine work.

use crate::common::{ns, pct, pct_f, sum, Repeats, DIR, MS, US};
use crate::io::{Call, CountingIo, IoCounts};
use axiombase_core::journal::io::MemIo;
use axiombase_core::obs::names;
use axiombase_core::{
    EvolveObs, JournalOptions, JournaledSchema, MetricsRegistry, RecordedOp, Schema, SharedSchema,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-call timings of one lockstep step, in nanoseconds.
#[derive(Debug, Clone)]
pub struct WriteSample {
    pub clone: u64,
    pub apply: u64,
    pub shared: u64,
    pub journaled: u64,
    /// I/O done by the journaled call.
    pub io: IoCounts,
    /// Did the journaled call take an automatic checkpoint?
    pub checkpointed: bool,
    pub ok: bool,
}

/// The three replicas.
pub struct Replicas {
    owned: Schema,
    shared: SharedSchema,
    pub js: JournaledSchema,
    io: Arc<CountingIo>,
    registry: Arc<MetricsRegistry>,
    io_at_start: IoCounts,
    obs_at_start: [u64; 3],
    turn: usize,
}

const OBS_COUNTS: [&str; 3] = [
    names::JOURNAL_CHECKPOINTS,
    names::ENGINE_TYPES_DERIVED,
    names::ENGINE_COW_COPIES,
];

impl Replicas {
    pub fn new(base: &Schema) -> Result<Self, String> {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Arc::new(EvolveObs::new(Arc::clone(&registry)));
        let io = Arc::new(CountingIo::new(Arc::new(MemIo::new())));
        let js = JournaledSchema::create_observed(
            Path::new(DIR),
            io.clone(),
            base.clone(),
            JournalOptions::default(),
            obs,
        )
        .map_err(|e| format!("create journal: {e}"))?;
        // The first checkpoint belongs to set-up, not to the measured steps.
        let io_at_start = io.counts();
        let obs_at_start = OBS_COUNTS.map(|n| registry.get(n));
        Ok(Replicas {
            owned: base.clone(),
            shared: SharedSchema::new(base.clone()),
            js,
            io,
            registry,
            io_at_start,
            obs_at_start,
            turn: 0,
        })
    }

    /// Apply `ops` as one evolution step on every replica. The replicas
    /// take turns going first, so the cache misses of whichever runs first
    /// after the workload's other work spread evenly over all three.
    pub fn apply(&mut self, ops: &[RecordedOp]) -> WriteSample {
        let mut s = WriteSample {
            clone: 0,
            apply: 0,
            shared: 0,
            journaled: 0,
            io: IoCounts::default(),
            checkpointed: false,
            ok: true,
        };
        for k in 0..3 {
            match (self.turn + k) % 3 {
                0 => self.apply_owned(ops, &mut s),
                1 => {
                    let t = Instant::now();
                    s.ok &= self.shared.evolve(|s| s.apply_trace(ops)).is_ok();
                    s.shared = ns(t.elapsed());
                }
                _ => {
                    let io_before = self.io.counts();
                    let checkpoints_before = self.registry.get(names::JOURNAL_CHECKPOINTS);
                    let t = Instant::now();
                    s.ok &= self.js.apply_trace(ops).is_ok();
                    s.journaled = ns(t.elapsed());
                    s.io = self.io.counts().since(&io_before);
                    s.checkpointed =
                        self.registry.get(names::JOURNAL_CHECKPOINTS) > checkpoints_before;
                }
            }
        }
        self.turn += 1;
        s
    }

    fn apply_owned(&mut self, ops: &[RecordedOp], s: &mut WriteSample) {
        let t = Instant::now();
        let mut next = self.owned.clone();
        let clone = ns(t.elapsed());
        let t = Instant::now();
        s.ok &= next.apply_trace(ops).is_ok();
        s.apply = ns(t.elapsed());
        // Publishing drops the superseded version; that drop is the other
        // half of the version copy.
        let t = Instant::now();
        self.owned = next;
        s.clone = clone + ns(t.elapsed());
    }

    /// Fingerprints of the owned, shared and journaled replicas.
    pub fn fingerprints(&self) -> [u64; 3] {
        [
            self.owned.fingerprint(),
            self.shared.snapshot().fingerprint(),
            self.js.snapshot().fingerprint(),
        ]
    }

    /// Counts since [`Replicas::new`]: they repeat exactly for one input.
    pub fn counts(&self, out: &mut BTreeMap<&'static str, f64>) {
        let io = self.io.counts().since(&self.io_at_start);
        out.insert("io.appends", io.calls(Call::Append) as f64);
        out.insert("io.fsyncs", io.calls(Call::Fsync) as f64);
        out.insert("io.bytes_written", io.bytes_written as f64);
        out.insert("io.bytes_read", io.bytes_read as f64);
        let [checkpoints, derived, cow] = OBS_COUNTS.map(|n| self.registry.get(n));
        out.insert(
            "journal.checkpoints",
            (checkpoints - self.obs_at_start[0]) as f64,
        );
        out.insert(
            "engine.types_derived",
            (derived - self.obs_at_start[1]) as f64,
        );
        out.insert("engine.cow_copies", (cow - self.obs_at_start[2]) as f64);
    }
}

/// Fold one pass of lockstep samples of round kind `round` into the
/// per-call minima.
pub fn record_writes(mins: &mut Repeats, round: usize, samples: &[WriteSample]) {
    let col = |f: fn(&WriteSample) -> u64| samples.iter().map(f).collect::<Vec<u64>>();
    mins.record("w.clone", round, &col(|s| s.clone));
    mins.record("w.apply", round, &col(|s| s.apply));
    mins.record("w.shared", round, &col(|s| s.shared));
    mins.record("w.journaled", round, &col(|s| s.journaled));
    mins.record("w.io", round, &col(|s| s.io.total_ns()));
    mins.record("w.append", round, &col(|s| s.io.ns(Call::Append)));
    mins.record("w.fsync", round, &col(|s| s.io.ns(Call::Fsync)));
    mins.record("w.checkpointed", round, &col(|s| u64::from(s.checkpointed)));
}

/// Nanoseconds of the journaled calls covered by a timed layer (version
/// copy, engine apply, I/O), summed over the per-call minima.
pub fn write_attributed(mins: &Repeats) -> f64 {
    sum(&mins.pooled("w.clone")) + sum(&mins.pooled("w.apply")) + sum(&mins.pooled("w.io"))
}

/// Timings of the write-path layers from the per-call minima. `out`
/// already holds one pass's counts, `io.appends` and `io.fsyncs` among them.
pub fn write_layers(mins: &Repeats, out: &mut BTreeMap<&'static str, f64>) {
    let clone = mins.pooled("w.clone");
    let apply = mins.pooled("w.apply");
    let shared = mins.pooled("w.shared");
    let journaled = mins.pooled("w.journaled");
    out.insert("model.clone_us", pct(&clone, 0.5) / US);
    out.insert("engine.apply_p50_us", pct(&apply, 0.5) / US);
    out.insert("engine.apply_p99_us", pct(&apply, 0.99) / US);
    let publish: Vec<f64> = (0..shared.len())
        .map(|i| shared[i] as f64 - clone[i] as f64 - apply[i] as f64)
        .collect();
    out.insert("concurrent.publish_us", pct_f(&publish, 0.5) / US);
    let commit: Vec<f64> = (0..shared.len())
        .map(|i| journaled[i] as f64 - shared[i] as f64)
        .collect();
    out.insert("journal.commit_us", pct_f(&commit, 0.5) / US);

    let per_call = |series: &str, calls: &str| {
        sum(&mins.pooled(series)) / out.get(calls).copied().unwrap_or(0.0).max(1.0) / US
    };
    let append_us = per_call("w.append", "io.appends");
    let fsync_us = per_call("w.fsync", "io.fsyncs");
    out.insert("io.append_us", append_us);
    out.insert("io.fsync_us", fsync_us);

    // A checkpoint's cost is what its step took beyond a typical step.
    let checkpointed = mins.pooled("w.checkpointed");
    let (marked, plain): (Vec<_>, Vec<_>) = journaled
        .iter()
        .zip(&checkpointed)
        .partition(|(_, &c)| c == 1);
    let plain: Vec<u64> = plain.into_iter().map(|(&j, _)| j).collect();
    let typical = pct(&plain, 0.5);
    let extra: Vec<f64> = marked.iter().map(|(&j, _)| j as f64 - typical).collect();
    let checkpoint_ms = if extra.is_empty() {
        0.0
    } else {
        extra.iter().sum::<f64>() / extra.len() as f64 / MS
    };
    out.insert("journal.checkpoint_ms", checkpoint_ms);
}
