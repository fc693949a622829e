//! `evolve`: online schema change under a write-heavy closed loop.
//!
//! One client commits single-op `JournaledSchema::apply` calls and, after
//! each, does [`READS_PER_COMMIT`] reads (`snapshot()` then `interface(t)`
//! of a uniformly chosen live type). Version copy and engine recompute
//! dominate; no store or analysis code runs.

use crate::common::{
    base_schema, ns, pct, repeat_counts, sub_seeds, sum, trace_of, Counts, Outcome, Pace, Repeats,
    Rng, DIR, STEADY, US,
};
use crate::replicas::{record_writes, write_attributed, write_layers, Replicas, WriteSample};
use crate::Workload;
use axiombase_core::journal::io::MemIo;
use axiombase_core::{JournalOptions, JournaledSchema, RecordedOp, Schema, TypeId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Committed ops per round. Every round restarts from the base schema:
/// the type arena keeps dead slots, so `Schema::clone` grows with the ops
/// applied, and a run fixed by time would measure a different schema on a
/// slower host.
const ROUND_OPS: usize = 512;
/// Distinct traces per run; rounds cycle over them. A cycle (one round of
/// each) takes about a fifth of a second, short enough that one fast spell
/// of the host covers every call of it.
const TRACES: usize = 4;
/// Rounds of each trace in the untraced run, and in the traced run.
const REPEATS: usize = 48;
const TRACED_REPEATS: usize = 8;
const READS_PER_COMMIT: usize = 4;
/// Ops replayed untimed before the first measured round.
const WARMUP_OPS: usize = 256;

struct Trace {
    ops: Vec<RecordedOp>,
    /// Fingerprint of an owned op-by-op replay of `ops` over the base.
    final_fp: u64,
}

pub struct Evolve {
    base: Schema,
    traces: Vec<Trace>,
    seed: u64,
}

pub fn setup(seed: u64) -> Evolve {
    let base = base_schema();
    let traces = sub_seeds(seed, TRACES)
        .into_iter()
        .map(|s| {
            let ops = trace_of(&base, ROUND_OPS, STEADY, s);
            let mut owned = base.clone();
            for op in &ops {
                owned
                    .apply_trace(std::slice::from_ref(op))
                    .expect("a generated trace replays");
            }
            Trace {
                final_fp: owned.fingerprint(),
                ops,
            }
        })
        .collect();
    Evolve { base, traces, seed }
}

#[derive(Default)]
struct Round {
    commit: Vec<u64>,
    read: Vec<u64>,
}

fn pick(snap: &Schema, rng: &mut Rng) -> TypeId {
    let k = rng.below(snap.type_count());
    snap.iter_types().nth(k).expect("k < live types")
}

impl Evolve {
    /// Commit `ops` (a prefix of trace `t`) on a fresh journal, reading
    /// after each commit.
    fn round(&self, t: usize, ops: usize, out: &mut Outcome) -> Round {
        let trace = &self.traces[t];
        let mut rng = Rng::new(self.seed, t as u64);
        let mut rec = Round::default();
        let js = match JournaledSchema::create(
            Path::new(DIR),
            Arc::new(MemIo::new()),
            self.base.clone(),
            JournalOptions::default(),
        ) {
            Ok(js) => js,
            Err(e) => {
                out.mismatches.push(format!("create journal: {e}"));
                return rec;
            }
        };
        for op in &trace.ops[..ops] {
            let t = Instant::now();
            let r = js.apply(op);
            rec.commit.push(ns(t.elapsed()));
            out.call(&r);
            for _ in 0..READS_PER_COMMIT {
                let t = Instant::now();
                let snap = js.snapshot();
                let snap_ns = ns(t.elapsed());
                let ty = pick(&snap, &mut rng);
                let t = Instant::now();
                let r = black_box(snap.interface(ty));
                let iface_ns = ns(t.elapsed());
                out.call(&r);
                rec.read.push(snap_ns + iface_ns);
            }
        }
        if ops == trace.ops.len() {
            let fp = js.snapshot().fingerprint();
            out.check(fp == trace.final_fp, || {
                format!(
                    "evolve: journaled fingerprint {fp:x} != owned replay {:x}",
                    trace.final_fp
                )
            });
        }
        rec
    }
}

/// One round on lockstep replicas.
struct Traced {
    writes: Vec<WriteSample>,
    snapshot: Vec<u64>,
    interface: Vec<u64>,
    counts: Counts,
}

impl Evolve {
    /// Commit trace `t` on lockstep replicas, reading after each commit.
    fn traced_round(&self, t: usize, out: &mut Outcome) -> Option<Traced> {
        let trace = &self.traces[t];
        let mut rng = Rng::new(self.seed, t as u64);
        let mut reps = match Replicas::new(&self.base) {
            Ok(r) => r,
            Err(e) => {
                out.mismatches.push(e);
                return None;
            }
        };
        let mut rec = Traced {
            writes: Vec::with_capacity(trace.ops.len()),
            snapshot: Vec::new(),
            interface: Vec::new(),
            counts: Counts::new(),
        };
        for op in &trace.ops {
            let s = reps.apply(std::slice::from_ref(op));
            out.attempted += 1;
            out.failed += u64::from(!s.ok);
            rec.writes.push(s);
            for _ in 0..READS_PER_COMMIT {
                let t = Instant::now();
                let snap = reps.js.snapshot();
                rec.snapshot.push(ns(t.elapsed()));
                let ty = pick(&snap, &mut rng);
                let t = Instant::now();
                let r = black_box(snap.interface(ty));
                rec.interface.push(ns(t.elapsed()));
                out.call(&r);
            }
        }
        let fps = reps.fingerprints();
        out.check(fps.iter().all(|&f| f == trace.final_fp), || {
            format!(
                "evolve traced: replica fingerprints {fps:x?} != {:x}",
                trace.final_fp
            )
        });
        reps.counts(&mut rec.counts);
        Some(rec)
    }
}

impl Workload for Evolve {
    fn run(&self, pace: &Pace, out: &mut Outcome) {
        let mut scratch = Outcome::default();
        self.round(0, WARMUP_OPS, &mut scratch);
        out.mismatches.append(&mut scratch.mismatches);
        let mut mins = Repeats::default();
        'repeats: for r in 0..REPEATS {
            for t in 0..TRACES {
                if !pace.next(r * TRACES + t, REPEATS * TRACES, out) {
                    break 'repeats;
                }
                let rec = self.round(t, ROUND_OPS, out);
                mins.record("commit", t, &rec.commit);
                mins.record("read", t, &rec.read);
            }
        }
        let (commit, read) = (mins.pooled("commit"), mins.pooled("read"));
        out.aliased("call_p50_us", "evolve_p50_us", pct(&commit, 0.5) / US, "us");
        out.shown("evolve_p99_us", pct(&commit, 0.99) / US, "us");
        out.shown("read_p50_us", pct(&read, 0.5) / US, "us");
        out.shown("read_p99_us", pct(&read, 0.99) / US, "us");
        // Closed-loop throughput: one client waits on every call in turn.
        let per_s = commit.len() as f64 / ((sum(&commit) + sum(&read)) / 1e9);
        out.aliased("ops_per_s", "evolve_ops_per_s", per_s, "1/s");
        out.notes.push(format!(
            "samples: {} commits and {} reads, minimum of each over {REPEATS} rounds of each of {TRACES} traces of {ROUND_OPS} ops",
            commit.len(),
            read.len()
        ));
    }

    /// Each pass runs every trace untraced (the reference the layers are
    /// compared with), then on lockstep replicas; both go through the same
    /// per-call minimum. Counts are those of one pass and must repeat
    /// exactly in every pass.
    fn run_traced(&self, pace: &Pace, out: &mut Outcome) -> BTreeMap<&'static str, f64> {
        let mut mins = Repeats::default();
        let mut first_counts: Option<Counts> = None;
        'repeats: for r in 0..TRACED_REPEATS {
            let mut counts = Counts::new();
            for t in 0..TRACES {
                if !pace.next(r * TRACES + t, TRACED_REPEATS * TRACES, out) {
                    break 'repeats;
                }
                mins.record("plain", t, &self.round(t, ROUND_OPS, out).commit);
                let Some(rec) = self.traced_round(t, out) else {
                    return BTreeMap::new();
                };
                record_writes(&mut mins, t, &rec.writes);
                mins.record("snapshot", t, &rec.snapshot);
                mins.record("interface", t, &rec.interface);
                for (k, v) in rec.counts {
                    *counts.entry(k).or_default() += v;
                }
            }
            repeat_counts(&mut first_counts, counts, "evolve", out);
        }

        let untraced_p50 = pct(&mins.pooled("plain"), 0.5);
        let journaled = mins.pooled("w.journaled");
        let mut m = first_counts.unwrap_or_default();
        write_layers(&mins, &mut m);
        m.insert(
            "concurrent.snapshot_us",
            pct(&mins.pooled("snapshot"), 0.5) / US,
        );
        m.insert(
            "model.interface_us",
            pct(&mins.pooled("interface"), 0.5) / US,
        );
        m.insert(
            "unattributed_share",
            1.0 - write_attributed(&mins) / sum(&journaled),
        );
        m.insert(
            "trace_overhead_share",
            pct(&journaled, 0.5) / untraced_p50 - 1.0,
        );
        let clone_share = m["model.clone_us"] * US / untraced_p50;
        out.notes.push(format!(
            "layer check: model.clone_us / evolve_p50_us = {clone_share:.3} (expected >= 0.5)"
        ));
        out.notes.push(format!(
            "traced samples: {} lockstep steps, minimum of each over {TRACED_REPEATS} passes, each beside an untraced round",
            journaled.len()
        ));
        m
    }
}
