//! `migrate`: instance conversion under a read-heavy mix.
//!
//! A 100k-object `ObjectStore` runs under `Policy::default()` (lazy).
//! Each step takes a 16-op batch through `impact::analyze` on the current
//! snapshot, one `JournaledSchema::apply_trace`, and `on_schema_change`
//! over the plan's step types, then serves [`GETS_PER_STEP`] `get`s with
//! 80% of reads on the hottest 10% of objects. The version copy is paid
//! once per 16 ops, so analysis and the object scan dominate.

use crate::common::{
    base_schema, ns, pct, repeat_counts, sub_seeds, sum, trace_of, Counts, Outcome, Pace, Repeats,
    Rng, DIR, MS, NO_TYPE_DROPS, US,
};
use crate::replicas::{record_writes, write_attributed, write_layers, Replicas, WriteSample};
use crate::Workload;
use axiombase_core::analysis::impact;
use axiombase_core::journal::io::MemIo;
use axiombase_core::{JournalOptions, JournaledSchema, PropId, RecordedOp, Schema, TypeId};
use axiombase_store::{ObjectStore, Oid, Policy, PropagationStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const OBJECTS: usize = 100_000;
/// The hot set: the first 10% of objects take 80% of reads.
const HOT: usize = OBJECTS / 10;
const BATCH: usize = 16;
/// Steps per round; every round restarts from the base schema and a copy
/// of the store built at set-up, so each measures the same schemas.
const ROUND_STEPS: usize = 16;
/// Distinct traces per run; rounds cycle over them. A cycle (one round of
/// each) takes about two seconds, most of it copying the store; fewer or
/// shorter rounds would leave too few distinct steps for a steady median.
const TRACES: usize = 2;
/// Rounds of each trace in the untraced run, and in the traced run.
const REPEATS: usize = 16;
const TRACED_REPEATS: usize = 2;
const GETS_PER_STEP: usize = 2048;
const WARMUP_STEPS: usize = 2;

struct Trace {
    batches: Vec<Vec<RecordedOp>>,
    /// Fingerprint of an owned replay of the whole trace over the base.
    final_fp: u64,
}

pub struct Migrate {
    base: Schema,
    traces: Vec<Trace>,
    /// The type of each object, by oid.
    placement: Vec<TypeId>,
    /// The objects as created over the base schema; every round converts
    /// a copy.
    store: ObjectStore,
    seed: u64,
}

pub fn setup(seed: u64) -> Migrate {
    let base = base_schema();
    let traces = sub_seeds(seed, TRACES)
        .into_iter()
        .map(|s| {
            let ops = trace_of(&base, ROUND_STEPS * BATCH, NO_TYPE_DROPS, s);
            let mut owned = base.clone();
            owned.apply_trace(&ops).expect("a generated trace replays");
            Trace {
                batches: ops.chunks(BATCH).map(<[RecordedOp]>::to_vec).collect(),
                final_fp: owned.fingerprint(),
            }
        })
        .collect();
    let types: Vec<TypeId> = base.iter_types().collect();
    let mut rng = Rng::new(seed, 2);
    let placement: Vec<TypeId> = (0..OBJECTS)
        .map(|_| types[rng.below(types.len())])
        .collect();
    let mut store = ObjectStore::new(Policy::default());
    for &ty in &placement {
        store.create(&base, ty).expect("live type");
    }
    Migrate {
        base,
        traces,
        placement,
        store,
        seed,
    }
}

/// Per-call timings of one round in nanoseconds. A step is three calls:
/// `impact` (`impact::analyze`), `write` (the journaled apply) and
/// `propagate` (`on_schema_change`).
#[derive(Default)]
struct Steps {
    impact: Vec<u64>,
    write: Vec<u64>,
    propagate: Vec<u64>,
    get: Vec<u64>,
    interface: Vec<u64>,
    plan_steps: u64,
    store_calls: u64,
    /// Lockstep write-path timings (traced rounds only).
    writes: Vec<WriteSample>,
}

/// Where a round's journaled writes go.
enum Writer<'a> {
    /// A plain journal: the untraced path.
    Plain(Box<JournaledSchema>),
    /// Lockstep replicas, so the write path is also timed layer by layer.
    Traced(&'a mut Replicas),
}

impl Writer<'_> {
    fn snapshot(&self) -> Arc<Schema> {
        match self {
            Writer::Plain(js) => js.snapshot(),
            Writer::Traced(reps) => reps.js.snapshot(),
        }
    }

    /// Commit one batch: whether it succeeded, how long the journaled
    /// write took, and the lockstep sample when traced.
    fn apply(&mut self, batch: &[RecordedOp]) -> (bool, u64, Option<WriteSample>) {
        match self {
            Writer::Plain(js) => {
                let t = Instant::now();
                let ok = js.apply_trace(batch).is_ok();
                (ok, ns(t.elapsed()), None)
            }
            Writer::Traced(reps) => {
                let s = reps.apply(batch);
                (s.ok, s.journaled, Some(s))
            }
        }
    }
}

/// Read targets of one step: `(oid, type, prop)` with the prop in the
/// type's current interface, so every `get` must succeed.
fn read_targets(placement: &[TypeId], snap: &Schema, rng: &mut Rng) -> Vec<(Oid, TypeId, PropId)> {
    let mut ifaces: BTreeMap<TypeId, Vec<PropId>> = BTreeMap::new();
    let mut out = Vec::with_capacity(GETS_PER_STEP);
    while out.len() < GETS_PER_STEP {
        let raw = if rng.below(10) < 8 {
            rng.below(HOT)
        } else {
            HOT + rng.below(OBJECTS - HOT)
        };
        let oid = Oid::from_raw(raw as u64);
        let ty = placement[raw];
        let iface = ifaces.entry(ty).or_insert_with(|| {
            snap.interface(ty)
                .expect("populated types stay live")
                .into_iter()
                .collect()
        });
        if !iface.is_empty() {
            out.push((oid, ty, iface[rng.below(iface.len())]));
        }
    }
    out
}

impl Migrate {
    fn plain_writer(&self, out: &mut Outcome) -> Option<Writer<'static>> {
        match JournaledSchema::create(
            Path::new(DIR),
            Arc::new(MemIo::new()),
            self.base.clone(),
            JournalOptions::default(),
        ) {
            Ok(js) => Some(Writer::Plain(Box::new(js))),
            Err(e) => {
                out.mismatches.push(format!("create journal: {e}"));
                None
            }
        }
    }

    /// The first `steps` steps of trace `t` from the base schema and a copy
    /// of the set-up store. A traced round also times each `get` target's
    /// interface on its own first.
    fn round(
        &self,
        t: usize,
        steps: usize,
        mut writer: Writer<'_>,
        rec: &mut Steps,
        out: &mut Outcome,
    ) -> PropagationStats {
        let trace = &self.traces[t];
        let traced = matches!(writer, Writer::Traced(_));
        let rng = &mut Rng::new(self.seed, 3 + t as u64);
        let mut store = self.store.clone();
        let mut snap = writer.snapshot();
        for batch in &trace.batches[..steps] {
            let t = Instant::now();
            let analysis = impact::analyze(&snap, batch);
            let impact_ns = ns(t.elapsed());
            let (ok, mut write_ns, sample) = writer.apply(batch);
            // The analysis held the old version, so it is freed here rather
            // than at publish; that free belongs to the write.
            let t = Instant::now();
            snap = writer.snapshot();
            let drop_ns = ns(t.elapsed());
            write_ns += drop_ns;
            if let Some(mut s) = sample {
                s.journaled += drop_ns;
                rec.writes.push(s);
            }
            let t = Instant::now();
            let affected: Vec<TypeId> = analysis
                .plan
                .steps
                .iter()
                .map(|s| TypeId::from_index(s.type_index))
                .collect();
            store.on_schema_change(&snap, &affected);
            let propagate_ns = ns(t.elapsed());
            rec.impact.push(impact_ns);
            rec.write.push(write_ns);
            rec.propagate.push(propagate_ns);
            rec.plan_steps += analysis.plan.steps.len() as u64;
            rec.store_calls += 1;
            out.attempted += 3;
            out.failed += u64::from(!ok);

            for (oid, ty, prop) in read_targets(&self.placement, &snap, rng) {
                if traced {
                    let t = Instant::now();
                    let r = black_box(snap.interface(ty));
                    rec.interface.push(ns(t.elapsed()));
                    out.call(&r);
                }
                let t = Instant::now();
                let r = black_box(store.get(&snap, oid, prop));
                rec.get.push(ns(t.elapsed()));
                rec.store_calls += 1;
                out.call(&r);
            }
        }
        out.check(store.object_count() == OBJECTS, || {
            format!(
                "migrate: object count {} != {OBJECTS}",
                store.object_count()
            )
        });
        if steps == trace.batches.len() {
            let fp = snap.fingerprint();
            out.check(fp == trace.final_fp, || {
                format!(
                    "migrate: journaled fingerprint {fp:x} != owned replay {:x}",
                    trace.final_fp
                )
            });
        }
        *store.stats()
    }

    /// An untraced round of trace `t`, checked against the propagation
    /// stats of the trace's first round.
    fn plain_round(
        &self,
        t: usize,
        first_stats: &mut Vec<PropagationStats>,
        out: &mut Outcome,
    ) -> Option<Steps> {
        let writer = self.plain_writer(out)?;
        let mut rec = Steps::default();
        let stats = self.round(t, ROUND_STEPS, writer, &mut rec, out);
        match first_stats.get(t) {
            None => first_stats.push(stats),
            Some(f) => out.check(*f == stats, || {
                format!("migrate: propagation stats differ between identical rounds: {f:?} vs {stats:?}")
            }),
        }
        Some(rec)
    }

    fn warm_up(&self, out: &mut Outcome) {
        let mut scratch = Outcome::default();
        if let Some(writer) = self.plain_writer(&mut scratch) {
            self.round(0, WARMUP_STEPS, writer, &mut Steps::default(), &mut scratch);
        }
        out.mismatches.append(&mut scratch.mismatches);
    }

    /// Trace `t` on lockstep replicas: the round's timings, its propagation
    /// stats and its counts.
    fn traced_round(
        &self,
        t: usize,
        out: &mut Outcome,
    ) -> Option<(Steps, PropagationStats, Counts)> {
        let mut reps = match Replicas::new(&self.base) {
            Ok(r) => r,
            Err(e) => {
                out.mismatches.push(e);
                return None;
            }
        };
        let mut rec = Steps::default();
        let stats = self.round(t, ROUND_STEPS, Writer::Traced(&mut reps), &mut rec, out);
        let want = self.traces[t].final_fp;
        let fps = reps.fingerprints();
        out.check(fps.iter().all(|&f| f == want), || {
            format!("migrate traced: replica fingerprints {fps:x?} != {want:x}")
        });
        let mut c = Counts::new();
        reps.counts(&mut c);
        c.insert("analysis.calls", rec.impact.len() as f64);
        c.insert("analysis.plan_steps", rec.plan_steps as f64);
        c.insert("store.calls", rec.store_calls as f64);
        c.insert("store.lazy_conversions", stats.lazy_conversions as f64);
        c.insert("store.marked_stale", stats.marked_stale as f64);
        c.insert("store.slots_added", stats.slots_added as f64);
        c.insert("store.slots_dropped", stats.slots_dropped as f64);
        Some((rec, stats, c))
    }
}

/// Series names of a step's three calls, untraced and traced.
const PLAIN: [&str; 3] = ["impact", "write", "propagate"];
const TRACED: [&str; 3] = ["traced.impact", "traced.write", "traced.propagate"];

/// Fold one round's step calls into the per-call minima.
fn record_step(mins: &mut Repeats, names: [&'static str; 3], t: usize, rec: &Steps) {
    mins.record(names[0], t, &rec.impact);
    mins.record(names[1], t, &rec.write);
    mins.record(names[2], t, &rec.propagate);
}

/// Each step's time: the sum of its three calls' minima.
fn step_minima(mins: &Repeats, names: [&str; 3]) -> Vec<u64> {
    let [impact, write, propagate] = names.map(|n| mins.pooled(n));
    (0..impact.len())
        .map(|i| impact[i] + write[i] + propagate[i])
        .collect()
}

impl Workload for Migrate {
    fn run(&self, pace: &Pace, out: &mut Outcome) {
        self.warm_up(out);
        let mut mins = Repeats::default();
        let mut first_stats = Vec::new();
        'repeats: for r in 0..REPEATS {
            for t in 0..TRACES {
                if !pace.next(r * TRACES + t, REPEATS * TRACES, out) {
                    break 'repeats;
                }
                let Some(rec) = self.plain_round(t, &mut first_stats, out) else {
                    return;
                };
                record_step(&mut mins, PLAIN, t, &rec);
                mins.record("get", t, &rec.get);
            }
        }
        let (step, get) = (step_minima(&mins, PLAIN), mins.pooled("get"));
        out.aliased(
            "call_p50_us",
            "migrate_step_p50_ms",
            pct(&step, 0.5) / US,
            "us",
        );
        out.shown("migrate_step_p95_ms", pct(&step, 0.95) / US, "us");
        out.shown("get_p50_us", pct(&get, 0.5) / US, "us");
        out.shown("get_p99_us", pct(&get, 0.99) / US, "us");
        // Closed-loop throughput: one client waits on every call in turn.
        let per_s = (step.len() * BATCH) as f64 / ((sum(&step) + sum(&get)) / 1e9);
        out.aliased("ops_per_s", "migrated_ops_per_s", per_s, "1/s");
        out.notes.push(format!(
            "samples: {} steps and {} gets, minimum of each over {REPEATS} rounds of each of {TRACES} traces of {ROUND_STEPS} steps",
            step.len(),
            get.len()
        ));
    }

    /// Each pass runs every trace untraced (the reference the layers are
    /// compared with), then on lockstep replicas; both go through the same
    /// per-call minimum. Every traced round's propagation stats must equal
    /// the untraced rounds' of the same trace.
    fn run_traced(&self, pace: &Pace, out: &mut Outcome) -> BTreeMap<&'static str, f64> {
        self.warm_up(out);
        let mut mins = Repeats::default();
        let mut first_stats = Vec::new();
        let mut first_counts: Option<Counts> = None;
        'repeats: for r in 0..TRACED_REPEATS {
            let mut counts = Counts::new();
            let mut gets = 0;
            for t in 0..TRACES {
                if !pace.next(r * TRACES + t, TRACED_REPEATS * TRACES, out) {
                    break 'repeats;
                }
                let Some(plain) = self.plain_round(t, &mut first_stats, out) else {
                    return BTreeMap::new();
                };
                record_step(&mut mins, PLAIN, t, &plain);
                let Some((rec, stats, c)) = self.traced_round(t, out) else {
                    return BTreeMap::new();
                };
                let untraced = first_stats[t];
                out.check(stats == untraced, || {
                    format!("migrate: traced propagation stats {stats:?} != untraced {untraced:?}")
                });
                for (k, v) in c {
                    *counts.entry(k).or_default() += v;
                }
                gets += rec.get.len();
                record_writes(&mut mins, t, &rec.writes);
                record_step(&mut mins, TRACED, t, &rec);
                mins.record("interface", t, &rec.interface);
            }
            let conversions = counts["store.lazy_conversions"];
            counts.insert(
                "store.conversions_per_read",
                conversions / gets.max(1) as f64,
            );
            repeat_counts(&mut first_counts, counts, "migrate", out);
        }

        let mut m = first_counts.unwrap_or_default();
        write_layers(&mins, &mut m);
        let (impact, propagate) = (mins.pooled(TRACED[0]), mins.pooled(TRACED[2]));
        let step = step_minima(&mins, TRACED);
        let untraced_p50 = pct(&step_minima(&mins, PLAIN), 0.5);
        m.insert("analysis.impact_ms", pct(&impact, 0.5) / MS);
        m.insert("store.propagate_ms", pct(&propagate, 0.5) / MS);
        m.insert(
            "model.interface_us",
            pct(&mins.pooled("interface"), 0.5) / US,
        );
        let attributed = sum(&impact) + sum(&propagate) + write_attributed(&mins);
        m.insert("unattributed_share", 1.0 - attributed / sum(&step));
        m.insert("trace_overhead_share", pct(&step, 0.5) / untraced_p50 - 1.0);
        let share = (pct(&impact, 0.5) + pct(&propagate, 0.5)) / untraced_p50;
        out.notes.push(format!(
            "layer check: (analysis.impact_ms + store.propagate_ms) / migrate_step_p50_ms = {share:.3} (expected >= 0.5)"
        ));
        out.notes.push(format!(
            "traced samples: {} steps, minimum of each over {TRACED_REPEATS} passes, each beside an untraced round",
            step.len()
        ));
        m
    }
}
