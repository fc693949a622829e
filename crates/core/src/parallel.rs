//! Parallel execution of certified evolution plans.
//!
//! [`Schema::apply_plan`] makes the PR5/PR6 static certificates *pay*:
//! it runs each stage of an [`EvolutionPlan`] by evolving every class on
//! its own copy-on-write clone of the master schema (concurrently over
//! scoped threads when more than one worker is available), running each
//! class's **scoped derivation pass on its own replica** — so the
//! dominant cost of evolution parallelizes with the stage — and then
//! merging back into the master exactly the slots each class's
//! certificate claims to write plus the derived rows over its certified
//! reach. The master pays no derivation pass of its own, only a
//! reverse-index rebuild for stages that rewired edges.
//!
//! Trust boundary: the executor never trusts the planner. Before
//! touching the schema it re-verifies the certificate with
//! [`plan::check`] — an independent checker that recomputes every
//! footprint from the symbolic shadow — and refuses (with
//! [`SchemaError::PlanRejected`]) any plan that fails. The merge then
//! relies only on checker-verified facts: intra-stage classes write
//! pairwise disjoint slots (so slot copies cannot clobber each other),
//! claims cover real footprints (so no effect escapes the merge),
//! reaches are pairwise disjoint (so each class's locally derived rows
//! equal what a post-merge recomputation would produce), and every
//! interfering pair keeps trace order (so the staged result equals the
//! sequential one).
//!
//! Determinism: the executor *always* evolves classes on clones and
//! merges in certificate order — even with one worker — and detaches the
//! observer from the clones, so metrics snapshots, fingerprints, and
//! version counters are identical for every thread count and for any
//! shuffle of a stage's classes.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::analysis::plan::{self, EvolutionPlan, PlanClass, Slot};
use crate::engine::{self, BatchState, ChangeKind};
use crate::error::{Result, SchemaError};
use crate::history::RecordedOp;
use crate::ids::{PropId, TypeId};
use crate::model::Schema;
use crate::spine::Spine;

/// Outcome of [`Schema::apply_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanApply {
    /// Operations successfully applied.
    pub applied: usize,
    /// Stages executed.
    pub stages: usize,
    /// Classes executed.
    pub classes: usize,
    /// Widest stage of the plan (the parallelism ceiling).
    pub max_parallelism: usize,
    /// Worker cap actually used.
    pub threads: usize,
}

/// One class evolved — ops applied *and* scoped derivation run — on a
/// private clone.
struct ClassRun {
    local: Schema,
    kind: ChangeKind,
    applied: usize,
    /// Version bumps the class's ops performed (idempotent ops bump
    /// conditionally, so this is not simply `applied`).
    version_delta: u64,
}

/// Evolve one class's ops, in trace order, on a fresh clone of `master`,
/// then run the class's scoped derivation pass **locally** on the clone.
/// The clone's observer is detached (worker-side effects must not skew
/// shared metrics); its `rev` index is maintained by the ops themselves,
/// exactly as in a plain batch, so the local derivation sees a
/// consistent lattice. Running derivation here — instead of once on the
/// master after the merge — is what lets a wide stage parallelize the
/// dominant cost of evolution: each worker derives only its own class's
/// certified reach, concurrently.
fn run_class(master: &Schema, ops: &[RecordedOp], class: &PlanClass) -> Result<ClassRun> {
    let mut local = master.clone();
    local.detach_obs();
    local.batch = Some(BatchState::new());
    let v0 = local.version();
    let mut applied = 0usize;
    for &i in &class.ops {
        ops[i].apply(&mut local)?;
        applied += 1;
    }
    let st = local.batch.take().expect("batch installed above");
    let version_delta = local.version() - v0;
    if st.dirty {
        let seeds: Vec<TypeId> = st.seeds.iter().collect();
        engine::recompute_after_many(&mut local, &seeds, st.kind);
    }
    Ok(ClassRun {
        local,
        kind: st.kind,
        applied,
        version_delta,
    })
}

/// The shared handle of `spine[i]`, for adopting a record below `len`.
fn shared<T>(spine: &Spine<T>, i: usize) -> Arc<T> {
    Arc::clone(spine.get_arc(i).expect("index below len"))
}

/// Adopt `src[i]` as `dst[i]` (a refcount bump) when both hold index `i`.
fn adopt<T>(dst: &mut Spine<T>, src: &Spine<T>, i: usize) -> bool {
    let fits = i < src.len() && i < dst.len();
    if fits {
        dst.set(None, i, shared(src, i));
    }
    fits
}

impl Schema {
    /// Carry one merged type slot's liveness into the master's dense
    /// `live` bitset (the word-iterable twin of the per-slot flags).
    fn sync_live_type(&mut self, i: usize, local: &Schema) {
        let t = TypeId::from_index(i);
        if local.types[i].alive {
            self.live.insert(t);
        } else {
            self.live.remove(t);
        }
    }

    /// Ditto for one merged property record.
    fn sync_live_prop(&mut self, i: usize, local: &Schema) {
        let p = PropId::from_index(i);
        if local.props[i].alive {
            self.live_props.insert(p);
        } else {
            self.live_props.remove(p);
        }
    }

    /// Copy a finished class's effects into `self`. Sound because the
    /// checker proved the claimed write slots cover the class's real
    /// writes and are disjoint from every stage-mate's claims. Arena
    /// growth (at most one class per stage per arena — the allocation
    /// cursor is a claimed slot) is merged as a tail extension first so
    /// newly allocated indexes resolve. Derived rows and the reverse
    /// index are *not* trusted from the clone beyond the tail: the stage
    /// merge rebuilds/rederives them on the master.
    ///
    /// Merge copies are bookkeeping, not evolution cost, so the spines are
    /// written without an observer: they never count as
    /// `engine.cow_copies`.
    fn merge_class_run(&mut self, run: &ClassRun, class: &PlanClass) {
        let local = &run.local;
        if local.types.len() > self.types.len() {
            for i in self.types.len()..local.types.len() {
                self.types.push(None, shared(&local.types, i));
                self.derived.push(None, shared(&local.derived, i));
                self.rev.push(None, shared(&local.rev, i));
                self.sync_live_type(i, local);
            }
        }
        if local.props.len() > self.props.len() {
            for i in self.props.len()..local.props.len() {
                self.props.push(None, shared(&local.props, i));
                self.sync_live_prop(i, local);
            }
        }
        for slot in &class.writes {
            match slot {
                Slot::Type(i) => {
                    if adopt(&mut self.types, &local.types, *i) {
                        self.sync_live_type(*i, local);
                    }
                }
                Slot::Prop(i) => {
                    if adopt(&mut self.props, &local.props, *i) {
                        self.sync_live_prop(*i, local);
                    }
                }
                Slot::Name(name) => match local.by_name.get(name) {
                    Some(id) => {
                        self.by_name.insert(None, name.clone(), id);
                    }
                    None => {
                        self.by_name.remove(None, name);
                    }
                },
                Slot::Root => self.root = run.local.root,
                Slot::Base => self.base = run.local.base,
                // Arena cursors are the tail extensions above; the cycle
                // guard has no materialised state.
                Slot::TypeArena | Slot::PropArena | Slot::CycleGuard => {}
            }
        }
        // Adopt the derived rows the class's local derivation pass
        // produced, over exactly its certified reach. Sound because the
        // checker proved (a) the claimed reach covers every row the
        // class's derivation visits, and (b) stage-mates' reaches are
        // pairwise disjoint — so each merged row depends only on slots
        // this class wrote or nobody in the stage wrote, and equals the
        // row a post-merge master recomputation would produce. Rows are
        // `Arc`s, so adoption is a pointer bump, not a copy.
        for i in class.reach.iter() {
            adopt(&mut self.derived, &local.derived, i);
        }
    }

    /// Execute a certified parallel plan over `ops`.
    ///
    /// The certificate is first re-verified before anything executes; a
    /// plan that fails returns [`SchemaError::PlanRejected`] with the
    /// schema untouched. Verification effort is proportional to the
    /// parallelism the plan claims: a trivially sequential certificate
    /// (one class, whole trace, trace order — see
    /// [`plan::check_sequential`]) reorders nothing and its footprint
    /// claims are never consulted, so it is admitted on the O(n)
    /// structural obligation alone and executed as one in-place batch —
    /// the same cost as [`Schema::apply_trace`]. Anything claiming real
    /// structure goes through the full [`plan::check`] footprint
    /// re-derivation. Each parallel stage then runs its classes —
    /// op application *and* the class's scoped derivation pass — on
    /// private clones (round-robin over at most `threads` scoped workers
    /// — defaulting to the machine's available parallelism), collects
    /// **all** class results before merging any (a failing class leaves
    /// the stage unapplied), and merges claimed slots and reach-covered
    /// derived rows in certificate order.
    ///
    /// Called mid-`evolve_batch` the plan degenerates to a sequential
    /// stage-ordered replay joining the outer batch (clones would
    /// finalize the outer batch prematurely).
    ///
    /// Results — fingerprint, version, and metrics — are identical to
    /// [`Schema::apply_trace`] on the same trace and identical across
    /// thread counts. On a rejected op, previously merged stages remain
    /// applied (mirroring the applied-prefix semantics of
    /// [`Schema::apply_trace`]); wrap in
    /// [`SharedSchema::apply_plan`](crate::SharedSchema::apply_plan) for
    /// all-or-nothing publication.
    pub fn apply_plan(
        &mut self,
        ops: &[RecordedOp],
        plan: &EvolutionPlan,
        threads: Option<usize>,
    ) -> Result<PlanApply> {
        let sequential = plan::check_sequential(ops.len(), &plan.certificate);
        let verdict = match sequential {
            Some(v) => v,
            None => match plan::check(self, ops, &plan.certificate) {
                Ok(v) => v,
                Err(why) => {
                    if let Some(obs) = self.obs() {
                        obs.registry().add(crate::obs::names::PLAN_CHECKS_FAILED, 1);
                    }
                    return Err(SchemaError::PlanRejected(why));
                }
            },
        };
        if let Some(obs) = self.obs() {
            obs.registry().fold_plan_check(&verdict);
        }
        if sequential.is_some() && self.batch.is_none() {
            // Trivially sequential plan: the schedule is the recorded
            // serialization, so run it as one in-place batch — no clone,
            // no slot merge, no footprint claims consulted.
            let mut applied = 0usize;
            self.evolve_batch(|s| {
                for op in ops {
                    op.apply(s)?;
                    applied += 1;
                }
                Ok(())
            })?;
            if let Some(obs) = self.obs() {
                obs.registry().add(crate::obs::names::PLAN_APPLIES, 1);
                obs.registry()
                    .add(crate::obs::names::PLAN_OPS, applied as u64);
            }
            return Ok(PlanApply {
                applied,
                stages: verdict.stages,
                classes: verdict.classes,
                max_parallelism: verdict.max_parallelism,
                threads: 1,
            });
        }
        let cert = &plan.certificate;
        let table = cert.stage_table();

        if self.batch.is_some() {
            // Joining an outer batch: sequential stage-ordered replay.
            let mut applied = 0usize;
            for stage in &table {
                for &ci in stage {
                    for &i in &cert.classes[ci].ops {
                        ops[i].apply(self)?;
                        applied += 1;
                    }
                }
            }
            if let Some(obs) = self.obs() {
                obs.registry().add(crate::obs::names::PLAN_APPLIES, 1);
                obs.registry()
                    .add(crate::obs::names::PLAN_OPS, applied as u64);
            }
            return Ok(PlanApply {
                applied,
                stages: verdict.stages,
                classes: verdict.classes,
                max_parallelism: verdict.max_parallelism,
                threads: 1,
            });
        }

        let threads = threads
            .or_else(|| {
                std::thread::available_parallelism()
                    .ok()
                    .map(std::num::NonZero::get)
            })
            .unwrap_or(1)
            .max(1);
        let mut total_applied = 0usize;
        for stage in &table {
            // Run every class of the stage to completion before merging
            // anything: the stage is all-or-nothing on the master.
            let runs: Vec<Result<ClassRun>> = if threads == 1 || stage.len() <= 1 {
                stage
                    .iter()
                    .map(|&ci| run_class(self, ops, &cert.classes[ci]))
                    .collect()
            } else {
                let workers = threads.min(stage.len());
                let master: &Schema = &*self;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            let mine: Vec<usize> =
                                stage.iter().copied().skip(w).step_by(workers).collect();
                            scope.spawn(move || {
                                mine.into_iter()
                                    .map(|ci| (ci, run_class(master, ops, &cert.classes[ci])))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    let mut by_class: BTreeMap<usize, Result<ClassRun>> = BTreeMap::new();
                    for handle in handles {
                        for (ci, run) in handle.join().expect("plan worker panicked") {
                            by_class.insert(ci, run);
                        }
                    }
                    stage
                        .iter()
                        .map(|ci| by_class.remove(ci).expect("every class ran"))
                        .collect()
                })
            };
            let mut stage_runs: Vec<ClassRun> = Vec::with_capacity(runs.len());
            for run in runs {
                stage_runs.push(run?);
            }

            // Merge in certificate order (disjoint claims make the order
            // irrelevant for state; fixing it keeps everything bitwise
            // deterministic). Derivation already happened inside each
            // class's replica — the merge adopts those rows over the
            // certified reaches — so the master pays no derivation pass
            // here, only a reverse-index rebuild when a class rewired
            // edges.
            let mut kind = ChangeKind::PropsOnly;
            let mut stage_applied = 0usize;
            let mut stage_version = 0u64;
            for (slot_idx, run) in stage_runs.iter().enumerate() {
                let class = &cert.classes[stage[slot_idx]];
                self.merge_class_run(run, class);
                if run.kind == ChangeKind::Edges {
                    kind = ChangeKind::Edges;
                }
                stage_applied += run.applied;
                stage_version += run.version_delta;
            }
            drop(stage_runs);
            self.version += stage_version;
            if kind == ChangeKind::Edges {
                self.rebuild_subtype_index();
            }
            total_applied += stage_applied;
        }

        if let Some(obs) = self.obs() {
            obs.registry().add(crate::obs::names::PLAN_APPLIES, 1);
            obs.registry()
                .add(crate::obs::names::PLAN_OPS, total_applied as u64);
        }
        Ok(PlanApply {
            applied: total_applied,
            stages: verdict.stages,
            classes: verdict.classes,
            max_parallelism: verdict.max_parallelism,
            threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::plan::build_plan;
    use crate::analysis::{analyze_trace, plan::PlanCertificate};
    use crate::config::LatticeConfig;
    use crate::obs::{EvolveObs, MetricsRegistry};

    /// A lattice with four disjoint diamonds, each contributing one
    /// redundant-edge drop: four slot- and reach-disjoint classes in one
    /// stage.
    fn four_diamonds() -> (Schema, Vec<RecordedOp>) {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let mut ops = Vec::new();
        for d in 0..4 {
            let p1 = s.add_type(format!("p1_{d}"), [], []).unwrap();
            let p2 = s.add_type(format!("p2_{d}"), [], []).unwrap();
            let c = s.add_type(format!("c_{d}"), [p1, p2], []).unwrap();
            ops.push(RecordedOp::DropEssentialSupertype { t: c, s: p1 });
        }
        (s, ops)
    }

    fn plan_for(s: &Schema, ops: &[RecordedOp]) -> EvolutionPlan {
        build_plan(&analyze_trace(s, ops))
    }

    #[test]
    fn plan_apply_matches_sequential_for_all_thread_counts() {
        let (seq, ops) = four_diamonds();
        let mut sequential = seq.clone();
        sequential.apply_trace(&ops).unwrap();
        for threads in [None, Some(1), Some(2), Some(4), Some(9)] {
            let (mut s, _) = four_diamonds();
            let plan = plan_for(&s, &ops);
            assert_eq!(plan.stage_count(), 1, "{}", plan.to_text());
            assert_eq!(plan.max_parallelism(), 4);
            let done = s.apply_plan(&ops, &plan, threads).unwrap();
            assert_eq!(done.applied, 4);
            assert_eq!(done.classes, 4);
            assert_eq!(
                s.canonical_fingerprint(),
                sequential.canonical_fingerprint()
            );
            assert_eq!(s.version(), sequential.version());
            assert!(s.verify().is_empty());
        }
    }

    #[test]
    fn sequential_plan_fast_path_matches_batched_apply() {
        // Every pair of toggles on one edge conflicts → the planner
        // emits a single whole-trace class, which the executor admits on
        // the structural obligation alone and runs as one in-place batch.
        let (s, _) = four_diamonds();
        let t = s.type_by_name("c_0").unwrap();
        let p2 = s.type_by_name("p2_0").unwrap();
        let ops: Vec<RecordedOp> = (0..6)
            .map(|k| {
                if k % 2 == 0 {
                    RecordedOp::DropEssentialSupertype { t, s: p2 }
                } else {
                    RecordedOp::AddEssentialSupertype { t, s: p2 }
                }
            })
            .collect();
        let mut sequential = s.clone();
        sequential.apply_trace(&ops).unwrap();
        let plan = plan_for(&s, &ops);
        assert_eq!(plan.class_count(), 1, "{}", plan.to_text());
        assert!(
            plan::check_sequential(ops.len(), &plan.certificate).is_some(),
            "whole-trace single class must qualify for the fast path"
        );
        let mut fast = s.clone();
        let done = fast.apply_plan(&ops, &plan, Some(4)).unwrap();
        assert_eq!(done.applied, ops.len());
        assert_eq!((done.stages, done.classes, done.threads), (1, 1, 1));
        assert_eq!(
            fast.canonical_fingerprint(),
            sequential.canonical_fingerprint()
        );
        assert_eq!(fast.version(), sequential.version());
        assert!(fast.verify().is_empty());

        // A structurally broken "sequential" certificate does not
        // qualify and is refused by the full checker, schema untouched.
        let mut bad = plan.clone();
        bad.certificate.classes[0].ops.swap(0, 1);
        assert!(plan::check_sequential(ops.len(), &bad.certificate).is_none());
        let mut s2 = s.clone();
        let before = (s2.canonical_fingerprint(), s2.version());
        let err = s2.apply_plan(&ops, &bad, Some(2)).unwrap_err();
        assert!(matches!(err, SchemaError::PlanRejected(_)), "{err}");
        assert_eq!((s2.canonical_fingerprint(), s2.version()), before);
    }

    #[test]
    fn plan_apply_handles_interference_and_allocation() {
        // Mixed trace: allocation, property churn and same-row edits —
        // multiple stages, arena growth merged through the executor.
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let a = s.add_type("a", [], []).unwrap();
        let b = s.add_type("b", [], []).unwrap();
        let c = s.add_type("c", [a, b], []).unwrap();
        let p = s.add_property("x");
        let ops = vec![
            RecordedOp::AddProperty { name: "y".into() },
            RecordedOp::AddType {
                name: "t_new".into(),
                supers: vec![a],
                props: vec![],
            },
            RecordedOp::AddEssentialProperty { t: c, p },
            RecordedOp::DropEssentialProperty { t: c, p },
            RecordedOp::RenameType {
                t: b,
                name: "b2".into(),
            },
        ];
        let mut sequential = s.clone();
        sequential.apply_trace(&ops).unwrap();
        for threads in [1, 3] {
            let mut par = s.clone();
            let plan = plan_for(&par, &ops);
            let done = par.apply_plan(&ops, &plan, Some(threads)).unwrap();
            assert_eq!(done.applied, ops.len());
            assert_eq!(
                par.canonical_fingerprint(),
                sequential.canonical_fingerprint(),
                "{}",
                plan.to_text()
            );
            assert_eq!(par.version(), sequential.version());
            assert!(par.verify().is_empty());
        }
    }

    #[test]
    fn tampered_certificate_is_refused_untouched() {
        let (mut s, ops) = four_diamonds();
        let plan = plan_for(&s, &ops);
        let before_fp = s.canonical_fingerprint();
        let before_v = s.version();
        // Tamper: claim op 0 twice.
        let mut bad = EvolutionPlan {
            certificate: PlanCertificate {
                ops_len: plan.certificate.ops_len,
                classes: plan.certificate.classes.clone(),
                edges: vec![],
            },
            type_labels: plan.type_labels.clone(),
            prop_labels: plan.prop_labels.clone(),
        };
        bad.certificate.classes[1].ops = vec![0];
        let err = s.apply_plan(&ops, &bad, Some(2)).unwrap_err();
        assert!(matches!(err, SchemaError::PlanRejected(_)), "{err}");
        assert_eq!(s.canonical_fingerprint(), before_fp);
        assert_eq!(s.version(), before_v);
    }

    #[test]
    fn metrics_are_identical_across_thread_counts() {
        let snapshots: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                let registry = Arc::new(MetricsRegistry::new());
                let obs = Arc::new(EvolveObs::new(registry.clone()));
                let (mut s, ops) = four_diamonds();
                s.attach_obs(obs);
                let plan = plan_for(&s, &ops);
                s.apply_plan(&ops, &plan, Some(threads)).unwrap();
                registry.snapshot()
            })
            .collect();
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[1], snapshots[2]);
        assert_eq!(
            snapshots[0].counters.get(crate::obs::names::PLAN_CHECKS),
            Some(&1)
        );
        assert_eq!(
            snapshots[0].counters.get(crate::obs::names::PLAN_APPLIES),
            Some(&1)
        );
        assert_eq!(
            snapshots[0].counters.get(crate::obs::names::PLAN_OPS),
            Some(&4)
        );
    }

    #[test]
    fn mid_batch_plan_joins_outer_batch() {
        let (mut s, ops) = four_diamonds();
        let mut sequential = s.clone();
        sequential.apply_trace(&ops).unwrap();
        let plan = plan_for(&s, &ops);
        s.evolve_batch(|inner| {
            let done = inner.apply_plan(&ops, &plan, Some(4))?;
            assert_eq!(done.applied, 4);
            assert_eq!(done.threads, 1, "mid-batch must stay sequential");
            Ok(())
        })
        .unwrap();
        assert_eq!(
            s.canonical_fingerprint(),
            sequential.canonical_fingerprint()
        );
        assert!(s.verify().is_empty());
    }

    #[test]
    fn rejected_op_leaves_stage_unapplied() {
        let (mut s, mut ops) = four_diamonds();
        let plan = plan_for(&s, &ops);
        // Invalidate one class's op after planning: dropping the same
        // edge twice fails on the second schema state — here we instead
        // point one drop at a nonexistent edge by reusing another type.
        let before_fp = s.canonical_fingerprint();
        if let RecordedOp::DropEssentialSupertype { t, .. } = &mut ops[2] {
            // Drop an edge that does not exist: c_2 -> p1_0's partner is
            // wrong on purpose.
            *t = TypeId::from_index(1);
        }
        // The certificate no longer matches the mutated trace, so the
        // checker itself must refuse — the schema stays untouched.
        let err = s.apply_plan(&ops, &plan, Some(2)).unwrap_err();
        assert!(matches!(err, SchemaError::PlanRejected(_)), "{err}");
        assert_eq!(s.canonical_fingerprint(), before_fp);
    }
}
