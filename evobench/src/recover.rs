//! `recover`: restart and time travel.
//!
//! Set-up writes journals whose tip is 255 ops past the newest
//! checkpoint, the worst case under the default cadence of 256. The loop
//! repeats `JournaledSchema::open` (strict) and `open_at(s)` with `s`
//! cycling over fixed sequence numbers in (checkpoint, tip]: checkpoint
//! parse plus op-by-op replay, with no version copy per op and no store.

use crate::common::{
    base_schema, mean, ns, pct, repeat_counts, sub_seeds, sum, trace_of, Counts, Outcome, Pace,
    Repeats, DIR, MS, STEADY, US,
};
use crate::io::{Call, CountingIo, IoCounts};
use crate::Workload;
use axiombase_core::journal::io::{JournalIo, MemIo};
use axiombase_core::journal::wire::{crc32, read_frame, FrameResult, WAL_MAGIC};
use axiombase_core::obs::names;
use axiombase_core::{
    EvolveObs, JournalOptions, JournaledSchema, MetricsRegistry, RecordedOp, RecoveryMode, Schema,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Ops in the journal: one full checkpoint interval, then 255 more.
const CHECKPOINT_SEQ: u64 = 256;
const TIP_SEQ: u64 = CHECKPOINT_SEQ + 255;
/// `open_at` targets: eight evenly spaced sequence numbers ending at the tip.
const OPEN_AT_STRIDE: u64 = 32;

/// Journals per run, each from its own trace; every round opens each once.
/// A round takes about a fifth of a second, short enough that one fast
/// spell of the host covers every call of it.
const JOURNALS: usize = 16;
/// Rounds in the untraced run, and passes in the traced run.
const REPEATS: usize = 70;
const TRACED_REPEATS: usize = 16;

/// One journal in its own in-memory filesystem.
struct Written {
    io: Arc<MemIo>,
    tip_fp: u64,
    /// `(seq, fingerprint of the owned replay of the prefix ending at seq)`.
    targets: Vec<(u64, u64)>,
}

pub struct Recover {
    journals: Vec<Written>,
}

fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq:016x}.axb")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:016x}.log")
}

pub fn setup(seed: u64) -> Recover {
    let base = base_schema();
    Recover {
        journals: sub_seeds(seed, JOURNALS)
            .into_iter()
            .map(|s| write(&base, s))
            .collect(),
    }
}

/// A journal whose newest checkpoint is at [`CHECKPOINT_SEQ`] and whose
/// WAL holds the next 255 ops: the files the default cadence leaves after
/// 511 single-op commits, written with one checkpoint and one batch.
fn write(base: &Schema, seed: u64) -> Written {
    let ops = trace_of(base, TIP_SEQ as usize, STEADY, seed);
    let (head, tail) = ops.split_at(CHECKPOINT_SEQ as usize);
    let mut at_checkpoint = base.clone();
    at_checkpoint
        .apply_trace(head)
        .expect("a generated trace replays");
    let io = Arc::new(MemIo::new());
    let js = JournaledSchema::create_at(
        Path::new(DIR),
        io.clone(),
        at_checkpoint.clone(),
        CHECKPOINT_SEQ,
        JournalOptions::default(),
    )
    .expect("fresh in-memory journal");
    js.apply_trace(tail).expect("a generated trace replays");
    assert_eq!(js.seq(), TIP_SEQ);
    drop(js);
    let mut files = io.list(Path::new(DIR)).expect("journal dir");
    files.sort();
    assert_eq!(
        files,
        [checkpoint_name(CHECKPOINT_SEQ), wal_name(CHECKPOINT_SEQ)],
        "tip is 255 ops past the only checkpoint"
    );

    let mut owned = at_checkpoint;
    let mut targets = Vec::new();
    for (seq, op) in (CHECKPOINT_SEQ + 1..).zip(tail) {
        op.apply(&mut owned).expect("a generated trace replays");
        if (seq - CHECKPOINT_SEQ).is_multiple_of(OPEN_AT_STRIDE) || seq == TIP_SEQ {
            targets.push((seq, owned.fingerprint()));
        }
    }
    Written {
        io,
        tip_fp: owned.fingerprint(),
        targets,
    }
}

/// Open + `open_at` pairs per round: every journal once, the 8 targets
/// each used equally often.
const ROUND_PAIRS: usize = JOURNALS;

/// The journal and `open_at` target of pair `i` of a round.
fn pair(i: usize) -> (usize, usize) {
    (i, i % 8)
}

#[derive(Default)]
struct Round {
    recover: Vec<u64>,
    open_at: Vec<u64>,
}

/// What the outside replica of one recovery measured, in nanoseconds.
struct Replica {
    checkpoint_load: u64,
    parse: u64,
    wal_read: u64,
    decode: Vec<u64>,
    replay: u64,
}

impl Written {
    fn check_open(&self, js: &JournaledSchema, seq: u64, out: &mut Outcome) {
        let fp = js.snapshot().fingerprint();
        out.check(seq == TIP_SEQ && fp == self.tip_fp, || {
            format!(
                "recover: open gave seq {seq} fingerprint {fp:x}, tip is {TIP_SEQ} {:x}",
                self.tip_fp
            )
        });
    }

    fn open_at(&self, js: &JournaledSchema, target: usize, rec: &mut Round, out: &mut Outcome) {
        let (seq, want) = self.targets[target];
        let t = Instant::now();
        let r = js.open_at(seq);
        rec.open_at.push(ns(t.elapsed()));
        out.call(&r);
        if let Ok(schema) = r {
            let fp = schema.fingerprint();
            out.check(fp == want, || {
                format!("recover: open_at({seq}) fingerprint {fp:x} != owned prefix {want:x}")
            });
        }
    }

    /// Recovery done again from outside with public pieces: read and
    /// checksum the checkpoint, parse it, read the WAL, decode each frame,
    /// and apply the ops one by one, as `Journal::open` does.
    fn replica(&self) -> Result<Replica, String> {
        let dir = Path::new(DIR);
        let t = Instant::now();
        let data = self
            .io
            .read(&dir.join(checkpoint_name(CHECKPOINT_SEQ)))
            .map_err(|e| format!("recover replica: read checkpoint: {e}"))?;
        let text = std::str::from_utf8(&data).map_err(|e| format!("recover replica: {e}"))?;
        let (header, body) = text
            .split_once('\n')
            .ok_or("recover replica: checkpoint has no header")?;
        let crc = header.rsplit(' ').next().unwrap_or_default();
        if u32::from_str_radix(crc, 16).ok() != Some(crc32(&[body.as_bytes()])) {
            return Err("recover replica: checkpoint checksum".into());
        }
        let p = Instant::now();
        let parsed = Schema::from_snapshot(body);
        let parse = ns(p.elapsed());
        let checkpoint_load = ns(t.elapsed());
        let mut schema = parsed.map_err(|e| format!("recover replica: parse: {e}"))?;

        let t = Instant::now();
        let wal = self
            .io
            .read(&dir.join(wal_name(CHECKPOINT_SEQ)))
            .map_err(|e| format!("recover replica: read wal: {e}"))?;
        let wal_read = ns(t.elapsed());
        let mut ops: Vec<RecordedOp> = Vec::new();
        let mut decode = Vec::new();
        let mut off = WAL_MAGIC.len();
        loop {
            let t = Instant::now();
            let frame = read_frame(&wal, off);
            let d = ns(t.elapsed());
            match frame {
                FrameResult::Record(f) => {
                    decode.push(d);
                    off = f.next;
                    ops.push(f.op);
                }
                FrameResult::End => break,
                other => return Err(format!("recover replica: bad frame {other:?}")),
            }
        }
        let t = Instant::now();
        for op in &ops {
            op.apply(&mut schema)
                .map_err(|e| format!("recover replica: replay: {e}"))?;
        }
        let replay = ns(t.elapsed());
        let fp = schema.fingerprint();
        if fp != self.tip_fp {
            return Err(format!(
                "recover replica: fingerprint {fp:x} != tip {:x}",
                self.tip_fp
            ));
        }
        Ok(Replica {
            checkpoint_load,
            parse,
            wal_read,
            decode,
            replay,
        })
    }
}

impl Recover {
    /// Open the journal of pair `i`, then time-travel it to the pair's target.
    fn open_pair(&self, i: usize, rec: &mut Round, out: &mut Outcome) {
        let (j, target) = pair(i);
        let w = &self.journals[j];
        let t = Instant::now();
        let r = JournaledSchema::open(
            Path::new(DIR),
            w.io.clone(),
            RecoveryMode::Strict,
            JournalOptions::default(),
        );
        rec.recover.push(ns(t.elapsed()));
        out.call(&r);
        let Ok((js, report)) = r else { return };
        w.check_open(&js, report.seq, out);
        w.open_at(&js, target, rec, out);
    }

    fn round(&self, out: &mut Outcome) -> Round {
        let mut rec = Round::default();
        for i in 0..ROUND_PAIRS {
            self.open_pair(i, &mut rec, out);
        }
        rec
    }

    fn warm_up(&self, out: &mut Outcome) {
        let mut scratch = Outcome::default();
        for i in 0..JOURNALS {
            self.open_pair(i, &mut Round::default(), &mut scratch);
        }
        out.mismatches.append(&mut scratch.mismatches);
    }

    /// Ops one round replays: 255 per open, `s - checkpoint` per `open_at(s)`.
    fn replayed_per_round(&self) -> u64 {
        (0..ROUND_PAIRS)
            .map(|i| {
                let (j, target) = pair(i);
                let (seq, _) = self.journals[j].targets[target];
                (TIP_SEQ - CHECKPOINT_SEQ) + (seq - CHECKPOINT_SEQ)
            })
            .sum()
    }
}

impl Workload for Recover {
    fn run(&self, pace: &Pace, out: &mut Outcome) {
        self.warm_up(out);
        let mut mins = Repeats::default();
        for r in 0..REPEATS {
            if !pace.next(r, REPEATS, out) {
                break;
            }
            let rec = self.round(out);
            mins.record("open", 0, &rec.recover);
            mins.record("open_at", 0, &rec.open_at);
        }
        let (open, open_at) = (mins.pooled("open"), mins.pooled("open_at"));
        out.aliased("call_p50_us", "recover_p50_ms", pct(&open, 0.5) / US, "us");
        out.shown("recover_p95_ms", pct(&open, 0.95) / US, "us");
        out.shown("open_at_p50_ms", pct(&open_at, 0.5) / US, "us");
        out.shown("open_at_p95_ms", pct(&open_at, 0.95) / US, "us");
        // Closed-loop throughput: one client waits on every call in turn.
        let busy = sum(&open) + sum(&open_at);
        let per_s = self.replayed_per_round() as f64 / (busy / 1e9);
        out.aliased("ops_per_s", "replayed_ops_per_s", per_s, "1/s");
        out.notes.push(format!(
            "samples: {ROUND_PAIRS} open + open_at pairs over {JOURNALS} journals, minimum of each over {REPEATS} rounds"
        ));
    }

    /// Each pass runs one untraced round (the reference the layers are
    /// compared with), then one traced round with an outside replica of
    /// every recovery; both go through the same per-call minimum.
    fn run_traced(&self, pace: &Pace, out: &mut Outcome) -> BTreeMap<&'static str, f64> {
        self.warm_up(out);
        let mut mins = Repeats::default();
        let mut first_counts: Option<Counts> = None;
        for r in 0..TRACED_REPEATS {
            if !pace.next(r, TRACED_REPEATS, out) {
                break;
            }
            mins.record("plain", 0, &self.round(out).recover);
            let (rec, replicas, counts) = self.traced_round(out);
            if replicas.len() < ROUND_PAIRS {
                break; // a replica failed; its mismatch is recorded
            }
            mins.record("open", 0, &rec.recover);
            let col = |f: fn(&Replica) -> u64| replicas.iter().map(f).collect::<Vec<u64>>();
            mins.record("load", 0, &col(|r| r.checkpoint_load));
            mins.record("parse", 0, &col(|r| r.parse));
            mins.record("wal_read", 0, &col(|r| r.wal_read));
            mins.record("replay", 0, &col(|r| r.replay));
            let decode: Vec<u64> = replicas
                .iter()
                .flat_map(|r| r.decode.iter().copied())
                .collect();
            mins.record("decode", 0, &decode);
            repeat_counts(&mut first_counts, counts, "recover", out);
        }

        let mut m = first_counts.unwrap_or_default();
        let (load, replay) = (mins.pooled("load"), mins.pooled("replay"));
        let open = mins.pooled("open");
        let untraced_p50 = pct(&mins.pooled("plain"), 0.5);
        m.insert("journal.checkpoint_load_ms", pct(&load, 0.5) / MS);
        m.insert("snapshot.parse_ms", pct(&mins.pooled("parse"), 0.5) / MS);
        m.insert("engine.replay_ms", pct(&replay, 0.5) / MS);
        let decode = mins.pooled("decode");
        m.insert("wire.decode_us", pct(&decode, 0.5) / US);
        let covered = mean(&load)
            + mean(&mins.pooled("wal_read"))
            + mean(&replay)
            + sum(&decode) / load.len().max(1) as f64;
        m.insert("unattributed_share", 1.0 - covered / mean(&open));
        m.insert("trace_overhead_share", pct(&open, 0.5) / untraced_p50 - 1.0);
        let share = (pct(&load, 0.5) + pct(&replay, 0.5)) / untraced_p50;
        out.notes.push(format!(
            "layer check: (journal.checkpoint_load_ms + engine.replay_ms) / recover_p50_ms = {share:.3} (expected >= 0.8)"
        ));
        out.notes.push(format!(
            "traced samples: {} opens and replicas, minimum of each over {TRACED_REPEATS} passes, each beside an untraced round",
            open.len()
        ));
        m
    }
}

impl Recover {
    /// One round with every open observed and done again by an outside
    /// replica: the open timings, the replicas, and the round's counts.
    fn traced_round(&self, out: &mut Outcome) -> (Round, Vec<Replica>, Counts) {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Arc::new(EvolveObs::new(Arc::clone(&registry)));
        let cios: Vec<Arc<CountingIo>> = self
            .journals
            .iter()
            .map(|w| Arc::new(CountingIo::new(w.io.clone())))
            .collect();
        let mut rec = Round::default();
        let mut replicas = Vec::with_capacity(ROUND_PAIRS);
        for i in 0..ROUND_PAIRS {
            let (j, target) = pair(i);
            let w = &self.journals[j];
            let t = Instant::now();
            let r = JournaledSchema::open_observed(
                Path::new(DIR),
                cios[j].clone(),
                RecoveryMode::Strict,
                JournalOptions::default(),
                obs.clone(),
            );
            rec.recover.push(ns(t.elapsed()));
            out.call(&r);
            if let Ok((js, report)) = r {
                w.check_open(&js, report.seq, out);
                w.open_at(&js, target, &mut rec, out);
            }
            match w.replica() {
                Ok(r) => replicas.push(r),
                Err(e) => out.mismatches.push(e),
            }
        }
        let mut io = IoCounts::default();
        for c in &cios {
            io.add(&c.counts());
        }
        let mut counts = Counts::new();
        counts.insert("io.appends", io.calls(Call::Append) as f64);
        counts.insert("io.fsyncs", io.calls(Call::Fsync) as f64);
        counts.insert("io.bytes_written", io.bytes_written as f64);
        counts.insert("io.bytes_read", io.bytes_read as f64);
        counts.insert(
            "journal.replayed_ops",
            (registry.get(names::RECOVERY_REPLAYED) + registry.get(names::TIMETRAVEL_REPLAYED_OPS))
                as f64,
        );
        counts.insert(
            "engine.types_derived",
            registry.get(names::ENGINE_TYPES_DERIVED) as f64,
        );
        counts.insert(
            "engine.cow_copies",
            registry.get(names::ENGINE_COW_COPIES) as f64,
        );
        (rec, replicas, counts)
    }
}
