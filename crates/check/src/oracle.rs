//! Cross-engine oracles: what a chaos run is checked *against*.
//!
//! Individual panics and `check-invariants` assertions catch protocol bugs
//! at the moment they fire; the oracles here catch the quieter failure mode
//! where a run completes but computed the wrong thing:
//!
//! * **Quiescence** — after any run, no state word may remain
//!   intermediate or pessimistically locked, and every word must be
//!   well-formed ([`drink_core::word::StateWord::validate`]). Leaks here
//!   mean a lock-buffer flush or coordination hand-off was lost.
//! * **Differential equivalence** — the same seeded workload run under
//!   Pessimistic, Optimistic and Hybrid tracking must perform the same
//!   number of tracked accesses, and for *schedule-independent* specs
//!   (no races, no locks: disjoint write sets plus a read-only shared
//!   region) must produce the byte-identical final heap that an untracked
//!   baseline run produces, with zero conflicting transitions.
//! * **Seqlock reads, the degradation ladder, the serve store** — the same
//!   matrix on the specs built for the validated read path, for the
//!   adaptive policy's demotions, and for the KV store.
//! * **Record/replay** — a recorded run's log, replayed, must reproduce the
//!   recorded final heap exactly (the paper's §7.6 determinism claim).
//! * **Region serializability** — the RS enforcers must complete under
//!   perturbation with `execs > restarts` (every committed region ran at
//!   least once; restarts never livelock), end quiescent, and — for
//!   schedule-independent specs — match the baseline heap, which for
//!   disjoint write sets is precisely the serial-witness check.
//!
//! Every oracle but record/replay runs its cells through one loop,
//! `Oracle::matrix`; quiescence is the cell runner's own check.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use drink_core::word::StateWord;
use drink_runtime::{Event, Runtime, RuntimeConfig, SchedHooks, StatsReport, ThreadTrace};
use drink_serve::{chaos_serve, run_serve, ServeConfig};
use drink_workloads::{record_on, replay, run_kind, runtime_config_for, EngineKind, WorkloadSpec};

use crate::artifact::FailureArtifact;
use crate::harness::{self, Subject, MATRIX_ENGINES, RS_ENGINES};

/// Is `spec`'s final heap independent of thread interleaving? True when
/// threads share data only through the read-only region: no racy accesses
/// and no critical sections (every written object is thread-private).
pub fn schedule_independent(spec: &WorkloadSpec) -> bool {
    spec.racy_frac == 0.0 && spec.locked_frac == 0.0
}

/// Post-run heap scan: every state word well-formed and quiescent.
pub fn check_quiescent(rt: &Runtime, label: &str) -> Result<(), String> {
    for (id, obj) in rt.heap().iter() {
        let w = StateWord(obj.state().load(Ordering::SeqCst));
        if w.is_int() {
            return Err(format!("{label}: {id} left in intermediate state {w:?}"));
        }
        if w.is_pess_locked() {
            return Err(format!(
                "{label}: {id} left pessimistically locked {w:?} (lock-buffer leak)"
            ));
        }
        if let Err(e) = w.validate() {
            return Err(format!("{label}: {id} ill-formed {w:?} — {e}"));
        }
    }
    // Coordination quiescence: with every mutator joined, an inbox node the
    // fast-path flag does not announce is a request no poll would ever have
    // answered — a drain cleared the flag over a live node (the lost-wakeup
    // ordering `take_requests` exists to rule out).
    for (i, ctl) in rt.controls().iter().enumerate() {
        if ctl.has_stranded_requests() {
            return Err(format!(
                "{label}: T{i} leaked an unanswered coordination request past teardown \
                 (inbox non-empty but has_requests clear)"
            ));
        }
    }
    Ok(())
}

/// A check over several runs on one (spec, seed): what an oracle failure's
/// artifact names, and what `reproduce` re-runs for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// The engine matrix agrees, and matches the baseline where it must.
    Differential,
    /// The validated read path is live on a read-mostly spec (§12).
    SeqlockRead,
    /// The adaptive policy demotes and agrees with the matrix (§13).
    Ladder,
    /// The serve store is linearizable on every engine (§14); its spec is a
    /// [`harness::serve_spec`].
    Serve,
    /// Both RS enforcers commit every region and preserve semantics.
    Rs,
    /// [`replay_check`]: unperturbed, so its artifacts carry no decision
    /// traces, only the failing recording's event timelines.
    Replay,
}

impl Oracle {
    /// Every oracle.
    pub const ALL: [Oracle; 6] = [
        Oracle::Differential,
        Oracle::SeqlockRead,
        Oracle::Ladder,
        Oracle::Serve,
        Oracle::Rs,
        Oracle::Replay,
    ];

    /// The artifact label.
    pub fn label(self) -> &'static str {
        match self {
            Oracle::Differential => "differential",
            Oracle::SeqlockRead => "seqlock-read",
            Oracle::Ladder => "degradation-ladder",
            Oracle::Serve => "serve-store",
            Oracle::Rs => "region-serializability",
            Oracle::Replay => "record-replay",
        }
    }

    /// Check `spec` under chaos seed `seed`.
    pub fn check(self, spec: &WorkloadSpec, seed: u64) -> Result<(), Box<FailureArtifact>> {
        match self {
            Oracle::Differential => differential_check(spec, seed),
            Oracle::SeqlockRead => read_mostly_check(spec, seed),
            Oracle::Ladder => adapt_check(spec, seed),
            Oracle::Serve => serve_check(spec, seed),
            Oracle::Rs => rs_check(spec, seed),
            Oracle::Replay => replay_check(spec, None).map_err(|(failure, events)| Box::new(FailureArtifact {
                seed,
                engine: self.label().into(),
                spec: spec.clone(),
                failure,
                traces: Vec::new(),
                events,
            })),
        }
    }

    /// The one loop every perturbed oracle runs. Each subject's cell runs on
    /// `(spec, seed)`; a cell that fails on its own returns its cell artifact.
    /// Each completed cell must then perform as many tracked accesses as the
    /// first (except enforcer cells: a region restart re-executes its
    /// accesses), end with `baseline`'s heap when the oracle has one, and pass
    /// the oracle's own `per_cell` predicate. A failure of these is the
    /// oracle's: its artifact names the oracle and carries the exposing cell's
    /// traces and timelines.
    fn matrix(
        self,
        spec: &WorkloadSpec,
        seed: u64,
        subjects: impl IntoIterator<Item = Subject>,
        baseline: Option<&[u64]>,
        per_cell: impl Fn(Subject, &StatsReport) -> Result<(), String>,
    ) -> Result<(), Box<FailureArtifact>> {
        let mut first: Option<(Subject, u64)> = None;
        for subject in subjects {
            let cell = harness::run_cell(subject, spec, seed)?;
            let a = cell.report.accesses();
            let verdict = match (first, baseline) {
                (Some((s0, a0)), _) if a0 != a && !matches!(subject, Subject::Rs(_)) => {
                    Err(format!(
                        "access counts diverge: {} performed {a0}, {} performed {a}",
                        s0.label(),
                        subject.label()
                    ))
                }
                (_, Some(base)) if cell.heap != base => Err(format!(
                    "{} ended with a heap the untracked baseline run does not ({})",
                    subject.label(),
                    first_heap_divergence(base, &cell.heap)
                )),
                _ => per_cell(subject, &cell.report),
            };
            first.get_or_insert((subject, a));
            verdict.map_err(|failure| Box::new(FailureArtifact {
                seed,
                engine: self.label().into(),
                spec: spec.clone(),
                failure,
                traces: cell.traces,
                events: cell.events,
            }))?;
        }
        Ok(())
    }
}

/// The heap of an unperturbed, untracked run of `spec`: the program's
/// semantics, when they do not depend on the schedule.
fn baseline_heap(spec: &WorkloadSpec) -> Option<Vec<u64>> {
    schedule_independent(spec).then(|| run_kind(EngineKind::Baseline, spec).heap)
}

fn engines(kinds: &[EngineKind]) -> impl Iterator<Item = Subject> + '_ {
    kinds.iter().copied().map(Subject::Engine)
}

/// The engine matrix on `spec` under chaos seed `seed`: access counts
/// agree, and a schedule-independent spec ends with the untracked
/// baseline's heap after zero conflicting transitions.
fn differential_check(spec: &WorkloadSpec, seed: u64) -> Result<(), Box<FailureArtifact>> {
    let baseline = baseline_heap(spec);
    let per_cell = |subject: Subject, r: &StatsReport| {
        let conflicts = r.opt_conflicting() + r.get(Event::PessContended);
        if baseline.is_some() && conflicts != 0 {
            return Err(format!(
                "{} reported {conflicts} conflicting transitions on a conflict-free spec",
                subject.label()
            ));
        }
        Ok(())
    };
    let subjects = engines(&MATRIX_ENGINES);
    Oracle::Differential.matrix(spec, seed, subjects, baseline.as_deref(), per_cell)
}

/// The seqlock read-path oracle (DESIGN.md §12), meant for read-mostly RdSh
/// specs such as [`drink_workloads::chaos_read_mostly`]. Every matrix engine
/// runs tracking-only (`NullSupport`), so each must actually exercise the
/// coordination-free path:
///
/// * **engine agreement** — access counts match across the matrix (a
///   seqlock-validated read is still exactly one tracked access);
/// * **the path is live** — `validated_reads > 0` in every cell: a
///   read-mostly spec that never validates means the gate or the validation
///   protocol regressed to always-fallback;
/// * **validation survives the valve** — the hybrid cell moves at least one
///   object to pessimistic states (`OptToPess > 0`) and its validated reads
///   still outnumber its lock-taking and reentrant pessimistic accesses;
/// * **fallback shape** — a seqlock fallback re-enters the ordinary
///   coordinated read path, so it must not distort fan-out accounting: in a
///   run with fallbacks, the mean fan-out width stays what the all-peer
///   protocol dictates (≥ 1 peer, ≤ threads − 1), unchanged by how many
///   reads arrived via the fallback arm rather than directly.
fn read_mostly_check(spec: &WorkloadSpec, seed: u64) -> Result<(), Box<FailureArtifact>> {
    let per_cell = |subject: Subject, r: &StatsReport| {
        let label = subject.label();
        if r.validated_reads() == 0 {
            return Err(format!(
                "{label} validated no seqlock reads on a read-mostly spec \
                 (retries={}, fallbacks={}) — fast path dead",
                r.get(Event::SeqlockRetry),
                r.get(Event::SeqlockFallback),
            ));
        }
        // The hybrid cell must reach the pessimistic half of Table 3 — the
        // racy writes push hot objects past `Cutoff_confl` — and still read
        // mostly by validation there: a non-conflicting read of a state
        // nobody holds write-locked takes no read lock. The counters do not
        // split pessimistic accesses into reads and writes, so the validated
        // reads are held against *all* of them, which only understates the
        // reads' share (≈0.65–0.75 here; ≈0.08 when such reads lock).
        let locked = r.pess_uncontended();
        if subject == Subject::Engine(EngineKind::Hybrid)
            && (r.opt_to_pess() == 0 || r.validated_reads() <= locked)
        {
            return Err(format!(
                "{label} moved {} objects to pessimistic states and validated {} reads \
                 against {locked} lock-taking or reentrant accesses — expected a \
                 move and a validated majority",
                r.opt_to_pess(),
                r.validated_reads(),
            ));
        }
        let (fallbacks, width) = (r.get(Event::SeqlockFallback), r.fanout_width());
        let peers = (spec.threads - 1) as f64;
        if fallbacks > 0 && r.get(Event::CoordFanout) > 0 && !(1.0..=peers).contains(&width) {
            return Err(format!(
                "{label} fan-out width {width:.2} outside [1, {peers}] with {fallbacks} \
                 seqlock fallbacks in flight — fallback path distorted coordination \
                 accounting"
            ));
        }
        Ok(())
    };
    Oracle::SeqlockRead.matrix(spec, seed, engines(&MATRIX_ENGINES), None, per_cell)
}

/// The degradation-ladder oracle (DESIGN.md §13), meant for the
/// phase-shifted [`drink_workloads::chaos_adapt`] spec, which turns on a
/// recoverable coordination deadline and oscillates hot objects between
/// write-heavy and read-mostly phases:
///
/// * **engine agreement** — access counts match across the static matrix
///   *and* the adaptive engine: the policy redistributes accesses between
///   the optimistic and pessimistic protocols but must not lose or invent
///   any;
/// * **the policy is live** — the adaptive cell demoted at least one object
///   (`adapt.demotion > 0`, a phase change into `Pess`): the write phases
///   hand every hot object `Cutoff_confl` explicit conflicts many times
///   over, and a stalled responder's expired deadline demotes without
///   waiting for them; a spec whose policy never fires is not testing the
///   ladder;
/// * **deadline discipline** — any `coord.deadline_exceeded` events are
///   recoverable by construction (the run completed, so none escalated to
///   a watchdog panic); they are reported for visibility.
fn adapt_check(spec: &WorkloadSpec, seed: u64) -> Result<(), Box<FailureArtifact>> {
    let per_cell = |subject: Subject, r: &StatsReport| {
        if subject == Subject::Engine(EngineKind::Adaptive) && r.get(Event::AdaptDemotion) == 0 {
            return Err(format!(
                "policy never demoted on a phase-shifted hot set \
                 (coord roundtrips={}, deadline expiries={}) — the \
                 degradation ladder is not being exercised",
                r.get(Event::CoordinationRoundtrip),
                r.get(Event::CoordDeadlineExceeded),
            ));
        }
        Ok(())
    };
    let kinds = [&MATRIX_ENGINES[..], &[EngineKind::Adaptive]].concat();
    Oracle::Ladder.matrix(spec, seed, engines(&kinds), None, per_cell)
}

/// The serve-store oracle (DESIGN.md §14), run on a [`harness::serve_spec`],
/// whose cells run the [`drink_serve::chaos_serve`] configuration — a
/// write-heavy, hot-headed Zipf mix whose offered rate keeps every worker
/// saturated, so the interleaving is decided by the chaos perturbations:
///
/// * **store linearizability at quiescence** — for every engine in the
///   matrix (plus Adaptive), every completed PUT is visible: key `k`'s
///   final sequence number equals the PUTs completed against it, its value
///   carries its own tag, no GET ever observed a foreign tag, and the
///   open-loop accounting balances with nothing in flight
///   ([`drink_serve::ServeResult::check_quiescent`], in the cell runner);
/// * **engine-level quiescence** — the runtime heap scan and coordination
///   inbox checks that every chaos cell gets ([`check_quiescent`]);
/// * **cross-engine agreement** — request streams are pure functions of
///   (seed, worker), so every engine performs the same accesses and ends
///   with the final key values of an unperturbed untracked run; a
///   divergence means a tracking engine lost or reordered a synchronized
///   RMW.
fn serve_check(spec: &WorkloadSpec, seed: u64) -> Result<(), Box<FailureArtifact>> {
    let cfg = ServeConfig {
        engine: EngineKind::Baseline,
        ..chaos_serve(spec.seed)
    };
    let baseline = run_serve(&cfg).final_values;
    let kinds = [&MATRIX_ENGINES[..], &[EngineKind::Adaptive]].concat();
    let subjects = kinds.into_iter().map(Subject::Serve);
    Oracle::Serve.matrix(spec, seed, subjects, Some(&baseline), |_, _| Ok(()))
}

/// The region-serializability oracle: both RS enforcers complete `spec`
/// under perturbation, never livelock (`execs > restarts`), end quiescent,
/// and preserve schedule-independent semantics.
fn rs_check(spec: &WorkloadSpec, seed: u64) -> Result<(), Box<FailureArtifact>> {
    let baseline = baseline_heap(spec);
    let per_cell = |subject: Subject, r: &StatsReport| {
        let (execs, restarts) = (r.get(Event::RegionExec), r.get(Event::RegionRestart));
        if execs <= restarts {
            return Err(format!(
                "{}: region accounting broken: execs={execs} restarts={restarts}",
                subject.label()
            ));
        }
        Ok(())
    };
    let subjects = RS_ENGINES.map(Subject::Rs);
    Oracle::Rs.matrix(spec, seed, subjects, baseline.as_deref(), per_cell)
}

fn first_heap_divergence(a: &[u64], b: &[u64]) -> String {
    if a.len() != b.len() {
        return format!("lengths {} vs {}", a.len(), b.len());
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!("first at object {i}: {:#x} vs {:#x}", a[i], b[i]),
        None => "heaps equal?".into(),
    }
}

/// Record `spec` under both recorder kinds and verify replay reproduces the
/// recorded heap exactly. (Recording runs unperturbed unless `sched` is
/// given: what is under test is the log's completeness, which the
/// differential/chaos cells already stress from the engine side.) A failure
/// comes with the event timelines of the recording it failed on, whose
/// runtime has trace rings for that.
pub fn replay_check(spec: &WorkloadSpec, sched: Option<Arc<dyn SchedHooks>>) -> Result<(), (String, Vec<ThreadTrace>)> {
    for kind in [EngineKind::Optimistic, EngineKind::Hybrid] {
        let mut rt = Runtime::new(RuntimeConfig {
            trace_capacity: harness::CHAOS_TRACE_CAPACITY,
            ..runtime_config_for(spec)
        });
        if let Some(sched) = &sched {
            rt.set_sched_hooks(Arc::clone(sched));
        }
        let rt = Arc::new(rt);
        // Wrapped: a protocol panic inside the recorder (e.g. an injected
        // bug tripping the invariant layer) must report, not abort the suite.
        harness::catch(|| {
            let out = record_on(kind, Arc::clone(&rt), spec);
            let rep = replay(spec, out.log.clone());
            if rep.heap != out.run.heap {
                return Err(format!(
                    "replay diverged from its recording ({})",
                    first_heap_divergence(&out.run.heap, &rep.heap)
                ));
            }
            Ok(())
        })
        .map_err(|e| {
            let events = rt.trace_rings().expect("built with trace rings").snapshot().threads;
            (format!("{} record/replay: {e}", kind.name()), events)
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_workloads::{
        chaos_disjoint, chaos_handoff, chaos_mix, chaos_rdsh, chaos_read_mostly,
    };

    #[test]
    fn differential_holds_on_disjoint_spec() {
        differential_check(&chaos_disjoint(31), 31)
            .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
    }

    #[test]
    fn differential_holds_on_racy_specs() {
        // Not schedule-independent: only the access-count and quiescence
        // oracles apply, but they apply under heavy perturbation.
        differential_check(&chaos_mix(32), 32)
            .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
        differential_check(&chaos_handoff(33), 33)
            .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
    }

    /// The fan-out oracle: with the all-others `coordinate` driving every
    /// RdSh conflict, the engine matrix must still agree on access counts (and
    /// the schedule-independent baseline-heap oracle must still hold — the
    /// disjoint spec runs the same fan-out-enabled engines). The second half
    /// proves the spec actually exercises the fan-out window rather than
    /// vacuously passing: wide fan-outs and batched responses must show up
    /// in the coordination counters.
    #[test]
    fn differential_holds_under_fanout_coordination() {
        for seed in [41u64, 42] {
            differential_check(&chaos_rdsh(seed), seed)
                .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
            differential_check(&chaos_disjoint(seed), seed)
                .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
        }
        let cell = harness::run_cell(Subject::Engine(EngineKind::Optimistic), &chaos_rdsh(43), 43)
            .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
        let report = &cell.report;
        assert!(
            report.get(Event::CoordFanout) > 0,
            "chaosRdsh must drive RdSh conflicts through the fan-out"
        );
        assert!(
            report.fanout_width() > 1.0,
            "fan-outs must cover multiple peers (width {})",
            report.fanout_width()
        );
        // Batching accounting: every responding safe point answered ≥ 1
        // request, so occupancy is at least 1 whenever anyone responded.
        if report.get(Event::RespondedExplicit) > 0 {
            assert!(
                report.batch_occupancy() >= 1.0,
                "batch occupancy {} < 1",
                report.batch_occupancy()
            );
        }
    }

    /// The degradation-ladder oracle on its intended spec: the static
    /// matrix and the adaptive engine agree on access counts while the
    /// policy performs real demotions under perturbation.
    #[test]
    fn adapt_oracle_holds_under_chaos() {
        for seed in [0x51u64, 0x52] {
            adapt_check(&drink_workloads::chaos_adapt(seed), seed)
                .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
        }
    }

    /// The seqlock oracle on its intended spec: every engine validates
    /// reads, counts agree, fallback keeps fan-out accounting sane.
    #[test]
    fn read_mostly_oracle_holds_under_chaos() {
        for seed in [0x71u64, 0x72] {
            read_mostly_check(&chaos_read_mostly(seed), seed)
                .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
        }
    }

    /// The serve-store oracle on its intended configuration: every engine
    /// (static matrix + adaptive) passes the store-linearizability quiescent
    /// check under perturbation and all agree on the final key values.
    #[test]
    fn serve_oracle_holds_under_chaos() {
        for seed in [0xA1u64, 0xA2] {
            serve_check(&harness::serve_spec(seed), seed)
                .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
        }
    }

    /// The synthesized artifact spec validates and round-trips the geometry
    /// the serve config describes.
    #[test]
    fn serve_artifact_spec_is_well_formed() {
        let cfg = chaos_serve(0xA3);
        let spec = harness::serve_spec(0xA3);
        assert_eq!(spec.seed, cfg.seed);
        assert_eq!(spec.threads, cfg.workers);
        assert_eq!(spec.monitors, cfg.monitors);
        spec.validate().expect("serve spec validates");
    }

    #[test]
    fn replay_reproduces_chaos_specs() {
        replay_check(&chaos_mix(34), None).map_err(|(failure, _)| failure).unwrap();
        replay_check(&chaos_disjoint(35), None).map_err(|(failure, _)| failure).unwrap();
    }

    #[test]
    fn rs_enforcers_survive_perturbation() {
        rs_check(&chaos_disjoint(36), 36).unwrap();
        rs_check(&chaos_mix(37), 37).unwrap();
    }

    #[test]
    fn schedule_independence_classifier() {
        assert!(schedule_independent(&chaos_disjoint(1)));
        assert!(!schedule_independent(&chaos_mix(1)));
        assert!(!schedule_independent(&chaos_handoff(1)));
    }
}
