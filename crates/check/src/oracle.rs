//! Cross-engine oracles: what a chaos run is checked *against*.
//!
//! Individual panics and `check-invariants` assertions catch protocol bugs
//! at the moment they fire; the oracles here catch the quieter failure mode
//! where a run completes but computed the wrong thing:
//!
//! * **Quiescence** — after any run, no state word may remain `LOCKED`,
//!   intermediate, or pessimistically locked, and every word must be
//!   well-formed ([`drink_core::word::StateWord::validate`]). Leaks here
//!   mean a lock-buffer flush or coordination hand-off was lost.
//! * **Differential equivalence** — the same seeded workload run under
//!   Pessimistic, Optimistic and Hybrid tracking must perform the same
//!   number of tracked accesses, and for *schedule-independent* specs
//!   (no races, no locks: disjoint write sets plus a read-only shared
//!   region) must produce the byte-identical final heap that an untracked
//!   baseline run produces, with zero conflicting transitions.
//! * **Record/replay** — a recorded run's log, replayed, must reproduce the
//!   recorded final heap exactly (the paper's §7.6 determinism claim).
//! * **Region serializability** — the RS enforcers must complete under
//!   perturbation with `execs > restarts` (every committed region ran at
//!   least once; restarts never livelock), end quiescent, and — for
//!   schedule-independent specs — match the baseline heap, which for
//!   disjoint write sets is precisely the serial-witness check.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use drink_core::word::StateWord;
use drink_rs::RsEnforcer;
use drink_runtime::{Event, Runtime, SchedHooks};
use drink_workloads::{
    record, replay, run_kind, run_rs_on, runtime_config_for, EngineKind, RecorderKind, RsKind,
    RunResult, WorkloadSpec,
};

use crate::artifact::FailureArtifact;
use crate::chaos::ChaosSched;
use crate::harness::{self, MATRIX_ENGINES};

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
        if w.is_locked_sentinel() {
            return Err(format!("{label}: {id} left LOCKED after the run"));
        }
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

/// Run the engine matrix on `spec` under chaos seed `seed` and check the
/// differential oracles. On failure returns an artifact naming the engine
/// (or `differential` for cross-engine mismatches) with the decision traces
/// of the run that exposed it.
pub fn differential_check(spec: &WorkloadSpec, seed: u64) -> Result<(), FailureArtifact> {
    // Unperturbed, untracked reference run: the program's semantics.
    let baseline = run_kind(EngineKind::Baseline, spec);
    let independent = schedule_independent(spec);

    let mut accesses: Option<(EngineKind, u64)> = None;
    for kind in MATRIX_ENGINES {
        let cell = harness::run_cell(kind, spec, seed)?;
        let fail = |failure: String, traces| FailureArtifact {
            seed,
            engine: "differential".into(),
            spec: spec.clone(),
            failure,
            traces,
            events: Vec::new(),
        };

        let a = cell.run.report.accesses();
        match accesses {
            None => accesses = Some((kind, a)),
            Some((k0, a0)) if a0 != a => {
                return Err(fail(
                    format!(
                        "access counts diverge: {} performed {a0}, {} performed {a}",
                        k0.label(),
                        kind.label()
                    ),
                    cell.traces,
                ));
            }
            Some(_) => {}
        }

        if independent {
            if cell.run.heap != baseline.heap {
                let diverged = first_heap_divergence(&baseline.heap, &cell.run.heap);
                return Err(fail(
                    format!(
                        "{} changed a schedule-independent program's heap ({diverged})",
                        kind.label()
                    ),
                    cell.traces,
                ));
            }
            let conflicts = cell.run.report.opt_conflicting() + cell.run.report.get(Event::PessContended);
            if conflicts != 0 {
                return Err(fail(
                    format!(
                        "{} reported {conflicts} conflicting transitions on a conflict-free spec",
                        kind.label()
                    ),
                    cell.traces,
                ));
            }
        }
    }
    Ok(())
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
pub fn read_mostly_check(spec: &WorkloadSpec, seed: u64) -> Result<(), FailureArtifact> {
    let mut accesses: Option<(EngineKind, u64)> = None;
    for kind in MATRIX_ENGINES {
        let cell = harness::run_cell(kind, spec, seed)?;
        let r = &cell.run.report;
        let fail = |failure: String, traces| FailureArtifact {
            seed,
            engine: kind.label().to_string(),
            spec: spec.clone(),
            failure,
            traces,
            events: Vec::new(),
        };

        let a = r.accesses();
        match accesses {
            None => accesses = Some((kind, a)),
            Some((k0, a0)) if a0 != a => {
                return Err(fail(
                    format!(
                        "access counts diverge: {} performed {a0}, {} performed {a}",
                        k0.label(),
                        kind.label()
                    ),
                    cell.traces,
                ));
            }
            Some(_) => {}
        }

        if r.validated_reads() == 0 {
            return Err(fail(
                format!(
                    "{} validated no seqlock reads on a read-mostly spec \
                     (retries={}, fallbacks={}) — fast path dead",
                    kind.label(),
                    r.get(Event::SeqlockRetry),
                    r.get(Event::SeqlockFallback),
                ),
                cell.traces,
            ));
        }

        // The hybrid cell must reach the pessimistic half of Table 3 — the
        // racy writes push hot objects past `Cutoff_confl` — and still read
        // mostly by validation there: a non-conflicting read of a state
        // nobody holds write-locked takes no read lock. The counters do not
        // split pessimistic accesses into reads and writes, so the validated
        // reads are held against *all* of them, which only understates the
        // reads' share (≈0.65–0.75 here; ≈0.08 when such reads lock).
        if kind == EngineKind::Hybrid {
            let locked = r.pess_uncontended();
            if r.opt_to_pess() == 0 || r.validated_reads() <= locked {
                return Err(fail(
                    format!(
                        "{} moved {} objects to pessimistic states and validated {} reads \
                         against {locked} lock-taking or reentrant accesses — expected a \
                         move and a validated majority",
                        kind.label(),
                        r.opt_to_pess(),
                        r.validated_reads(),
                    ),
                    cell.traces,
                ));
            }
        }

        if r.get(Event::SeqlockFallback) > 0 && r.get(Event::CoordFanout) > 0 {
            let width = r.fanout_width();
            let peers = (spec.threads - 1) as f64;
            if !(1.0..=peers).contains(&width) {
                return Err(fail(
                    format!(
                        "{} fan-out width {width:.2} outside [1, {peers}] with {} \
                         seqlock fallbacks in flight — fallback path distorted \
                         coordination accounting",
                        kind.label(),
                        r.get(Event::SeqlockFallback),
                    ),
                    cell.traces,
                ));
            }
        }
    }
    Ok(())
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
pub fn adapt_check(spec: &WorkloadSpec, seed: u64) -> Result<(), FailureArtifact> {
    let mut accesses: Option<(EngineKind, u64)> = None;
    let mut demotions = 0u64;
    let mut engines = MATRIX_ENGINES.to_vec();
    engines.push(EngineKind::Adaptive);
    for kind in engines {
        let cell = harness::run_cell(kind, spec, seed)?;
        let r = &cell.run.report;
        let fail = |failure: String, traces| FailureArtifact {
            seed,
            engine: kind.label().to_string(),
            spec: spec.clone(),
            failure,
            traces,
            events: Vec::new(),
        };

        let a = r.accesses();
        match accesses {
            None => accesses = Some((kind, a)),
            Some((k0, a0)) if a0 != a => {
                return Err(fail(
                    format!(
                        "access counts diverge: {} performed {a0}, {} performed {a}",
                        k0.label(),
                        kind.label()
                    ),
                    cell.traces,
                ));
            }
            Some(_) => {}
        }

        if kind == EngineKind::Adaptive {
            demotions = r.get(Event::AdaptDemotion);
            if demotions == 0 {
                return Err(fail(
                    format!(
                        "policy never demoted on a phase-shifted hot set \
                         (coord roundtrips={}, deadline expiries={}) — the \
                         degradation ladder is not being exercised",
                        r.get(Event::CoordinationRoundtrip),
                        r.get(Event::CoordDeadlineExceeded),
                    ),
                    cell.traces,
                ));
            }
        }
    }
    debug_assert!(demotions > 0);
    Ok(())
}

/// Artifact engine label for serve-oracle failures. The failure is a
/// property of the whole serve matrix (per-engine store checks plus
/// cross-engine equality), so reproduction re-runs [`serve_check`] itself
/// (see `harness::reproduce`).
pub const SERVE_ORACLE_ENGINE: &str = "chaosServe";

/// A [`WorkloadSpec`]-shaped description of the serve run, embedded in
/// failure artifacts so they deserialize and print like every other
/// artifact. The serve store is not driven by the workload driver — the
/// spec records the geometry (threads / objects / monitors) and the seed;
/// reproduction keys off [`SERVE_ORACLE_ENGINE`], not this spec.
fn serve_spec(cfg: &drink_serve::ServeConfig, seed: u64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name(SERVE_ORACLE_ENGINE)
        .threads(cfg.workers)
        .steps_per_thread(cfg.requests_per_worker as usize)
        .shared_objects(cfg.keys)
        .hot_objects(cfg.keys.min(8))
        .monitors(cfg.monitors)
        .locked_frac(1.0 - cfg.read_frac)
        .racy_frac(cfg.read_frac)
        .shared_read_frac(0.0)
        .seed(seed)
        .build()
        .expect("serve geometry maps to a valid spec")
}

/// Run the serve store's chaos configuration under one engine with the
/// chaos scheduler registered, catching worker panics. Returns the full
/// serve result for the cross-engine comparison.
fn run_serve_chaos(
    kind: EngineKind,
    cfg: &drink_serve::ServeConfig,
    seed: u64,
) -> Result<drink_serve::ServeResult, String> {
    let mut cell = cfg.clone();
    cell.engine = kind;
    let chaos: Arc<dyn SchedHooks> = Arc::new(ChaosSched::new(seed, cell.workers));
    let build = move || {
        let mut rt = Runtime::new(cell.runtime_config());
        rt.set_sched_hooks(chaos);
        let rt = Arc::new(rt);
        let r = drink_serve::run_serve_on(Arc::clone(&rt), &cell);
        // Store-level linearizability first, then the engine-level heap scan:
        // a lock-buffer leak can exist even when every PUT landed.
        r.check_quiescent()?;
        check_quiescent(&rt, kind.label())?;
        Ok(r)
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
        Ok(r) => r,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".into())),
    }
}

/// The serve-store oracle (DESIGN.md §14), run on the
/// [`drink_serve::chaos_serve`] configuration — a write-heavy, hot-headed
/// Zipf mix whose offered rate keeps every worker saturated, so the
/// interleaving is decided by the chaos perturbations:
///
/// * **store linearizability at quiescence** — for every engine in the
///   matrix (plus Adaptive), every completed PUT is visible: key `k`'s
///   final sequence number equals the PUTs completed against it, its value
///   carries its own tag, no GET ever observed a foreign tag, and the
///   open-loop accounting balances with nothing in flight
///   ([`drink_serve::ServeResult::check_quiescent`]);
/// * **engine-level quiescence** — the runtime heap scan and coordination
///   inbox checks that every chaos cell gets ([`check_quiescent`]);
/// * **cross-engine agreement** — request streams are pure functions of
///   (seed, worker), so `puts_per_key` and the final key values must be
///   byte-identical across every engine; a divergence means a tracking
///   engine lost or reordered a synchronized RMW.
pub fn serve_check(seed: u64) -> Result<(), FailureArtifact> {
    let cfg = drink_serve::chaos_serve(seed);
    let spec = serve_spec(&cfg, seed);
    let fail = |engine: String, failure: String| FailureArtifact {
        seed,
        engine,
        spec: spec.clone(),
        failure,
        traces: Vec::new(),
        events: Vec::new(),
    };

    let mut engines = MATRIX_ENGINES.to_vec();
    engines.push(EngineKind::Adaptive);
    let mut reference: Option<(EngineKind, Vec<u64>, Vec<u64>)> = None;
    for kind in engines {
        let r = run_serve_chaos(kind, &cfg, seed)
            .map_err(|e| fail(SERVE_ORACLE_ENGINE.into(), format!("{}: {e}", kind.label())))?;
        match &reference {
            None => reference = Some((kind, r.puts_per_key, r.final_values)),
            Some((k0, puts0, finals0)) => {
                if *puts0 != r.puts_per_key {
                    let k = puts0
                        .iter()
                        .zip(&r.puts_per_key)
                        .position(|(a, b)| a != b)
                        .unwrap_or(0);
                    return Err(fail(
                        SERVE_ORACLE_ENGINE.into(),
                        format!(
                            "PUT counts diverge between {} and {}: key {k} got {} vs {} \
                             (a tracking engine lost or invented a synchronized RMW)",
                            k0.label(),
                            kind.label(),
                            puts0[k],
                            r.puts_per_key[k]
                        ),
                    ));
                }
                if *finals0 != r.final_values {
                    return Err(fail(
                        SERVE_ORACLE_ENGINE.into(),
                        format!(
                            "final key values diverge between {} and {} ({})",
                            k0.label(),
                            kind.label(),
                            first_heap_divergence(finals0, &r.final_values)
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
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
/// recorded heap exactly. (Recording runs unperturbed: the recorder owns
/// its runtime; what is under test is the log's completeness, which the
/// differential/chaos cells already stress from the engine side.)
pub fn replay_check(spec: &WorkloadSpec) -> Result<(), String> {
    for kind in [RecorderKind::Optimistic, RecorderKind::Hybrid] {
        // Wrapped: a protocol panic inside the recorder (e.g. an injected
        // bug tripping the invariant layer) must report, not abort the suite.
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let out = record(kind, spec);
            let rep = replay(spec, out.log.clone());
            if rep.heap != out.run.heap {
                return Err(format!(
                    "{} replay diverged from its recording ({})",
                    kind.name(),
                    first_heap_divergence(&out.run.heap, &rep.heap)
                ));
            }
            Ok(())
        }));
        match checked {
            Ok(r) => r?,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                return Err(format!("{} record/replay panicked: {msg}", kind.name()));
            }
        }
    }
    Ok(())
}

/// Run one RS enforcer under chaos, catching worker panics.
fn run_rs_chaos(
    kind: RsKind,
    spec: &WorkloadSpec,
    sched: Arc<dyn SchedHooks>,
) -> Result<RunResult, String> {
    let build = move || {
        let mut rt = Runtime::new(runtime_config_for(spec));
        rt.set_sched_hooks(sched);
        let rt = Arc::new(rt);
        let enforcer = match kind {
            RsKind::Optimistic => RsEnforcer::optimistic(Arc::clone(&rt)),
            RsKind::Hybrid => RsEnforcer::hybrid(Arc::clone(&rt)),
        };
        let run = run_rs_on(&enforcer, spec);
        check_quiescent(&rt, kind.name()).map(|()| run)
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
        Ok(r) => r,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".into())),
    }
}

/// The region-serializability oracle: both RS enforcers complete `spec`
/// under perturbation, never livelock (`execs > restarts`), end quiescent,
/// and preserve schedule-independent semantics.
pub fn rs_check(spec: &WorkloadSpec, seed: u64) -> Result<(), String> {
    let independent = schedule_independent(spec);
    let baseline = independent.then(|| run_kind(EngineKind::Baseline, spec));
    for kind in [RsKind::Optimistic, RsKind::Hybrid] {
        let chaos = Arc::new(ChaosSched::new(seed, spec.threads));
        let r = run_rs_chaos(kind, spec, chaos)
            .map_err(|e| format!("{} under seed {seed:#x}: {e}", kind.name()))?;
        let execs = r.report.get(Event::RegionExec);
        let restarts = r.report.get(Event::RegionRestart);
        if execs == 0 || execs <= restarts {
            return Err(format!(
                "{}: region accounting broken: execs={execs} restarts={restarts}",
                kind.name()
            ));
        }
        if let Some(base) = &baseline {
            if r.heap != base.heap {
                return Err(format!(
                    "{} broke serializability of a schedule-independent program ({})",
                    kind.name(),
                    first_heap_divergence(&base.heap, &r.heap)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_workloads::{chaos_disjoint, chaos_handoff, chaos_mix, chaos_rdsh, chaos_read_mostly};

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
        let cell = harness::run_cell(EngineKind::Optimistic, &chaos_rdsh(43), 43)
            .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
        let report = &cell.run.report;
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
            serve_check(seed).unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
        }
    }

    /// The synthesized artifact spec validates and round-trips the geometry
    /// the serve config describes.
    #[test]
    fn serve_artifact_spec_is_well_formed() {
        let cfg = drink_serve::chaos_serve(0xA3);
        let spec = serve_spec(&cfg, 0xA3);
        assert_eq!(spec.name, SERVE_ORACLE_ENGINE);
        assert_eq!(spec.threads, cfg.workers);
        assert_eq!(spec.monitors, cfg.monitors);
        spec.validate().expect("serve spec validates");
    }

    #[test]
    fn replay_reproduces_chaos_specs() {
        replay_check(&chaos_mix(34)).unwrap();
        replay_check(&chaos_disjoint(35)).unwrap();
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
