//! Record & replay drivers over workload specs (Figure 9(a)'s harness).

use std::sync::Arc;

use drink_core::prelude::*;
use drink_replay::{Recorder, RecordingLog, ReplayEngine};
use drink_runtime::Runtime;

use crate::driver::{drive, execute_ops, run_workload, runtime_for, RunResult};
use crate::spec::WorkloadSpec;

/// A recorded run: its measurements plus the happens-before log.
#[derive(Clone, Debug)]
pub struct RecordOutcome {
    /// The recorded run's measurements (wall time, stats, final heap).
    pub run: RunResult,
    /// The recorded schedule.
    pub log: RecordingLog,
}

/// Record one execution of `spec` with the recorder on `kind`'s tracking
/// configuration: §4.1's on [`EngineKind::Optimistic`], §4.2's on
/// [`EngineKind::Hybrid`]. The log and the run are named after `kind`.
/// Panics if `kind` is not a configuration of the hybrid engine
/// ([`EngineKind::with_support`]). Its locks are deferred whatever the kind
/// — the [`Recorder`]'s discipline is `Locking::Deferred`, since its
/// release-clock edges are the unlocks a flush makes (§4.2) — so
/// [`EngineKind::Pessimistic`] records Table 3 at `Cutoff_confl = 0`.
pub fn record(kind: EngineKind, spec: &WorkloadSpec) -> RecordOutcome {
    record_on(kind, runtime_for(spec), spec)
}

/// [`record`] on a runtime the caller built for `spec` — one with trace
/// rings, say, whose timelines outlive a failing recording.
pub fn record_on(kind: EngineKind, rt: Arc<Runtime>, spec: &WorkloadSpec) -> RecordOutcome {
    let recorder = Recorder::for_runtime(&rt, kind.name());
    let engine = kind.with_support(rt, recorder);
    let run = drive(&engine, kind.name(), spec, execute_ops);
    let log = engine.into_support().into_log();
    log.validate().expect("recorder produced a malformed log");
    RecordOutcome { run, log }
}

/// Replay a recorded schedule of `spec`. `elide_sync` elides program
/// synchronization (the paper's replayer; default true in [`replay`]).
pub fn replay_with(spec: &WorkloadSpec, log: RecordingLog, elide_sync: bool) -> RunResult {
    let rt = runtime_for(spec);
    let engine = ReplayEngine::with_options(rt, log, elide_sync);
    run_workload(&engine, spec)
}

/// Replay with synchronization elided (§7.6).
pub fn replay(spec: &WorkloadSpec, log: RecordingLog) -> RunResult {
    replay_with(spec, log, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs_driver::run_rs;
    use crate::spec::{racy_inc, sync_inc};

    fn assert_replay_reproduces(kind: EngineKind, spec: &WorkloadSpec) {
        let recorded = record(kind, spec);
        let replayed = replay(spec, recorded.log.clone());
        assert_eq!(
            recorded.run.heap, replayed.heap,
            "{} replay of {} diverged from the recorded heap",
            kind.name(),
            spec.name
        );
        // Replay again: still identical (replay is itself deterministic).
        let replayed2 = replay(spec, recorded.log);
        assert_eq!(replayed.heap, replayed2.heap);
    }

    /// A support run reports the configuration it ran, not the engine type
    /// behind it.
    #[test]
    fn recorded_and_rs_runs_name_their_configuration() {
        let spec = sync_inc(2, 50);
        let opt = record(EngineKind::Optimistic, &spec).run.engine;
        assert_eq!(opt, "optimistic");
        assert_eq!(record(EngineKind::Hybrid, &spec).run.engine, "hybrid");
        let opt = run_rs(EngineKind::Optimistic, &spec).engine;
        assert_ne!(opt, run_rs(EngineKind::Hybrid, &spec).engine);
    }

    #[test]
    fn supports_refuse_kinds_outside_the_hybrid_engine() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let spec = sync_inc(2, 10);
        let kind = EngineKind::Baseline;
        let recorder = || drop(record(kind, &spec));
        let enforcer = || drop(run_rs(kind, &spec));
        for run in [&recorder as &dyn Fn(), &enforcer] {
            let payload = catch_unwind(AssertUnwindSafe(run))
                .expect_err("a support on a non-hybrid kind must panic");
            let msg = payload.downcast_ref::<String>().expect("a message");
            assert!(msg.contains(&format!("{kind:?}")), "{msg}");
        }
    }

    #[test]
    fn locked_workload_record_replay_hybrid() {
        let spec = WorkloadSpec {
            name: "rr-locked".into(),
            threads: 4,
            steps_per_thread: 3_000,
            locked_frac: 0.10,
            shared_read_frac: 0.05,
            ..WorkloadSpec::default()
        };
        assert_replay_reproduces(EngineKind::Hybrid, &spec);
    }

    #[test]
    fn locked_workload_record_replay_optimistic() {
        let spec = WorkloadSpec {
            name: "rr-locked-opt".into(),
            threads: 4,
            steps_per_thread: 3_000,
            locked_frac: 0.10,
            shared_read_frac: 0.05,
            ..WorkloadSpec::default()
        };
        assert_replay_reproduces(EngineKind::Optimistic, &spec);
    }

    #[test]
    fn racy_workload_record_replay_hybrid() {
        // The acid test: data races everywhere, yet the log must pin down
        // every cross-thread dependence.
        let spec = WorkloadSpec {
            name: "rr-racy".into(),
            threads: 4,
            steps_per_thread: 2_000,
            racy_frac: 0.20,
            hot_objects: 8,
            locked_frac: 0.05,
            shared_read_frac: 0.05,
            ..WorkloadSpec::default()
        };
        assert_replay_reproduces(EngineKind::Hybrid, &spec);
    }

    #[test]
    fn racy_workload_record_replay_optimistic() {
        let spec = WorkloadSpec {
            name: "rr-racy-opt".into(),
            threads: 4,
            steps_per_thread: 2_000,
            racy_frac: 0.20,
            hot_objects: 8,
            locked_frac: 0.05,
            shared_read_frac: 0.05,
            ..WorkloadSpec::default()
        };
        assert_replay_reproduces(EngineKind::Optimistic, &spec);
    }

    #[test]
    fn sync_inc_record_replay_both() {
        let spec = sync_inc(4, 1_000);
        assert_replay_reproduces(EngineKind::Optimistic, &spec);
        assert_replay_reproduces(EngineKind::Hybrid, &spec);
    }

    #[test]
    fn racy_inc_record_replay_both() {
        let spec = racy_inc(4, 800);
        assert_replay_reproduces(EngineKind::Optimistic, &spec);
        assert_replay_reproduces(EngineKind::Hybrid, &spec);
        // Table 3 at `Cutoff_confl = 0`, every lock deferred: each access
        // acquires pessimistically, and contends where the increments race.
        assert_replay_reproduces(EngineKind::Pessimistic, &spec);
    }

    #[test]
    fn non_elided_replay_also_reproduces() {
        let spec = sync_inc(4, 500);
        let recorded = record(EngineKind::Hybrid, &spec);
        let replayed = replay_with(&spec, recorded.log, false);
        assert_eq!(recorded.run.heap, replayed.heap);
    }

    #[test]
    fn hybrid_recorder_uses_fewer_roundtrips_on_hot_workload() {
        use drink_runtime::Event;
        let spec = WorkloadSpec {
            name: "rr-hot".into(),
            threads: 4,
            steps_per_thread: 6_000,
            racy_frac: 0.25,
            hot_objects: 4,
            local_work: 6,
            ..WorkloadSpec::default()
        };
        let opt = record(EngineKind::Optimistic, &spec);
        let hyb = record(EngineKind::Hybrid, &spec);
        let opt_rt = opt.run.report.get(Event::CoordinationRoundtrip);
        let hyb_rt = hyb.run.report.get(Event::CoordinationRoundtrip);
        assert!(
            hyb_rt * 2 < opt_rt,
            "hybrid recorder should coordinate far less: opt={opt_rt} hyb={hyb_rt}"
        );
    }
}
