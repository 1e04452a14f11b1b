//! Cell execution: run one (engine × workload × seed) under perturbation,
//! convert failures into artifacts, replay and shrink them.
//!
//! A *cell* builds a fresh runtime sized for the spec, registers a
//! [`ChaosSched`] before the runtime is shared, runs the full workload
//! driver path, and then applies the post-run oracles (quiescence today;
//! the differential oracles live in [`crate::oracle`] because they span
//! several cells). Worker panics — protocol `panic!`s, `check-invariants`
//! assertions, spin-watchdog expiries — propagate out of
//! `std::thread::scope` and are caught here; because the scope replaces the
//! payload with a generic message, a chained panic hook records the real
//! per-thread messages for the artifact.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use drink_runtime::{Runtime, RuntimeConfig, SchedHooks, ThreadTrace};
use drink_workloads::{run_kind_on, runtime_config_for, EngineKind, RunResult, WorkloadSpec};

use crate::artifact::FailureArtifact;
use crate::chaos::{ChaosSched, TraceStep};
use crate::oracle;

/// The engines the chaos matrix exercises (tracking engines only: baseline
/// does not participate in the protocols, and Ideal is deliberately
/// unsound).
pub const MATRIX_ENGINES: [EngineKind; 3] = [
    EngineKind::Pessimistic,
    EngineKind::Optimistic,
    EngineKind::Hybrid,
];

/// Parse an [`EngineKind::label`] back into the kind (artifacts store the
/// label string).
pub fn kind_from_label(label: &str) -> Option<EngineKind> {
    EngineKind::ALL.into_iter().find(|k| k.label() == label)
}

static PANIC_MESSAGES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Install (once) a panic hook that records every panic message before
/// delegating to the previous hook. `std::thread::scope` swallows worker
/// payloads ("a scoped thread panicked"), so without this the artifact
/// would not say *which* invariant fired.
fn install_panic_recorder() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            if msg != "a scoped thread panicked" {
                if let Ok(mut buf) = PANIC_MESSAGES.lock() {
                    if buf.len() < 64 {
                        buf.push(msg);
                    }
                }
            }
            prev(info);
        }));
    });
}

fn drain_panic_messages() -> Vec<String> {
    PANIC_MESSAGES
        .lock()
        .map(|mut b| std::mem::take(&mut *b))
        .unwrap_or_default()
}

/// A successfully completed cell: the run result plus the decision traces
/// consumed producing it (for oracle failures diagnosed *after* the run).
#[derive(Debug)]
pub struct CellRun {
    /// The driver's measurements (report, heap, …).
    pub run: RunResult,
    /// Per-thread decision traces (empty in replay mode).
    pub traces: Vec<Vec<TraceStep>>,
}

/// Ring capacity for the event timelines embedded in failure artifacts:
/// the last N protocol events per thread, enough to see the state-word
/// transitions leading into a failure without bloating artifact files.
pub const CHAOS_TRACE_CAPACITY: usize = 256;

/// Run `spec` under `kind` with `sched` registered, catching worker panics
/// and applying the quiescence oracle. Returns the failure description on
/// any failure.
pub fn run_chaos(
    kind: EngineKind,
    spec: &WorkloadSpec,
    sched: Arc<dyn SchedHooks>,
) -> Result<RunResult, String> {
    run_chaos_traced(kind, spec, sched).map_err(|(failure, _)| failure)
}

/// [`run_chaos`] with protocol-event tracing enabled: on failure, also
/// returns the per-thread event timelines captured up to the failure point.
/// The runtime, and with it its trace rings, is built *outside* the
/// `catch_unwind`, so the rings survive the worker panic that ended the run.
pub fn run_chaos_traced(
    kind: EngineKind,
    spec: &WorkloadSpec,
    sched: Arc<dyn SchedHooks>,
) -> Result<RunResult, (String, Vec<ThreadTrace>)> {
    install_panic_recorder();
    drain_panic_messages();
    let mut rt = Runtime::new(RuntimeConfig {
        trace_capacity: CHAOS_TRACE_CAPACITY,
        ..runtime_config_for(spec)
    });
    rt.set_sched_hooks(sched);
    let rt = Arc::new(rt);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let run = run_kind_on(kind, Arc::clone(&rt), spec);
        oracle::check_quiescent(&rt, kind.label()).map(|()| run)
    }));
    let timelines = || rt.trace_rings().expect("built with trace rings").snapshot().threads;
    match outcome {
        Ok(result) => result.map_err(|failure| (failure, timelines())),
        Err(payload) => {
            let mut msgs = drain_panic_messages();
            if msgs.is_empty() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                msgs.push(msg);
            }
            Err((msgs.join(" | "), timelines()))
        }
    }
}

/// Run one generate-mode cell. On failure, the artifact carries the traces
/// recorded up to the failure point.
pub fn run_cell(kind: EngineKind, spec: &WorkloadSpec, seed: u64) -> Result<CellRun, FailureArtifact> {
    let chaos = Arc::new(ChaosSched::new(seed, spec.threads));
    match run_chaos_traced(kind, spec, chaos.clone()) {
        Ok(run) => Ok(CellRun {
            run,
            traces: chaos.take_traces(),
        }),
        Err((failure, events)) => Err(FailureArtifact {
            seed,
            engine: kind.label().to_string(),
            spec: spec.clone(),
            failure,
            traces: chaos.take_traces(),
            events,
        }),
    }
}

/// Re-run an artifact's cell in generate mode from its seed — the primary
/// reproduction path (`chaos_smoke --reproduce`). Returns `Err` with the
/// fresh failure if it reproduces.
pub fn reproduce(artifact: &FailureArtifact) -> Result<RunResult, String> {
    // Serve-oracle artifacts describe the whole serve matrix rather than one
    // engine's panic; the embedded spec only records geometry, so re-run the
    // oracle itself and fall back to a plain Hybrid cell for the Ok-path
    // RunResult.
    if artifact.engine == oracle::SERVE_ORACLE_ENGINE {
        return match oracle::serve_check(artifact.seed) {
            Ok(()) => run_cell(EngineKind::Hybrid, &artifact.spec, artifact.seed)
                .map(|cell| cell.run)
                .map_err(|a| a.failure),
            Err(a) => Err(a.failure),
        };
    }
    let kind = kind_from_label(&artifact.engine)
        .ok_or_else(|| format!("unknown engine label `{}`", artifact.engine))?;
    let chaos = Arc::new(ChaosSched::new(artifact.seed, artifact.spec.threads));
    run_chaos(kind, &artifact.spec, chaos)
}

/// Replay an artifact's recorded decision traces (used by the shrinker).
pub fn replay_traces(
    artifact: &FailureArtifact,
    traces: Vec<Vec<TraceStep>>,
) -> Result<RunResult, String> {
    let kind = kind_from_label(&artifact.engine)
        .ok_or_else(|| format!("unknown engine label `{}`", artifact.engine))?;
    run_chaos(kind, &artifact.spec, Arc::new(ChaosSched::replay(traces)))
}

/// Greedily shrink an artifact's decision traces: repeatedly halve each
/// thread's trace (and finally try dropping whole threads' perturbation)
/// keeping any candidate that still fails on replay. Bounded by
/// `max_attempts` replays. Returns the smallest still-failing artifact
/// (possibly the input unchanged — replay is best-effort, so a candidate
/// that happens to pass is simply not taken).
pub fn shrink(artifact: &FailureArtifact, max_attempts: usize) -> FailureArtifact {
    let mut best = artifact.clone();
    let mut attempts = 0;

    // Pass 1: per-thread halving.
    for t in 0..best.traces.len() {
        while !best.traces[t].is_empty() && attempts < max_attempts {
            let mut candidate = best.traces.clone();
            let new_len = candidate[t].len() / 2;
            candidate[t].truncate(new_len);
            attempts += 1;
            match replay_traces(&best, candidate.clone()) {
                Err(failure) => {
                    best.traces = candidate;
                    best.failure = failure;
                }
                Ok(_) => break,
            }
        }
    }

    // Pass 2: drop entire threads' perturbation.
    for t in 0..best.traces.len() {
        if best.traces[t].is_empty() || attempts >= max_attempts {
            continue;
        }
        let mut candidate = best.traces.clone();
        candidate[t].clear();
        attempts += 1;
        if let Err(failure) = replay_traces(&best, candidate.clone()) {
            best.traces = candidate;
            best.failure = failure;
        }
    }

    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_workloads::{chaos_disjoint, chaos_handoff, chaos_mix};

    #[test]
    fn clean_cells_pass_across_the_engine_matrix() {
        for (i, spec) in [chaos_mix(11), chaos_disjoint(12), chaos_handoff(13)]
            .iter()
            .enumerate()
        {
            for kind in MATRIX_ENGINES {
                let cell = run_cell(kind, spec, 0x5EED + i as u64)
                    .unwrap_or_else(|a| panic!("{} failed: {}", a.engine, a.failure));
                assert!(cell.run.report.accesses() > 0);
                assert!(
                    cell.traces.iter().any(|t| !t.is_empty()),
                    "perturbation layer must actually be consulted"
                );
            }
        }
    }

    #[test]
    fn replay_consumes_recorded_traces() {
        let spec = chaos_mix(21);
        let cell = run_cell(EngineKind::Hybrid, &spec, 21).expect("clean run");
        let artifact = FailureArtifact {
            seed: 21,
            engine: EngineKind::Hybrid.label().into(),
            spec,
            failure: String::new(),
            traces: cell.traces,
            events: Vec::new(),
        };
        let replayed = replay_traces(&artifact, artifact.traces.clone()).expect("replay clean");
        assert_eq!(replayed.report.accesses(), cell.run.report.accesses());
    }

    #[test]
    fn kind_labels_roundtrip() {
        for kind in EngineKind::ALL {
            assert_eq!(kind_from_label(kind.label()), Some(kind));
        }
        assert_eq!(kind_from_label("nope"), None);
    }
}
