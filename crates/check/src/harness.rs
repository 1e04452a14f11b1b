//! Cell execution: run one (subject × spec × seed) under perturbation,
//! convert failures into artifacts, reproduce and shrink them.
//!
//! A *cell* builds a fresh runtime sized for what it runs, with
//! [`CHAOS_TRACE_CAPACITY`] trace rings, registers a scheduler before the
//! runtime is shared, runs its [`Subject`] — the workload driver under an
//! engine, the workload's regions under an RS enforcer, or the serve store
//! under an engine — and applies the post-run quiescence oracles. Every
//! cell, whichever its subject, goes through [`run_chaos`]. Worker panics —
//! protocol `panic!`s, `check-invariants` assertions, spin-watchdog expiries
//! — propagate out of `std::thread::scope` and are caught there; because
//! the scope replaces the payload with a generic message, a chained panic
//! hook records the real per-thread messages for the artifact.
//!
//! An artifact's label is a [`Check`]: the cell that failed on its own, or
//! the [`Oracle`] whose cross-cell property failed. [`reproduce`] re-runs
//! exactly that, and [`shrink`] replays trace variants of cell failures only.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use drink_runtime::{Runtime, RuntimeConfig, SchedHooks, StatsReport, ThreadTrace};
use drink_serve::{chaos_serve, run_serve_on, ServeConfig};
use drink_workloads::{
    run_kind_on, run_rs_on, runtime_config_for, EngineKind, RsKind, WorkloadSpec,
};

use crate::artifact::FailureArtifact;
use crate::chaos::{ChaosSched, TraceStep};
use crate::oracle::{self, Oracle};

/// The engines the chaos matrix exercises (tracking engines only: baseline
/// does not participate in the protocols, and Ideal is deliberately
/// unsound).
pub const MATRIX_ENGINES: [EngineKind; 3] = [
    EngineKind::Pessimistic,
    EngineKind::Optimistic,
    EngineKind::Hybrid,
];

/// What one chaos cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subject {
    /// The workload driver under a tracking engine.
    Engine(EngineKind),
    /// The spec's statically bounded regions under an RS enforcer.
    Rs(RsKind),
    /// The serve store's chaos configuration, `chaos_serve(spec.seed)`,
    /// under an engine; the spec only records its geometry ([`serve_spec`]).
    Serve(EngineKind),
}

impl Subject {
    /// The artifact label: the engine's label, the enforcer's name, or
    /// `serve/` and the engine's label.
    pub fn label(self) -> String {
        match self {
            Subject::Engine(kind) => kind.label().into(),
            Subject::Rs(kind) => kind.name().into(),
            Subject::Serve(kind) => format!("serve/{}", kind.label()),
        }
    }
}

/// A [`WorkloadSpec`]-shaped record of the serve store's chaos
/// configuration: the geometry (threads / objects / monitors) that sizes
/// the cell's chaos scheduler and prints in artifacts, and the seed its
/// [`Subject::Serve`] cells derive the configuration from.
pub fn serve_spec(seed: u64) -> WorkloadSpec {
    let cfg = chaos_serve(seed);
    WorkloadSpec::builder()
        .name("chaosServe")
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

/// What a failure artifact names, and what [`reproduce`] re-runs for it:
/// one cell on the artifact's (spec, seed), or one oracle on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// A cell that failed on its own: a panic or a quiescence violation.
    Cell(Subject),
    /// A property an oracle checks over the cells it runs.
    Oracle(Oracle),
}

impl Check {
    /// The artifact label.
    pub fn label(self) -> String {
        match self {
            Check::Cell(subject) => subject.label(),
            Check::Oracle(oracle) => oracle.label().into(),
        }
    }

    /// Every check an artifact can name.
    pub(crate) fn all() -> impl Iterator<Item = Check> {
        let subjects = EngineKind::ALL
            .into_iter()
            .flat_map(|k| [Subject::Engine(k), Subject::Serve(k)])
            .chain([RsKind::Optimistic, RsKind::Hybrid].map(Subject::Rs));
        subjects
            .map(Check::Cell)
            .chain(Oracle::ALL.map(Check::Oracle))
    }

    /// Parse a [`Check::label`] back.
    pub(crate) fn from_label(label: &str) -> Option<Check> {
        Check::all().find(|c| c.label() == label)
    }

    /// Run the check on `spec` under chaos seed `seed`.
    pub fn run(self, spec: &WorkloadSpec, seed: u64) -> Result<(), FailureArtifact> {
        match self {
            Check::Cell(subject) => run_cell(subject, spec, seed).map(drop),
            Check::Oracle(oracle) => oracle.check(spec, seed),
        }
    }
}

/// A panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

/// Run `f`, turning a panic into its message (for the unperturbed replay
/// oracle, which builds no cell).
pub(crate) fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| Err(panic_message(&*payload)))
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
            let msg = panic_message(info.payload());
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

/// A successfully completed cell, with everything a failure the oracles
/// diagnose *after* the run needs for its artifact.
#[derive(Debug)]
pub struct CellRun {
    /// The run's counters.
    pub report: StatsReport,
    /// Final payload of every object (the serve store: of every key).
    pub heap: Vec<u64>,
    /// Per-thread decision traces.
    pub traces: Vec<Vec<TraceStep>>,
    /// Per-thread protocol-event timelines at the end of the run.
    pub events: Vec<ThreadTrace>,
}

/// A cell's counters and final heap, or its failure.
pub type Outcome = Result<(StatsReport, Vec<u64>), String>;

/// Ring capacity for the event timelines embedded in failure artifacts:
/// the last N protocol events per thread, enough to see the state-word
/// transitions leading into a failure without bloating artifact files.
pub const CHAOS_TRACE_CAPACITY: usize = 256;

/// The one cell runner: run `subject` on `spec` with `sched` registered,
/// catching worker panics and applying the quiescence oracles (the serve
/// store's own first, then the engine-level heap scan: a lock-buffer leak
/// can exist even when every PUT landed). Returns the run's counters and
/// final heap, or the failure, together with the per-thread event
/// timelines. The runtime, and with it its trace rings, is built *outside*
/// the `catch_unwind`, so the rings survive the worker panic that ended the
/// run.
pub fn run_chaos(
    subject: Subject,
    spec: &WorkloadSpec,
    sched: Arc<dyn SchedHooks>,
) -> (Outcome, Vec<ThreadTrace>) {
    install_panic_recorder();
    drain_panic_messages();
    let serve = |engine| ServeConfig {
        engine,
        ..chaos_serve(spec.seed)
    };
    let config = match subject {
        Subject::Serve(engine) => serve(engine).runtime_config(),
        _ => runtime_config_for(spec),
    };
    let mut rt = Runtime::new(RuntimeConfig {
        trace_capacity: CHAOS_TRACE_CAPACITY,
        ..config
    });
    rt.set_sched_hooks(sched);
    let rt = Arc::new(rt);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let run = match subject {
            Subject::Engine(kind) => {
                let r = run_kind_on(kind, Arc::clone(&rt), spec);
                (r.report, r.heap)
            }
            Subject::Rs(kind) => {
                let r = run_rs_on(kind, Arc::clone(&rt), spec);
                (r.report, r.heap)
            }
            Subject::Serve(engine) => {
                let r = run_serve_on(Arc::clone(&rt), &serve(engine));
                r.check_quiescent()?;
                (r.report, r.final_values)
            }
        };
        oracle::check_quiescent(&rt, &subject.label()).map(|()| run)
    }));
    let outcome = outcome.unwrap_or_else(|payload| {
        let mut msgs = drain_panic_messages();
        if msgs.is_empty() {
            msgs.push(panic_message(&*payload));
        }
        Err(msgs.join(" | "))
    });
    let timelines = rt
        .trace_rings()
        .expect("built with trace rings")
        .snapshot()
        .threads;
    (outcome, timelines)
}

/// Run one generate-mode cell. On failure, the artifact names the cell and
/// carries the traces and timelines recorded up to the failure point.
pub fn run_cell(
    subject: Subject,
    spec: &WorkloadSpec,
    seed: u64,
) -> Result<CellRun, FailureArtifact> {
    let chaos = Arc::new(ChaosSched::new(seed, spec.threads));
    let (outcome, events) = run_chaos(subject, spec, chaos.clone());
    let traces = chaos.take_traces();
    match outcome {
        Ok((report, heap)) => Ok(CellRun {
            report,
            heap,
            traces,
            events,
        }),
        Err(failure) => Err(FailureArtifact {
            seed,
            engine: subject.label(),
            spec: spec.clone(),
            failure,
            traces,
            events,
        }),
    }
}

/// Re-run what an artifact names from its seed — the primary reproduction
/// path (`chaos_smoke --reproduce`): the cell for a cell failure, the oracle
/// for an oracle failure. `Ok(Some(failure))` if it fails again, `Ok(None)`
/// if it now passes; `Err` if the label names nothing this harness runs,
/// which is a harness error and never a reproduction.
pub fn reproduce(artifact: &FailureArtifact) -> Result<Option<String>, String> {
    let check = Check::from_label(&artifact.engine)
        .ok_or_else(|| format!("unknown artifact label `{}`", artifact.engine))?;
    Ok(check
        .run(&artifact.spec, artifact.seed)
        .err()
        .map(|a| a.failure))
}

/// Replay `traces` through `subject`'s cell; the failure if it still fails.
fn replay_fails(
    subject: Subject,
    spec: &WorkloadSpec,
    traces: Vec<Vec<TraceStep>>,
) -> Option<String> {
    run_chaos(subject, spec, Arc::new(ChaosSched::replay(traces)))
        .0
        .err()
}

/// Greedily shrink a cell failure's decision traces: repeatedly halve each
/// thread's trace (and finally try dropping whole threads' perturbation)
/// keeping any candidate that still fails on replay. Bounded by
/// `max_attempts` replays. Returns the smallest still-failing artifact
/// (possibly the input unchanged — replay is best-effort, so a candidate
/// that happens to pass is simply not taken). An oracle failure is
/// returned unchanged: its traces are the exposing cell's, but the failure
/// is a property of several cells, which no one cell's replay re-checks.
pub fn shrink(artifact: &FailureArtifact, max_attempts: usize) -> FailureArtifact {
    let mut best = artifact.clone();
    let Some(Check::Cell(subject)) = Check::from_label(&artifact.engine) else {
        return best;
    };
    let mut attempts = 0;

    // Pass 1: per-thread halving.
    for t in 0..best.traces.len() {
        while !best.traces[t].is_empty() && attempts < max_attempts {
            let mut candidate = best.traces.clone();
            let new_len = candidate[t].len() / 2;
            candidate[t].truncate(new_len);
            attempts += 1;
            match replay_fails(subject, &best.spec, candidate.clone()) {
                Some(failure) => {
                    best.traces = candidate;
                    best.failure = failure;
                }
                None => break,
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
        if let Some(failure) = replay_fails(subject, &best.spec, candidate.clone()) {
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
                let cell = run_cell(Subject::Engine(kind), spec, 0x5EED + i as u64)
                    .unwrap_or_else(|a| panic!("{} failed: {}", a.engine, a.failure));
                assert!(cell.report.accesses() > 0);
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
        let subject = Subject::Engine(EngineKind::Hybrid);
        let cell = run_cell(subject, &spec, 21).expect("clean run");
        let (replayed, _) = run_chaos(subject, &spec, Arc::new(ChaosSched::replay(cell.traces)));
        let (report, _) = replayed.expect("replay clean");
        assert_eq!(report.accesses(), cell.report.accesses());
    }

    #[test]
    fn kind_labels_roundtrip() {
        for check in Check::all() {
            assert_eq!(Check::from_label(&check.label()), Some(check));
        }
        assert_eq!(
            Check::all().count(),
            2 * EngineKind::ALL.len() + 2 + Oracle::ALL.len()
        );
        assert_eq!(Check::from_label("nope"), None);
        assert_eq!(Check::from_label("serve/nope"), None);
    }

    /// An oracle failure keeps its message and traces through `shrink`, and
    /// `reproduce` re-runs its oracle instead of failing to parse the label
    /// (which both used to read as "still fails").
    #[test]
    fn differential_artifacts_keep_their_traces_and_reproduce_their_oracle() {
        let spec = chaos_disjoint(61);
        let cell = run_cell(Subject::Engine(EngineKind::Hybrid), &spec, 61).expect("clean run");
        let artifact = FailureArtifact {
            seed: 61,
            engine: "differential".into(),
            spec,
            failure: "access counts diverge: Pessimistic performed 1, Hybrid performed 2".into(),
            traces: cell.traces,
            events: cell.events,
        };
        assert!(artifact.trace_len() > 0);
        let shrunk = shrink(&artifact, 64);
        assert_eq!(shrunk.failure, artifact.failure);
        assert_eq!(shrunk.traces, artifact.traces);
        assert_eq!(
            reproduce(&artifact),
            Ok(None),
            "the differential oracle holds on a clean spec"
        );

        let unknown = FailureArtifact {
            engine: "no-such-check".into(),
            ..artifact
        };
        assert!(reproduce(&unknown).is_err());
    }
}
