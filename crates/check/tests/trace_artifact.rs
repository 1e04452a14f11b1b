//! Failure artifacts embed per-thread protocol-event timelines.
//!
//! Forces a deterministic failure (every worker panics at a scheduler
//! perturbation point after a fixed number of visits) on a conflict-free
//! workload — no thread is ever blocked waiting on a panicked peer, so the
//! cell tears down promptly — and asserts the resulting artifact carries
//! non-empty event timelines that survive the JSON round trip. The replay
//! oracle's catches, which build no cell, carry the failing recording's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drink_check::harness::run_chaos;
use drink_check::oracle::replay_check;
use drink_check::{FailureArtifact, Subject};
use drink_runtime::{Event, SchedHooks, SchedPoint, ThreadId};
use drink_workloads::{chaos_disjoint, EngineKind};

/// Panics on every thread once the process-wide perturbation count passes a
/// threshold — a stand-in for "some invariant fired mid-run".
#[derive(Debug)]
struct PanicAfter {
    seen: AtomicUsize,
    threshold: usize,
}

impl SchedHooks for PanicAfter {
    fn perturb(&self, t: ThreadId, _point: SchedPoint) {
        if self.seen.fetch_add(1, Ordering::Relaxed) >= self.threshold {
            panic!("injected chaos failure at T{}", t.raw());
        }
    }
}

#[test]
fn failure_artifact_embeds_per_thread_event_timelines() {
    let spec = chaos_disjoint(0xA11_FA11);
    let hooks = Arc::new(PanicAfter {
        seen: AtomicUsize::new(0),
        threshold: 40,
    });
    let (outcome, events) = run_chaos(Subject::Engine(EngineKind::Hybrid), &spec, hooks);
    let failure = outcome.expect_err("cell must fail");
    assert!(failure.contains("injected chaos failure"), "{failure}");

    // Every worker got far enough to record accesses before the panic.
    assert_eq!(events.len(), spec.threads);
    let non_empty = events.iter().filter(|t| !t.events.is_empty()).count();
    assert!(non_empty > 0, "at least one thread must have a timeline");
    let total: usize = events.iter().map(|t| t.events.len()).sum();
    assert!(total > 0);
    // Disjoint-object accesses on the hybrid engine emit access events.
    assert!(events.iter().flat_map(|t| &t.events).any(|e| {
        matches!(e.kind, Event::Read | Event::Write)
    }));

    let artifact = FailureArtifact {
        seed: 0xA11_FA11,
        engine: EngineKind::Hybrid.label().to_string(),
        spec,
        failure,
        traces: Vec::new(),
        events,
    };
    let json = artifact.to_json();
    assert!(json.contains("\"ts_ns\""), "the artifact carries event records");
    let back = FailureArtifact::from_json(&json).expect("artifact parses");
    assert_eq!(back.events, artifact.events);
    assert!(!back.events.iter().all(|t| t.events.is_empty()));
}

/// A failure only the record/replay oracle sees — here a panic injected into
/// the recording — carries the recording's event timelines on its own, so no
/// other oracle has to run first for an artifact to show what happened.
#[test]
fn a_replay_only_failure_carries_the_recordings_event_timelines() {
    let spec = chaos_disjoint(0xA11_FA12);
    let hooks = Arc::new(PanicAfter {
        seen: AtomicUsize::new(0),
        threshold: 40,
    });
    let (failure, events) = replay_check(&spec, Some(hooks)).expect_err("the recording must fail");
    assert!(failure.contains("record/replay"), "{failure}");
    assert_eq!(events.len(), spec.threads);
    assert!(events.iter().flat_map(|t| &t.events).any(|e| matches!(e.kind, Event::Read | Event::Write)));
}
