//! What the same-state leaf skips, its continuation still delivers
//! (DESIGN.md §8). The leaf of `HybridEngine::{read, write}` records no
//! trace event, and the leaf of a safe point poll reaches no schedule point
//! and answers no request; each is guarded by a test — trace rings built,
//! hooks registered, request flagged — that sends every such operation to
//! the continuation instead. These tests fail if a guard is dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use drink_core::prelude::*;
use drink_runtime::{
    CoordRequest, Event, ObjId, ResponseToken, Runtime, RuntimeConfig, RuntimeConfigBuilder,
    SchedHooks, SchedPoint, ThreadId,
};

const O: ObjId = ObjId(1);

fn config() -> RuntimeConfigBuilder {
    RuntimeConfig::builder().max_threads(2).heap_objects(2)
}

/// Counts the perturbations at `SafepointPoll`.
#[derive(Debug, Default)]
struct PollCounter(AtomicU64);

impl SchedHooks for PollCounter {
    fn perturb(&self, _t: ThreadId, point: SchedPoint) {
        if point == SchedPoint::SafepointPoll {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn hybrid_with_hooks(hooks: Option<Arc<PollCounter>>) -> HybridEngine {
    let mut rt = Runtime::new(config().build());
    if let Some(hooks) = hooks {
        rt.set_sched_hooks(hooks);
    }
    HybridEngine::new(Arc::new(rt))
}

#[test]
fn a_trace_sink_hears_every_same_state_access() {
    const READS: u64 = 5;
    const WRITES: u64 = 3;
    let e = HybridEngine::new(Arc::new(Runtime::new(config().trace_capacity(64).build())));
    let t = e.attach();
    e.alloc_init(O, t);
    for i in 0..WRITES {
        e.write(t, O, i);
    }
    for _ in 0..READS {
        assert_eq!(e.read(t, O), WRITES - 1);
    }
    e.detach(t);

    let snapshot = e.rt().trace_rings().expect("tracing is on").snapshot();
    let mine = snapshot.threads.iter().find(|th| th.tid == t.raw()).expect("this thread's ring");
    let heard = |kind| mine.events.iter().filter(|r| r.kind == kind && r.arg == O.0 as u64).count() as u64;
    assert_eq!(heard(Event::Read), READS);
    assert_eq!(heard(Event::Write), WRITES);
    assert_eq!(e.rt().stats().get(Event::OptSameState), READS + WRITES);
}

#[test]
fn schedule_hooks_see_every_idle_poll() {
    const POLLS: u64 = 7;
    let hooks = Arc::new(PollCounter::default());
    let e = hybrid_with_hooks(Some(hooks.clone()));
    let t = e.attach();
    for _ in 0..POLLS {
        e.safepoint(t);
    }
    e.detach(t);
    assert_eq!(hooks.0.load(Ordering::Relaxed), POLLS);
    assert_eq!(e.rt().stats().get(Event::SafepointPoll), POLLS);
    assert_eq!(e.rt().stats().get(Event::RespondedExplicit), 0);
}

#[test]
fn a_poll_answers_the_request_it_finds_with_and_without_hooks() {
    for hooks in [None, Some(Arc::new(PollCounter::default()))] {
        let e = hybrid_with_hooks(hooks.clone());
        let (t, requester) = (e.attach(), e.attach());
        let token = ResponseToken::new();
        e.rt().control(t).enqueue_request(CoordRequest { from: requester, obj: None, token: token.clone() });
        e.safepoint(t);
        assert!(token.is_done(), "the poll that found the request answers it (hooks: {hooks:?})");
        e.detach(t);
        assert_eq!(e.rt().stats().get(Event::RespondedExplicit), 1, "hooks: {hooks:?}");
    }
}
