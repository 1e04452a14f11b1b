//! What the same-state leaf skips, its continuation still delivers
//! (DESIGN.md §8). The leaf of `HybridEngine::{read, write}` records no
//! trace event, and the leaf of a safe point poll reaches no schedule point
//! and answers no request; each is guarded by a test — trace rings built,
//! hooks registered, request flagged — that sends every such operation to
//! the continuation instead. These tests fail if a guard is dropped. The
//! write continuation's settled write is guarded the same way, and must
//! count what the table executor it stands in for counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use drink_core::prelude::*;
use drink_core::word::StateWord;
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

/// The script of a settled object under pessimistic tracking — owner write,
/// foreign read, foreign write, owner write — once quiet, where every write
/// after the first takes the settled write's straight line, and once with
/// trace rings, where the executor makes every one: the state words, the
/// payload and every counter must agree. (Both mutators are attached to this
/// OS thread: no access of the script waits for the other.)
#[test]
fn the_settled_write_counts_as_the_executor_does() {
    let run = |trace_capacity: usize| {
        let rt = Runtime::new(config().trace_capacity(trace_capacity).build());
        let e = HybridEngine::with_config(Arc::new(rt), NullSupport, HybridConfig::pessimistic());
        let (t0, t1) = (e.attach(), e.attach());
        e.alloc_init(O, t0);
        let mut words = Vec::new();
        let word = || StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
        e.write(t0, O, 1);
        words.push(word());
        assert_eq!(e.read(t1, O), 1);
        words.push(word());
        e.write(t1, O, 2);
        words.push(word());
        e.write(t0, O, 3);
        words.push(word());
        e.detach(t0);
        e.detach(t1);
        let counts = Event::ALL.map(|ev| (ev, e.rt().stats().get(ev)));
        (words, e.rt().obj(O).data_read(), counts)
    };
    let quiet = run(0);
    let traced = run(64);
    assert_eq!(quiet, traced);
    let (words, payload, _) = quiet;
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    let versions = [(t0, 1), (t0, 1), (t1, 2), (t0, 3)].map(|(t, k)| StateWord::version(t, k));
    assert_eq!((words, payload), (versions.to_vec(), 3));
}

/// `N` owner writes of a settled object after its first, on
/// `EngineKind::Pessimistic`: `N` claims, `N` versions published, and not a
/// store to the profile word — the word alone is the policy's verdict.
#[test]
fn owner_writes_of_a_settled_object_claim_and_publish_once_each() {
    const N: u64 = 9;
    let e = EngineKind::Pessimistic.build_config(config().build());
    let t = e.attach();
    e.alloc_init(O, t);
    let profile = || e.rt().obj(O).profile().load(Ordering::SeqCst);
    let born = profile();
    for i in 0..=N {
        e.write(t, O, i);
    }
    e.detach(t);
    // The first write claims the birth word, `WrExPess(T)`, and publishes
    // the first version; each of the `N` after it, one more.
    let r = e.rt().stats().report();
    assert_eq!(r.get(Event::PessUncontended), 1 + N);
    assert_eq!(r.get(Event::VersionPublished), 1 + N);
    assert_eq!(r.get(Event::PessOwnerChange), 0);
    assert_eq!(profile(), born, "a write stored to the profile word");
    assert_eq!(StateWord(e.rt().obj(O).state().load(Ordering::SeqCst)), StateWord::version(t, N + 1));
    assert_eq!(e.rt().obj(O).data_read(), N);
}
