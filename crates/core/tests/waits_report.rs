//! Every wait is a scheduling point (DESIGN.md §9): a thread that waits on
//! another reports `SpinBackoff` to the runtime's schedule hooks at every
//! step, whichever engine it waits in. Each test holds an object's state word
//! where a reader must wait, releases it a few milliseconds after the
//! reader's first report, and counts the reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drink_core::prelude::*;
use drink_core::word::{LockMode, StateWord};
use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig, SchedHooks, SchedPoint, ThreadId};

const O: ObjId = ObjId(0);

/// Counts the perturbations at `SpinBackoff`.
#[derive(Debug, Default)]
struct BackoffCounter(AtomicU64);

impl SchedHooks for BackoffCounter {
    fn perturb(&self, _t: ThreadId, point: SchedPoint) {
        if point == SchedPoint::SpinBackoff {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A runtime whose schedule hooks are `hooks`.
fn runtime(hooks: Arc<BackoffCounter>) -> Arc<Runtime> {
    let mut rt = Runtime::new(RuntimeConfig::builder().max_threads(2).heap_objects(1).build());
    rt.set_sched_hooks(hooks);
    Arc::new(rt)
}

/// Read `O` on a fresh thread of `e` while its state word reads `held`; the
/// number of backoff steps `hooks` heard. Another thread restores the word a
/// few milliseconds after the first one, or after a second if none comes, so
/// that a wait that reports nothing fails the test instead of hanging it.
fn backoffs_while_held(e: &impl Tracker, hooks: &BackoffCounter, held: StateWord) -> u64 {
    let t = e.attach();
    e.alloc_init(O, t);
    let state = e.rt().obj(O).state();
    let owned = state.swap(held.0, Ordering::SeqCst);
    std::thread::scope(|s| {
        s.spawn(|| {
            let t0 = Instant::now();
            while hooks.0.load(Ordering::Relaxed) == 0 && t0.elapsed() < Duration::from_secs(1) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(5));
            state.store(owned, Ordering::SeqCst);
        });
        assert_eq!(e.read(t, O), 0);
    });
    e.detach(t);
    hooks.0.load(Ordering::Relaxed)
}

#[test]
fn a_pessimistic_read_of_a_locked_word_reports_its_backoff() {
    let hooks = Arc::new(BackoffCounter::default());
    let e = EngineKind::Pessimistic.build(runtime(hooks.clone()));
    let held = StateWord::wr_ex_pess(ThreadId(1), LockMode::Write);
    assert!(
        backoffs_while_held(&e, &hooks, held) > 0,
        "the wait for a lock's release is a scheduling point"
    );
    let r = e.rt().stats().report();
    assert_eq!((r.get(Event::CoordinationRoundtrip), r.pess_contended()), (0, 0), "nor a coordination");
}

#[test]
fn a_hybrid_read_of_an_intermediate_word_reports_its_backoff() {
    let hooks = Arc::new(BackoffCounter::default());
    let e = HybridEngine::new(runtime(hooks.clone()));
    let held = StateWord::int(ThreadId(1));
    assert!(backoffs_while_held(&e, &hooks, held) > 0, "the slow loop is a scheduling point");
}
