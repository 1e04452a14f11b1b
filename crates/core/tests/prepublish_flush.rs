//! A holder's flush that lands inside another thread's pre-publish window.
//!
//! Under a pre-publishing support (the recorder), the row
//! `RdExRLock(T1) R by T2 → RdShRLock(2)` parks the state word at `Int(T2)`
//! while T2's support hook runs. T1 holds its read lock through that window;
//! a flush of T1's that lands in it must wait for the publish and then
//! release its share — not find "its" locked state gone. (Found as the
//! `lock buffer entry not locked: Int[T1]` flake of the hybrid recorder
//! tests; here the interleaving is forced.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::prelude::*;
use drink_core::support::{SupportCx, TransitionEv};
use drink_core::word::{LockMode, StateWord};
use drink_runtime::{
    Event, MonitorId, ObjId, Runtime, RuntimeConfig, SchedHooks, SchedPoint, ThreadId, Wait,
};

const O: ObjId = ObjId(0);
const HOLDER: ThreadId = ThreadId(0);

#[derive(Debug, Default)]
struct Window {
    /// The second reader is inside its pre-publish window.
    open: AtomicBool,
    /// The holder's flush has found the word at `Int` and is waiting.
    holder_waiting: AtomicBool,
}

/// Pre-publishing support whose `RdShCreate` hook keeps the window open
/// until the holder's flush is waiting on it.
struct HoldWindowOpen(Arc<Window>);

impl Support for HoldWindowOpen {
    const PREPUBLISH: bool = true;

    fn on_transition(&self, cx: SupportCx<'_>, _obj: ObjId, ev: TransitionEv<'_>) {
        if let TransitionEv::RdShCreate { pess: true, .. } = ev {
            self.0.open.store(true, Ordering::Release);
            let mut wait = cx.rt.wait(cx.t, "holder's flush to reach the window");
            while !self.0.holder_waiting.load(Ordering::Acquire) {
                let _ = wait.step();
            }
        }
    }
}

/// The holder only ever backs off inside its flush, waiting for the publish.
#[derive(Debug)]
struct NoteHolderWaiting(Arc<Window>);

impl SchedHooks for NoteHolderWaiting {
    fn perturb(&self, t: ThreadId, point: SchedPoint) {
        if t == HOLDER && point == SchedPoint::SpinBackoff && self.0.open.load(Ordering::Acquire) {
            self.0.holder_waiting.store(true, Ordering::Release);
        }
    }
}

#[test]
fn flush_inside_a_second_readers_prepublish_window_waits_for_the_publish() {
    let window = Arc::new(Window::default());
    let mut rt = Runtime::new(
        RuntimeConfig::builder()
            .max_threads(2)
            .heap_objects(4)
            .monitors(1)
            .build(),
    );
    rt.set_sched_hooks(Arc::new(NoteHolderWaiting(window.clone())));
    let e = HybridEngine::with_config(
        Arc::new(rt),
        HoldWindowOpen(window.clone()),
        HybridConfig::default(),
    );

    let t1 = e.attach();
    assert_eq!(t1, HOLDER);
    e.rt()
        .obj(O)
        .state()
        .store(StateWord::rd_ex_pess(t1, LockMode::Unlocked).0, Ordering::SeqCst);
    let _ = e.read(t1, O);
    let w = StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
    assert_eq!(w, StateWord::rd_ex_pess(t1, LockMode::Read));

    std::thread::scope(|s| {
        s.spawn(|| {
            let t2 = e.attach();
            let _ = e.read(t2, O); // claims Int(t2), holds the window open
            e.detach(t2);
        });
        // A bare wait: this thread is the holder, and a step it reported
        // here would pass for its flush waiting in the window.
        let mut wait = Wait::new("second reader to open its window");
        while !window.open.load(Ordering::Acquire) {
            let _ = wait.step();
        }
        // PSRO: flush while the word reads Int(t2).
        e.lock(t1, MonitorId(0));
        e.unlock(t1, MonitorId(0));
    });

    // Both shares were released, one each.
    let w = StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
    assert!(w.is_pess_unlocked() && w.read_locks() == 0, "{w:?}");
    // SAFETY: this is the OS thread attached as t1.
    assert!(unsafe { e.common().ts(t1) }.holds_no_locks());
    e.detach(t1);
    assert_eq!(e.rt().stats().get(Event::StateUnlocked), 2);
}
