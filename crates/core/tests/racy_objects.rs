//! Objects that prove racy stop deferring their unlocks (DESIGN.md §13).
//!
//! Deferred unlocking (§3.1) assumes object-level data-race freedom; the
//! profile word counts the violations (`pessContended`). Once an object has
//! contended `Cutoff_confl` times, an access that locks it gives the lock
//! back right after the program access — never before it — until the object
//! next leaves the `Pess` phase. Only under a support that can do without
//! Table 3's lock discipline: on `PaperModel` nothing changes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::policy::{AdaptivePolicy, Phase, PolicyParams};
use drink_core::prelude::*;
use drink_core::word::{LockMode, StateWord};
use drink_runtime::{
    Event, MonitorId, ObjId, Runtime, RuntimeConfig, SchedHooks, SchedPoint, StatsReport, ThreadId,
};

const O: ObjId = ObjId(0);
const M: MonitorId = MonitorId(0);
const T0: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);

fn runtime() -> Runtime {
    Runtime::new(
        RuntimeConfig::builder()
            .max_threads(4)
            .heap_objects(8)
            .monitors(2)
            .build(),
    )
}

fn racy<S: Support>(e: &HybridEngine<S>) -> bool {
    let p = AdaptivePolicy::profile(e.rt().obj(O).profile());
    p.phase == Phase::Pess && p.pess_contended >= e.config().policy.cutoff_confl
}

/// Every access was classified exactly once.
fn assert_partition(r: &StatsReport) {
    let classified = r.opt_same_state()
        + r.get(Event::OptUpgrading)
        + r.get(Event::OptFence)
        + r.opt_conflicting()
        + r.pess_uncontended()
        + r.validated_reads();
    assert_eq!(classified, r.accesses(), "an access was dropped or double-counted");
}

/// What one access to `O` did to the thread that made it.
#[derive(Clone, Copy, Debug)]
struct Obs {
    /// The object was racy when the access began.
    racy_before: bool,
    /// Contended transitions and coordination roundtrips it cost.
    contended: u64,
    roundtrips: u64,
    /// The thread still holds a lock on `O` now that it is over.
    locked_after: bool,
}

fn observe<S: Support>(e: &HybridEngine<S>, t: ThreadId, access: impl FnOnce()) -> Obs {
    let counters = || {
        // SAFETY: this is the OS thread attached as `t`.
        let ts = unsafe { e.common().ts(t) };
        (
            ts.stats.get(Event::PessContended),
            ts.stats.get(Event::CoordinationRoundtrip),
            !ts.lock_buffer.is_empty(),
        )
    };
    let racy_before = racy(e);
    let before = counters();
    access();
    let after = counters();
    Obs {
        racy_before,
        contended: after.0 - before.0,
        roundtrips: after.1 - before.1,
        locked_after: after.2,
    }
}

/// The `KvStore` GET/PUT shape on one key, in strict turns so that the run is
/// the same under every schedule: the reader's unsynchronised GET, then the
/// writer's `synchronized` read-modify-write, `rounds` times. Whoever waits
/// for its turn keeps polling safe points. Returns the reader's observations
/// (one per GET), the writer's (a read and a write per PUT) and the report.
fn get_put_rounds<S: Support>(e: &HybridEngine<S>, rounds: usize) -> (Vec<Obs>, Vec<Obs>, StatsReport) {
    e.alloc_init_read_shared(O);
    // Even: the reader's turn. Odd: the writer's.
    let turn = AtomicUsize::new(0);
    let await_turn = |t: ThreadId, mine: usize| {
        let mut spin = e.rt().spinner_for(t, "the other thread's turn");
        while turn.load(Ordering::Acquire) != mine {
            e.safepoint(t);
            spin.spin();
        }
    };
    let (gets, puts) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let t = e.attach();
            let mut obs = Vec::new();
            for round in 0..rounds {
                await_turn(t, 2 * round);
                obs.push(observe(e, t, || {
                    let _ = e.read(t, O);
                }));
                turn.store(2 * round + 1, Ordering::Release);
            }
            // The last PUT may still need this thread to give up a lock.
            await_turn(t, 2 * rounds);
            e.detach(t);
            obs
        });
        let writer = s.spawn(|| {
            let t = e.attach();
            let mut obs = Vec::new();
            for round in 0..rounds {
                await_turn(t, 2 * round + 1);
                e.lock(t, M);
                let mut seq = 0;
                obs.push(observe(e, t, || seq = e.read(t, O)));
                obs.push(observe(e, t, || e.write(t, O, seq + 1)));
                e.unlock(t, M);
                turn.store(2 * round + 2, Ordering::Release);
            }
            e.detach(t);
            obs
        });
        (reader.join().unwrap(), writer.join().unwrap())
    });
    assert_eq!(e.rt().obj(O).data_read(), rounds as u64, "one increment per PUT");
    let w = StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
    assert!(!w.is_int() && !w.is_pess_locked(), "quiescent state: {w:?}");
    let r = e.rt().stats().report();
    assert_eq!(r.accesses(), 3 * rounds as u64);
    assert_partition(&r);
    (gets, puts, r)
}

const ROUNDS: usize = 40;

#[test]
fn get_put_shape_stops_contending_past_the_cutoff() {
    let e = HybridEngine::new(Arc::new(runtime()));
    let cutoff = u64::from(e.config().policy.cutoff_confl);
    let (gets, puts, r) = get_put_rounds(&e, ROUNDS);

    // Each round's deferred GET lock costs the PUT that follows a contended
    // transition and a fan-out — until the key has contended `cutoff` times.
    let first_racy = gets.iter().position(|o| o.racy_before).expect("the key never turned racy");
    assert!(first_racy < ROUNDS / 2, "turned racy only at round {first_racy}");
    // From then on no access to it contends, coordinates, or leaves a lock
    // behind — so both counters stop where they stood.
    for o in gets.iter().chain(&puts).filter(|o| o.racy_before) {
        assert_eq!((o.contended, o.roundtrips, o.locked_after), (0, 0, false), "{o:?}");
    }
    assert!(gets[first_racy..].iter().all(|o| o.racy_before), "racy until it leaves Pess");
    assert_eq!(r.pess_contended(), cutoff);
    assert!(racy(&e));
}

#[test]
fn paper_model_keeps_every_lock_deferred() {
    let e = HybridEngine::with_config(Arc::new(runtime()), PaperModel, HybridConfig::default());
    let cutoff = u64::from(e.config().policy.cutoff_confl);
    let (gets, puts, r) = get_put_rounds(&e, ROUNDS);

    // The policy reaches the same verdict...
    assert!(racy(&e));
    let racy_gets: Vec<_> = gets.iter().filter(|o| o.racy_before).collect();
    assert!(!racy_gets.is_empty());
    // ...and Table 3 stays exact all the same: the GET's read lock is
    // deferred, and every PUT write contends with it once and coordinates.
    assert!(racy_gets.iter().all(|o| o.locked_after), "{racy_gets:?}");
    let racy_puts: Vec<_> = puts.chunks(2).filter(|put| put[0].racy_before).collect();
    for put in &racy_puts {
        assert_eq!((put[1].contended, put[1].locked_after), (1, true), "{put:?}");
        assert!(put[1].roundtrips >= 1, "{put:?}");
    }
    // Contention keeps being counted, one per PUT, long past the cutoff.
    assert!(racy_puts.len() > ROUNDS / 2);
    assert_eq!(r.pess_contended(), cutoff + racy_puts.len() as u64);
}

/// Two `synchronized` writers and a racy reader, free-running: whatever the
/// schedule and whichever accesses released early, no PUT is lost.
#[test]
fn free_running_readers_and_writers_lose_no_update() {
    const PUTS: u64 = 3_000;
    let e = HybridEngine::new(Arc::new(runtime()));
    e.alloc_init_read_shared(O);
    let writers_left = AtomicUsize::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let t = e.attach();
                for _ in 0..PUTS {
                    e.lock(t, M);
                    let seq = e.read(t, O);
                    e.write(t, O, seq + 1);
                    e.unlock(t, M);
                    e.safepoint(t);
                }
                writers_left.fetch_sub(1, Ordering::Release);
                e.detach(t);
            });
        }
        s.spawn(|| {
            let t = e.attach();
            let mut last = 0;
            while writers_left.load(Ordering::Acquire) > 0 {
                let seq = e.read(t, O);
                assert!(seq >= last, "GET went back in time: {seq} after {last}");
                last = seq;
                e.safepoint(t);
            }
            e.detach(t);
        });
    });
    assert_eq!(e.rt().obj(O).data_read(), 2 * PUTS);
    let w = StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
    assert!(!w.is_int() && !w.is_pess_locked(), "quiescent state: {w:?}");
    assert_partition(&e.rt().stats().report());
}

/// At [`SchedPoint::LockedAccess`] on T0 — the state locked, the payload
/// access still to come — let T1 loose on the object and hold T0 there until
/// T1 has asked it for the lock.
#[derive(Debug)]
struct WriteInWindow {
    rt: OnceLock<Weak<Runtime>>,
    fired: AtomicBool,
    go: AtomicBool,
}

impl SchedHooks for WriteInWindow {
    fn perturb(&self, t: ThreadId, point: SchedPoint) {
        if point != SchedPoint::LockedAccess || t != T0 || self.fired.swap(true, Ordering::Relaxed) {
            return;
        }
        let rt = self.rt.get().and_then(Weak::upgrade).expect("runtime registered");
        let w = StateWord(rt.obj(O).state().load(Ordering::SeqCst));
        assert_eq!(w, StateWord::wr_ex_pess(T0, LockMode::Write), "the access runs locked");
        self.go.store(true, Ordering::Release);
        // T1 can only be asking because it found the state locked.
        let mut spin = rt.spinner_for(T0, "the second thread's request");
        while !rt.control(T0).has_pending_requests() {
            spin.spin();
        }
    }
}

/// The release that is not deferred comes *after* the access it guards: a
/// second thread's write forced between T0's lock and T0's payload write
/// finds the state locked, waits for T0, and lands on top of T0's value.
#[test]
fn the_release_follows_the_access_it_guards() {
    let hook = Arc::new(WriteInWindow {
        rt: OnceLock::new(),
        fired: AtomicBool::new(false),
        go: AtomicBool::new(false),
    });
    let mut rt = runtime();
    rt.set_sched_hooks(hook.clone());
    let rt = Arc::new(rt);
    hook.rt.set(Arc::downgrade(&rt)).expect("set once");
    // The §3.1 ablation releases after every access, so the very first
    // locking access goes through the window; no policy move needed.
    let e = HybridEngine::with_config(
        rt,
        NullSupport,
        HybridConfig {
            policy: PolicyParams {
                cutoff_confl: u32::MAX,
                k_confl: u32::MAX,
                inertia: u32::MAX,
            },
            eager_unlock: true,
            ..HybridConfig::default()
        },
    );
    let t0 = e.attach();
    assert_eq!(t0, T0);
    let obj = e.rt().obj(O);
    obj.state()
        .store(StateWord::wr_ex_pess(T0, LockMode::Unlocked).0, Ordering::SeqCst);

    std::thread::scope(|s| {
        let second = s.spawn(|| {
            let t1 = e.attach();
            assert_eq!(t1, T1);
            let mut spin = e.rt().spinner_for(t1, "T0 to enter the window");
            while !hook.go.load(Ordering::Acquire) {
                spin.spin();
            }
            let prev = e.try_write(t1, O, 2);
            // SAFETY: this is the OS thread attached as t1.
            let contended = unsafe { e.common().ts(t1) }.stats.get(Event::PessContended);
            e.detach(t1);
            (prev, contended)
        });
        e.write(t0, O, 1);
        // T1 is still waiting for T0's answer, so the state is as T0 left it.
        let w = StateWord(obj.state().load(Ordering::SeqCst));
        assert_eq!(w, StateWord::wr_ex_pess(T0, LockMode::Unlocked), "T0 released after its write");
        let mut spin = e.rt().spinner_for(t0, "the second thread to finish");
        while !second.is_finished() {
            e.safepoint(t0);
            spin.spin();
        }
        let (prev, contended) = second.join().unwrap();
        assert_eq!(prev, Some(1), "T1's write overwrote T0's, not the other way round");
        assert_eq!(contended, 1, "T1 found the state locked");
    });
    assert_eq!(obj.data_read(), 2);
    assert!(hook.fired.load(Ordering::Relaxed));
    e.detach(t0);
}
