//! Validated reads through the pessimistic half of Table 3 (DESIGN.md §12).
//!
//! Under a support that allows them (`NullSupport`), a read whose Table 3 row
//! is non-conflicting, of a state nobody holds write-locked, takes **no
//! transition**: it validates against the version word and leaves the state
//! word, the lock buffer and the read set alone — so a later writer finds
//! nothing to contend with. Every other read takes the lock its row
//! prescribes (those rows are pinned on `PaperModel` in `table3.rs`).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::policy::PolicyParams;
use drink_core::prelude::*;
use drink_core::word::{LockMode, StateWord};
use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig, SchedHooks, SchedPoint, ThreadId};

const O: ObjId = ObjId(0);
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

/// Policy that never moves objects between models on its own, so injected
/// states stay put.
fn engine_on(rt: Arc<Runtime>) -> HybridEngine {
    HybridEngine::with_config(
        rt,
        NullSupport,
        HybridConfig {
            policy: PolicyParams {
                cutoff_confl: u32::MAX,
                k_confl: u32::MAX,
                inertia: u32::MAX,
            },
            ..HybridConfig::default()
        },
    )
}

/// Install `w` the way the engines do: store, then bump the version.
fn inject(e: &HybridEngine, w: StateWord) {
    let obj = e.rt().obj(O);
    obj.state().store(w.0, Ordering::SeqCst);
    obj.bump_version();
}

fn state(e: &HybridEngine) -> StateWord {
    StateWord(e.rt().obj(O).state().load(Ordering::SeqCst))
}

fn version(e: &HybridEngine) -> u64 {
    e.rt().obj(O).version().load(Ordering::SeqCst)
}

/// T0 reads `old`; then T1 writes. Returns the merged report.
fn read_then_foreign_write(old: StateWord) -> drink_runtime::StatsReport {
    let e = engine_on(Arc::new(runtime()));
    let t0 = e.attach();
    assert_eq!(t0, T0);
    e.rt().obj(O).data_write(41);
    inject(&e, old);
    let v_before = version(&e);

    assert_eq!(e.read(t0, O), 41);
    assert_eq!(state(&e), old, "a validated read is not a transition");
    assert_eq!(version(&e), v_before, "and installs nothing");
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert!(ts.lock_buffer.is_empty() && ts.rd_set.is_empty() && ts.holds_no_locks());

    // T0 holds nothing, so a second thread's write meets no lock of T0's to
    // contend with (and T0 need not even reach a safe point).
    std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = e.attach();
            assert_eq!(t1, T1);
            e.write(t1, O, 42);
            assert_eq!(state(&e), StateWord::wr_ex_pess(t1, LockMode::Write));
            e.detach(t1);
        });
    });
    e.detach(t0);
    e.rt().stats().report()
}

#[test]
fn eligible_states_validate_and_leave_nothing_for_a_writer_to_contend_with() {
    for old in [
        StateWord::rd_sh_pess(3, 0),
        StateWord::rd_ex_pess(T0, LockMode::Unlocked),
        StateWord::wr_ex_pess(T0, LockMode::Unlocked),
    ] {
        let r = read_then_foreign_write(old);
        assert_eq!(r.get(Event::SeqlockValidated), 1, "{old:?}");
        assert_eq!(r.get(Event::PessReentrant), 0, "{old:?}");
        assert_eq!(r.pess_uncontended(), 1, "{old:?}: only T1's write locks");
        assert_eq!(r.pess_contended(), 0, "{old:?}");
        assert_eq!(r.get(Event::CoordinationRoundtrip), 0, "{old:?}");
    }
}

/// The read-locked rows: the lock belongs to somebody (another reader, or T0
/// itself from an earlier fallback), and a validated read does not join it.
#[test]
fn read_locked_states_validate_without_joining_the_lock() {
    for old in [
        StateWord::rd_sh_pess(3, 1), // held by a thread that is not T0
        StateWord::wr_ex_pess(T0, LockMode::Read),
        StateWord::rd_ex_pess(T0, LockMode::Read),
    ] {
        let e = engine_on(Arc::new(runtime()));
        let t0 = e.attach();
        inject(&e, old);
        let v_before = version(&e);
        let _ = e.read(t0, O);
        assert_eq!((state(&e), version(&e)), (old, v_before), "{old:?}");
        // SAFETY: this is the OS thread attached as t0.
        let ts = unsafe { e.common().ts(t0) };
        assert!(ts.lock_buffer.is_empty() && ts.rd_set.is_empty(), "{old:?}");
        assert_eq!(ts.stats.get(Event::SeqlockValidated), 1, "{old:?}");
        assert_eq!(ts.stats.get(Event::PessUncontended), 0, "{old:?}");
        assert_eq!(ts.stats.get(Event::PessReentrant), 0, "{old:?}");
        e.detach(t0);
    }
}

/// After the RdShRLock(1) holder flushes, a writer takes the object by CAS:
/// the validated reader never became a second holder to coordinate with.
#[test]
fn writer_after_foreign_read_lock_is_released_never_coordinates() {
    let e = engine_on(Arc::new(runtime()));
    let t0 = e.attach();
    inject(&e, StateWord::rd_sh_pess(3, 1));
    let _ = e.read(t0, O);
    // The foreign holder's flush.
    inject(&e, StateWord::rd_sh_pess(3, 0));
    std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = e.attach();
            e.write(t1, O, 1);
            e.detach(t1);
        });
    });
    e.detach(t0);
    let r = e.rt().stats().report();
    assert_eq!(r.get(Event::SeqlockValidated), 1);
    assert_eq!(r.pess_contended(), 0);
    assert_eq!(r.get(Event::CoordinationRoundtrip), 0);
}

/// States whose owner may write the payload without installing, or that are
/// mid-transition, never validate: the read takes its Table 3 row.
#[test]
fn ineligible_states_take_their_table_3_row() {
    // WrExPess(T1) R by T0 → RdExRLock(T0): a conflicting (w→r) acquire.
    let e = engine_on(Arc::new(runtime()));
    let (t0, _t1) = (e.attach(), e.attach());
    inject(&e, StateWord::wr_ex_pess(T1, LockMode::Unlocked));
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::rd_ex_pess(t0, LockMode::Read));
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 0);
    assert_eq!(ts.stats.get(Event::PessUncontended), 1);
    e.detach(t0);

    // WrExWLock(T0) R by T0 → same (reentrant), not validated.
    let e = engine_on(Arc::new(runtime()));
    let t0 = e.attach();
    inject(&e, StateWord::wr_ex_pess(t0, LockMode::Unlocked));
    e.write(t0, O, 1); // really hold the write lock
    let _ = e.read(t0, O);
    // SAFETY: as above.
    let ts = unsafe { e.common().ts(t0) };
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 0);
    assert_eq!(ts.stats.get(Event::PessReentrant), 1);
    e.detach(t0);
}

/// WrExWLock(T1), Int(T1) and the flat engine's LOCKED sentinel, read by T0:
/// the read waits for the holder instead of validating a payload the holder
/// may be writing.
#[test]
fn write_locked_and_in_flight_states_never_validate() {
    for held in [
        StateWord::wr_ex_pess(T1, LockMode::Write),
        StateWord::int(T1),
        StateWord::LOCKED,
    ] {
        assert!(!held.validated_read_ok(T0), "{held:?}");
    }

    // Live: T1 really holds WrExWLock(T1) and keeps polling; T0's read
    // contends, T1 flushes at its safe point, T0 read-locks.
    let e = engine_on(Arc::new(runtime()));
    let t0 = e.attach();
    let (ready, done) = (
        std::sync::Barrier::new(2),
        std::sync::atomic::AtomicBool::new(false),
    );
    std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = e.attach();
            inject(&e, StateWord::wr_ex_pess(t1, LockMode::Unlocked));
            e.write(t1, O, 5);
            ready.wait();
            let mut spin = e.rt().spinner("reader to finish");
            while !done.load(Ordering::Acquire) {
                e.safepoint(t1);
                spin.spin();
            }
            e.detach(t1);
        });
        ready.wait();
        assert_eq!(e.read(t0, O), 5, "reader must observe the holder's write");
        assert_eq!(state(&e), StateWord::rd_ex_pess(t0, LockMode::Read));
        done.store(true, Ordering::Release);
    });
    e.detach(t0);
    let r = e.rt().stats().report();
    assert_eq!(r.get(Event::SeqlockValidated), 0);
    assert_eq!(r.pess_contended(), 1);
}

/// Lands an install inside the first `left` validation windows: a foreign
/// reader joining the read lock, which bumps the version but keeps the state
/// eligible — so the reader retries rather than bailing out.
#[derive(Debug)]
struct InstallInWindow {
    rt: OnceLock<Weak<Runtime>>,
    left: AtomicU32,
}

impl SchedHooks for InstallInWindow {
    fn perturb(&self, _t: ThreadId, point: SchedPoint) {
        if point != SchedPoint::SeqlockReadValidate
            || self
                .left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_err()
        {
            return;
        }
        let rt = self
            .rt
            .get()
            .and_then(Weak::upgrade)
            .expect("runtime registered");
        let obj = rt.obj(O);
        let w = StateWord(obj.state().load(Ordering::SeqCst));
        obj.state().store(
            StateWord::rd_sh_pess(w.rdsh_count(), w.read_locks() + 1).0,
            Ordering::SeqCst,
        );
        obj.bump_version();
    }
}

fn engine_with_installs_in_window(installs: u32) -> HybridEngine {
    let hook = Arc::new(InstallInWindow {
        rt: OnceLock::new(),
        left: AtomicU32::new(installs),
    });
    let mut rt = runtime();
    rt.set_sched_hooks(hook.clone());
    let rt = Arc::new(rt);
    hook.rt.set(Arc::downgrade(&rt)).expect("set once");
    engine_on(rt)
}

#[test]
fn invalidated_window_retries_then_falls_back_to_the_read_lock() {
    // One install in the window: one retry, then the read validates.
    let e = engine_with_installs_in_window(1);
    let t0 = e.attach();
    inject(&e, StateWord::rd_sh_pess(3, 0));
    let _ = e.read(t0, O);
    assert_eq!(
        state(&e),
        StateWord::rd_sh_pess(3, 1),
        "only the hook's join"
    );
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert_eq!(ts.stats.get(Event::SeqlockRetry), 1);
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 1);
    assert_eq!(ts.stats.get(Event::SeqlockFallback), 0);
    assert!(ts.lock_buffer.is_empty());

    // An install in every window: the read gives up after the retry budget
    // and takes the lock its Table 3 row prescribes — RdShRLock(n) R by T →
    // RdShRLock(n+1) — by CAS. It never coordinates.
    let e = engine_with_installs_in_window(u32::MAX);
    let t0 = e.attach();
    inject(&e, StateWord::rd_sh_pess(3, 0));
    let _ = e.read(t0, O);
    let w = state(&e);
    // SAFETY: as above.
    let ts = unsafe { e.common().ts(t0) };
    let retries = ts.stats.get(Event::SeqlockRetry);
    assert_eq!(ts.stats.get(Event::SeqlockFallback), 1);
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 0);
    assert_eq!(
        w,
        StateWord::rd_sh_pess(3, retries + 1),
        "the hook's joins plus T0's own"
    );
    assert!(ts.rd_set.contains(O.0) && ts.lock_buffer == [O]);
    assert_eq!(ts.stats.get(Event::PessUncontended), 1);
    assert_eq!(ts.stats.get(Event::PessContended), 0);
    assert_eq!(ts.stats.get(Event::CoordinationRoundtrip), 0);
}
