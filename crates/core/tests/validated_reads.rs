//! Validated reads through the pessimistic half of Table 3 (DESIGN.md §12).
//!
//! Under a support that allows them (`NullSupport`), a read whose Table 3 row
//! is non-conflicting, of a state nobody holds write-locked, takes **no
//! transition**: it validates against the state word itself and leaves that
//! word, the lock buffer and the read set alone — so a later writer finds
//! nothing to contend with. Every other read takes the lock its row
//! prescribes (those rows are pinned on `PaperModel` in `table3.rs`).
//!
//! Validation by the state word rests on the object never returning to the
//! word the reader started from once a foreign write has happened; the
//! window tests force both sides of that through `SeqlockReadValidate`.
//!
//! Every lock goes back inside the access that took it under `NullSupport`,
//! so a read that falls back to its row's lock holds it no longer than the
//! read. Pessimistic tracking (`HybridConfig::pessimistic()`, §2.1) runs on
//! pessimistic words alone, so the same predicate serves its reads of
//! objects it owns; its cases close the file.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::policy::PolicyParams;
use drink_core::prelude::*;
use drink_core::word::{Kind, LockMode, StateWord};
use drink_runtime::{
    Event, MonitorId, ObjId, Runtime, RuntimeConfig, SchedHooks, SchedPoint, ThreadId, Wait,
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

/// Pessimistic tracking (§2.1).
fn pessimistic_on(rt: Arc<Runtime>) -> HybridEngine {
    HybridEngine::with_config(rt, NullSupport, HybridConfig::pessimistic())
}

fn inject(e: &impl Tracker, w: StateWord) {
    e.rt().obj(O).state().store(w.0, Ordering::SeqCst);
}

fn state(e: &impl Tracker) -> StateWord {
    StateWord(e.rt().obj(O).state().load(Ordering::SeqCst))
}

/// T0 reads `old`; then T1 writes. Returns the merged report.
fn read_then_foreign_write(old: StateWord) -> drink_runtime::StatsReport {
    let e = engine_on(Arc::new(runtime()));
    let t0 = e.attach();
    assert_eq!(t0, T0);
    e.rt().obj(O).data_write(41);
    inject(&e, old);

    assert_eq!(e.read(t0, O), 41);
    assert_eq!(state(&e), old, "a validated read is not a transition");
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
            // Its write lock went back inside the write.
            assert_eq!(state(&e), StateWord::wr_ex_pess(t1, LockMode::Unlocked));
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
        let _ = e.read(t0, O);
        assert_eq!(state(&e), old, "{old:?}");
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
    // WrExPess(T1) R by T0 → RdExRLock(T0), a conflicting (w→r) acquire —
    // here marked row ②: a fresh RdShPess(c), installed unlocked.
    let e = engine_on(Arc::new(runtime()));
    let (t0, _t1) = (e.attach(), e.attach());
    inject(&e, StateWord::wr_ex_pess(T1, LockMode::Unlocked));
    let _ = e.read(t0, O);
    let w = state(&e);
    assert_eq!(w, StateWord::rd_sh_pess(w.rdsh_count(), 0));
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 0);
    assert_eq!(ts.stats.get(Event::PessUncontended), 1);
    assert_eq!(ts.stats.get(Event::PessOwnerChange), 1);
    e.detach(t0);

    // WrExWLock(T0), which T0 holds for the length of its own write, does
    // not validate for T0 either.
    assert!(!StateWord::wr_ex_pess(T0, LockMode::Write).validated_read_ok(T0));
}

/// WrExWLock(T1) and Int(T1), read by T0: the read waits for the holder
/// instead of validating a payload the holder may be writing.
#[test]
fn write_locked_and_in_flight_states_never_validate() {
    for held in [
        StateWord::wr_ex_pess(T1, LockMode::Write),
        StateWord::int(T1),
    ] {
        assert!(!held.validated_read_ok(T0), "{held:?}");
    }

    // Live: T1 stands inside a write — WrExWLock(T1) installed, its payload
    // store still to come — while T0 reads. T0 waits for the release the
    // write ends with, then takes its row: it reads T1's value, never the
    // one the lock was guarding, and neither contends nor coordinates.
    let e = engine_on(Arc::new(runtime()));
    let t0 = e.attach();
    let ready = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = e.attach();
            e.rt().obj(O).data_write(4);
            inject(&e, StateWord::wr_ex_pess(t1, LockMode::Write));
            ready.wait();
            std::thread::sleep(std::time::Duration::from_millis(20));
            e.rt().obj(O).data_write(5);
            inject(&e, StateWord::wr_ex_pess(t1, LockMode::Unlocked));
            e.detach(t1);
        });
        ready.wait();
        assert_eq!(e.read(t0, O), 5, "reader must observe the holder's write");
        let w = state(&e);
        assert_eq!(w, StateWord::rd_sh_pess(w.rdsh_count(), 0));
    });
    e.detach(t0);
    let r = e.rt().stats().report();
    assert_eq!(r.get(Event::SeqlockValidated), 0);
    assert_eq!((r.pess_contended(), r.get(Event::CoordinationRoundtrip)), (0, 0));
}

/// Lands an install inside the first `left` validation windows: a foreign
/// reader joining the read lock — and, if `leave`, flushing it again before
/// the window closes. A join alone changes the word but keeps it eligible, so
/// the reader retries rather than bailing out.
#[derive(Debug)]
struct InstallInWindow {
    rt: OnceLock<Weak<Runtime>>,
    left: AtomicU32,
    leave: bool,
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
        let state = rt.obj(O).state();
        let w = StateWord(state.load(Ordering::SeqCst));
        let joined = StateWord::rd_sh_pess(w.rdsh_count(), w.read_locks() + 1);
        state.store(joined.0, Ordering::SeqCst);
        if self.leave {
            state.store(joined.unlock_one().0, Ordering::SeqCst);
        }
    }
}

fn runtime_with_hooks(hook: Arc<dyn SchedHooks>) -> Arc<Runtime> {
    let mut rt = runtime();
    rt.set_sched_hooks(hook);
    Arc::new(rt)
}

fn engine_with_hooks(hook: Arc<dyn SchedHooks>) -> HybridEngine {
    engine_on(runtime_with_hooks(hook))
}

fn engine_with_installs_in_window(installs: u32, leave: bool) -> HybridEngine {
    let hook = Arc::new(InstallInWindow {
        rt: OnceLock::new(),
        left: AtomicU32::new(installs),
        leave,
    });
    let e = engine_with_hooks(hook.clone());
    hook.rt.set(Arc::downgrade(e.rt())).expect("set once");
    e
}

#[test]
fn invalidated_window_retries_then_falls_back_to_the_read_lock() {
    // One install in the window: one retry, then the read validates.
    let e = engine_with_installs_in_window(1, false);
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
    // RdShRLock(n+1) — by CAS, and releases it inside the read. It never
    // coordinates.
    let e = engine_with_installs_in_window(u32::MAX, false);
    let t0 = e.attach();
    inject(&e, StateWord::rd_sh_pess(3, 0));
    let _ = e.read(t0, O);
    let w = state(&e);
    // SAFETY: as above.
    let ts = unsafe { e.common().ts(t0) };
    let retries = ts.stats.get(Event::SeqlockRetry);
    assert_eq!(ts.stats.get(Event::SeqlockFallback), 1);
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 0);
    assert_eq!(w, StateWord::rd_sh_pess(3, retries), "the hook's joins; T0's own went back");
    assert!(ts.holds_no_locks());
    assert_eq!(ts.stats.get(Event::PessUncontended), 1);
    assert_eq!(ts.stats.get(Event::PessContended), 0);
    assert_eq!(ts.stats.get(Event::CoordinationRoundtrip), 0);
}

/// The benign ABA: a foreign reader joins the read lock and flushes it again
/// inside the window, restoring the word bit for bit. No payload write lies
/// between two equal words, so the read validates first time.
#[test]
fn a_read_lock_join_and_leave_in_the_window_validates() {
    let e = engine_with_installs_in_window(1, true);
    let t0 = e.attach();
    e.rt().obj(O).data_write(41);
    let old = StateWord::rd_sh_pess(3, 0);
    inject(&e, old);
    assert_eq!(e.read(t0, O), 41);
    assert_eq!(state(&e), old);
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert_eq!(ts.stats.get(Event::SeqlockRetry), 0);
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 1);
    e.detach(t0);
}

/// Runs a whole foreign write cycle inside T0's first validation window, on
/// helper mutators that step through `phase` in turn until `steps` are done.
/// The hybrid engine's cycle takes three steps on two helpers:
///
/// 1. T1 writes 99 (`RdShPess(3)` → `WrExWLock(T1)`, by CAS) and flushes;
/// 2. T2 reads (`WrExPess(T1)` → `RdExRLock(T2)`) and flushes;
/// 3. T1 reads (`RdExPess(T2)` → `RdShRLock(1)(c)`, a fresh epoch) and
///    flushes, which leaves `RdShPess(c)` — the word T0 started from in every
///    bit but the epoch.
#[derive(Debug)]
struct WriteCycleInWindow {
    phase: AtomicU32,
    steps: u32,
}

impl WriteCycleInWindow {
    fn new(steps: u32) -> Arc<Self> {
        Arc::new(WriteCycleInWindow { phase: AtomicU32::new(0), steps })
    }

    /// One step of the cycle: wait for `phase`, access, flush at a PSRO.
    fn step(&self, e: &impl Tracker, t: ThreadId, phase: u32, access: impl FnOnce()) {
        let mut wait = e.rt().wait(t, "the write cycle's previous step");
        while self.phase.load(Ordering::Acquire) != phase {
            let _ = wait.step();
        }
        access();
        e.lock(t, M);
        e.unlock(t, M);
        self.phase.store(phase + 1, Ordering::Release);
    }
}

impl SchedHooks for WriteCycleInWindow {
    fn perturb(&self, _t: ThreadId, point: SchedPoint) {
        if point == SchedPoint::SeqlockReadValidate
            && self
                .phase
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            let mut wait = Wait::new("the write cycle in the window");
            while self.phase.load(Ordering::Acquire) != self.steps + 1 {
                let _ = wait.step();
            }
        }
    }
}

#[test]
fn a_foreign_write_cycle_that_ends_read_shared_again_never_validates() {
    let hook = WriteCycleInWindow::new(3);
    let e = engine_with_hooks(hook.clone());
    let t0 = e.attach();
    e.rt().obj(O).data_write(41);
    let old = StateWord::rd_sh_pess(3, 0);
    inject(&e, old);

    let attached = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = e.attach();
            attached.wait();
            hook.step(&e, t1, 1, || e.write(t1, O, 99));
            hook.step(&e, t1, 3, || assert_eq!(e.read(t1, O), 99));
            e.detach(t1);
        });
        s.spawn(|| {
            let t2 = e.attach();
            attached.wait();
            hook.step(&e, t2, 2, || assert_eq!(e.read(t2, O), 99));
            e.detach(t2);
        });
        attached.wait();
        assert_eq!(e.read(t0, O), 99, "the window's 41 must not validate");
    });

    let now = state(&e);
    assert_eq!(now, StateWord::rd_sh_pess(now.rdsh_count(), 0), "read-shared and unlocked again");
    assert_ne!(now.rdsh_count(), old.rdsh_count(), "under an epoch of its own");
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert_eq!(ts.stats.get(Event::SeqlockRetry), 1);
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 1, "the retry, from the new word");
    assert_eq!(ts.stats.get(Event::SeqlockFallback), 0);
    assert!(ts.lock_buffer.is_empty());
    e.detach(t0);
}

// --- Pessimistic tracking ---

/// A read of a `WrExPess`/`RdExPess` word its thread owns validates in the
/// leaf: no lock, and the word is left as it was.
#[test]
fn flat_engine_own_exclusive_reads_validate_without_the_lock() {
    for own in [
        StateWord::wr_ex_pess(T0, LockMode::Unlocked),
        StateWord::rd_ex_pess(T0, LockMode::Unlocked),
    ] {
        let e = pessimistic_on(Arc::new(runtime()));
        let t0 = e.attach();
        e.rt().obj(O).data_write(41);
        inject(&e, own);
        assert_eq!(e.read(t0, O), 41);
        assert_eq!(state(&e), own, "a validated read is not a transition");
        // SAFETY: this is the OS thread attached as t0.
        let ts = unsafe { e.common().ts(t0) };
        assert_eq!(ts.stats.get(Event::SeqlockValidated), 1, "{own:?}");
        assert_eq!(ts.stats.get(Event::PessUncontended), 0, "{own:?}");
        assert_eq!(ts.stats.get(Event::SeqlockRetry), 0, "{own:?}");
        e.detach(t0);
    }
}

/// A foreign write that lands between a read's state load and its payload
/// load is never validated, at either attempt: the leaf's, replayed here
/// with the word it loaded before the write, and the continuation's, with
/// the write forced into its window through `SeqlockReadValidate`. The reader
/// retries from the version word the write's release published (Table 3's
/// marked row ③), validates against it and returns the new value.
#[test]
fn flat_engine_foreign_write_in_the_window_is_never_validated() {
    // The leaf's attempt.
    let e = pessimistic_on(Arc::new(runtime()));
    let t0 = e.attach();
    e.rt().obj(O).data_write(41);
    inject(&e, StateWord::wr_ex_pess(t0, LockMode::Unlocked));
    let loaded = state(&e).0;
    std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = e.attach();
            e.write(t1, O, 99);
            e.detach(t1);
        });
    });
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert_eq!(e.common().validated_read_leaf(ts, e.rt().obj(O), loaded), None, "41 or 99 without a transition");
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 0);
    e.detach(t0);

    // The continuation's attempt.
    let hook = WriteCycleInWindow::new(1);
    let e = pessimistic_on(runtime_with_hooks(hook.clone()));
    let t0 = e.attach();
    e.rt().obj(O).data_write(41);
    inject(&e, StateWord::wr_ex_pess(t0, LockMode::Unlocked));
    let attached = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = e.attach();
            attached.wait();
            hook.step(&e, t1, 1, || e.write(t1, O, 99));
            e.detach(t1);
        });
        attached.wait();
        assert_eq!(e.read(t0, O), 99, "the window's 41 must not validate");
    });
    let now = state(&e);
    assert_eq!(now, StateWord::version(T1, 1), "one version past WrExPess(T0)");
    // SAFETY: as above.
    let ts = unsafe { e.common().ts(t0) };
    assert_eq!(ts.stats.get(Event::SeqlockRetry), 1);
    assert_eq!(ts.stats.get(Event::SeqlockValidated), 1, "the retry, from the version word");
    assert_eq!(ts.stats.get(Event::PessUncontended), 0, "the read writes nothing");
    assert!(ts.holds_no_locks());
    e.detach(t0);
}

/// A word another thread owns never validates: the read creates a
/// dependence, so it takes its row, which installs a fresh read-shared word
/// in one claim — `RdExPess(T1)`'s Table 1 row, and for `WrExPess(T1)` the
/// marked row ② that skips the `RdExPess(T0)` between.
#[test]
fn flat_engine_foreign_exclusive_words_never_validate() {
    for foreign in [
        StateWord::wr_ex_pess(T1, LockMode::Unlocked),
        StateWord::rd_ex_pess(T1, LockMode::Unlocked),
    ] {
        assert!(!foreign.validated_read_ok(T0), "{foreign:?}");
        let e = pessimistic_on(Arc::new(runtime()));
        let (t0, _t1) = (e.attach(), e.attach());
        inject(&e, foreign);
        let epoch = e.rt().current_rdsh_count();
        let _ = e.read(t0, O);
        let now = state(&e);
        assert_eq!(now, StateWord::rd_sh_pess(now.rdsh_count(), 0), "{foreign:?}");
        assert!(now.rdsh_count() > epoch, "{foreign:?}: a fresh epoch, {now:?}");
        // SAFETY: this is the OS thread attached as t0.
        let ts = unsafe { e.common().ts(t0) };
        assert_eq!(ts.stats.get(Event::SeqlockValidated), 0, "{foreign:?}");
        assert_eq!(ts.stats.get(Event::PessUncontended), 1, "{foreign:?}");
        let w_to_r = foreign.kind() == Kind::WrEx;
        assert_eq!(ts.stats.get(Event::PessOwnerChange), u64::from(w_to_r), "{foreign:?}");
        assert!(ts.holds_no_locks(), "{foreign:?}");
        e.detach(t0);
    }
}
