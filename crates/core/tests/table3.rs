//! Executable Appendix B: Table 3's state transitions, row by row.
//!
//! Each case constructs the old state, performs the access on the hybrid
//! engine, and asserts the new state (and, where the row specifies it, the
//! synchronization class counted). Rows that require a remote holder run a
//! cooperating second thread that acquires the state through the engine and
//! then polls safe points.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drink_core::engine::hybrid::{HybridConfig, HybridEngine, SelfReadMode};
use drink_core::policy::PolicyParams;
use drink_core::prelude::*;
use drink_core::word::{Kind, LockMode, StateWord};
use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig, ThreadId};

const O: ObjId = ObjId(0);

/// Table 3 pins the *transition protocol*, so validated reads — which take
/// no transition at all (DESIGN.md §12) — must stay off here: the rows are
/// pinned on [`PaperModel`]. The validated path itself is covered by
/// `validated_reads.rs` and the chaos harness.
type Engine = HybridEngine<PaperModel>;

/// Policy that never moves objects between models on its own, so injected
/// states stay put (pessimistic stays pessimistic at unlock).
fn inert_policy() -> PolicyParams {
    PolicyParams {
        cutoff_confl: u32::MAX,
        k_confl: u32::MAX,
        inertia: u32::MAX,
    }
}

fn engine() -> Engine {
    HybridEngine::with_config(
        Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(4)
        .heap_objects(8)
        .monitors(2)
        .build())),
        PaperModel,
        HybridConfig {
            policy: inert_policy(),
            self_read: SelfReadMode::WrExRLock,
            ..HybridConfig::default()
        },
    )
}

fn inject(e: &Engine, w: StateWord) {
    e.rt().obj(O).state().store(w.0, Ordering::SeqCst);
}

fn state(e: &Engine) -> StateWord {
    StateWord(e.rt().obj(O).state().load(Ordering::SeqCst))
}

/// One single-threaded row: old state → access → expected state (+ event).
fn row_own(
    old: StateWord,
    write: bool,
    expect: impl Fn(ThreadId, &StateWord) -> bool,
    event: Event,
    label: &str,
) {
    let e = engine();
    let t = e.attach();
    inject(&e, old);
    if write {
        e.write(t, O, 1);
    } else {
        let _ = e.read(t, O);
    }
    let now = state(&e);
    assert!(expect(t, &now), "{label}: got {now:?}");
    assert!(
        e.rt().stats().get(event) == 0, // stats merge at detach
        "{label}: stats merge early?"
    );
    e.detach(t);
    assert!(
        e.rt().stats().get(event) >= 1,
        "{label}: expected {event:?} to be counted"
    );
}

// --- Pessimistic uncontended, reentrant (no atomic op) rows ---

#[test]
fn wrexwlock_w_by_owner_is_reentrant() {
    row_own(
        StateWord::wr_ex_pess(ThreadId(0), LockMode::Write),
        true,
        |t, w| *w == StateWord::wr_ex_pess(t, LockMode::Write),
        Event::PessReentrant,
        "WrExWLock(T) W by T → same",
    );
}

#[test]
fn wrexwlock_r_by_owner_is_reentrant() {
    row_own(
        StateWord::wr_ex_pess(ThreadId(0), LockMode::Write),
        false,
        |t, w| *w == StateWord::wr_ex_pess(t, LockMode::Write),
        Event::PessReentrant,
        "WrExWLock(T) R by T → same",
    );
}

#[test]
fn wrexrlock_r_by_owner_is_reentrant() {
    row_own(
        StateWord::wr_ex_pess(ThreadId(0), LockMode::Read),
        false,
        |t, w| *w == StateWord::wr_ex_pess(t, LockMode::Read),
        Event::PessReentrant,
        "WrExRLock(T) R by T → same",
    );
}

#[test]
fn rdexrlock_r_by_owner_is_reentrant() {
    row_own(
        StateWord::rd_ex_pess(ThreadId(0), LockMode::Read),
        false,
        |t, w| *w == StateWord::rd_ex_pess(t, LockMode::Read),
        Event::PessReentrant,
        "RdExRLock(T) R by T → same",
    );
}

#[test]
fn rdsh_rlock_r_in_rdset_is_reentrant() {
    // Reach "o ∈ T.rdSet" through the engine: first read joins the lock.
    let e = engine();
    let t = e.attach();
    inject(&e, StateWord::rd_sh_pess(5, 0));
    let _ = e.read(t, O); // RdShPess(5) → RdShRLock(1)(5), o ∈ rdSet
    assert_eq!(state(&e), StateWord::rd_sh_pess(5, 1));
    let _ = e.read(t, O); // reentrant
    assert_eq!(state(&e), StateWord::rd_sh_pess(5, 1));
    e.detach(t);
    assert_eq!(e.rt().stats().get(Event::PessReentrant), 1);
}

// --- Pessimistic uncontended CAS rows (own states) ---

#[test]
fn wrexpess_w_by_owner_write_locks() {
    row_own(
        StateWord::wr_ex_pess(ThreadId(0), LockMode::Unlocked),
        true,
        |t, w| *w == StateWord::wr_ex_pess(t, LockMode::Write),
        Event::PessUncontended,
        "WrExPess(T) W by T → WrExWLock(T)",
    );
}

#[test]
fn wrexpess_r_by_owner_read_locks_full_model() {
    row_own(
        StateWord::wr_ex_pess(ThreadId(0), LockMode::Unlocked),
        false,
        |t, w| *w == StateWord::wr_ex_pess(t, LockMode::Read),
        Event::PessUncontended,
        "WrExPess(T) R by T → WrExRLock(T)",
    );
}

#[test]
fn rdexpess_r_by_owner_read_locks() {
    row_own(
        StateWord::rd_ex_pess(ThreadId(0), LockMode::Unlocked),
        false,
        |t, w| *w == StateWord::rd_ex_pess(t, LockMode::Read),
        Event::PessUncontended,
        "RdExPess(T) R by T → RdExRLock(T)",
    );
}

#[test]
fn rdexpess_w_by_owner_write_locks() {
    row_own(
        StateWord::rd_ex_pess(ThreadId(0), LockMode::Unlocked),
        true,
        |t, w| *w == StateWord::wr_ex_pess(t, LockMode::Write),
        Event::PessUncontended,
        "RdExPess(T) W by T → WrExWLock(T)",
    );
}

#[test]
fn rdexrlock_w_by_owner_upgrades_in_place() {
    row_own(
        StateWord::rd_ex_pess(ThreadId(0), LockMode::Read),
        true,
        |t, w| *w == StateWord::wr_ex_pess(t, LockMode::Write),
        Event::PessUncontended,
        "RdExRLock(T) W by T → WrExWLock(T)",
    );
}

#[test]
fn wrexrlock_w_by_owner_upgrades_in_place() {
    row_own(
        StateWord::wr_ex_pess(ThreadId(0), LockMode::Read),
        true,
        |t, w| *w == StateWord::wr_ex_pess(t, LockMode::Write),
        Event::PessUncontended,
        "WrExRLock(T) W by T → WrExWLock(T)",
    );
}

// --- Pessimistic uncontended CAS rows (cross-thread, unlocked) ---

#[test]
fn rdexpess_other_r_creates_rdsh_rlock_1() {
    let e = engine();
    let t0 = e.attach();
    let _t1 = e.attach(); // register the "previous owner" id
    inject(&e, StateWord::rd_ex_pess(ThreadId(1), LockMode::Unlocked));
    let _ = e.read(t0, O);
    let w = state(&e);
    assert_eq!(w.kind(), Kind::RdSh);
    assert!(w.is_pess());
    assert_eq!(w.read_locks(), 1);
    assert!(w.rdsh_count() >= 2, "fresh epoch from gRdShCount: {w:?}");
    e.detach(t0);
}

#[test]
fn rdexrlock_other_r_creates_rdsh_rlock_2() {
    let e = engine();
    let t0 = e.attach();
    let _t1 = e.attach();
    inject(&e, StateWord::rd_ex_pess(ThreadId(1), LockMode::Read));
    let _ = e.read(t0, O);
    let w = state(&e);
    assert_eq!((w.kind(), w.read_locks()), (Kind::RdSh, 2));
    e.detach(t0);
}

#[test]
fn wrexrlock_other_r_creates_rdsh_rlock_2_without_contention() {
    // §3.2's motivating row: the second reader of a read-locked
    // write-exclusive state joins instead of contending.
    let e = engine();
    let t0 = e.attach();
    let _t1 = e.attach();
    inject(&e, StateWord::wr_ex_pess(ThreadId(1), LockMode::Read));
    let _ = e.read(t0, O);
    let w = state(&e);
    assert_eq!((w.kind(), w.read_locks()), (Kind::RdSh, 2));
    e.detach(t0);
    assert_eq!(e.rt().stats().get(Event::PessContended), 0);
}

#[test]
fn rdshpess_r_keeps_epoch_and_locks_once() {
    let e = engine();
    let t0 = e.attach();
    inject(&e, StateWord::rd_sh_pess(9, 0));
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::rd_sh_pess(9, 1), "same epoch, n=1");
    e.detach(t0);
}

#[test]
fn rdsh_rlock_foreign_r_joins() {
    // RdShRLock(1) held by another thread; our read joins → n = 2.
    let e = engine();
    let t0 = e.attach();
    inject(&e, StateWord::rd_sh_pess(9, 1));
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::rd_sh_pess(9, 2));
    e.detach(t0);
}

#[test]
fn wrexpess_other_w_takes_write_lock() {
    let e = engine();
    let t0 = e.attach();
    let _t1 = e.attach();
    inject(&e, StateWord::wr_ex_pess(ThreadId(1), LockMode::Unlocked));
    e.write(t0, O, 1);
    assert_eq!(state(&e), StateWord::wr_ex_pess(t0, LockMode::Write));
    e.detach(t0);
    assert_eq!(e.rt().stats().get(Event::PessContended), 0);
}

#[test]
fn wrexpess_other_r_becomes_rdex_rlock() {
    let e = engine();
    let t0 = e.attach();
    let _t1 = e.attach();
    inject(&e, StateWord::wr_ex_pess(ThreadId(1), LockMode::Unlocked));
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::rd_ex_pess(t0, LockMode::Read));
    e.detach(t0);
}

#[test]
fn rdexpess_other_w_takes_write_lock() {
    let e = engine();
    let t0 = e.attach();
    let _t1 = e.attach();
    inject(&e, StateWord::rd_ex_pess(ThreadId(1), LockMode::Unlocked));
    e.write(t0, O, 1);
    assert_eq!(state(&e), StateWord::wr_ex_pess(t0, LockMode::Write));
    e.detach(t0);
}

#[test]
fn rdshpess_w_takes_write_lock() {
    let e = engine();
    let t0 = e.attach();
    inject(&e, StateWord::rd_sh_pess(3, 0));
    e.write(t0, O, 1);
    assert_eq!(state(&e), StateWord::wr_ex_pess(t0, LockMode::Write));
    e.detach(t0);
}

// --- Optimistic rows within the hybrid engine ---

#[test]
fn optimistic_rows_match_table_1() {
    let e = engine();
    let t0 = e.attach();

    // WrExOpt(T) R/W by T → same.
    inject(&e, StateWord::wr_ex_opt(t0));
    e.write(t0, O, 1);
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::wr_ex_opt(t0));

    // RdExOpt(T) R by T → same; W by T → WrExOpt(T) (upgrading CAS).
    inject(&e, StateWord::rd_ex_opt(t0));
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::rd_ex_opt(t0));
    e.write(t0, O, 2);
    assert_eq!(state(&e), StateWord::wr_ex_opt(t0));

    // RdExOpt(T1) R by T → RdShOpt(gRdShCount).
    inject(&e, StateWord::rd_ex_opt(ThreadId(1)));
    let _ = e.read(t0, O);
    let w = state(&e);
    assert_eq!((w.kind(), w.is_pess()), (Kind::RdSh, false));

    // RdShOpt(c) with fresh rdShCount → same (the upgrade refreshed it).
    let c = w.rdsh_count();
    let _ = e.read(t0, O);
    assert_eq!(state(&e).rdsh_count(), c);

    e.detach(t0);
    let r = e.rt().stats().report();
    assert_eq!(r.get(Event::OptUpgrading), 2);
    assert_eq!(r.pess_uncontended(), 0);
}

#[test]
fn rdsh_opt_stale_read_is_a_fence_transition() {
    let e = engine();
    let t0 = e.attach();
    // Epoch well above t0's rdShCount (fresh thread: 0).
    inject(&e, StateWord::rd_sh_opt(7));
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::rd_sh_opt(7), "fence: no state change");
    // Second read: rdShCount now ≥ 7 → same-state.
    let _ = e.read(t0, O);
    e.detach(t0);
    let r = e.rt().stats().report();
    assert_eq!(r.get(Event::OptFence), 1);
}

// --- Conflicting and contended rows (need a live remote) ---

/// Run `setup` on a helper thread (which becomes T1 and ACQUIRES through the
/// engine), then perform `access` on T0 while T1 polls, and return the final
/// state. Asserts the expected contended count.
fn contended_row(
    setup: impl Fn(&Engine, ThreadId) + Send + Sync,
    access: impl Fn(&Engine, ThreadId),
    expect_contended: u64,
) -> StateWord {
    let e = engine();
    let t0 = e.attach();
    let ready = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let mut out = StateWord(0);
    std::thread::scope(|s| {
        let er = &e;
        let ready_r = &ready;
        let done_r = &done;
        let setup_r = &setup;
        s.spawn(move || {
            let t1 = er.attach();
            setup_r(er, t1);
            ready_r.store(true, Ordering::Release);
            let mut spin = er.rt().spinner("main to finish");
            while !done_r.load(Ordering::Acquire) {
                er.safepoint(t1);
                spin.spin();
            }
            er.detach(t1);
        });
        let mut spin = e.rt().spinner("helper setup");
        while !ready.load(Ordering::Acquire) {
            spin.spin();
        }
        access(&e, t0);
        out = state(&e);
        done.store(true, Ordering::Release);
    });
    e.detach(t0);
    assert_eq!(e.rt().stats().get(Event::PessContended), expect_contended);
    out
}

#[test]
fn wrexwlock_foreign_w_is_contended_then_acquired() {
    let w = contended_row(
        |e, t1| {
            inject(e, StateWord::wr_ex_pess(t1, LockMode::Unlocked));
            e.write(t1, O, 5); // t1 really holds the write lock + buffer entry
        },
        |e, t0| e.write(t0, O, 6),
        1,
    );
    assert_eq!(w, StateWord::wr_ex_pess(ThreadId(0), LockMode::Write));
}

#[test]
fn wrexwlock_foreign_r_is_contended_then_read_locks() {
    let w = contended_row(
        |e, t1| {
            inject(e, StateWord::wr_ex_pess(t1, LockMode::Unlocked));
            e.write(t1, O, 5);
        },
        |e, t0| {
            let v = e.read(t0, O);
            assert_eq!(v, 5, "reader must observe the holder's write");
        },
        1,
    );
    assert_eq!(w, StateWord::rd_ex_pess(ThreadId(0), LockMode::Read));
}

#[test]
fn rdsh_rlock_foreign_w_is_contended_then_acquired() {
    let w = contended_row(
        |e, t1| {
            inject(e, StateWord::rd_sh_pess(3, 0));
            let _ = e.read(t1, O); // t1 joins: RdShRLock(1), in its buffer
        },
        |e, t0| e.write(t0, O, 7),
        1,
    );
    assert_eq!(w, StateWord::wr_ex_pess(ThreadId(0), LockMode::Write));
}

#[test]
fn wrexopt_foreign_w_conflicts_via_coordination() {
    let w = contended_row(
        |e, t1| {
            inject(e, StateWord::wr_ex_opt(t1));
        },
        |e, t0| e.write(t0, O, 8),
        0, // optimistic conflicts are not pessimistic contention
    );
    // Inert policy (∞ cutoff): stays optimistic.
    assert_eq!(w, StateWord::wr_ex_opt(ThreadId(0)));
}

#[test]
fn rdshopt_foreign_w_coordinates_with_everyone() {
    let w = contended_row(
        |e, _t1| {
            inject(e, StateWord::rd_sh_opt(2));
        },
        |e, t0| e.write(t0, O, 9),
        0,
    );
    assert_eq!(w, StateWord::wr_ex_opt(ThreadId(0)));
}

// --- Unlock / Pess→Opt rows ---

#[test]
fn psro_unlocks_to_pessimistic_unlocked_by_default() {
    let e = engine(); // inert policy: never to optimistic
    let t0 = e.attach();
    inject(&e, StateWord::wr_ex_pess(t0, LockMode::Unlocked));
    e.write(t0, O, 1); // locks
    e.lock(t0, drink_runtime::MonitorId(0));
    e.unlock(t0, drink_runtime::MonitorId(0)); // PSRO: flush
    assert_eq!(state(&e), StateWord::wr_ex_pess(t0, LockMode::Unlocked));
    e.detach(t0);
}

#[test]
fn prototype_self_read_mode_write_locks() {
    // §7.1: the 32-bit prototype transitions WrExPess(T) R by T to
    // WrExWLock(T) instead of WrExRLock(T).
    let e = HybridEngine::with_config(
        Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build())),
        PaperModel,
        HybridConfig {
            policy: inert_policy(),
            self_read: SelfReadMode::WrExWLock,
            ..HybridConfig::default()
        },
    );
    let t0 = e.attach();
    inject(&e, StateWord::wr_ex_pess(t0, LockMode::Unlocked));
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::wr_ex_pess(t0, LockMode::Write));
    e.detach(t0);
}

#[test]
fn unsound_self_read_mode_downgrades() {
    // §7.1's unsound diagnostic: self-read loses the write bit.
    let e = HybridEngine::with_config(
        Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build())),
        PaperModel,
        HybridConfig {
            policy: inert_policy(),
            self_read: SelfReadMode::RdExRLockUnsound,
            ..HybridConfig::default()
        },
    );
    let t0 = e.attach();
    inject(&e, StateWord::wr_ex_pess(t0, LockMode::Unlocked));
    let _ = e.read(t0, O);
    assert_eq!(state(&e), StateWord::rd_ex_pess(t0, LockMode::Read));
    e.detach(t0);
}
