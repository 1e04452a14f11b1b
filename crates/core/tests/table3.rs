//! Executable Appendix B: the hybrid engine against Table 3, row by row.
//!
//! The rows are not spelled out here: [`transition`] is the table, and
//! [`every_row_executes_as_the_table_says`] iterates it — every well-formed
//! *(word, access, who)* of a two-thread universe, under every
//! [`SelfReadMode`] — injecting the word, performing the access and comparing
//! what the engine did with what the row says. That loop is also the closure
//! property: every word × access has exactly one row, and its `next` is a
//! word. The named tests after it pin single rows to the outcome their names
//! state, as a second opinion on the table itself. Rows that need a live
//! remote holder (conflicts, contention) run a cooperating second thread
//! that acquires the state through the engine and then polls safe points.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drink_core::engine::hybrid::{HybridConfig, HybridEngine, SelfReadMode};
use drink_core::policy::PolicyParams;
use drink_core::prelude::*;
use drink_core::support::PrevHolders;
use drink_core::table::{
    settled_write, transition, version_after, Access, Class, Departures, Ev, Install, Lock, Next, Row, Who,
};
use drink_core::word::{Kind, LockMode, StateWord, MAX_RDSH_COUNT};
use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig, ThreadId};

const O: ObjId = ObjId(0);
/// The accessing thread of every single-threaded row, and the other one.
const T: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);
/// The epoch of every injected RdSh word (the global counter starts at 1).
const C: u64 = 5;

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

fn engine_with<S: Support>(support: S, policy: PolicyParams, self_read: SelfReadMode) -> HybridEngine<S> {
    let rt = Runtime::new(RuntimeConfig::builder().max_threads(4).heap_objects(8).monitors(2).build());
    let cfg = HybridConfig { policy, self_read, ..HybridConfig::default() };
    HybridEngine::with_config(Arc::new(rt), support, cfg)
}

fn engine() -> Engine {
    engine_with(PaperModel, inert_policy(), SelfReadMode::WrExRLock)
}

fn inject<S: Support>(e: &HybridEngine<S>, w: StateWord) {
    e.rt().obj(O).state().store(w.0, Ordering::SeqCst);
}

fn state<S: Support>(e: &HybridEngine<S>) -> StateWord {
    StateWord(e.rt().obj(O).state().load(Ordering::SeqCst))
}

// --- The table, iterated ---

/// May `new` stand where `old` stood, by a row that leaves `next`? (How fresh
/// a fresh epoch is, the caller checks against the counter.)
fn admits(next: Next, old: StateWord, new: StateWord) -> bool {
    match next {
        Next::Stay => new == old,
        Next::Either { opt, pess } => new == opt || new == pess,
        next => new == next.word(new.rdsh_count()),
    }
}

/// Every well-formed state word of a two-thread universe, the version words
/// of marked row ③ included.
fn words() -> Vec<StateWord> {
    let mut all = vec![StateWord::rd_sh_opt(C)];
    all.extend((0..=2).map(|n| StateWord::rd_sh_pess(C, n)));
    for t in [T, T1] {
        all.extend((0..=2).map(|n| StateWord::version(t, C).with_read_locks(n)));
        all.extend([StateWord::wr_ex_opt(t), StateWord::rd_ex_opt(t), StateWord::int(t)]);
        all.extend([LockMode::Unlocked, LockMode::Read, LockMode::Write].map(|l| StateWord::wr_ex_pess(t, l)));
        all.extend([LockMode::Unlocked, LockMode::Read].map(|l| StateWord::rd_ex_pess(t, l)));
    }
    all
}

/// What `T` may hold on an object whose word reads `w`: nothing, or the lock
/// `w` says is held. (An exclusive locked word names its one holder;
/// `RdShRLock(n)` names none, so both are well-formed.)
fn holdings(w: StateWord) -> Vec<Option<LockMode>> {
    let held = w.is_pess_locked().then(|| w.lock_mode());
    match w.holders() {
        PrevHolders::AllOthers if held.is_some() => vec![None, held],
        PrevHolders::One(owner) if owner == T => vec![held],
        _ => vec![None],
    }
}

/// The event each class counts, among the ones a single thread can reach.
fn class_event(class: Class) -> Option<Event> {
    match class {
        Class::Same => Some(Event::OptSameState),
        Class::Fence => Some(Event::OptFence),
        Class::Upgrade => Some(Event::OptUpgrading),
        Class::Pess { .. } => Some(Event::PessUncontended),
        Class::Reentrant => Some(Event::PessReentrant),
        Class::Conflict | Class::Contended | Class::Wait => None,
    }
}

/// One row, executed: inject `w`, give `T` the lock bookkeeping and
/// `rdShCount` that `held` and `synced` describe, perform `access`, and
/// compare state, counted event and lock bookkeeping with the table's row.
/// Rows that wait for another thread are looked up (closure) but not run.
fn check_row<S: Support>(e: HybridEngine<S>, w: StateWord, access: Access, held: Option<LockMode>, synced: bool) -> Row {
    let what = format!("{w:?} {access:?} by {T} holding {held:?}, synced={synced}, {:?}", e.config().self_read);
    let t = e.attach();
    let _t1 = e.attach();
    assert_eq!((t, _t1), (T, T1));
    inject(&e, w);
    // SAFETY: this is the OS thread attached as `t`.
    let ts = unsafe { e.common().ts(t) };
    ts.rd_sh_count = if synced { C } else { 0 };
    if let Some(lock) = held {
        ts.push_lock(O, lock);
    }
    let dep = Departures {
        self_read: e.config().self_read,
        install_unlocked: S::LOCKING == Locking::Relaxed,
    };
    let who = Who { t, rd_sh_count: ts.rd_sh_count, in_rd_set: &|| held == Some(LockMode::Read) };
    let row = transition(w, access, who, dep);
    let Some(event) = class_event(row.class) else {
        match row.next {
            Next::Either { opt, pess } => assert_eq!((opt.validate(), pess.validate()), (Ok(()), Ok(())), "{what}"),
            next => assert_eq!(next, Next::Stay, "{what}: {row:?}"),
        }
        return row;
    };
    let (epoch_before, buffered_before) = (e.rt().current_rdsh_count(), ts.lock_buffer.len());

    match access {
        Access::Read => drop(e.read(t, O)),
        Access::Write => e.write(t, O, 1),
    }

    let now = state(&e);
    assert_eq!(now.validate(), Ok(()), "{what}: {now:?}");
    assert!(admits(row.next, w, now), "{what}: {row:?}, but the state is {now:?}");
    if let Next::FreshRdSh { .. } = row.next {
        assert!(now.rdsh_count() > epoch_before, "{what}: stale epoch in {now:?}");
    }
    // SAFETY: as above.
    let ts = unsafe { e.common().ts(t) };
    let pushed = ts.lock_buffer.len() - buffered_before;
    let in_rd_set = ts.rd_set.contains(O.0);
    match row.lock {
        Lock::None => assert_eq!((pushed, in_rd_set), (0, held == Some(LockMode::Read)), "{what}"),
        Lock::Push(lock) => assert_eq!(
            (pushed, in_rd_set),
            (1, lock == LockMode::Read || held == Some(LockMode::Read)),
            "{what}"
        ),
        Lock::UpgradeInPlace => assert_eq!((pushed, in_rd_set), (0, false), "{what}"),
    }
    e.detach(t); // flushes, so whatever is in the buffer really was locked
    let r = e.rt().stats().report();
    for counted in [
        Event::OptSameState,
        Event::OptFence,
        Event::OptUpgrading,
        Event::PessUncontended,
        Event::PessReentrant,
        Event::PessContended,
        Event::OptConflictExplicit,
        Event::OptConflictImplicit,
        Event::SeqlockValidated,
    ] {
        assert_eq!(r.get(counted), u64::from(counted == event), "{what}: {counted:?}");
    }
    let conflicting = matches!(row.class, Class::Pess { conflicting: true });
    assert_eq!(r.get(Event::PessOwnerChange), u64::from(conflicting), "{what}");
    row
}

#[test]
fn every_row_executes_as_the_table_says() {
    let mut rows = 0;
    for self_read in [SelfReadMode::WrExRLock, SelfReadMode::WrExWLock, SelfReadMode::RdExRLockUnsound] {
        for w in words() {
            for access in [Access::Read, Access::Write] {
                for held in holdings(w) {
                    for synced in [false, true] {
                        let e = engine_with(PaperModel, inert_policy(), self_read);
                        check_row(e, w, access, held, synced);
                        rows += 1;
                    }
                }
            }
        }
    }
    assert_eq!(rows, 3 * (26 + 6) * 2 * 2, "26 words, the six RdShRLock(1) and (2) words held or not");
}

/// The two marked rows: installed unlocked under [`Locking::Relaxed`], the
/// paper's rows under a discipline that keeps them.
#[test]
fn racy_read_rows_install_unlocked_only_under_relaxed_locking() {
    for (w, conflicting) in [
        (StateWord::wr_ex_pess(T1, LockMode::Unlocked), true),
        (StateWord::rd_ex_pess(T1, LockMode::Unlocked), false),
    ] {
        let row = check_row(engine_with(NullSupport, inert_policy(), FULL), w, Access::Read, None, true);
        assert_eq!((row.class, row.lock), (Class::Pess { conflicting }, Lock::None), "{w:?}");
        let row = check_row(engine_with(PaperModel, inert_policy(), FULL), w, Access::Read, None, true);
        assert_eq!((row.class, row.lock), (Class::Pess { conflicting }, Lock::Push(LockMode::Read)), "{w:?}");
    }
}

/// Marked row ③'s write, decided without the table ([`settled_write`]), is
/// the table's row: for every word — the version words at the count's wrap
/// included — by either writer, under every pair of departures, it is `None`
/// exactly off the unlocked version words, and on them it is `transition`'s
/// `Pess` row into `WrExWLock(T)` with a pushed write lock, the event by
/// owner, and [`version_after`] at the release.
#[test]
fn the_settled_write_is_the_tables_row() {
    let mut all = words();
    all.extend([T, T1].map(|t| StateWord::version(t, MAX_RDSH_COUNT)));
    let mut decided = 0;
    for w in all {
        for t in [T, T1] {
            let d = settled_write(w, t);
            let unlocked_version = w.is_version() && w.is_pess_unlocked();
            assert_eq!(d.is_some(), unlocked_version, "{w:?} by {t}");
            let Some(d) = d else { continue };
            decided += 1;
            for self_read in [SelfReadMode::WrExRLock, SelfReadMode::WrExWLock, SelfReadMode::RdExRLockUnsound] {
                for install_unlocked in [false, true] {
                    let dep = Departures { self_read, install_unlocked };
                    for rd_sh_count in [0, C, MAX_RDSH_COUNT] {
                        let row = transition(w, Access::Write, Who { t, rd_sh_count, in_rd_set: &|| false }, dep);
                        let event = if d.conflicting { Ev::PessConflictingAcquire } else { Ev::None };
                        let expected = Row {
                            class: Class::Pess { conflicting: d.conflicting },
                            next: Next::Word(StateWord::wr_ex_pess(t, LockMode::Write)),
                            install: Install::Claim,
                            lock: Lock::Push(LockMode::Write),
                            event,
                        };
                        assert_eq!(row, expected, "{w:?} by {t}, {dep:?}");
                    }
                }
            }
            assert_eq!(d.published, version_after(t, w), "{w:?} by {t}");
            assert_eq!(d.conflicting, w.owner() != t, "{w:?} by {t}");
            assert_eq!(d.published.validate(), Ok(()), "{w:?} by {t}");
        }
    }
    assert_eq!(decided, 4 * 2, "two unlocked version words per count, two counts, two writers");
    let wrapped = settled_write(StateWord::version(T1, MAX_RDSH_COUNT), T).map(|d| d.published);
    assert_eq!(wrapped, Some(StateWord::version(T, 0)), "the count wraps");
}

/// Table 1 in pessimistic encodings: for every optimistic word × access,
/// pessimistic tracking (`HybridConfig::pessimistic()`), started from the
/// word's pessimistic-unlocked counterpart (the only words it installs), ends
/// in `to_pess_unlocked()` of the table's optimistic `next` — Table 3's
/// pessimistic rows, released at the end of the access. Two exceptions, the
/// marked rows: where Table 1 leaves `RdEx(T)` after a foreign write read,
/// pessimistic tracking installs a fresh `RdShPess(c)` (②); and where it
/// leaves `WrEx(T)` after a write, the write's release publishes the version
/// word one past the count of the word its claim replaced (③), since every
/// object is settled from birth.
#[test]
fn pessimistic_engine_follows_the_optimistic_rows() {
    for w in words().into_iter().filter(|w| !w.is_pess() && !w.is_int()) {
        for access in [Access::Read, Access::Write] {
            for synced in [false, true] {
                let rt = Runtime::new(RuntimeConfig::builder().max_threads(2).heap_objects(2).build());
                let e = HybridEngine::with_config(Arc::new(rt), NullSupport, HybridConfig::pessimistic());
                let t = e.attach();
                e.rt().obj(O).state().store(w.to_pess_unlocked().0, Ordering::SeqCst);
                let who = Who { t, rd_sh_count: if synced { C } else { 0 }, in_rd_set: &|| false };
                let mut row = transition(w, access, who, Departures::default());
                if access == Access::Read && w.kind() == Kind::WrEx && w.owner() != t {
                    row.next = Next::FreshRdSh { pess: false, n: 0 };
                }
                let epoch_before = e.rt().current_rdsh_count();
                match access {
                    Access::Read => drop(e.read(t, O)),
                    Access::Write => e.write(t, O, 1),
                }
                let now = StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
                let opt = match row.next {
                    Next::Either { opt, .. } => opt,
                    Next::Stay => w,
                    next => next.word(now.rdsh_count()),
                };
                let released = match access {
                    Access::Read => opt.to_pess_unlocked(),
                    Access::Write => version_after(t, w.to_pess_unlocked()),
                };
                assert_eq!(now, released, "{w:?} {access:?}: {:?}", row.next);
                let fresh = matches!(row.next, Next::FreshRdSh { .. });
                assert_eq!(e.rt().current_rdsh_count() > epoch_before, fresh, "{w:?} {access:?}");
                assert!(!fresh || now.rdsh_count() > epoch_before, "{w:?} {access:?}: {now:?}");
                e.detach(t);
            }
        }
    }
}

/// Figure 7's "Ideal" is Table 1 with no coordination: for every optimistic
/// word × access, the optimistic configuration on [`IdealModel`] leaves
/// exactly the word the row names — a `Conflict` row's optimistic side — and
/// counts the row's event at the estimate's price, a conflict as an
/// uncontended pessimistic transition. No `Int` word is published: no access
/// coordinates, so `T1`, attached on this thread and never polling, is never
/// asked.
#[test]
fn ideal_executes_the_optimistic_rows_without_coordinating() {
    for w in words().into_iter().filter(|w| !w.is_pess() && !w.is_int()) {
        for access in [Access::Read, Access::Write] {
            for synced in [false, true] {
                let what = format!("{w:?} {access:?}, synced={synced}");
                let rt = RuntimeConfig::builder().max_threads(2).heap_objects(2).build();
                let e = HybridEngine::with_config(Arc::new(Runtime::new(rt)), IdealModel, HybridConfig::optimistic());
                assert_eq!((e.attach(), e.attach()), (T, T1));
                let word = || StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
                let inject = |w: StateWord| e.rt().obj(O).state().store(w.0, Ordering::SeqCst);
                if synced {
                    // A first read of epoch C brings `T.rdShCount` up to it.
                    inject(StateWord::rd_sh_opt(C));
                    e.read(T, O);
                }
                inject(w);
                let who = Who { t: T, rd_sh_count: if synced { C } else { 0 }, in_rd_set: &|| false };
                let row = transition(w, access, who, Departures::default());
                let epoch_before = e.rt().current_rdsh_count();
                match access {
                    Access::Read => drop(e.read(T, O)),
                    Access::Write => e.write(T, O, 1),
                }
                let now = word();
                let (expected, event) = match (row.class, row.next) {
                    (Class::Same, _) => (w, Event::OptSameState),
                    (Class::Fence, _) => (w, Event::OptFence),
                    (Class::Upgrade, next) => (next.word(now.rdsh_count()), Event::OptUpgrading),
                    (Class::Conflict, Next::Either { opt, .. }) => (opt, Event::PessUncontended),
                    _ => unreachable!("{what}: {row:?} is no optimistic row"),
                };
                assert_eq!(now, expected, "{what}: {row:?}");
                let fresh = matches!(row.next, Next::FreshRdSh { .. });
                assert_eq!(e.rt().current_rdsh_count() > epoch_before, fresh, "{what}");
                e.detach(T);
                e.detach(T1);
                let r = e.rt().stats().report();
                for counted in [
                    Event::OptSameState,
                    Event::OptFence,
                    Event::OptUpgrading,
                    Event::PessUncontended,
                    Event::PessOwnerChange,
                    Event::OptConflictExplicit,
                    Event::OptConflictImplicit,
                    Event::CoordinationRoundtrip,
                    Event::SeqlockValidated,
                ] {
                    let warmup = u64::from(synced && counted == Event::OptFence);
                    assert_eq!(r.get(counted), u64::from(counted == event) + warmup, "{what}: {counted:?}");
                }
            }
        }
    }
}

// --- Single rows, pinned to what their names say ---

/// The table's row for `access` by `T` (holding `held`) on `w` is of `class`
/// and leaves `next`; and the engine executes it.
fn pin(w: StateWord, access: Access, held: Option<LockMode>, self_read: SelfReadMode, class: Class, next: Next) {
    for synced in [false, true] {
        let row = check_row(engine_with(PaperModel, inert_policy(), self_read), w, access, held, synced);
        assert_eq!((row.class, row.next), (class, next), "{w:?} {access:?}");
    }
}

const FULL: SelfReadMode = SelfReadMode::WrExRLock;
const PESS: Class = Class::Pess { conflicting: false };
const PESS_CONFL: Class = Class::Pess { conflicting: true };

fn wlock() -> Next {
    Next::Word(StateWord::wr_ex_pess(T, LockMode::Write))
}

fn rd_sh_rlock(n: u64) -> Next {
    Next::FreshRdSh { pess: true, n }
}

#[test]
fn wrexwlock_w_by_owner_is_reentrant() {
    let w = StateWord::wr_ex_pess(T, LockMode::Write);
    pin(w, Access::Write, Some(LockMode::Write), FULL, Class::Reentrant, Next::Stay);
}

#[test]
fn wrexwlock_r_by_owner_is_reentrant() {
    let w = StateWord::wr_ex_pess(T, LockMode::Write);
    pin(w, Access::Read, Some(LockMode::Write), FULL, Class::Reentrant, Next::Stay);
}

#[test]
fn wrexrlock_r_by_owner_is_reentrant() {
    let w = StateWord::wr_ex_pess(T, LockMode::Read);
    pin(w, Access::Read, Some(LockMode::Read), FULL, Class::Reentrant, Next::Stay);
}

#[test]
fn rdexrlock_r_by_owner_is_reentrant() {
    let w = StateWord::rd_ex_pess(T, LockMode::Read);
    pin(w, Access::Read, Some(LockMode::Read), FULL, Class::Reentrant, Next::Stay);
}

#[test]
fn rdsh_rlock_r_in_rdset_is_reentrant() {
    pin(StateWord::rd_sh_pess(C, 1), Access::Read, Some(LockMode::Read), FULL, Class::Reentrant, Next::Stay);
}

#[test]
fn wrexpess_w_by_owner_write_locks() {
    pin(StateWord::wr_ex_pess(T, LockMode::Unlocked), Access::Write, None, FULL, PESS, wlock());
}

#[test]
fn wrexpess_r_by_owner_read_locks_full_model() {
    let next = Next::Word(StateWord::wr_ex_pess(T, LockMode::Read));
    pin(StateWord::wr_ex_pess(T, LockMode::Unlocked), Access::Read, None, FULL, PESS, next);
}

#[test]
fn prototype_self_read_mode_write_locks() {
    // §7.1: the 32-bit prototype has no WrExRLock(T).
    let proto = SelfReadMode::WrExWLock;
    pin(StateWord::wr_ex_pess(T, LockMode::Unlocked), Access::Read, None, proto, PESS, wlock());
}

#[test]
fn unsound_self_read_mode_downgrades() {
    // §7.1's unsound diagnostic: the self-read loses the write bit.
    let (unsound, next) = (SelfReadMode::RdExRLockUnsound, Next::Word(StateWord::rd_ex_pess(T, LockMode::Read)));
    pin(StateWord::wr_ex_pess(T, LockMode::Unlocked), Access::Read, None, unsound, PESS, next);
}

#[test]
fn rdexpess_r_by_owner_read_locks() {
    let next = Next::Word(StateWord::rd_ex_pess(T, LockMode::Read));
    pin(StateWord::rd_ex_pess(T, LockMode::Unlocked), Access::Read, None, FULL, PESS, next);
}

#[test]
fn rdexpess_w_by_owner_write_locks() {
    pin(StateWord::rd_ex_pess(T, LockMode::Unlocked), Access::Write, None, FULL, PESS, wlock());
}

#[test]
fn rdexrlock_w_by_owner_upgrades_in_place() {
    pin(StateWord::rd_ex_pess(T, LockMode::Read), Access::Write, Some(LockMode::Read), FULL, PESS, wlock());
}

#[test]
fn wrexrlock_w_by_owner_upgrades_in_place() {
    pin(StateWord::wr_ex_pess(T, LockMode::Read), Access::Write, Some(LockMode::Read), FULL, PESS, wlock());
}

#[test]
fn rdexpess_other_r_creates_rdsh_rlock_1() {
    pin(StateWord::rd_ex_pess(T1, LockMode::Unlocked), Access::Read, None, FULL, PESS, rd_sh_rlock(1));
}

#[test]
fn rdexrlock_other_r_creates_rdsh_rlock_2() {
    pin(StateWord::rd_ex_pess(T1, LockMode::Read), Access::Read, None, FULL, PESS, rd_sh_rlock(2));
}

#[test]
fn wrexrlock_other_r_creates_rdsh_rlock_2_without_contention() {
    // §3.2's motivating row: the second reader of a read-locked
    // write-exclusive state joins instead of contending.
    pin(StateWord::wr_ex_pess(T1, LockMode::Read), Access::Read, None, FULL, PESS_CONFL, rd_sh_rlock(2));
}

#[test]
fn rdshpess_r_keeps_epoch_and_locks_once() {
    let next = Next::Word(StateWord::rd_sh_pess(C, 1));
    pin(StateWord::rd_sh_pess(C, 0), Access::Read, None, FULL, PESS, next);
}

#[test]
fn rdsh_rlock_foreign_r_joins() {
    let next = Next::Word(StateWord::rd_sh_pess(C, 2));
    pin(StateWord::rd_sh_pess(C, 1), Access::Read, None, FULL, PESS, next);
}

#[test]
fn wrexpess_other_w_takes_write_lock() {
    pin(StateWord::wr_ex_pess(T1, LockMode::Unlocked), Access::Write, None, FULL, PESS_CONFL, wlock());
}

#[test]
fn wrexpess_other_r_becomes_rdex_rlock() {
    let next = Next::Word(StateWord::rd_ex_pess(T, LockMode::Read));
    pin(StateWord::wr_ex_pess(T1, LockMode::Unlocked), Access::Read, None, FULL, PESS_CONFL, next);
}

#[test]
fn rdexpess_other_w_takes_write_lock() {
    pin(StateWord::rd_ex_pess(T1, LockMode::Unlocked), Access::Write, None, FULL, PESS_CONFL, wlock());
}

#[test]
fn rdshpess_w_takes_write_lock() {
    pin(StateWord::rd_sh_pess(C, 0), Access::Write, None, FULL, PESS_CONFL, wlock());
}

#[test]
fn optimistic_rows_match_table_1() {
    let wrex = Next::Word(StateWord::wr_ex_opt(T));
    for access in [Access::Read, Access::Write] {
        pin(StateWord::wr_ex_opt(T), access, None, FULL, Class::Same, Next::Stay);
    }
    pin(StateWord::rd_ex_opt(T), Access::Read, None, FULL, Class::Same, Next::Stay);
    pin(StateWord::rd_ex_opt(T), Access::Write, None, FULL, Class::Upgrade, wrex);
    let rd_sh_opt = Next::FreshRdSh { pess: false, n: 0 };
    pin(StateWord::rd_ex_opt(T1), Access::Read, None, FULL, Class::Upgrade, rd_sh_opt);
}

#[test]
fn rdsh_opt_stale_read_is_a_fence_transition() {
    let w = StateWord::rd_sh_opt(C);
    let stale = check_row(engine(), w, Access::Read, None, false);
    let synced = check_row(engine(), w, Access::Read, None, true);
    assert_eq!((stale.class, synced.class), (Class::Fence, Class::Same));
    assert_eq!((stale.next, synced.next), (Next::Stay, Next::Stay), "fence: no state change");
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
            let mut wait = er.rt().wait(t1, "main to finish");
            while !done_r.load(Ordering::Acquire) {
                er.safepoint(t1);
                let _ = wait.step();
            }
            er.detach(t1);
        });
        let mut wait = e.rt().wait(t0, "helper setup");
        while !ready.load(Ordering::Acquire) {
            let _ = wait.step();
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
