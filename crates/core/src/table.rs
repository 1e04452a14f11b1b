//! Table 3 (Appendix B; Table 1 is its optimistic half) as a value: one pure
//! function from *(state word, access, who is asking)* to the [`Row`] that
//! says what happens. The protocol's one home: `HybridEngine`'s slow path
//! executes rows (on `IdealModel`, a `Conflict` by one bare CAS),
//! `tests/table3.rs` iterates them against the engine,
//! `tests/table3_model.rs` exhausts them as an abstract model, and
//! `check-invariants` builds assert each published word against them.
//!
//! `T` is the accessing thread, `T1` any other, `c'` a fresh epoch; `Pess*`
//! is a pessimistic transition the cost model (§6.1) counts as conflicting.
//!
//! | state | access | class | next | lock | event |
//! |---|---|---|---|---|---|
//! | `Int(·)` | any | `Wait` | | | |
//! | `WrExOpt(T)`; `RdExOpt(T)` R; `RdShOpt(c)` R, `T.rdShCount ≥ c` | | `Same` | | | |
//! | `RdShOpt(c)`, `T.rdShCount < c` | R | `Fence` | | | `Fence` |
//! | `RdExOpt(T)` | W | `Upgrade` | `WrExOpt(T)`, CAS | | `UpgradeOwn` |
//! | `RdExOpt(T1)` | R | `Upgrade` | `RdShOpt(c')` | | `RdShCreate` |
//! | `WrExOpt(T1)` | R | `Conflict` | `RdExOpt(T)` or `RdExRLock(T)` | read, if pess | `Conflict` |
//! | `WrExOpt(T1)`, `RdExOpt(T1)`, `RdShOpt(c)` | W | `Conflict` | `WrExOpt(T)` or `WrExWLock(T)` | write, if pess | `Conflict` |
//! | `WrExPess(T)`, `RdExPess(T)`, `RdShPess[T,v=k]` ③ | W | `Pess` | `WrExWLock(T)` | write | |
//! | `WrExPess(T1)`, `RdExPess(T1)`, `RdShPess(c)`, `RdShPess[T1,v=k]` ③ | W | `Pess*` | `WrExWLock(T)` | write | `PessConflictingAcquire` |
//! | `WrExPess(T)` | R | `Pess` | `WrExRLock(T)` ① | read | `PessLocalAcquire` |
//! | `RdExPess(T)` | R | `Pess` | `RdExRLock(T)` | read | `PessLocalAcquire` |
//! | `WrExPess(T1)` | R | `Pess*` | `RdExRLock(T)` ② | read | `PessConflictingAcquire` |
//! | `RdExPess(T1)` | R | `Pess` | `RdShRLock(1)(c')` ② | read | `RdShCreate` |
//! | `RdShPess(c)`; `RdShRLock(n)(c)`, `o ∉ T.rdSet` | R | `Pess` | `RdShRLock(n+1)(c)`, CAS | read | `Fence` if `T.rdShCount < c`, `c` an epoch |
//! | `WrExWLock(T)`; `WrExRLock(T)`, `RdExRLock(T)` R; `RdShRLock(n)`, `o ∈ T.rdSet` R | | `Reentrant` | | | |
//! | `WrExRLock(T)`, `RdExRLock(T)` | W | `Pess` | `WrExWLock(T)`, CAS | in place | |
//! | `RdShRLock(1)(c)`, `o ∈ T.rdSet` | W | `Pess*` | `WrExWLock(T)` | in place | `PessConflictingAcquire` |
//! | `WrExRLock(T1)` (`Pess*`), `RdExRLock(T1)` | R | `Pess` | `RdShRLock(2)(c')` | read | `RdShCreate` |
//! | `WrExWLock(T1)` R; every other locked state W | | `Contended` | | | |
//!
//! Marked rows — where the shipped engine departs from the paper:
//!
//! ① [`SelfReadMode`], under every support: the paper's 32-bit prototype has
//! no `WrExRLock` and takes `WrExWLock(T)` (§7.1 "Extraneous contention"),
//! its unsound alternate `RdExRLock(T)`; both exist for the E9 ablation.
//!
//! ② *Installed unlocked* ([`Departures::install_unlocked`]): seen only under
//! a support whose discipline is
//! [`Locking::Relaxed`](crate::support::Locking::Relaxed) (`NullSupport`), where
//! no lock outlives its access anyway. The rows take no lock, and the executor
//! validates the payload against the word they installed (DESIGN.md §12,
//! "install, then validate"). `RdExPess(T1)` R installs the word its read
//! lock would have been *released* to, `RdShPess(c')`. `WrExPess(T1)` R
//! skips the `RdExPess(T)` that lock would leave and installs `RdShPess(c')`
//! at once, telling the support `RdShCreate` (still `Pess*`, `prev_owner`
//! `T1`): a pessimistic-unlocked word is written by one claim whatever its
//! kind, and a RdSh word validates for every reader, so the middle state
//! buys nothing but a second claim by the next reader. RdEx words are then
//! unreachable under pessimistic tracking.
//!
//! ③ *Version words* ([`version_after`]): seen only where ② is, and only on
//! an object the policy has settled
//! ([`Phase::Settled`](crate::policy::Phase::Settled): every object at
//! `Cutoff_confl = 0`). The release of `T`'s write lock publishes
//! `RdShPess[T,v=k+1]` instead of `WrExPess(T)`: a `RdShPess` word with the
//! version flag set, whose owner field names the writer and whose count `k`
//! is the count of the word the write's claim replaced. Every later read,
//! the writer's own included, validates against it and writes nothing — the
//! locked read of Table 3 with its lock released at once (DESIGN.md §12). A
//! write's claim from it is `Pess` for `T` and `Pess*` for any other thread,
//! as from `WrExPess`. A version is not an epoch: the join row keeps the
//! word's flag, owner and count bit for bit and tells of no `Fence`, so a
//! version never raises `T.rdShCount`, and an unlock never sends a version
//! word to optimistic states (the object crosses the valve at its next
//! write's release).
//!
//! A departure that is not a row: a read that leaves the same-state fast
//! path is served by validation, no transition at all (DESIGN.md §12), iff
//! [`StateWord::validated_read_ok`] — which `word.rs`'s tests pin to this
//! table: its row tells the support of no cross-thread event, and no
//! thread's write row on the same word is free of an install.

use drink_runtime::ThreadId;

use crate::word::{Kind, LockMode, StateWord, MAX_RDSH_COUNT};

/// The program access a row is looked up for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// A read of the payload.
    Read,
    /// A write of it.
    Write,
}

/// What a read by the owner of a `WrExPess` object produces (marked row ①).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelfReadMode {
    /// The full model: `WrExRLock(T)` — sound, and a second reader upgrades
    /// to `RdShRLock(2)` without contention (§3.2).
    #[default]
    WrExRLock,
    /// The paper's prototype: `WrExWLock(T)`, so a second reader contends
    /// spuriously.
    WrExWLock,
    /// The paper's *unsound* alternate: `RdExRLock(T)`, which avoids the
    /// spurious contention but loses the owner's write.
    RdExRLockUnsound,
}

/// What a row may depend on besides the word: who is asking.
#[derive(Clone, Copy)]
pub struct Who<'a> {
    /// The accessing thread.
    pub t: ThreadId,
    /// `T.rdShCount`: has the thread synchronized with a RdSh word's epoch?
    pub rd_sh_count: u64,
    /// `o ∈ T.rdSet`. Only the `RdShRLock` rows ask, so no other row pays
    /// the bitmap load.
    pub in_rd_set: &'a dyn Fn() -> bool,
}

/// The two inputs that turn a row of the paper's table into a marked one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Departures {
    /// Marked row ①.
    pub self_read: SelfReadMode,
    /// Marked rows ②: the support's discipline is
    /// [`Locking::Relaxed`](crate::support::Locking::Relaxed).
    pub install_unlocked: bool,
}

/// Table 2's synchronization classes, plus the `Int` wait. The executor
/// counts one event per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// No synchronization, no state change.
    Same,
    /// First read of an optimistic RdSh epoch: an acquire fence.
    Fence,
    /// Optimistic upgrade: one atomic, no coordination.
    Upgrade,
    /// Optimistic conflict: park the word at `Int(T)`, coordinate with
    /// [`StateWord::holders`], install the side of [`Next::Either`] the
    /// policy picks.
    Conflict,
    /// Pessimistic uncontended transition: one atomic.
    Pess {
        /// Does the cost model count it as conflicting?
        conflicting: bool,
    },
    /// Access under a lock the thread already holds: no atomic.
    Reentrant,
    /// Conflicts with someone else's lock: coordinate with
    /// [`StateWord::holders`] so that they flush, then look again.
    Contended,
    /// A transition is in flight: respond to requests, look again.
    Wait,
}

/// The state a row leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// The word does not change.
    Stay,
    /// This word.
    Word(StateWord),
    /// A RdSh word — `RdShOpt`, or `RdShPess`/`RdShRLock(n)` — with a *fresh*
    /// epoch, which the executor claims from `gRdShCount`.
    FreshRdSh { pess: bool, n: u64 },
    /// A conflict's optimistic target and its pessimistic, locked twin.
    Either { opt: StateWord, pess: StateWord },
}

impl Next {
    /// The word an installing row installs, given the epoch claimed for a
    /// [`Next::FreshRdSh`].
    #[inline(always)]
    pub fn word(self, fresh_epoch: u64) -> StateWord {
        match self {
            Next::Word(w) => w,
            Next::FreshRdSh { pess: true, n } => StateWord::rd_sh_pess(fresh_epoch, n),
            Next::FreshRdSh { pess: false, .. } => StateWord::rd_sh_opt(fresh_epoch),
            // (No `{self:?}`: formatting would take the row's address and keep
            // it from folding into the fast paths it is inlined in.)
            Next::Stay | Next::Either { .. } => unreachable!("this `next` names no one word"),
        }
    }
}

/// How the executor installs [`Row::next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Install {
    /// One CAS; the support hook, if any, runs after it. For the rows that
    /// leave every present holder's access legal: same-epoch `RdSh` joins,
    /// upgrades of a lock the thread holds alone, `RdExOpt(T) → WrExOpt(T)`.
    Cas,
    /// `EngineCommon::claim`, support hook, `EngineCommon::publish`: under a
    /// pre-publishing support the hook runs while the word is parked.
    Claim,
}

/// What the row does to the thread's lock bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lock {
    /// No lock. On a [`Class::Pess`] row: *installed unlocked* (②).
    None,
    /// Takes this lock, deferred in the lock buffer or released right after
    /// the access, as the support's discipline says.
    Push(LockMode),
    /// Upgrades a read lock already in the lock buffer: drop `o` from
    /// `T.rdSet`, push nothing.
    UpgradeInPlace,
}

/// Which `TransitionEv` the support is told of; its fields come from the old
/// word (`prev_owner`, `PrevHolders`), the new one (`c`, `pess`) and the
/// access (`write`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ev {
    None,
    UpgradeOwn,
    RdShCreate,
    /// The thread's `rdShCount` is behind the word's epoch.
    Fence,
    Conflict,
    PessConflictingAcquire,
    PessLocalAcquire,
}

/// One row of the table: everything an executor needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// Synchronization class.
    pub class: Class,
    /// The state the row leaves.
    pub next: Next,
    /// How `next` is installed (unless it is [`Next::Stay`], or a conflict's,
    /// whose install is its coordination).
    pub install: Install,
    /// Lock bookkeeping (a conflict's: if the policy picks the pessimistic
    /// twin).
    pub lock: Lock,
    /// Support event.
    pub event: Ev,
}

impl Row {
    const fn stay(class: Class) -> Row {
        Row { class, next: Next::Stay, install: Install::Cas, lock: Lock::None, event: Ev::None }
    }

    #[inline(always)]
    fn pess(conflicting: bool, next: Next, install: Install, lock: Lock, event: Ev) -> Row {
        Row { class: Class::Pess { conflicting }, next, install, lock, event }
    }

    #[inline(always)]
    fn upgrade(next: Next, install: Install, event: Ev) -> Row {
        Row { class: Class::Upgrade, next, install, lock: Lock::None, event }
    }

    #[inline(always)]
    fn conflict(opt: StateWord, pess: StateWord) -> Row {
        let (next, lock) = (Next::Either { opt, pess }, Lock::Push(pess.lock_mode()));
        Row { class: Class::Conflict, next, install: Install::Claim, lock, event: Ev::Conflict }
    }

    /// A read joins the standing pessimistic epoch of `w` as its `n`-th
    /// read-locker (Table 3 footnote *: a fence only if the thread has not
    /// yet synchronized with the epoch; a version word's count is none, ③).
    #[inline(always)]
    fn join(w: StateWord, n: u64, who: Who<'_>) -> Row {
        let stale = !w.is_version() && who.rd_sh_count < w.rdsh_count();
        let event = if stale { Ev::Fence } else { Ev::None };
        let next = Next::Word(w.with_read_locks(n));
        Row::pess(false, next, Install::Cas, Lock::Push(LockMode::Read), event)
    }
}

/// Marked row ③: the version word the release of `t`'s write lock
/// publishes on a settled object under
/// [`Locking::Relaxed`](crate::support::Locking::Relaxed), given the word the
/// write's claim replaced — one version past that word's count, so that no
/// word a reader validated against before the payload store stands after it
/// (DESIGN.md §12). The count wraps only after 2³² writes to one object.
#[inline(always)]
pub fn version_after(t: ThreadId, replaced: StateWord) -> StateWord {
    StateWord::version(t, (replaced.rdsh_count() + 1) & MAX_RDSH_COUNT)
}

/// A write by `T` to an unlocked version word, decided without the table:
/// what [`settled_write`] returns. (The claim installs `WrExWLock(T)`, as
/// every write's does.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettledWrite {
    /// The word the release publishes, [`version_after`] the claimed one.
    pub published: StateWord,
    /// `Pess*`: the word names another writer. Its support event is then
    /// `PessConflictingAcquire`; a write of `T`'s own version word tells of
    /// none.
    pub conflicting: bool,
}

/// Marked row ③'s write, whole: what `t`'s write to `w` publishes at its
/// release and whether it conflicts, or `None` if `w` is not an unlocked
/// version word. A version word is published only on a settled object, and
/// `Settled` is absorbing, so the word alone is the policy's verdict: no
/// profile word need be read. The same row as [`transition`]'s `(Write, _)`
/// arm of a pessimistic-unlocked word, with the release [`version_after`]
/// names — `tests/table3.rs` checks it against both for every word.
#[inline(always)]
pub fn settled_write(w: StateWord, t: ThreadId) -> Option<SettledWrite> {
    if !w.is_version() || w.lock_mode() != LockMode::Unlocked {
        return None;
    }
    Some(SettledWrite { published: version_after(t, w), conflicting: w.owner() != t })
}

/// Table 3: the row for `access` by `who` to an object whose state word
/// reads `w`. Pure: no `&self`, no atomics, no allocation.
///
/// Domain: every well-formed word ([`StateWord::validate`]), and
/// `RdShRLock(n)` with `n` below
/// [`MAX_READ_LOCKS`](crate::word::MAX_READ_LOCKS) where a reader joins — `HybridEngine::with_config`
/// bounds the thread count so that it is.
///
/// The pessimistic-unlocked rows come first, on a branch of their own: they
/// are nearly all the traffic that leaves the same-state fast path, and a
/// caller that has already tested [`StateWord::is_pess_unlocked`] inlines
/// just those eight.
#[inline(always)]
pub fn transition(w: StateWord, access: Access, who: Who<'_>, dep: Departures) -> Row {
    use {Access::*, Install::*, Kind::*};
    let t = who.t;
    let wlock = StateWord::wr_ex_pess(t, LockMode::Write);
    let rdex_rlock = StateWord::rd_ex_pess(t, LockMode::Read);
    let push_read = Lock::Push(LockMode::Read);
    // An exclusive word naming `t`, or a version word `t` wrote (③). (Any
    // other RdSh word names no one.)
    let mine = (w.kind() != RdSh || w.is_version()) && w.owner() == t;
    if w.is_pess_unlocked() {
        return match (access, w.kind()) {
            (_, Int) => unreachable!("Int is never pessimistic"),
            (Write, _) => {
                let event = if mine { Ev::None } else { Ev::PessConflictingAcquire };
                Row::pess(!mine, Next::Word(wlock), Claim, Lock::Push(LockMode::Write), event)
            }
            (Read, WrEx) if mine => {
                let next = match dep.self_read {
                    SelfReadMode::WrExRLock => StateWord::wr_ex_pess(t, LockMode::Read),
                    SelfReadMode::WrExWLock => wlock,
                    SelfReadMode::RdExRLockUnsound => rdex_rlock,
                };
                let lock = Lock::Push(next.lock_mode());
                Row::pess(false, Next::Word(next), Claim, lock, Ev::PessLocalAcquire)
            }
            (Read, RdEx) if mine => {
                Row::pess(false, Next::Word(rdex_rlock), Claim, push_read, Ev::PessLocalAcquire)
            }
            (Read, RdSh) => Row::join(w, 1, who),
            // ②: a foreign write read — one claim straight to a fresh
            // read-shared word, which every later reader validates against.
            (Read, WrEx) if dep.install_unlocked => {
                Row::pess(true, Next::FreshRdSh { pess: true, n: 0 }, Claim, Lock::None, Ev::RdShCreate)
            }
            // ②: the word the read lock would have been released to.
            (Read, RdEx) if dep.install_unlocked => {
                Row::pess(false, Next::FreshRdSh { pess: true, n: 0 }, Claim, Lock::None, Ev::RdShCreate)
            }
            (Read, WrEx) => {
                Row::pess(true, Next::Word(rdex_rlock), Claim, push_read, Ev::PessConflictingAcquire)
            }
            (Read, RdEx) => {
                Row::pess(false, Next::FreshRdSh { pess: true, n: 1 }, Claim, push_read, Ev::RdShCreate)
            }
        };
    }
    if w.is_pess() {
        let rlocked = w.lock_mode() == LockMode::Read;
        return match (access, w.kind()) {
            (_, Int) => unreachable!("Int is never pessimistic"),
            (Write, WrEx | RdEx) if mine && rlocked => {
                Row::pess(false, Next::Word(wlock), Cas, Lock::UpgradeInPlace, Ev::None)
            }
            (_, WrEx | RdEx) if mine => Row::stay(Class::Reentrant),
            // The second concurrent reader avoids contention (§3.2). Reading
            // what `T1` wrote conflicts under the cost model.
            (Read, WrEx | RdEx) if rlocked => {
                let next = Next::FreshRdSh { pess: true, n: 2 };
                Row::pess(w.kind() == WrEx, next, Claim, push_read, Ev::RdShCreate)
            }
            (Read, RdSh) if (who.in_rd_set)() => Row::stay(Class::Reentrant),
            (Read, RdSh) => Row::join(w, w.read_locks() + 1, who),
            // The sole read-locker: no other thread can be mid-access, since
            // pessimistic readers lock (and two-phase locking stays intact
            // for the RS enforcer). A write after other threads' past reads.
            (Write, RdSh) if w.read_locks() == 1 && (who.in_rd_set)() => {
                let event = Ev::PessConflictingAcquire;
                Row::pess(true, Next::Word(wlock), Claim, Lock::UpgradeInPlace, event)
            }
            _ => Row::stay(Class::Contended),
        };
    }
    match (access, w.kind()) {
        (_, Int) => Row::stay(Class::Wait),
        (_, WrEx) | (Read, RdEx) if mine => Row::stay(Class::Same),
        (Write, RdEx) if mine => {
            Row::upgrade(Next::Word(StateWord::wr_ex_opt(t)), Cas, Ev::UpgradeOwn)
        }
        (Read, RdSh) if who.rd_sh_count >= w.rdsh_count() => Row::stay(Class::Same),
        (Read, RdSh) => Row { event: Ev::Fence, ..Row::stay(Class::Fence) },
        (Read, RdEx) => Row::upgrade(Next::FreshRdSh { pess: false, n: 0 }, Claim, Ev::RdShCreate),
        (Read, WrEx) => Row::conflict(StateWord::rd_ex_opt(t), rdex_rlock),
        (Write, _) => Row::conflict(StateWord::wr_ex_opt(t), wlock),
    }
}
