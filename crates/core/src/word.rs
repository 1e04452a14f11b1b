//! The per-object state word: encoding of every state in the hybrid model.
//!
//! §3.2 of the paper defines the state space:
//!
//! * **pessimistic unlocked**: `WrExPess(T)`, `RdExPess(T)`, `RdShPess(c)`;
//! * **pessimistic locked**: `WrExRLock(T)`, `WrExWLock(T)`, `RdExRLock(T)`,
//!   `RdShRLock(n)(c)` (read-locked by `n` threads);
//! * **optimistic**: `WrExOpt(T)`, `RdExOpt(T)`, `RdShOpt(c)`;
//! * plus Octet's intermediate state `Int(T)` used while a thread coordinates
//!   for an optimistic conflicting transition (§2.2, Figure 1 line 8);
//! * plus the *version word* `RdShPess[T,v=k]` of Table 3's marked row ③: a
//!   `RdShPess` word whose version flag is set, whose owner field names the
//!   last writer and whose count is a per-object version, not an epoch.
//!
//! The paper's IA-32 prototype packs all of this into one 32-bit word, which
//! costs it the `WrExRLock` state ("Extraneous contention", §7.1). We use a
//! 64-bit word, so the full model fits; a config flag in the hybrid engine
//! reproduces the prototype's omission for the ablation study.
//!
//! Layout (LSB first):
//!
//! ```text
//! bits  0..=1   kind        0 = WrEx, 1 = RdEx, 2 = RdSh, 3 = Int
//! bit   2       pessimistic flag
//! bits  3..=4   lock mode   0 = unlocked, 1 = read-locked, 2 = write-locked
//! bit   5       version flag (pessimistic RdSh only)
//! bits  8..=23  owner thread id (WrEx*/RdEx*/Int; the writer of a version word)
//! bits 24..=31  read-lock count n (RdSh, pessimistic locked)
//! bits 32..=63  RdSh counter c (from the global gRdShCount; a version word's
//!               version k)
//! ```

use std::fmt;

use drink_runtime::ThreadId;

use crate::support::PrevHolders;

/// State kind: the four top-level shapes a state word can take.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    /// Write-exclusive: last read or written by the owner.
    WrEx = 0,
    /// Read-exclusive: last read (not written) by the owner.
    RdEx = 1,
    /// Read-shared: last read by multiple threads; carries counter `c`.
    RdSh = 2,
    /// Octet's intermediate state: the owner is mid-coordination.
    Int = 3,
}

/// Reader–writer lock mode of a pessimistic state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LockMode {
    /// Pessimistic unlocked (or optimistic, which has no lock).
    Unlocked = 0,
    /// Read-locked.
    Read = 1,
    /// Write-locked.
    Write = 2,
}

const KIND_SHIFT: u32 = 0;
const KIND_MASK: u64 = 0b11;
const PESS_BIT: u64 = 1 << 2;
const LOCK_SHIFT: u32 = 3;
const LOCK_MASK: u64 = 0b11;
const VERSION_BIT: u64 = 1 << 5;
const OWNER_SHIFT: u32 = 8;
const OWNER_MASK: u64 = 0xFFFF;
const N_SHIFT: u32 = 24;
const N_MASK: u64 = 0xFF;
const C_SHIFT: u32 = 32;
const C_MASK: u64 = 0xFFFF_FFFF;

/// Maximum representable read-lock count (8-bit field), and so the most
/// threads that may ever read-lock one object at once:
/// `HybridEngine::with_config` refuses a runtime with more thread slots than
/// this, which makes it the stated domain bound of the table's
/// `RdShRLock(n) → RdShRLock(n+1)` row rather than something an access could
/// run into.
pub const MAX_READ_LOCKS: u64 = N_MASK;

/// Maximum representable RdSh counter value (32-bit field): the runtime's
/// counter refuses to go past it.
pub const MAX_RDSH_COUNT: u64 = C_MASK;
const _: () = assert!(MAX_RDSH_COUNT == drink_runtime::MAX_RDSH_COUNT);

/// A decoded-on-demand view of the per-object state word.
///
/// ```
/// use drink_core::word::{StateWord, Kind, LockMode};
/// use drink_runtime::ThreadId;
///
/// let t = ThreadId(3);
/// let w = StateWord::rd_sh_pess(42, 2); // RdShRLock(2) at epoch 42
/// assert_eq!(w.kind(), Kind::RdSh);
/// assert!(w.is_pess_locked());
/// assert_eq!(w.read_locks(), 2);
///
/// // One holder flushes; the last unlock may transfer to optimistic states.
/// let after_one = w.unlock_one();
/// assert_eq!(after_one.read_locks(), 1);
/// let unlocked = after_one.unlock_one();
/// assert!(unlocked.is_pess_unlocked());
/// assert_eq!(unlocked.to_optimistic().is_pess(), false);
///
/// // Exclusive states carry their owner.
/// assert_eq!(StateWord::wr_ex_pess(t, LockMode::Write).owner(), t);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateWord(pub u64);

impl StateWord {
    // --- Constructors ---

    /// `WrExOpt(T)`.
    #[inline(always)]
    pub fn wr_ex_opt(t: ThreadId) -> Self {
        StateWord((Kind::WrEx as u64) | ((t.raw() as u64) << OWNER_SHIFT))
    }

    /// `RdExOpt(T)`.
    #[inline(always)]
    pub fn rd_ex_opt(t: ThreadId) -> Self {
        StateWord((Kind::RdEx as u64) | ((t.raw() as u64) << OWNER_SHIFT))
    }

    /// `RdShOpt(c)`.
    #[inline(always)]
    pub fn rd_sh_opt(c: u64) -> Self {
        debug_assert!(c <= MAX_RDSH_COUNT, "gRdShCount overflow");
        StateWord((Kind::RdSh as u64) | (c << C_SHIFT))
    }

    /// `Int(T)`: the coordination-in-progress intermediate state.
    #[inline(always)]
    pub fn int(t: ThreadId) -> Self {
        StateWord((Kind::Int as u64) | ((t.raw() as u64) << OWNER_SHIFT))
    }

    /// `WrExPess(T)` with the given lock mode (`Unlocked`, `RLock`, `WLock`).
    #[inline(always)]
    pub fn wr_ex_pess(t: ThreadId, lock: LockMode) -> Self {
        StateWord(
            (Kind::WrEx as u64)
                | PESS_BIT
                | ((lock as u64) << LOCK_SHIFT)
                | ((t.raw() as u64) << OWNER_SHIFT),
        )
    }

    /// `RdExPess(T)`: unlocked or read-locked (a write-locked read-exclusive
    /// state does not exist — writes upgrade to WrEx).
    #[inline(always)]
    pub fn rd_ex_pess(t: ThreadId, lock: LockMode) -> Self {
        debug_assert!(lock != LockMode::Write, "RdEx cannot be write-locked");
        StateWord(
            (Kind::RdEx as u64)
                | PESS_BIT
                | ((lock as u64) << LOCK_SHIFT)
                | ((t.raw() as u64) << OWNER_SHIFT),
        )
    }

    /// `RdShPess(c)` (if `n == 0`) or `RdShRLock(n)(c)` (if `n > 0`).
    #[inline(always)]
    pub fn rd_sh_pess(c: u64, n: u64) -> Self {
        debug_assert!(c <= MAX_RDSH_COUNT, "gRdShCount overflow");
        debug_assert!(n <= MAX_READ_LOCKS, "read-lock count overflow");
        let lock = if n > 0 { LockMode::Read } else { LockMode::Unlocked };
        StateWord(
            (Kind::RdSh as u64)
                | PESS_BIT
                | ((lock as u64) << LOCK_SHIFT)
                | (n << N_SHIFT)
                | (c << C_SHIFT),
        )
    }

    /// The version word `RdShPess[T,v=k]` (marked row ③): what the release
    /// of `t`'s write lock on a settled object publishes under
    /// [`Locking::Relaxed`](crate::support::Locking::Relaxed). Every read
    /// validates against it; `k` is a per-object version, never an epoch.
    #[inline(always)]
    pub fn version(t: ThreadId, k: u64) -> Self {
        StateWord(StateWord::rd_sh_pess(k, 0).0 | VERSION_BIT | ((t.raw() as u64) << OWNER_SHIFT))
    }

    /// This pessimistic RdSh word with `n` read locks: flag, owner and count
    /// kept bit for bit, so that a version word read-locked by a fallback
    /// read unlocks to itself.
    #[inline(always)]
    pub fn with_read_locks(self, n: u64) -> Self {
        debug_assert!(self.is_pess() && self.kind() == Kind::RdSh);
        debug_assert!(n <= MAX_READ_LOCKS, "read-lock count overflow");
        let lock = if n > 0 { LockMode::Read } else { LockMode::Unlocked };
        let cleared = self.0 & !((LOCK_MASK << LOCK_SHIFT) | (N_MASK << N_SHIFT));
        StateWord(cleared | ((lock as u64) << LOCK_SHIFT) | (n << N_SHIFT))
    }

    // --- Accessors ---

    /// State kind.
    #[inline(always)]
    pub fn kind(self) -> Kind {
        match (self.0 >> KIND_SHIFT) & KIND_MASK {
            0 => Kind::WrEx,
            1 => Kind::RdEx,
            2 => Kind::RdSh,
            _ => Kind::Int,
        }
    }

    /// Is this a pessimistic state?
    #[inline(always)]
    pub fn is_pess(self) -> bool {
        self.0 & PESS_BIT != 0
    }

    /// Reader–writer lock mode (always `Unlocked` for optimistic states).
    #[inline(always)]
    pub fn lock_mode(self) -> LockMode {
        match (self.0 >> LOCK_SHIFT) & LOCK_MASK {
            0 => LockMode::Unlocked,
            1 => LockMode::Read,
            _ => LockMode::Write,
        }
    }

    /// Owner thread (meaningful for WrEx*/RdEx*/Int).
    #[inline(always)]
    pub fn owner(self) -> ThreadId {
        ThreadId::from_raw(((self.0 >> OWNER_SHIFT) & OWNER_MASK) as u16)
    }

    /// Is this a version word (marked row ③), read-locked or not?
    #[inline(always)]
    pub fn is_version(self) -> bool {
        self.0 & VERSION_BIT != 0
    }

    /// Whom the state names as holding it: the owner of an exclusive state,
    /// or — a read-shared state names no one — every other thread. This is
    /// whom a conflicting access coordinates with, and whom a pessimistic
    /// conflicting acquire cites as its happens-before sources.
    #[inline]
    pub fn holders(self) -> PrevHolders {
        if self.kind() == Kind::RdSh {
            PrevHolders::AllOthers
        } else {
            PrevHolders::One(self.owner())
        }
    }

    /// Read-lock count `n` (meaningful for pessimistic RdSh).
    #[inline(always)]
    pub fn read_locks(self) -> u64 {
        (self.0 >> N_SHIFT) & N_MASK
    }

    /// RdSh counter `c` (meaningful for RdSh states; a version word's
    /// version).
    #[inline(always)]
    pub fn rdsh_count(self) -> u64 {
        (self.0 >> C_SHIFT) & C_MASK
    }

    /// Is this an Int (coordination-intermediate) state?
    #[inline(always)]
    pub fn is_int(self) -> bool {
        self.kind() == Kind::Int
    }

    /// Is this a pessimistic state currently locked (read or write)?
    #[inline(always)]
    pub fn is_pess_locked(self) -> bool {
        self.is_pess() && self.lock_mode() != LockMode::Unlocked
    }

    /// Is this a pessimistic state currently unlocked?
    #[inline(always)]
    pub fn is_pess_unlocked(self) -> bool {
        self.is_pess() && self.lock_mode() == LockMode::Unlocked
    }

    /// May thread `t` read an object in this state by validation alone
    /// (DESIGN.md §12) — no transition, no lock?
    ///
    /// True exactly for the states in which a read by `t` creates no
    /// dependence and every foreign writer must install a different state
    /// word before it touches the payload — one the object never leaves for
    /// this word again: any RdSh state (a later RdSh word carries a fresh
    /// epoch, a later version word a later version), and the pessimistic exclusive states owned by `t` that nobody
    /// holds write-locked (only `t` installs a word naming `t`).
    /// `WrExOpt(T)` and `WrExWLock(T)` are excluded because their owner
    /// writes the payload with no install; `Int` because a transition is in
    /// flight.
    #[inline(always)]
    pub fn validated_read_ok(self, t: ThreadId) -> bool {
        // On every read's path, so two masked compares rather than a decode.
        // The second reads: kind WrEx or RdEx (kind bit 1 clear), pessimistic,
        // write-lock bit clear, owner `t`.
        const WLOCK_BIT: u64 = (LockMode::Write as u64) << LOCK_SHIFT;
        const OWN_UNWRITTEN: u64 = 0b10 | PESS_BIT | WLOCK_BIT | (OWNER_MASK << OWNER_SHIFT);
        self.0 & KIND_MASK == Kind::RdSh as u64
            || self.0 & OWN_UNWRITTEN == PESS_BIT | ((t.raw() as u64) << OWNER_SHIFT)
    }

    // --- Derived helpers used by the engines ---

    /// The unlocked pessimistic version of a locked pessimistic state, after
    /// one holder releases. For `RdShRLock(n)` with `n > 1` this is
    /// `RdShRLock(n-1)`; otherwise the fully unlocked state.
    pub fn unlock_one(self) -> StateWord {
        debug_assert!(self.is_pess_locked());
        match self.kind() {
            Kind::WrEx => StateWord::wr_ex_pess(self.owner(), LockMode::Unlocked),
            Kind::RdEx => StateWord::rd_ex_pess(self.owner(), LockMode::Unlocked),
            Kind::RdSh => {
                let n = self.read_locks();
                debug_assert!(n >= 1);
                self.with_read_locks(n - 1)
            }
            Kind::Int => unreachable!("Int states are never pessimistic-locked"),
        }
    }

    /// The optimistic counterpart of a pessimistic state (same last-access
    /// information, used when the adaptive policy moves an object back to
    /// optimistic states at unlock time).
    pub fn to_optimistic(self) -> StateWord {
        debug_assert!(self.is_pess());
        debug_assert!(!self.is_version(), "a version never becomes an epoch");
        match self.kind() {
            Kind::WrEx => StateWord::wr_ex_opt(self.owner()),
            Kind::RdEx => StateWord::rd_ex_opt(self.owner()),
            Kind::RdSh => StateWord::rd_sh_opt(self.rdsh_count()),
            Kind::Int => unreachable!("Int states are never pessimistic"),
        }
    }

    /// The pessimistic-unlocked counterpart of an optimistic state.
    pub fn to_pess_unlocked(self) -> StateWord {
        debug_assert!(!self.is_pess() && !self.is_int());
        match self.kind() {
            Kind::WrEx => StateWord::wr_ex_pess(self.owner(), LockMode::Unlocked),
            Kind::RdEx => StateWord::rd_ex_pess(self.owner(), LockMode::Unlocked),
            Kind::RdSh => StateWord::rd_sh_pess(self.rdsh_count(), 0),
            Kind::Int => unreachable!(),
        }
    }

    /// Well-formedness check per the encoding above: is this a word one of
    /// the constructors could have produced?
    ///
    /// `check-invariants` builds run this on every word the engines publish;
    /// an `Err` means a state that has no meaning in the §3.2 state space —
    /// e.g. a RdSh word carrying an owner tid, or an optimistic word with a
    /// lock bit — and therefore a protocol bug, not a legal transition.
    pub fn validate(self) -> Result<(), &'static str> {
        const KNOWN_BITS: u64 = KIND_MASK
            | PESS_BIT
            | (LOCK_MASK << LOCK_SHIFT)
            | VERSION_BIT
            | (OWNER_MASK << OWNER_SHIFT)
            | (N_MASK << N_SHIFT)
            | (C_MASK << C_SHIFT);
        if self.0 & !KNOWN_BITS != 0 {
            return Err("reserved bits set");
        }
        if (self.0 >> LOCK_SHIFT) & LOCK_MASK == 3 {
            return Err("lock mode 3 is not encodable");
        }
        if !self.is_pess() && self.lock_mode() != LockMode::Unlocked {
            return Err("optimistic state carries a lock");
        }
        if self.is_version() && !(self.is_pess() && self.kind() == Kind::RdSh) {
            return Err("version flag on a word that is not RdShPess");
        }
        match self.kind() {
            Kind::RdSh => {
                if !self.is_version() && (self.0 >> OWNER_SHIFT) & OWNER_MASK != 0 {
                    return Err("RdSh state carries an owner tid");
                }
                if !self.is_pess() && self.read_locks() != 0 {
                    return Err("optimistic RdSh carries a read-lock count");
                }
                if self.is_pess() && (self.read_locks() > 0) != (self.lock_mode() == LockMode::Read)
                {
                    return Err("RdSh lock mode disagrees with read-lock count");
                }
                if self.is_pess() && self.lock_mode() == LockMode::Write {
                    return Err("RdSh cannot be write-locked");
                }
            }
            Kind::WrEx | Kind::RdEx => {
                if self.read_locks() != 0 {
                    return Err("exclusive state carries a read-lock count");
                }
                if self.rdsh_count() != 0 {
                    return Err("exclusive state carries a RdSh counter");
                }
                if self.kind() == Kind::RdEx && self.lock_mode() == LockMode::Write {
                    return Err("RdEx cannot be write-locked (writes upgrade to WrEx)");
                }
            }
            Kind::Int => {
                if self.is_pess()
                    || self.lock_mode() != LockMode::Unlocked
                    || self.read_locks() != 0
                    || self.rdsh_count() != 0
                {
                    return Err("Int state carries pess/lock/count bits");
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for StateWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pess = if self.is_pess() { "Pess" } else { "Opt" };
        let lock = match self.lock_mode() {
            LockMode::Unlocked => "",
            LockMode::Read => ",RLock",
            LockMode::Write => ",WLock",
        };
        match self.kind() {
            Kind::WrEx => write!(f, "WrEx{pess}[{}{lock}]", self.owner()),
            Kind::RdEx => write!(f, "RdEx{pess}[{}{lock}]", self.owner()),
            Kind::RdSh if self.is_version() => {
                let (t, k) = (self.owner(), self.rdsh_count());
                match self.read_locks() {
                    0 => write!(f, "RdShPess[{t},v={k}]"),
                    n => write!(f, "RdShRLock({n})[{t},v={k}]"),
                }
            }
            Kind::RdSh => {
                if self.is_pess() && self.read_locks() > 0 {
                    write!(
                        f,
                        "RdShRLock({})[c={}]",
                        self.read_locks(),
                        self.rdsh_count()
                    )
                } else {
                    write!(f, "RdSh{pess}[c={}]", self.rdsh_count())
                }
            }
            Kind::Int => write!(f, "Int[{}]", self.owner()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u16) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn zero_word_is_wrex_opt_thread_zero() {
        let w = StateWord(0);
        assert_eq!(w.kind(), Kind::WrEx);
        assert!(!w.is_pess());
        assert_eq!(w.lock_mode(), LockMode::Unlocked);
        assert_eq!(w.owner(), t(0));
        assert_eq!(w, StateWord::wr_ex_opt(t(0)));
    }

    #[test]
    fn optimistic_constructors_roundtrip() {
        for tid in [0u16, 1, 42, u16::MAX] {
            let w = StateWord::wr_ex_opt(t(tid));
            assert_eq!((w.kind(), w.is_pess(), w.owner()), (Kind::WrEx, false, t(tid)));
            let r = StateWord::rd_ex_opt(t(tid));
            assert_eq!((r.kind(), r.is_pess(), r.owner()), (Kind::RdEx, false, t(tid)));
        }
        for c in [1u64, 7, MAX_RDSH_COUNT] {
            let s = StateWord::rd_sh_opt(c);
            assert_eq!((s.kind(), s.is_pess(), s.rdsh_count()), (Kind::RdSh, false, c));
        }
    }

    #[test]
    fn pessimistic_constructors_roundtrip() {
        let w = StateWord::wr_ex_pess(t(3), LockMode::Write);
        assert!(w.is_pess() && w.is_pess_locked());
        assert_eq!(w.lock_mode(), LockMode::Write);
        assert_eq!(w.owner(), t(3));

        let r = StateWord::rd_ex_pess(t(5), LockMode::Read);
        assert!(r.is_pess_locked());
        assert_eq!(r.lock_mode(), LockMode::Read);

        let u = StateWord::rd_ex_pess(t(5), LockMode::Unlocked);
        assert!(u.is_pess_unlocked());

        let s = StateWord::rd_sh_pess(9, 2);
        assert_eq!(s.read_locks(), 2);
        assert_eq!(s.rdsh_count(), 9);
        assert!(s.is_pess_locked());
        let s0 = StateWord::rd_sh_pess(9, 0);
        assert!(s0.is_pess_unlocked());
    }

    /// The all-ones word, once a separate engine's `LOCKED` sentinel, is no
    /// state at all: well-formedness rejects it, and no Int word is it.
    #[test]
    fn int_state_and_locked_sentinel_are_distinct() {
        let i = StateWord::int(t(2));
        assert!(i.is_int());
        assert_eq!(i.owner(), t(2));
        assert_eq!(i.validate(), Ok(()));
        let all_ones = StateWord(u64::MAX);
        assert_eq!(all_ones.validate(), Err("reserved bits set"));
        assert_ne!(all_ones, StateWord::int(ThreadId::from_raw(OWNER_MASK as u16)));
    }

    /// [`StateWord::validated_read_ok`], stated on Table 3: a read by `t`
    /// that leaves the same-state fast path may be served by validation
    /// exactly when its row is non-conflicting — it tells the support of no
    /// cross-thread event — and nobody holds the word write-enabled: no
    /// thread's write row on it is free of an install. A same-state read
    /// never gets that far, so there the predicate may also say no
    /// (`RdExOpt(T)` read by `T`) where the table would allow it.
    pub(super) fn agrees_with_table(w: StateWord, t: ThreadId, threads: &[ThreadId]) -> bool {
        use crate::table::{transition, Access, Class, Departures, Ev, Who};
        let row = |t, access, in_rd_set: bool| {
            let who = Who { t, rd_sh_count: 0, in_rd_set: &|| in_rd_set };
            transition(w, access, who, Departures::default())
        };
        let read = row(t, Access::Read, false);
        let non_conflicting = matches!(
            (read.class, read.event),
            (
                Class::Same | Class::Fence | Class::Reentrant | Class::Pess { conflicting: false },
                Ev::None | Ev::Fence | Ev::PessLocalAcquire
            )
        );
        let write_enabled = threads.iter().any(|&u| {
            [false, true]
                .into_iter()
                .any(|held| matches!(row(u, Access::Write, held).class, Class::Same | Class::Reentrant))
        });
        let ok = non_conflicting && !write_enabled;
        w.validated_read_ok(t) == ok || (read.class == Class::Same && ok)
    }

    #[test]
    fn validated_read_ok_is_the_non_conflicting_unwritten_rows() {
        let (me, other) = (t(1), t(2));
        let mut words = vec![
            StateWord::rd_sh_opt(3),
            StateWord::rd_sh_pess(3, 0),
            StateWord::rd_sh_pess(3, 2),
        ];
        for owner in [me, other] {
            words.extend([
                StateWord::version(owner, 3),
                StateWord::version(owner, 3).with_read_locks(2),
                StateWord::wr_ex_opt(owner),
                StateWord::rd_ex_opt(owner),
                StateWord::int(owner),
                StateWord::wr_ex_pess(owner, LockMode::Unlocked),
                StateWord::wr_ex_pess(owner, LockMode::Read),
                StateWord::wr_ex_pess(owner, LockMode::Write),
                StateWord::rd_ex_pess(owner, LockMode::Unlocked),
                StateWord::rd_ex_pess(owner, LockMode::Read),
            ]);
        }
        let mut eligible = 0;
        for w in words {
            assert!(agrees_with_table(w, me, &[me, other]), "{w:?} read by {me}");
            eligible += usize::from(w.validated_read_ok(me));
        }
        // Any RdSh word, version words included; the four pessimistic
        // exclusive words `me` owns and has not write-locked.
        assert_eq!(eligible, 3 + 4 + 4);
    }

    #[test]
    fn unlock_one_steps_through_rdsh_counts() {
        let s2 = StateWord::rd_sh_pess(4, 2);
        let s1 = s2.unlock_one();
        assert_eq!(s1, StateWord::rd_sh_pess(4, 1));
        let s0 = s1.unlock_one();
        assert_eq!(s0, StateWord::rd_sh_pess(4, 0));
        assert!(s0.is_pess_unlocked());
    }

    /// A version word keeps its flag, owner and count through a fallback
    /// read's lock and unlock, and is told apart from the epoch word of the
    /// same count and from every exclusive word of its owner.
    #[test]
    fn version_words_keep_flag_owner_and_count_bit_for_bit() {
        let v = StateWord::version(t(3), 9);
        assert_eq!((v.kind(), v.is_pess(), v.is_version()), (Kind::RdSh, true, true));
        assert_eq!((v.owner(), v.rdsh_count(), v.read_locks()), (t(3), 9, 0));
        assert!(v.is_pess_unlocked() && v.validated_read_ok(t(3)) && v.validated_read_ok(t(4)));
        let locked = v.with_read_locks(2);
        assert!(locked.is_pess_locked() && locked.is_version());
        assert_eq!(locked.unlock_one().unlock_one(), v);
        assert_ne!(v, StateWord::rd_sh_pess(9, 0));
        assert_ne!(StateWord::version(t(0), 9), StateWord::rd_sh_pess(9, 0));
        assert!(!StateWord::rd_sh_pess(9, 0).is_version());
        assert_eq!(v.validate(), Ok(()));
        assert_eq!(locked.validate(), Ok(()));
    }

    #[test]
    fn unlock_one_on_exclusive_states() {
        let w = StateWord::wr_ex_pess(t(1), LockMode::Write);
        assert_eq!(w.unlock_one(), StateWord::wr_ex_pess(t(1), LockMode::Unlocked));
        let wr = StateWord::wr_ex_pess(t(1), LockMode::Read);
        assert_eq!(wr.unlock_one(), StateWord::wr_ex_pess(t(1), LockMode::Unlocked));
        let r = StateWord::rd_ex_pess(t(1), LockMode::Read);
        assert_eq!(r.unlock_one(), StateWord::rd_ex_pess(t(1), LockMode::Unlocked));
    }

    #[test]
    fn pess_opt_conversions_preserve_last_access_info() {
        let w = StateWord::wr_ex_pess(t(7), LockMode::Unlocked);
        assert_eq!(w.to_optimistic(), StateWord::wr_ex_opt(t(7)));
        assert_eq!(StateWord::wr_ex_opt(t(7)).to_pess_unlocked(), w);

        let s = StateWord::rd_sh_pess(11, 0);
        assert_eq!(s.to_optimistic(), StateWord::rd_sh_opt(11));
        assert_eq!(StateWord::rd_sh_opt(11).to_pess_unlocked(), s);

        let r = StateWord::rd_ex_pess(t(2), LockMode::Unlocked);
        assert_eq!(r.to_optimistic(), StateWord::rd_ex_opt(t(2)));
        assert_eq!(StateWord::rd_ex_opt(t(2)).to_pess_unlocked(), r);
    }

    #[test]
    fn debug_formatting_names_states() {
        assert_eq!(format!("{:?}", StateWord::wr_ex_opt(t(1))), "WrExOpt[T1]");
        assert_eq!(
            format!("{:?}", StateWord::wr_ex_pess(t(2), LockMode::Write)),
            "WrExPess[T2,WLock]"
        );
        assert_eq!(format!("{:?}", StateWord::rd_sh_pess(3, 2)), "RdShRLock(2)[c=3]");
        assert_eq!(format!("{:?}", StateWord::rd_sh_opt(5)), "RdShOpt[c=5]");
        assert_eq!(format!("{:?}", StateWord::int(t(9))), "Int[T9]");
        assert_eq!(format!("{:?}", StateWord::version(t(2), 7)), "RdShPess[T2,v=7]");
        assert_eq!(format!("{:?}", StateWord::version(t(2), 7).with_read_locks(1)), "RdShRLock(1)[T2,v=7]");
    }

    #[test]
    fn validate_rejects_ill_formed_words() {
        // RdSh with a nonzero owner tid (the ISSUE's canonical example).
        let rdsh_with_owner = StateWord(StateWord::rd_sh_opt(5).0 | (3u64 << 8));
        assert_eq!(rdsh_with_owner.validate(), Err("RdSh state carries an owner tid"));
        // Optimistic word with a lock bit.
        let opt_locked = StateWord(StateWord::wr_ex_opt(t(1)).0 | (1 << 3));
        assert_eq!(opt_locked.validate(), Err("optimistic state carries a lock"));
        // Reserved low bits (6..=7).
        assert_eq!(StateWord(1 << 6).validate(), Err("reserved bits set"));
        // Lock-mode field at its unencodable value.
        let lock3 = StateWord(StateWord::wr_ex_pess(t(1), LockMode::Write).0 | (0b11 << 3));
        assert_eq!(lock3.validate(), Err("lock mode 3 is not encodable"));
        // Exclusive state with RdSh fields.
        let wrex_with_n = StateWord(StateWord::wr_ex_pess(t(1), LockMode::Read).0 | (2 << 24));
        assert_eq!(wrex_with_n.validate(), Err("exclusive state carries a read-lock count"));
        let rdex_with_c = StateWord(StateWord::rd_ex_opt(t(1)).0 | (9 << 32));
        assert_eq!(rdex_with_c.validate(), Err("exclusive state carries a RdSh counter"));
        // RdSh whose lock mode disagrees with its count.
        let rdsh_bad_n = StateWord(StateWord::rd_sh_pess(4, 0).0 | (1 << 24));
        assert_eq!(rdsh_bad_n.validate(), Err("RdSh lock mode disagrees with read-lock count"));
        // Int with a pess bit.
        let int_pess = StateWord(StateWord::int(t(2)).0 | (1 << 2));
        assert_eq!(int_pess.validate(), Err("Int state carries pess/lock/count bits"));
        // The version flag on anything but a pessimistic RdSh word.
        for w in [StateWord::rd_sh_opt(3), StateWord::wr_ex_pess(t(1), LockMode::Unlocked)] {
            assert_eq!(StateWord(w.0 | VERSION_BIT).validate(), Err("version flag on a word that is not RdShPess"));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn rd_ex_pess_write_lock_is_rejected_in_debug() {
        let r = std::panic::catch_unwind(|| StateWord::rd_ex_pess(ThreadId(1), LockMode::Write));
        assert!(r.is_err(), "RdEx+WLock must trip the debug_assert");
    }

    #[test]
    fn fields_do_not_interfere() {
        // Set every field to its max and read each back.
        let w = StateWord::rd_sh_pess(MAX_RDSH_COUNT, MAX_READ_LOCKS);
        assert_eq!(w.kind(), Kind::RdSh);
        assert!(w.is_pess());
        assert_eq!(w.read_locks(), MAX_READ_LOCKS);
        assert_eq!(w.rdsh_count(), MAX_RDSH_COUNT);

        let x = StateWord::wr_ex_pess(t(u16::MAX), LockMode::Write);
        assert_eq!(x.owner(), t(u16::MAX));
        assert_eq!(x.read_locks(), 0);
        assert_eq!(x.rdsh_count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_tid() -> impl Strategy<Value = ThreadId> {
        any::<u16>().prop_map(ThreadId)
    }

    proptest! {
        /// Every constructor's fields read back exactly.
        #[test]
        fn encode_decode_roundtrip_exclusive(tid in arb_tid(), write in any::<bool>(), pess in any::<bool>(), rlock in any::<bool>()) {
            let w = match (write, pess, rlock) {
                (true, false, _) => StateWord::wr_ex_opt(tid),
                (false, false, _) => StateWord::rd_ex_opt(tid),
                (true, true, true) => StateWord::wr_ex_pess(tid, LockMode::Read),
                (true, true, false) => StateWord::wr_ex_pess(tid, LockMode::Write),
                (false, true, true) => StateWord::rd_ex_pess(tid, LockMode::Read),
                (false, true, false) => StateWord::rd_ex_pess(tid, LockMode::Unlocked),
            };
            prop_assert_eq!(w.owner(), tid);
            prop_assert_eq!(w.is_pess(), pess);
            prop_assert_eq!(w.kind(), if write { Kind::WrEx } else { Kind::RdEx });
            prop_assert!(!w.is_int());
        }

        #[test]
        fn encode_decode_roundtrip_rdsh(c in 0u64..=MAX_RDSH_COUNT, n in 0u64..=MAX_READ_LOCKS) {
            let pess = StateWord::rd_sh_pess(c, n);
            prop_assert_eq!(pess.kind(), Kind::RdSh);
            prop_assert!(pess.is_pess());
            prop_assert_eq!(pess.rdsh_count(), c);
            prop_assert_eq!(pess.read_locks(), n);
            prop_assert_eq!(pess.is_pess_locked(), n > 0);

            let opt = StateWord::rd_sh_opt(c);
            prop_assert_eq!(opt.kind(), Kind::RdSh);
            prop_assert!(!opt.is_pess());
            prop_assert_eq!(opt.rdsh_count(), c);
        }

        /// Unlocking a locked state n times fully releases it, and each step
        /// is still a legal pessimistic state.
        #[test]
        fn unlock_chain_terminates(c in 0u64..=MAX_RDSH_COUNT, n in 1u64..=MAX_READ_LOCKS) {
            let mut w = StateWord::rd_sh_pess(c, n);
            for step in 0..n {
                prop_assert!(w.is_pess_locked(), "still locked at step {step}");
                w = w.unlock_one();
                prop_assert_eq!(w.rdsh_count(), c);
            }
            prop_assert!(w.is_pess_unlocked());
            prop_assert_eq!(w.read_locks(), 0);
        }

        /// Pess ↔ opt conversions are mutually inverse on unlocked states and
        /// preserve the last-access information.
        #[test]
        fn pess_opt_conversion_inverse(tid in arb_tid(), c in 0u64..=MAX_RDSH_COUNT, sel in 0u8..3) {
            let pess = match sel {
                0 => StateWord::wr_ex_pess(tid, LockMode::Unlocked),
                1 => StateWord::rd_ex_pess(tid, LockMode::Unlocked),
                _ => StateWord::rd_sh_pess(c, 0),
            };
            let opt = pess.to_optimistic();
            prop_assert!(!opt.is_pess());
            prop_assert_eq!(opt.kind(), pess.kind());
            prop_assert_eq!(opt.to_pess_unlocked(), pess);
            if sel < 2 {
                prop_assert_eq!(opt.owner(), tid);
            } else {
                prop_assert_eq!(opt.rdsh_count(), c);
            }
        }

        /// No constructed state ever collides with an Int state.
        #[test]
        fn constructors_never_collide_with_sentinels(tid in arb_tid(), c in 0u64..=MAX_RDSH_COUNT, n in 0u64..=MAX_READ_LOCKS) {
            for w in [
                StateWord::wr_ex_opt(tid),
                StateWord::rd_ex_opt(tid),
                StateWord::rd_sh_opt(c),
                StateWord::wr_ex_pess(tid, LockMode::Write),
                StateWord::wr_ex_pess(tid, LockMode::Read),
                StateWord::wr_ex_pess(tid, LockMode::Unlocked),
                StateWord::rd_ex_pess(tid, LockMode::Read),
                StateWord::rd_ex_pess(tid, LockMode::Unlocked),
                StateWord::rd_sh_pess(c, n),
                StateWord::version(tid, c).with_read_locks(n),
            ] {
                prop_assert!(!w.is_int(), "{w:?}");
            }
            prop_assert!(StateWord::int(tid).is_int());
        }

        /// Every word a constructor can produce passes `validate`, and so do
        /// the words derived from it by the engine helpers.
        #[test]
        fn constructed_words_always_validate(tid in arb_tid(), c in 0u64..=MAX_RDSH_COUNT, n in 0u64..=MAX_READ_LOCKS) {
            for w in [
                StateWord::wr_ex_opt(tid),
                StateWord::rd_ex_opt(tid),
                StateWord::rd_sh_opt(c),
                StateWord::int(tid),
                StateWord::wr_ex_pess(tid, LockMode::Write),
                StateWord::wr_ex_pess(tid, LockMode::Read),
                StateWord::wr_ex_pess(tid, LockMode::Unlocked),
                StateWord::rd_ex_pess(tid, LockMode::Read),
                StateWord::rd_ex_pess(tid, LockMode::Unlocked),
                StateWord::rd_sh_pess(c, n),
                StateWord::version(tid, c).with_read_locks(n),
            ] {
                prop_assert_eq!(w.validate(), Ok(()), "{:?}", w);
            }
            let locked = StateWord::rd_sh_pess(c, n.max(1));
            prop_assert_eq!(locked.unlock_one().validate(), Ok(()));
            let version = StateWord::version(tid, c);
            prop_assert_eq!(version.with_read_locks(n.max(1)).unlock_one().validate(), Ok(()));
            prop_assert_eq!(StateWord::rd_sh_pess(c, 0).to_optimistic().validate(), Ok(()));
            prop_assert_eq!(StateWord::wr_ex_opt(tid).to_pess_unlocked().validate(), Ok(()));
        }

        /// The masked compares of `validated_read_ok` agree with the statement
        /// of the predicate on Table 3, on every constructible word.
        #[test]
        fn validated_read_ok_matches_its_decoded_statement(owner in arb_tid(), reader in arb_tid(), c in 0u64..=MAX_RDSH_COUNT, n in 0u64..MAX_READ_LOCKS) {
            for w in [
                StateWord::wr_ex_opt(owner),
                StateWord::rd_ex_opt(owner),
                StateWord::rd_sh_opt(c),
                StateWord::int(owner),
                StateWord::wr_ex_pess(owner, LockMode::Write),
                StateWord::wr_ex_pess(owner, LockMode::Read),
                StateWord::wr_ex_pess(owner, LockMode::Unlocked),
                StateWord::rd_ex_pess(owner, LockMode::Read),
                StateWord::rd_ex_pess(owner, LockMode::Unlocked),
                StateWord::rd_sh_pess(c, n),
                StateWord::version(owner, c).with_read_locks(n),
            ] {
                for t in [reader, owner] {
                    prop_assert!(super::tests::agrees_with_table(w, t, &[reader, owner]), "{:?} read by {}", w, t);
                }
            }
        }

        /// `validate` on an arbitrary u64 accepts only words that re-encode
        /// to themselves through the constructors (i.e. it admits no junk).
        #[test]
        fn validate_is_sound_on_random_words(raw in any::<u64>()) {
            let w = StateWord(raw);
            if w.validate().is_ok() {
                let rebuilt = match (w.kind(), w.is_pess()) {
                    (Kind::WrEx, false) => StateWord::wr_ex_opt(w.owner()),
                    (Kind::RdEx, false) => StateWord::rd_ex_opt(w.owner()),
                    (Kind::RdSh, false) => StateWord::rd_sh_opt(w.rdsh_count()),
                    (Kind::Int, _) => StateWord::int(w.owner()),
                    (Kind::WrEx, true) => StateWord::wr_ex_pess(w.owner(), w.lock_mode()),
                    (Kind::RdEx, true) => StateWord::rd_ex_pess(w.owner(), w.lock_mode()),
                    (Kind::RdSh, true) if w.is_version() => {
                        StateWord::version(w.owner(), w.rdsh_count()).with_read_locks(w.read_locks())
                    }
                    (Kind::RdSh, true) => StateWord::rd_sh_pess(w.rdsh_count(), w.read_locks()),
                };
                prop_assert_eq!(rebuilt.0, raw, "{:?}", w);
            }
        }

        /// RdSh encodings are injective in the epoch `c` over its whole
        /// range, for every read-lock count and both protocols: a validated
        /// read compares state words, so two epochs must never share one
        /// (DESIGN.md §12).
        #[test]
        fn rdsh_words_are_injective_in_the_epoch(
            c1 in 0u64..=MAX_RDSH_COUNT,
            c2 in 0u64..=MAX_RDSH_COUNT,
            n in 0u64..=MAX_READ_LOCKS,
        ) {
            prop_assert_eq!(StateWord::rd_sh_opt(c1) == StateWord::rd_sh_opt(c2), c1 == c2);
            prop_assert_eq!(StateWord::rd_sh_pess(c1, n) == StateWord::rd_sh_pess(c2, n), c1 == c2);
            // Versions are as injective, and never equal an epoch word.
            let v = |c| StateWord::version(ThreadId(1), c).with_read_locks(n);
            prop_assert_eq!(v(c1) == v(c2), c1 == c2);
            prop_assert_ne!(v(c1), StateWord::rd_sh_pess(c1, n));
            // The edges of the range, against an arbitrary epoch.
            for edge in [0, MAX_RDSH_COUNT] {
                prop_assert_eq!(StateWord::rd_sh_opt(edge) == StateWord::rd_sh_opt(c1), edge == c1);
                prop_assert_eq!(
                    StateWord::rd_sh_pess(edge, n) == StateWord::rd_sh_pess(c1, n),
                    edge == c1
                );
            }
        }

        /// Distinct logical states encode to distinct words.
        #[test]
        fn distinct_states_distinct_words(t1 in arb_tid(), t2 in arb_tid()) {
            let words = [
                StateWord::wr_ex_opt(t1),
                StateWord::rd_ex_opt(t1),
                StateWord::wr_ex_pess(t1, LockMode::Write),
                StateWord::wr_ex_pess(t1, LockMode::Read),
                StateWord::wr_ex_pess(t1, LockMode::Unlocked),
                StateWord::rd_ex_pess(t1, LockMode::Read),
                StateWord::rd_ex_pess(t1, LockMode::Unlocked),
                StateWord::int(t1),
            ];
            for (i, a) in words.iter().enumerate() {
                for (j, b) in words.iter().enumerate() {
                    if i != j {
                        prop_assert_ne!(a.0, b.0);
                    }
                }
            }
            if t1 != t2 {
                prop_assert_ne!(StateWord::wr_ex_opt(t1).0, StateWord::wr_ex_opt(t2).0);
            }
        }
    }
}
