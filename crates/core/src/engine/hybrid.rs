//! Hybrid tracking (§3): the paper's contribution.
//!
//! Objects move between **optimistic** states (handled exactly like the
//! Octet engine) and **pessimistic** states, which an access CAS-locks
//! (reader–writer locking). How long such a lock lives is not this engine's
//! call but the support's lock discipline ([`Support::LOCKING`]), fixed by
//! its type and folded at compile time:
//!
//! * under [`Locking::Deferred`] — §3.1's insight, which the recorder and
//!   the RS enforcer need — a lock is recorded in the thread's lock buffer
//!   and released only at PSROs and responding safe points, which flush the
//!   whole buffer (see [`EngineCommon::flush_lock_buffer`]). Repeated
//!   accesses to states this thread already holds are **reentrant** — no
//!   atomic operation — and an access that conflicts with a *locked* state
//!   is **contended**: the thread falls back to coordination, which makes
//!   the holder flush at its next responding safe point, then retries.
//!   Contention implies an object-level data race (§3.1, Figure 2(b));
//! * under [`Locking::Eager`] and [`Locking::Relaxed`] — §3.1's initial
//!   design, all that tracking alone needs — no lock outlives the access
//!   that took it: a write is claim, payload store, unlock *store*; no
//!   access is reentrant, and a contended one waits for the holder's
//!   release instead of coordinating. Under `Relaxed` a conflicting read
//!   installs an unlocked word — a fresh read-shared one — and validates the
//!   payload against it (DESIGN.md §12, "install, then validate"), and a
//!   write's release on a settled object publishes a read-shared *version
//!   word* that every later read validates against (Table 3's marked row
//!   ③);
//! * the adaptive policy (§6) decides, at optimistic conflicts, whether an
//!   object moves to pessimistic states, and at unlocks, whether it moves
//!   back (Figure 3's two diamonds);
//! * pessimistic tracking (§2.1) is `Cutoff_confl = 0`
//!   ([`HybridConfig::pessimistic`]): every object is pessimistic from birth,
//!   so none ever meets the policy, and on a support that unlocks eagerly the
//!   states left are §2.1's reader–writer lock (`WrExPess`, `WrExWLock`,
//!   `RdShPess`);
//! * Figure 7's unsound "Ideal" estimate (§7.5) is
//!   [`HybridConfig::optimistic`] on [`IdealModel`](crate::support::IdealModel),
//!   a support that does not coordinate ([`Support::COORDINATE`]): a
//!   `Conflict` row installs its optimistic word by one CAS.
//!
//! What each state does on each access is not written here: it is
//! [`crate::table::transition`], Table 3 as a value. This file is its
//! executor (Appendix A's pseudocode), split as Figure 10(a) splits it: a
//! call-free *leaf* per access kind for the same-state compares, inlined
//! into the caller, and one out-of-line *continuation* that tries the
//! settled write, the validated read and the pessimistic-unlocked rows
//! before one cold loop —
//! load, look up, execute — takes the rest (DESIGN.md §8). See `DESIGN.md`
//! for the happens-before soundness argument behind each `Support` event.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use drink_runtime::{Event, MonitorId, ObjHeader, ObjId, Runtime, SchedPoint, ThreadId};

use crate::common::EngineCommon;
use crate::coord::{self, CoordMode};
use crate::engine::Tracker;
use crate::policy::{AdaptivePolicy, PolicyParams, Valve};
use crate::support::{Locking, NullSupport, PrevHolders, Support, SupportCx, TransitionEv};
pub use crate::table::SelfReadMode;
use crate::table::{settled_write, transition, Access, Class, Departures, Ev, Install, Lock, Next, Row, SettledWrite, Who};
use crate::tstate::ThreadState;
use crate::word::{LockMode, StateWord, MAX_READ_LOCKS};

/// How the executor leaves the object for the program access that follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// An abortable write was asked to abort: nothing is claimed and no
    /// access follows.
    Aborted,
    /// Perform the access. A lock taken for it stays in the lock buffer until
    /// the next flush (deferred unlocking, §3.1).
    Proceed,
    /// Perform the access, then release the lock taken for it, which is in
    /// no buffer: by a store after a write
    /// ([`EngineCommon::unlock_write_lock`]), as one flush step after a read.
    /// Carries the word the lock's claim replaced, whose count a write's
    /// release on a settled object advances (Table 3's marked row ③).
    ThenRelease(StateWord),
    /// The read is done — installed, then validated — and this is its value.
    Read(u64),
}

/// One lookup of the table, with the word and the inputs it was made on:
/// what [`HybridEngine::install`] executes, and what `check-invariants`
/// builds look up again to check the word it publishes.
#[derive(Clone, Copy)]
struct Step {
    cur: u64,
    access: Access,
    dep: Departures,
    row: Row,
}

/// Configuration of the hybrid engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridConfig {
    /// Adaptive-policy parameters.
    pub policy: PolicyParams,
    /// Whether an object the policy returned to optimistic states may be
    /// sent to pessimistic states again (see [`Valve`]). The paper's valve,
    /// and the default, is one-way.
    pub valve: Valve,
    /// Self-read behaviour on `WrExPess` (see [`SelfReadMode`]).
    pub self_read: SelfReadMode,
}

impl HybridConfig {
    /// The paper's policy with a valve that re-opens: an object that turns
    /// hot again after the policy returned it to optimistic states is sent
    /// back to pessimistic ones (DESIGN.md §13).
    pub fn adaptive() -> Self {
        HybridConfig {
            valve: Valve::Reopening,
            ..HybridConfig::default()
        }
    }

    /// Optimistic tracking (§2.2, Octet): `Cutoff_confl = ∞` under the
    /// re-opening valve. No count ever moves an object, so every state stays
    /// optimistic — unless the runtime has a coordination deadline configured
    /// and one expires on an object (DESIGN.md §13), which sends it to
    /// pessimistic states until inequality (5) returns it; the valve lets a
    /// later expiry do so again. Figure 7's "w/ infinite cutoff"
    /// configuration is this one: the paper's one-way valve would differ only
    /// after a second expiry on the same object.
    pub fn optimistic() -> Self {
        HybridConfig {
            policy: PolicyParams::infinite_cutoff(),
            valve: Valve::Reopening,
            ..HybridConfig::default()
        }
    }

    /// Pessimistic tracking (§2.1): `Cutoff_confl = 0`. An object is
    /// pessimistic from its 0th conflict — from birth — so no access ever
    /// meets an optimistic state to conflict on, and every object is
    /// [settled](crate::policy::Phase::Settled) from birth: the policy never
    /// samples, and no profile word is ever written.
    /// An owner's read of its `WrExPess` word takes the write lock, as §2.1's
    /// one critical section does: released by a store, where a read lock
    /// that a second reader may join needs a CAS (E1 prices the difference).
    /// How long each lock lives is the support's discipline: on one that
    /// unlocks eagerly it goes back at the end of the access, as §2.1's
    /// critical section does, so no access ever coordinates; on a deferring
    /// one (the recorder, the RS enforcer) this is Table 3 at cutoff 0.
    ///
    /// Under [`Locking::Relaxed`] (`NullSupport`) the reachable states are
    /// the birth word (`WrExPess(T)`, or `RdShPess(c)` for a read-shared
    /// one), `WrExWLock(T)` for the length of a write, and the version word
    /// `RdShPess[T,v=k]` every write's release publishes (Table 3's marked
    /// row ③) — with `RdShRLock(n)` only for a read whose validation fell
    /// back: §2.1's reader–writer lock. Every read of a written object
    /// validates, the writer's own included, and writes nothing; a foreign
    /// read of a birth word installs a fresh `RdShPess(c)` in its one claim
    /// (marked row ②), so no RdEx word is ever reached. Every write but an
    /// object's first finds a version word and, while no trace ring or
    /// schedule hook is there, costs one claim CAS and one release store
    /// ([`crate::table::settled_write`]; DESIGN.md §8). On `PaperModel` the
    /// rows stay Table 3's, RdEx included.
    pub fn pessimistic() -> Self {
        HybridConfig {
            policy: PolicyParams { cutoff_confl: 0, ..PolicyParams::default() },
            self_read: SelfReadMode::WrExWLock,
            ..HybridConfig::default()
        }
    }
}

/// The hybrid tracking engine.
pub struct HybridEngine<S: Support = NullSupport> {
    common: EngineCommon<S>,
    cfg: HybridConfig,
}

impl HybridEngine<NullSupport> {
    /// Hybrid tracking with the paper's default policy, no runtime support.
    pub fn new(rt: Arc<Runtime>) -> Self {
        HybridEngine::with_config(rt, NullSupport, HybridConfig::default())
    }
}

impl<S: Support> HybridEngine<S> {
    /// Hybrid tracking with explicit support and configuration.
    pub fn with_config(rt: Arc<Runtime>, support: S, cfg: HybridConfig) -> Self {
        let threads = rt.config().max_threads;
        assert!(
            threads as u64 <= MAX_READ_LOCKS,
            "a runtime of {threads} thread slots could read-lock one object more than \
             {MAX_READ_LOCKS} times, the most RdShRLock(n) can count"
        );
        let policy = AdaptivePolicy::with_valve(cfg.policy, cfg.valve);
        HybridEngine {
            common: EngineCommon::new(rt, support, policy),
            cfg,
        }
    }

    /// Shared engine state (used by runtime-support crates).
    pub fn common(&self) -> &EngineCommon<S> {
        &self.common
    }

    /// Give up the engine for the runtime support it owns: the recorder's
    /// log comes back this way once every mutator has detached.
    pub fn into_support(self) -> S {
        self.common.support
    }

    /// This engine's configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.cfg
    }

    // --- Coordination ---

    /// Coordinate with the holder(s) the state word `w` of `o` names: the
    /// previous owner(s) of an optimistic conflicting transition, or the
    /// locker(s) a contended pessimistic transition (Figure 2(b)) needs to
    /// flush. Returns `None` iff the runtime's coordination deadline expired
    /// first (DESIGN.md §13): the deadline event is recorded and the object's
    /// phase forced to `Pess` (valve permitting), so its subsequent traffic
    /// runs the pessimistic protocol, whose conflicting acquires need no
    /// roundtrip at all. A conflicting caller then restores the pre-claim
    /// state and retries; a contended caller ignores the result — its retry
    /// loop re-examines the state either way, and the holder may well have
    /// flushed in the meantime.
    ///
    /// On success the `(thread, clock)` sources are in `ts.src_scratch`; the
    /// scratch buffers are reused so that no coordination allocates.
    fn coordinate(&self, ts: &mut ThreadState, o: ObjId, w: StateWord) -> Option<CoordMode> {
        let rt = &self.common.rt;
        let whom = w.holders();
        let mut sources = std::mem::take(&mut ts.src_scratch);
        let mut pending = std::mem::take(&mut ts.fanout_scratch);
        sources.clear();
        let mode = coord::coordinate(
            rt,
            ts.tid,
            whom,
            Some(o),
            &mut self.common.respond_closure(ts),
            &mut sources,
            &mut pending,
        );
        let peers = sources.len() as u64;
        ts.src_scratch = sources;
        ts.fanout_scratch = pending;
        if mode.is_none() {
            self.note_coord_deadline(ts, o);
            return None;
        }
        if whom == PrevHolders::AllOthers {
            self.common.note(ts, Event::CoordFanout, peers);
            ts.stats.add(Event::CoordFanoutPeers, peers);
        }
        self.common.note(ts, Event::CoordinationRoundtrip, o.0 as u64);
        mode
    }

    /// Bookkeeping for a tripped coordination deadline: stats, trace, and a
    /// count-bypassing demotion so the object's future traffic avoids the
    /// coordination it just proved expensive.
    #[cold]
    fn note_coord_deadline(&self, ts: &mut ThreadState, o: ObjId) {
        self.common.note(ts, Event::CoordDeadlineExceeded, o.0 as u64);
        if self.common.policy.force_pess(self.common.rt.obj(o).profile()) {
            self.note_phase_change(ts, o, true);
        }
    }

    /// Stats/trace for a phase change of `o` into (or out of) `Pess`. Under
    /// the re-opening valve these are the adaptive configuration's demotions
    /// and promotions; the one-way valve's at-most-one of each per object
    /// shows in `OptToPess` / `PessToOpt` alone.
    fn note_phase_change(&self, ts: &mut ThreadState, o: ObjId, into_pess: bool) {
        if self.cfg.valve != Valve::Reopening {
            return;
        }
        let e = if into_pess { Event::AdaptDemotion } else { Event::AdaptPromotion };
        self.common.note(ts, e, o.0 as u64);
    }

    /// The adaptive-policy decision at an optimistic conflict (Figure 10(b)
    /// line 46): does `o` take a pessimistic state now? Only explicit
    /// coordination counts (§6.2 footnote 7). An object already in `Pess` — a
    /// deadline expiry put it there while its state was optimistic — takes
    /// one whatever the mode.
    fn conflict_to_pess(&self, ts: &mut ThreadState, o: ObjId, mode: CoordMode) -> bool {
        let profile = self.common.rt.obj(o).profile();
        if matches!(mode, CoordMode::Explicit | CoordMode::Mixed)
            && self.common.policy.on_explicit_conflict(profile)
        {
            self.note_phase_change(ts, o, true);
            return true;
        }
        self.common.policy.in_pess(profile)
    }

    fn finish_opt_conflict(&self, ts: &mut ThreadState, o: ObjId, mode: CoordMode) {
        let e = match mode {
            CoordMode::Explicit | CoordMode::Mixed => Event::OptConflictExplicit,
            CoordMode::Implicit => Event::OptConflictImplicit,
        };
        self.common.note(ts, e, o.0 as u64);
        let cx = SupportCx {
            rt: &self.common.rt,
            t: ts.tid,
            op: ts.op_index,
        };
        self.common
            .support
            .on_transition(cx, o, TransitionEv::Conflict { sources: &ts.src_scratch });
    }

    /// The table's row for `access` by `ts` to `o`, whose state word reads
    /// `cur`.
    #[inline(always)]
    fn table_row(ts: &ThreadState, o: ObjId, cur: u64, access: Access, dep: Departures) -> Row {
        let in_rd_set = || ts.rd_set.contains(o.0);
        let who = Who { t: ts.tid, rd_sh_count: ts.rd_sh_count, in_rd_set: &in_rd_set };
        transition(StateWord(cur), access, who, dep)
    }

    /// Look `cur` up in the table. A conflicting read installs its state
    /// unlocked (marked rows ②) under [`Locking::Relaxed`] alone; no write
    /// row asks.
    #[inline(always)]
    fn lookup(&self, ts: &ThreadState, o: ObjId, cur: u64, access: Access) -> Step {
        let dep = Departures {
            self_read: self.cfg.self_read,
            install_unlocked: access == Access::Read && matches!(S::LOCKING, Locking::Relaxed),
        };
        Step { cur, access, dep, row: Self::table_row(ts, o, cur, access, dep) }
    }

    /// Tell the support of a row's event, with the fields the old and new
    /// words supply, and bring `T.rdShCount` up to the epoch the thread has
    /// now synchronized with.
    #[inline(always)]
    fn emit(&self, ts: &mut ThreadState, o: ObjId, old: StateWord, new: StateWord, step: Step) {
        let c = new.rdsh_count();
        let ev = match step.row.event {
            Ev::None => return,
            Ev::Conflict => unreachable!("told by finish_opt_conflict, with the coordination's sources"),
            Ev::UpgradeOwn => TransitionEv::UpgradeOwn,
            Ev::PessLocalAcquire => TransitionEv::PessLocalAcquire,
            Ev::PessConflictingAcquire => TransitionEv::PessConflictingAcquire { prev: old.holders() },
            Ev::RdShCreate => {
                ts.rd_sh_count = ts.rd_sh_count.max(c);
                TransitionEv::RdShCreate { prev_owner: old.owner(), c, pess: new.is_pess() }
            }
            Ev::Fence => {
                fence(Ordering::Acquire);
                ts.rd_sh_count = c;
                TransitionEv::Fence { c }
            }
        };
        let cx = self.common.cx(ts);
        self.common.support.on_transition(cx, o, ev);
    }

    /// A transition just took `lock` on `o`, whose claim replaced the word
    /// `replaced`: deferred to the next flush, or released right after the
    /// program access, never entering the lock buffer — as the support's
    /// discipline says.
    #[inline]
    fn hold(&self, ts: &mut ThreadState, o: ObjId, lock: LockMode, replaced: StateWord) -> Outcome {
        match S::LOCKING {
            Locking::Deferred => {
                ts.push_lock(o, lock);
                Outcome::Proceed
            }
            Locking::Eager | Locking::Relaxed => Outcome::ThenRelease(replaced),
        }
    }

    /// The state an object is born in: `w`, or — at `Cutoff_confl = 0`,
    /// pessimistic from its 0th conflict — its pessimistic twin.
    fn born(&self, w: StateWord) -> StateWord {
        if self.cfg.policy.cutoff_confl == 0 {
            w.to_pess_unlocked()
        } else {
            w
        }
    }

    /// Count a pessimistic transition on `o`.
    fn count_pess(&self, ts: &mut ThreadState, o: ObjId, conflicting: bool) {
        self.common.note(ts, Event::PessUncontended, o.0 as u64);
        if conflicting {
            ts.stats.bump(Event::PessOwnerChange);
        }
    }

    /// Give the policy the sample of one pessimistic transition on `o`.
    fn sample_pess(&self, ts: &mut ThreadState, o: ObjId, conflicting: bool) {
        if self.common.policy.on_pess_transition(self.common.rt.obj(o).profile(), conflicting) {
            self.note_phase_change(ts, o, false);
        }
    }

    // --- The executor (Figure 10(a)–(b), over the whole of Table 3) ---

    /// Execute an installing row on the word it was looked up for: claim (and
    /// epoch), support hook, publish, count and sample, hold — in that order.
    /// The support must have recorded the transition before any thread can
    /// see its state (`prepublish_flush.rs` pins it). `None` to look the word
    /// up again: the claim lost a race, or an installed-then-validated read
    /// has to go round ([`HybridEngine::finish_read_acquire`]).
    ///
    /// Inlined into the two continuations as well as the slow loop: with
    /// the row a constant of the branch it was looked up on, the matches
    /// below fold and each of the eight unlocked rows is straight-line.
    #[inline(always)]
    fn install(&self, ts: &mut ThreadState, o: ObjId, step: Step) -> Option<Outcome> {
        let Step { cur, row, .. } = step;
        let obj = self.common.rt.obj(o);
        let fresh = matches!(row.next, Next::FreshRdSh { .. });
        let pre = if fresh { self.common.pre_epoch() } else { 0 };
        let target = row.next.word(pre);
        let claimed = match row.install {
            Install::Cas => obj
                .state()
                .compare_exchange(cur, target.0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok(),
            Install::Claim => self.common.claim(obj, cur, ts.tid, target),
        };
        if !claimed {
            return None;
        }
        let next = if fresh { row.next.word(self.common.post_epoch(pre)) } else { target };
        self.emit(ts, o, StateWord(cur), next, step);
        if row.install == Install::Claim {
            self.common.publish(obj, next, || Self::table_row(ts, o, cur, step.access, step.dep).next);
        }
        match (row.class, row.lock) {
            (Class::Upgrade, _) => {
                self.common.note(ts, Event::OptUpgrading, o.0 as u64);
                Some(Outcome::Proceed)
            }
            (Class::Pess { conflicting }, Lock::None) => self.finish_read_acquire(ts, o, next, conflicting),
            (Class::Pess { conflicting }, lock) => {
                self.count_pess(ts, o, conflicting);
                self.sample_pess(ts, o, conflicting);
                Some(match lock {
                    Lock::Push(mode) => self.hold(ts, o, mode, StateWord(cur)),
                    // The read lock being upgraded is already in the lock
                    // buffer (so the discipline defers): the next flush
                    // releases it as the write lock it has become.
                    _ => {
                        ts.rd_set.remove(o.0);
                        Outcome::Proceed
                    }
                })
            }
            _ => unreachable!("a row of this class installs nothing"),
        }
    }

    /// Everything that is neither a same-state access nor an uncontended
    /// acquire of an unlocked pessimistic state: load, look up, execute,
    /// until a row lets the access through. [`Outcome::Aborted`] iff
    /// `abortable` (writes only) and the support requested an abort after a
    /// point where the thread may have yielded; nothing is claimed then.
    #[cold]
    fn slow(&self, ts: &mut ThreadState, o: ObjId, access: Access, abortable: bool) -> Outcome {
        let t = ts.tid;
        let rt = &self.common.rt;
        let state = rt.obj(o).state();
        let mut contended = false;
        let mut wait = rt.wait(t, "hybrid slow path");
        loop {
            let cur = state.load(Ordering::Acquire);
            let w = StateWord(cur);
            let step = self.lookup(ts, o, cur, access);
            match step.row.class {
                Class::Same => {
                    ts.stats.bump(Event::OptSameState);
                    return Outcome::Proceed;
                }
                Class::Fence => {
                    self.emit(ts, o, w, w, step);
                    self.common.note(ts, Event::OptFence, o.0 as u64);
                    return Outcome::Proceed;
                }
                Class::Reentrant => {
                    ts.stats.bump(Event::PessReentrant);
                    self.sample_pess(ts, o, false);
                    return Outcome::Proceed;
                }
                Class::Upgrade | Class::Pess { .. } => {
                    if let Some(outcome) = self.install(ts, o, step) {
                        return outcome;
                    }
                    continue;
                }
                Class::Conflict => {
                    // Figure 10(b) line 43.
                    let (Next::Either { opt, pess }, Lock::Push(lock)) = (step.row.next, step.row.lock)
                    else {
                        unreachable!("a conflict row names two words and a lock")
                    };
                    if !S::COORDINATE {
                        // Figure 7's "Ideal": the optimistic word by one CAS,
                        // priced as a pessimistic transition.
                        if state
                            .compare_exchange(cur, opt.0, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            self.common.note(ts, Event::PessUncontended, o.0 as u64);
                            return Outcome::Proceed;
                        }
                        continue;
                    }
                    if state
                        .compare_exchange(cur, StateWord::int(t).0, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue;
                    }
                    let Some(mode) = self.coordinate(ts, o, w) else {
                        // Coordination deadline: restore the pre-claim state
                        // and retry. The object was force-demoted, so once
                        // the stall clears (one successful coordination, or
                        // the holder blocks) it runs the pessimistic protocol.
                        state.store(cur, Ordering::Release);
                        continue;
                    };
                    if abortable && self.common.support.should_abort(t) {
                        // Yielded mid-coordination: restore and abort.
                        state.store(cur, Ordering::Release);
                        return Outcome::Aborted;
                    }
                    let to_pess = self.conflict_to_pess(ts, o, mode);
                    // Support first, then publish (recorder entries must be
                    // visible before the new state is).
                    self.finish_opt_conflict(ts, o, mode);
                    if to_pess {
                        state.store(pess.0, Ordering::Release);
                        self.common.note(ts, Event::OptToPess, o.0 as u64);
                        return self.hold(ts, o, lock, w);
                    }
                    state.store(opt.0, Ordering::Release);
                    return Outcome::Proceed;
                }
                Class::Contended => match S::LOCKING {
                    Locking::Deferred => {
                        if !contended {
                            contended = true;
                            self.common.note(ts, Event::PessContended, o.0 as u64);
                        }
                        // The holder(s) flush at their responding safe points.
                        self.coordinate(ts, o, w);
                    }
                    // No lock outlives the access that took it: the holder
                    // releases without being asked, so wait on the word as
                    // §2.1's critical section is waited on — no request, no
                    // coordination, not a contended transition.
                    Locking::Eager | Locking::Relaxed => {}
                },
                Class::Wait => self.common.respond_pending(ts),
            }
            if abortable && self.common.support.should_abort(t) {
                return Outcome::Aborted;
            }
            // Back off through the watchdog, so that a contended livelock is
            // bounded and diagnosable.
            let _ = wait.step();
        }
    }

    /// Figure 10(a)'s out-of-line call: every read but the leaf's.
    #[inline(never)]
    fn read_rest(&self, ts: &mut ThreadState, obj: &ObjHeader, o: ObjId, cur: u64) -> u64 {
        let t = ts.tid;
        let w = StateWord(cur);
        if ts.read_is_same_state(cur) {
            ts.stats.bump(Event::OptSameState);
        } else {
            // A read whose Table 3 row is non-conflicting, of a state nobody
            // holds write-locked, needs no transition: validate it against
            // the state word just loaded instead of taking the row's read lock
            // (DESIGN.md §12). On repeated invalidation it falls through to
            // the slow path, which takes that lock.
            let acquired = if matches!(S::LOCKING, Locking::Relaxed) && w.validated_read_ok(t) {
                if let Some(v) = self.common.seqlock_read(ts, o, w) {
                    self.common.rt.trace(t, Event::Read, o.0 as u64);
                    ts.op_index += 1;
                    return v;
                }
                None
            } else if w.is_pess_unlocked() {
                // Nearly every other pessimistic read: those five rows are
                // tried here, before the cold path.
                let step = self.lookup(ts, o, cur, Access::Read);
                self.install(ts, o, step)
            } else {
                None
            };
            match acquired.unwrap_or_else(|| self.slow(ts, o, Access::Read, false)) {
                Outcome::ThenRelease(_) => return self.read_then_release(ts, o),
                Outcome::Read(v) => return v,
                _ => {}
            }
        }
        self.program_read(ts, obj, o)
    }

    /// A write's leaf (Figure 10(a)): only `WrExOpt(T)`, call-free, and
    /// only while no trace ring would have to hear of it.
    #[inline(always)]
    fn write_impl(&self, t: ThreadId, o: ObjId, v: u64, abortable: bool) -> Option<u64> {
        // SAFETY: attached thread (Tracker contract).
        let ts = unsafe { self.common.ts(t) };
        let obj = self.common.rt.obj(o);
        let cur = obj.state().load(Ordering::Acquire);
        if cur == StateWord::wr_ex_opt(t).0 && !self.common.rt.tracing_enabled() {
            ts.stats.bump(Event::OptSameState);
            ts.stats.bump(Event::Write);
            let prev = obj.data_read();
            obj.data_write(v);
            ts.op_index += 1;
            return Some(prev);
        }
        self.write_rest(ts, o, cur, v, abortable)
    }

    /// Abortable tracked write, for the RS enforcer (§5): returns
    /// `Some(previous payload)` if the write completed (the payload read
    /// under ownership, for undo logging), or `None` if the support asked for
    /// an abort mid-transition ([`Support::should_abort`]) — in which case
    /// nothing was written and no state was claimed.
    pub fn try_write(&self, t: ThreadId, o: ObjId, v: u64) -> Option<u64> {
        self.write_impl(t, o, v, true)
    }

    /// Figure 10(a)'s out-of-line call: every write but the leaf's. (Six
    /// arguments travel in registers, so the leaf jumps here: no `obj`.) A
    /// settled object's write first, while no ring or hook would have to
    /// hear of its steps; every other write, and a settled one whose claim
    /// lost a race, goes on to the executor.
    #[inline(never)]
    fn write_rest(&self, ts: &mut ThreadState, o: ObjId, cur: u64, v: u64, abortable: bool) -> Option<u64> {
        if let Locking::Relaxed = S::LOCKING {
            let rt = &self.common.rt;
            if let Some(d) = settled_write(StateWord(cur), ts.tid) {
                if !rt.tracing_enabled() && !rt.perturbing() {
                    if let Some(prev) = self.write_settled(ts, o, cur, d, v) {
                        return Some(prev);
                    }
                }
            }
        }
        self.write_exec(ts, o, cur, v, abortable)
    }

    /// The executor's write: the same-state write under trace rings, the
    /// pessimistic-unlocked rows, then the cold loop. Out of line, so that
    /// the settled write in front of it saves no registers it does not use.
    #[inline(never)]
    fn write_exec(&self, ts: &mut ThreadState, o: ObjId, cur: u64, v: u64, abortable: bool) -> Option<u64> {
        let obj = self.common.rt.obj(o);
        if cur == StateWord::wr_ex_opt(ts.tid).0 {
            ts.stats.bump(Event::OptSameState);
        } else {
            // Nearly every other pessimistic write finds the state unlocked:
            // those three rows are tried here, before the cold path.
            let w = StateWord(cur);
            let acquired = if w.is_pess_unlocked() {
                let step = self.lookup(ts, o, cur, Access::Write);
                self.install(ts, o, step)
            } else {
                None
            };
            let outcome = acquired.unwrap_or_else(|| self.slow(ts, o, Access::Write, abortable));
            if outcome == Outcome::Aborted {
                return None;
            }
            // The writer fence of DESIGN.md §12, between whatever state
            // the slow path installed and the payload store: a validating
            // reader that sees the store sees the install at its re-load.
            // Same-state writes need none — their install is behind them.
            fence(Ordering::Release);
            if let Outcome::ThenRelease(replaced) = outcome {
                return Some(self.write_then_release(ts, o, v, replaced));
            }
        }
        Some(self.program_write(ts, obj, o, v))
    }

    /// A write to an unlocked version word (Table 3's marked row ③), as
    /// [`settled_write`] decided it, straight through: claim `WrExWLock(T)`,
    /// tell the support, count, the writer fence, the payload store, and the
    /// release store of the next version word — the executor's steps for
    /// this row, in its order, without the table lookup, the policy's sample
    /// or a load of the profile word (the word is the verdict). Run only
    /// while no trace ring or schedule hook would hear of a step, so no
    /// step records. `None` iff the claim lost a race: nothing is done.
    #[inline(always)]
    fn write_settled(&self, ts: &mut ThreadState, o: ObjId, cur: u64, d: SettledWrite, v: u64) -> Option<u64> {
        let obj = self.common.rt.obj(o);
        let held = StateWord::wr_ex_pess(ts.tid, LockMode::Write);
        if !self.common.claim(obj, cur, ts.tid, held) {
            return None;
        }
        if d.conflicting {
            let ev = TransitionEv::PessConflictingAcquire { prev: StateWord(cur).holders() };
            self.common.support.on_transition(self.common.cx(ts), o, ev);
        }
        self.common.publish(obj, held, || {
            let dep = Departures { self_read: self.cfg.self_read, install_unlocked: false };
            Self::table_row(ts, o, cur, Access::Write, dep).next
        });
        ts.stats.bump(Event::PessUncontended);
        if d.conflicting {
            ts.stats.bump(Event::PessOwnerChange);
        }
        // The writer fence of `write_exec`, before the payload store.
        fence(Ordering::Release);
        ts.stats.bump(Event::Write);
        let prev = obj.data_read();
        obj.data_write(v);
        ts.op_index += 1;
        EngineCommon::<S>::release_write_lock(obj, o, ts.tid, d.published);
        ts.stats.bump(Event::VersionPublished);
        Some(prev)
    }

    /// The program's write, once the state allows it. Returns the payload it
    /// overwrote.
    #[inline(always)]
    fn program_write(&self, ts: &mut ThreadState, obj: &ObjHeader, o: ObjId, v: u64) -> u64 {
        self.common.note(ts, Event::Write, o.0 as u64);
        let prev = obj.data_read();
        obj.data_write(v);
        ts.op_index += 1;
        prev
    }

    /// The program's read, once the state allows it.
    #[inline(always)]
    fn program_read(&self, ts: &mut ThreadState, obj: &ObjHeader, o: ObjId) -> u64 {
        self.common.rt.trace(ts.tid, Event::Read, o.0 as u64);
        let v = obj.data_read();
        ts.op_index += 1;
        v
    }

    /// The program write inside the critical section of a lock that is not
    /// deferred: the release comes *after* the payload access it guards.
    /// Inlined into the write continuation: it is how every pessimistic
    /// write ends on a support that unlocks eagerly. `replaced` is the word
    /// the write's claim replaced.
    #[inline(always)]
    fn write_then_release(&self, ts: &mut ThreadState, o: ObjId, v: u64, replaced: StateWord) -> u64 {
        self.common.rt.sched_point(ts.tid, SchedPoint::LockedAccess);
        let prev = self.program_write(ts, self.common.rt.obj(o), o, v);
        // Every write is made under WrExWLock(T): a store releases it.
        self.common.unlock_write_lock(ts, o, Some(replaced));
        prev
    }

    /// [`HybridEngine::write_then_release`]'s read twin: how a read lock
    /// ends under [`Locking::Eager`], where no read is installed unlocked
    /// (E1, E10).
    #[inline(always)]
    fn read_then_release(&self, ts: &mut ThreadState, o: ObjId) -> u64 {
        self.common.rt.sched_point(ts.tid, SchedPoint::LockedAccess);
        let v = self.program_read(ts, self.common.rt.obj(o), o);
        self.common.unlock_one_object(ts, o);
        v
    }

    /// Tail of a row *installed unlocked* (the table's marked rows ②; support
    /// hook run, state published) — *install, then validate* (DESIGN.md §12):
    /// `installed` is a read-shared word under an epoch drawn for this
    /// install, so no writer reaches the payload without replacing it, and
    /// the same word back after the payload load is what the row's read lock
    /// guaranteed.
    /// The read is then counted once, as the transition: the unlock it
    /// stands for lies inside the access, as a released-at-once lock's does.
    ///
    /// `None` sends the read round again, nothing counted: the transition
    /// stands (a recorded read by this thread, conservative), but a foreign
    /// install landed in the window. A sample that promotes the object moves
    /// no word: the object crosses the valve at the next release of a lock
    /// on it, a write's.
    fn finish_read_acquire(&self, ts: &mut ThreadState, o: ObjId, installed: StateWord, conflicting: bool) -> Option<Outcome> {
        self.sample_pess(ts, o, conflicting);
        let obj = self.common.rt.obj(o);
        let v = obj.data_read();
        self.common.rt.sched_point(ts.tid, SchedPoint::SeqlockReadValidate);
        fence(Ordering::Acquire);
        if obj.state().load(Ordering::Relaxed) != installed.0 {
            return None;
        }
        self.count_pess(ts, o, conflicting);
        self.common.rt.trace(ts.tid, Event::Read, o.0 as u64);
        ts.op_index += 1;
        Some(Outcome::Read(v))
    }
}

impl<S: Support> Tracker for HybridEngine<S> {
    fn rt(&self) -> &Arc<Runtime> {
        &self.common.rt
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn attach(&self) -> ThreadId {
        self.common.attach()
    }

    fn detach(&self, t: ThreadId) {
        // SAFETY: called from the attached thread (Tracker contract).
        unsafe { self.common.detach(t) }
    }

    #[inline(always)]
    fn safepoint(&self, t: ThreadId) {
        // SAFETY: attached thread.
        self.common.poll(unsafe { self.common.ts(t) });
    }

    fn lock(&self, t: ThreadId, m: MonitorId) {
        // SAFETY: attached thread.
        self.common.monitor_acquire(unsafe { self.common.ts(t) }, m);
    }

    fn unlock(&self, t: ThreadId, m: MonitorId) {
        // SAFETY: attached thread.
        self.common.monitor_release(unsafe { self.common.ts(t) }, m);
    }

    fn wait(&self, t: ThreadId, m: MonitorId) {
        // SAFETY: attached thread.
        self.common.monitor_wait(unsafe { self.common.ts(t) }, m);
    }

    fn notify_all(&self, t: ThreadId, m: MonitorId) {
        self.common.rt.monitor_notify_all_from(m, t);
    }

    /// A read's leaf: Figure 10(a)'s compares, call-free, rings permitting.
    #[inline(always)]
    fn read(&self, t: ThreadId, o: ObjId) -> u64 {
        // SAFETY: attached thread.
        let ts = unsafe { self.common.ts(t) };
        ts.stats.bump(Event::Read);
        let obj = self.common.rt.obj(o);
        let cur = obj.state().load(Ordering::Acquire);
        let quiet = !self.common.rt.tracing_enabled();
        if quiet && ts.read_is_same_state(cur) {
            ts.stats.bump(Event::OptSameState);
            let v = obj.data_read();
            ts.op_index += 1;
            return v;
        }
        // The validated read's first attempt (DESIGN.md §12).
        if let Some(v) = self.common.validated_read_leaf(ts, obj, cur) {
            return v;
        }
        self.read_rest(ts, obj, o, cur)
    }

    #[inline(always)]
    fn write(&self, t: ThreadId, o: ObjId, v: u64) {
        self.write_impl(t, o, v, false);
    }

    fn alloc_init(&self, o: ObjId, owner: ThreadId) {
        // "Each object newly allocated by thread T starts in the WrExOpt(T)
        // state" (§6.2).
        let w = self.born(StateWord::wr_ex_opt(owner));
        self.common.rt.obj(o).state().store(w.0, Ordering::SeqCst);
    }

    fn alloc_init_read_shared(&self, o: ObjId) {
        let w = self.born(StateWord::rd_sh_opt(1));
        self.common.rt.obj(o).state().store(w.0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Phase, Profile};
    use crate::support::{EagerModel, PaperModel};
    use crate::word::Kind;
    use drink_runtime::{RuntimeConfig, StatsReport};

    fn test_rt() -> Arc<Runtime> {
        Arc::new(Runtime::new(
            RuntimeConfig::builder()
                .max_threads(8)
                .heap_objects(32)
                .monitors(4)
                .build(),
        ))
    }

    fn engine_with(policy: PolicyParams) -> HybridEngine {
        HybridEngine::with_config(
            test_rt(),
            NullSupport,
            HybridConfig {
                policy,
                ..HybridConfig::default()
            },
        )
    }

    /// The engine on the paper's own model (deferred unlocking, no validated
    /// reads), for the tests that pin which lock a Table 3 row takes and how
    /// long it is held.
    fn paper_engine(cfg: HybridConfig) -> HybridEngine<PaperModel> {
        HybridEngine::with_config(test_rt(), PaperModel, cfg)
    }

    fn engine() -> HybridEngine {
        engine_with(PolicyParams::default())
    }

    /// Policy that moves an object to pessimistic on its first explicit
    /// conflict and essentially never moves it back.
    fn eager_pess() -> PolicyParams {
        PolicyParams {
            cutoff_confl: 1,
            k_confl: 1_000_000,
            inertia: 1_000_000,
        }
    }

    fn state_of<S: Support>(e: &HybridEngine<S>, o: ObjId) -> StateWord {
        StateWord(e.rt().obj(o).state().load(Ordering::SeqCst))
    }

    /// Run `victim_ops` on a second thread while the caller's thread `t`
    /// keeps polling safe points (responding to coordination) until it
    /// finishes.
    fn with_responsive_main<S: Support, R: Send>(
        e: &HybridEngine<S>,
        t: ThreadId,
        victim_ops: impl FnOnce(ThreadId) -> R + Send,
    ) -> R {
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                let t1 = e.attach();
                let r = victim_ops(t1);
                e.detach(t1);
                r
            });
            let mut wait = e.rt().wait(t, "scenario thread to finish");
            while !h.is_finished() {
                e.safepoint(t);
                let _ = wait.step();
            }
            h.join().unwrap()
        })
    }

    #[test]
    #[should_panic(expected = "256 thread slots could read-lock one object more than 255 times")]
    fn a_runtime_with_more_threads_than_read_locks_is_refused() {
        let rt = Runtime::new(RuntimeConfig::builder().max_threads(256).heap_objects(1).build());
        HybridEngine::new(Arc::new(rt));
    }

    #[test]
    fn objects_start_optimistic_and_stay_for_low_conflict() {
        let e = engine();
        let t = e.attach();
        let o = ObjId(0);
        e.alloc_init(o, t);
        for i in 0..1_000 {
            e.write(t, o, i);
            let _ = e.read(t, o);
        }
        assert_eq!(state_of(&e, o), StateWord::wr_ex_opt(t));
        e.detach(t);
        let r = e.rt().stats().report();
        assert_eq!(r.get(Event::OptSameState), 2_000);
        assert_eq!(r.opt_to_pess(), 0);
        assert_eq!(r.pess_uncontended(), 0);
    }

    #[test]
    fn explicit_conflicts_move_object_to_pessimistic() {
        let e = paper_engine(HybridConfig { policy: eager_pess(), ..HybridConfig::default() });
        let t0 = e.attach();
        let o = ObjId(1);
        e.alloc_init(o, t0);
        e.write(t0, o, 1);

        with_responsive_main(&e, t0, |t1| {
            e.write(t1, o, 2); // explicit conflict → policy → pessimistic
            // t1 now holds WrExWLock(t1); its detach flushes to unlocked.
            assert_eq!(
                StateWord(e.rt().obj(o).state().load(Ordering::SeqCst)),
                StateWord::wr_ex_pess(t1, LockMode::Write)
            );
            t1
        });
        let w = state_of(&e, o);
        assert!(w.is_pess_unlocked(), "detach flush unlocked it: {w:?}");
        e.detach(t0);
        let r = e.rt().stats().report();
        assert_eq!(r.opt_to_pess(), 1);
        assert_eq!(r.get(Event::OptConflictExplicit), 1);
    }

    #[test]
    fn implicit_conflicts_do_not_trigger_policy() {
        // Footnote 7: only explicit coordination counts toward Cutoff_confl.
        let e = engine_with(eager_pess());
        let o = ObjId(2);
        std::thread::scope(|s| {
            let er = &e;
            s.spawn(move || {
                let t0 = er.attach();
                er.alloc_init(o, t0);
                er.write(t0, o, 1);
                er.detach(t0); // blocked forever → implicit coordination
            })
            .join()
            .unwrap();
            s.spawn(move || {
                let t1 = er.attach();
                er.write(t1, o, 2);
                er.detach(t1);
            });
        });
        let r = e.rt().stats().report();
        assert_eq!(r.get(Event::OptConflictImplicit), 1);
        assert_eq!(r.opt_to_pess(), 0, "implicit conflicts keep objects optimistic");
    }

    #[test]
    fn deferred_unlocking_until_psro() {
        // Figure 2(a): well-synchronized accesses encounter no contention
        // because the PSRO flush releases the pessimistic lock.
        let e = paper_engine(HybridConfig { policy: eager_pess(), ..HybridConfig::default() });
        let t0 = e.attach();
        let o = ObjId(3);
        let m = MonitorId(0);
        e.alloc_init(o, t0);
        e.write(t0, o, 1);

        with_responsive_main(&e, t0, |t1| {
            e.lock(t1, m);
            e.write(t1, o, 2); // goes pessimistic here (explicit conflict)
            let w = StateWord(e.rt().obj(o).state().load(Ordering::SeqCst));
            assert_eq!(w, StateWord::wr_ex_pess(t1, LockMode::Write));
            e.write(t1, o, 3); // reentrant: still write-locked
            e.unlock(t1, m); // PSRO → flush
            let w = StateWord(e.rt().obj(o).state().load(Ordering::SeqCst));
            assert!(w.is_pess_unlocked(), "PSRO flush unlocks: {w:?}");
        });

        // t0 now locks it without contention (Figure 2(a)'s T2).
        e.lock(t0, m);
        let _ = e.read(t0, o);
        e.unlock(t0, m);
        e.detach(t0);
        let r = e.rt().stats().report();
        assert_eq!(r.pess_contended(), 0, "well-synchronized ⇒ no contention");
        assert_eq!(r.get(Event::PessReentrant), 1);
        assert!(r.pess_uncontended() >= 2);
    }

    #[test]
    fn object_level_race_triggers_contended_transition() {
        // Figure 2(b): an access racing with a locked state falls back to
        // coordination.
        let e = paper_engine(HybridConfig { policy: eager_pess(), ..HybridConfig::default() });
        let t0 = e.attach();
        let o = ObjId(4);
        e.alloc_init(o, t0);
        e.write(t0, o, 1);

        with_responsive_main(&e, t0, |t1| {
            e.write(t1, o, 2); // → WrExWLock(t1), held until t1's next PSRO
        });
        // t1 detached (flushed), so this does NOT contend. Get the lock held
        // again, by t0 this time, then race from another thread.
        e.write(t0, o, 3); // pess unlocked → WrExWLock(t0)
        assert_eq!(state_of(&e, o), StateWord::wr_ex_pess(t0, LockMode::Write));

        with_responsive_main(&e, t0, |t2| {
            // t0 holds the write lock and is polling safe points: t2's read
            // contends, coordinates, t0's responding safe point flushes, and
            // t2 retries uncontended.
            assert_eq!(e.read(t2, o), 3);
        });
        e.detach(t0);
        let r = e.rt().stats().report();
        assert_eq!(r.pess_contended(), 1);
        assert!(r.get(Event::RespondedExplicit) >= 1);
    }

    #[test]
    fn second_reader_joins_via_wrex_rlock_without_contention() {
        // §3.2: "The read-locked write-exclusive state enables a second
        // concurrent reader to upgrade to RdShRLock(2), instead of
        // encountering contention."
        let e = paper_engine(HybridConfig {
            policy: eager_pess(),
            ..HybridConfig::default()
        });
        let t0 = e.attach();
        let o = ObjId(5);
        e.alloc_init(o, t0);
        e.write(t0, o, 9);

        with_responsive_main(&e, t0, |t1| {
            e.write(t1, o, 10); // → pessimistic
        });
        // t0 reads its... t1's object: WrExPess(t1) unlocked → RdExRLock(t0).
        assert_eq!(e.read(t0, o), 10);
        assert_eq!(state_of(&e, o), StateWord::rd_ex_pess(t0, LockMode::Read));
        // Re-read is reentrant.
        assert_eq!(e.read(t0, o), 10);

        // A second reader joins: RdExRLock(t0) → RdShRLock(2)(c).
        with_responsive_main(&e, t0, |t2| {
            assert_eq!(e.read(t2, o), 10);
            let w = StateWord(e.rt().obj(o).state().load(Ordering::SeqCst));
            assert_eq!(w.kind(), Kind::RdSh);
            assert_eq!(w.read_locks(), 2);
        });
        // t2 detached → flushed one share.
        let w = state_of(&e, o);
        assert_eq!(w.read_locks(), 1);
        e.detach(t0);
        let w = state_of(&e, o);
        assert!(w.is_pess_unlocked());
        assert_eq!(e.rt().stats().get(Event::PessContended), 0);
        assert_eq!(e.rt().stats().get(Event::PessReentrant), 1);
    }

    #[test]
    fn prototype_wrexwlock_mode_contends_spuriously() {
        // §7.1 "Extraneous contention": with the prototype's self-read mode,
        // a read of WrExPess(T1) by T1 write-locks, so a second reader
        // contends even without an object-level data race.
        let e = paper_engine(HybridConfig {
            policy: eager_pess(),
            self_read: SelfReadMode::WrExWLock,
            ..HybridConfig::default()
        });
        let t0 = e.attach();
        let o = ObjId(6);
        e.alloc_init(o, t0);
        e.write(t0, o, 1);
        with_responsive_main(&e, t0, |t1| {
            e.write(t1, o, 2); // pessimistic now
        });
        // Take write ownership, flush at a PSRO, then self-read: under the
        // prototype encoding the self-read write-locks.
        e.write(t0, o, 3);
        e.lock(t0, MonitorId(3));
        e.unlock(t0, MonitorId(3)); // PSRO flush → WrExPess(t0) unlocked
        assert_eq!(state_of(&e, o), StateWord::wr_ex_pess(t0, LockMode::Unlocked));
        let _ = e.read(t0, o);
        assert_eq!(state_of(&e, o), StateWord::wr_ex_pess(t0, LockMode::Write));

        with_responsive_main(&e, t0, |t2| {
            let _ = e.read(t2, o); // contends with t0's WLock
        });
        e.detach(t0);
        assert!(e.rt().stats().get(Event::PessContended) >= 1);
    }

    #[test]
    fn policy_returns_object_to_optimistic() {
        // K_confl=1, Inertia=2: two non-conflicting pessimistic transitions
        // flip the object back at its next unlock.
        let e = paper_engine(HybridConfig {
            policy: PolicyParams {
                cutoff_confl: 1,
                k_confl: 1,
                inertia: 2,
            },
            ..HybridConfig::default()
        });
        let t0 = e.attach();
        let o = ObjId(7);
        e.alloc_init(o, t0);
        e.write(t0, o, 1);
        with_responsive_main(&e, t0, |t1| {
            e.write(t1, o, 2); // → pessimistic (conflict #1)
        });
        // Pessimistic non-conflicting transitions by t0... first acquire is
        // conflicting (prev owner t1), later ones are its own.
        for i in 0..8 {
            e.write(t0, o, i); // first: confl acquire; rest: reentrant
        }
        // Flush at a PSRO; policy should have flipped the object by now.
        e.lock(t0, MonitorId(1));
        e.unlock(t0, MonitorId(1));
        assert_eq!(state_of(&e, o), StateWord::wr_ex_opt(t0));
        e.detach(t0);
        let r = e.rt().stats().report();
        assert_eq!(r.pess_to_opt(), 1);
        // One-way valve: subsequent accesses stay optimistic.
        assert_eq!(r.opt_to_pess(), 1);
    }

    #[test]
    fn self_rdsh_upgrade_in_place_when_sole_locker() {
        let e = paper_engine(HybridConfig {
            policy: eager_pess(),
            ..HybridConfig::default()
        });
        let t0 = e.attach();
        let o = ObjId(8);
        // Construct RdShPess directly (unlocked, epoch 1).
        e.rt()
            .obj(o)
            .state()
            .store(StateWord::rd_sh_pess(1, 0).0, Ordering::SeqCst);
        // Read: joins as sole locker.
        let _ = e.read(t0, o);
        assert_eq!(state_of(&e, o).read_locks(), 1);
        // Write: in-place upgrade, no coordination (no other lockers).
        e.write(t0, o, 5);
        assert_eq!(state_of(&e, o), StateWord::wr_ex_pess(t0, LockMode::Write));
        e.detach(t0);
        assert_eq!(e.rt().stats().get(Event::PessContended), 0);
    }

    #[test]
    fn sync_inc_pattern_avoids_repeated_coordination() {
        // The syncInc microbenchmark shape (Figure 8(a)): well-synchronized
        // counter increments. Under hybrid tracking the counter object goes
        // pessimistic after Cutoff_confl conflicts and thereafter transfers
        // by CAS, not by roundtrip coordination, and its deferred locks never
        // contend.
        const ITERS: u64 = 2_000;
        let e = paper_engine(HybridConfig::default()); // cutoff 4
        let counter = ObjId(9);
        let m = MonitorId(2);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let er = &e;
                let barrier = &barrier;
                s.spawn(move || {
                    let t = er.attach();
                    barrier.wait();
                    for _ in 0..ITERS {
                        er.lock(t, m);
                        let v = er.read(t, counter);
                        er.write(t, counter, v + 1);
                        er.unlock(t, m);
                        er.safepoint(t);
                    }
                    er.detach(t);
                });
            }
        });
        // The lock makes increments atomic: the count is exact.
        assert_eq!(e.rt().obj(counter).data_read(), 4 * ITERS);
        let r = e.rt().stats().report();
        // Whether the counter crosses Cutoff_confl depends on how many of
        // its conflicts resolved explicitly (parked waiters are coordinated
        // with implicitly, which the policy ignores — footnote 7), so the
        // move is scheduling-dependent; what must hold is that it moves at
        // most once and that the run stays contention-free.
        assert!(r.opt_to_pess() <= 1);
        if r.opt_to_pess() == 1 {
            // Once pessimistic, ownership transfers by CAS: pessimistic
            // transitions materialize and coordination stays bounded.
            assert!(r.pess_uncontended() > 0);
        }
        assert_eq!(r.pess_contended(), 0, "object-level DRF ⇒ no contention");
    }

    /// One run of the racyInc microbenchmark shape (Figure 8(b)): four
    /// threads, `iters` unsynchronised read-then-write increments each of one
    /// counter, on `support`. Under deferred unlocking it is hybrid
    /// tracking's worst case — contended transitions trigger coordination
    /// again and again; under a discipline that unlocks eagerly no access
    /// leaves a lock behind, which this checks after every access. Two runs
    /// schedule differently, so this asserts only what holds under *every*
    /// schedule, and returns the report and the counter's final profile for
    /// checks of the same kind.
    fn racy_inc_run<S: Support>(support: S, params: PolicyParams, iters: u64, counter: ObjId) -> (StatsReport, Profile) {
        const THREADS: u64 = 4;
        let e = HybridEngine::with_config(test_rt(), support, HybridConfig { policy: params, ..HybridConfig::default() });
        let barrier = std::sync::Barrier::new(THREADS as usize);
        let last_writes: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (er, barrier) = (&e, &barrier);
                    s.spawn(move || {
                        let t = er.attach();
                        barrier.wait();
                        let mut last = 0;
                        for _ in 0..iters {
                            for write in [false, true] {
                                if write {
                                    er.write(t, counter, last);
                                } else {
                                    last = er.read(t, counter) + 1;
                                }
                                // SAFETY: this is the OS thread attached as t.
                                let ts = unsafe { er.common().ts(t) };
                                assert!(
                                    matches!(S::LOCKING, Locking::Deferred) || ts.holds_no_locks(),
                                    "a lock outlived its access: {:?}",
                                    ts.lock_buffer
                                );
                            }
                            er.safepoint(t);
                        }
                        er.detach(t);
                        last
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let r = e.rt().stats().report();

        // Access partition: every access completed and was classified once.
        assert_eq!(r.accesses(), THREADS * iters * 2);
        let classified = r.opt_same_state()
            + r.get(Event::OptUpgrading)
            + r.get(Event::OptFence)
            + r.opt_conflicting()
            + r.pess_uncontended()
            + r.validated_reads();
        assert_eq!(classified, r.accesses(), "an access was dropped or double-counted");

        // Racy increments lose updates — a thread descheduled between its
        // read and its write legally resets the counter — so the final value
        // is bounded below by 2, not by `iters`. No *write* is lost, though:
        // the counter ends at some thread's last write.
        let v = e.rt().obj(counter).data_read();
        assert!((2..=THREADS * iters).contains(&v), "final counter {v}");
        assert!(
            last_writes.contains(&v),
            "final counter {v} is nobody's last write {last_writes:?}"
        );

        // Quiescent state: unlocked, on the side of the valve its profile
        // names, having crossed the valve at most once each way.
        let w = state_of(&e, counter);
        let profile = AdaptivePolicy::profile(e.rt().obj(counter).profile());
        assert!(!w.is_int() && !w.is_pess_locked(), "quiescent state: {w:?}");
        let pess_phase = matches!(profile.phase, Phase::Pess | Phase::Settled);
        assert_eq!(w.is_pess(), pess_phase, "{w:?} in {profile:?}");
        assert_eq!(r.opt_to_pess(), u64::from(profile.phase != Phase::OptInitial));
        assert_eq!(r.pess_to_opt(), u64::from(profile.phase == Phase::OptFinal));
        (r, profile)
    }

    #[test]
    fn racy_inc_pattern_completes_and_counts_contention() {
        let (r, _) = racy_inc_run(PaperModel, PolicyParams::default(), 2_000, ObjId(10));
        // A contended transition is the only pessimistic path to a roundtrip.
        if r.pess_contended() > 0 {
            let coordinated =
                r.get(Event::CoordinationRoundtrip) + r.get(Event::CoordDeadlineExceeded);
            assert!(coordinated > 0);
        }
    }

    #[test]
    fn eager_unlock_ablation_tracks_correctly_without_buffering() {
        // §3.1's strawman: states unlock after every access. Reentrancy
        // disappears, the lock buffer stays empty, and tracking stays sound.
        let e = HybridEngine::with_config(
            test_rt(),
            EagerModel,
            HybridConfig {
                policy: eager_pess(),
                ..HybridConfig::default()
            },
        );
        let t0 = e.attach();
        let o = ObjId(12);
        e.alloc_init(o, t0);
        e.write(t0, o, 1);
        with_responsive_main(&e, t0, |t1| {
            e.write(t1, o, 2); // → pessimistic via the policy
            // Eager unlock: the state is already unlocked, mid-"region".
            let w = StateWord(e.rt().obj(o).state().load(Ordering::SeqCst));
            assert!(w.is_pess_unlocked(), "eagerly unlocked: {w:?}");
        });
        // Repeated owner writes never become reentrant (no lock is held).
        e.write(t0, o, 3);
        e.write(t0, o, 4);
        assert_eq!(e.rt().obj(o).data_read(), 4);
        e.detach(t0);
        let r = e.rt().stats().report();
        assert_eq!(r.get(Event::PessReentrant), 0, "no reentrancy without holds");
        assert!(r.pess_uncontended() >= 2);
        assert_eq!(r.pess_contended(), 0);
    }

    #[test]
    fn racy_inc_on_a_relaxed_support_holds_no_lock_past_its_access() {
        // Tracking alone unlocks every lock inside its access, so the
        // racyInc counter never contends, whatever the schedule: a thread
        // that meets another's lock waits for its release. With the cutoff
        // at 1 the counter turns pessimistic early, so nearly the whole run
        // exercises `racy_inc_run`'s per-access check that no lock outlives
        // its access.
        let params = PolicyParams {
            cutoff_confl: 1,
            ..PolicyParams::default()
        };
        let (r, profile) = racy_inc_run(NullSupport, params, 400, ObjId(11));
        assert_eq!((r.pess_contended(), r.get(Event::PessReentrant)), (0, 0), "{profile:?}");
        assert_eq!(r.get(Event::StateUnlocked), 0, "no flush ever found a lock to release");
    }
}
