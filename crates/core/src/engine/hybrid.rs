//! Hybrid tracking (§3): the paper's contribution.
//!
//! Objects move between **optimistic** states (handled exactly like the
//! Octet engine) and **pessimistic** states with *deferred unlocking*
//! (§3.1):
//!
//! * an access to an unlocked pessimistic state CAS-locks it (reader–writer
//!   locking) and records the object in the thread's lock buffer;
//! * locks are released only at PSROs and responding safe points, which flush
//!   the whole buffer (see [`EngineCommon::flush_lock_buffer`]);
//! * repeated accesses to states this thread already holds are **reentrant**
//!   — no atomic operation;
//! * an access that conflicts with a *locked* state is **contended**: the
//!   thread falls back to coordination, which makes the holder flush at its
//!   next responding safe point, then retries. Contention implies an
//!   object-level data race (§3.1, Figure 2(b));
//! * the adaptive policy (§6) decides, at optimistic conflicts, whether an
//!   object moves to pessimistic states, and at unlocks, whether it moves
//!   back (Figure 3's two diamonds);
//! * an object whose accesses keep contending is not object-level race free,
//!   so deferring its unlocks only manufactures more contention: under a
//!   support that does not need Table 3's lock discipline
//!   ([`Support::RELAXED_LOCKING`]) no lock on such a *racy* object outlives
//!   the access that took it — the paper's pre-insight design, applied per
//!   object (DESIGN.md §13), at the flat pessimistic engine's price: a write
//!   is claim, payload store, unlock *store*; a conflicting read installs the
//!   unlocked word its lock would have been released to and validates the
//!   payload against it (DESIGN.md §12, "install, then validate").
//!
//! The state-transition logic below follows Table 3 row by row; comments
//! cite the rows. See `DESIGN.md` for the happens-before soundness argument
//! behind each `Support` event.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use drink_runtime::{
    Event, MonitorId, ObjHeader, ObjId, Runtime, SchedPoint, ThreadId, TraceKind,
};

use crate::common::EngineCommon;
use crate::coord;
use crate::engine::Tracker;
use crate::policy::{AdaptivePolicy, PessVerdict, PolicyParams, Valve};
use crate::support::{CoordMode, NullSupport, PrevHolders, Support, SupportCx, TransitionEv};
use crate::tstate::ThreadState;
use crate::word::{Kind, LockMode, StateWord};

/// What state a read by the owner of a `WrExPess` object produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelfReadMode {
    /// The full model: `WrExRLock(T)` — sound, and a second reader upgrades
    /// to `RdShRLock(2)` without contention (§3.2).
    #[default]
    WrExRLock,
    /// The paper's prototype (§7.1 "Extraneous contention"): limited metadata
    /// bits force `WrExWLock(T)`, so a second reader contends spuriously.
    WrExWLock,
    /// The paper's *unsound* alternate configuration (§7.1): `RdExRLock(T)`,
    /// which avoids spurious contention but loses the owner's write — unfit
    /// for sound dependence detection. For the E9 ablation only.
    RdExRLockUnsound,
}

/// How a slow path leaves the object for the program access that follows it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Access {
    /// An abortable write was asked to abort: nothing is claimed and no
    /// access follows.
    Aborted,
    /// Perform the access. A lock taken for it stays in the lock buffer until
    /// the next flush (deferred unlocking, §3.1).
    Proceed,
    /// Perform the access, then release the lock taken for it, which is in
    /// no buffer: by a store after a write
    /// ([`EngineCommon::unlock_write_lock`]), as one flush step after a read.
    ThenRelease,
    /// The read is done — installed, then validated — and this is its value.
    Read(u64),
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
    /// §3.1 ablation: the paper's *initial, pre-insight design* — unlock
    /// pessimistic states eagerly after every access, on every object,
    /// instead of deferring to PSROs. Every pessimistic access then pays a
    /// conditional unlock, no transition is ever reentrant, and the
    /// recorder's release-clock edges are unavailable (tracking-only
    /// configurations may use this; runtime support may not). The paper
    /// reports this design "added significant overhead"; the
    /// `e10_deferred_unlock_ablation` harness quantifies it.
    pub eager_unlock: bool,
}

impl HybridConfig {
    /// The "w/ infinite cutoff" configuration of Figure 7.
    pub fn infinite_cutoff() -> Self {
        HybridConfig {
            policy: PolicyParams::infinite_cutoff(),
            ..HybridConfig::default()
        }
    }

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
    /// later expiry do so again, where [`HybridConfig::infinite_cutoff`]'s
    /// one-way valve allows each object one such trip.
    pub fn optimistic() -> Self {
        HybridConfig {
            valve: Valve::Reopening,
            ..HybridConfig::infinite_cutoff()
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
        assert!(
            !(cfg.eager_unlock && S::PREPUBLISH),
            "the §3.1 eager-unlock ablation is tracking-only: recorders rely              on deferred unlocking's release-clock edges"
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
            rt.coord_deadline(),
        );
        if whom == PrevHolders::AllOthers && mode.is_some() {
            ts.stats.bump(Event::CoordFanout);
            ts.stats.add(Event::CoordFanoutPeers, sources.len() as u64);
            // Every registered peer that contributed no source was resolved
            // vacuously by the epoch skip (DESIGN.md §14). Counted post-hoc
            // so the fan-out's loop carries no extra state; only meaningful
            // on sharded runtimes (unsharded fan-outs visit every peer).
            if rt.heap().thread_shards() > 1 {
                let peers = rt.registered_threads().saturating_sub(1);
                ts.stats.add(Event::CoordFanoutSkipped, peers.saturating_sub(sources.len()) as u64);
            }
        }
        ts.src_scratch = sources;
        ts.fanout_scratch = pending;
        match mode {
            Some(_) => ts.stats.bump(Event::CoordinationRoundtrip),
            None => self.note_coord_deadline(ts, o),
        }
        mode
    }

    /// Bookkeeping for a tripped coordination deadline: stats, trace, and a
    /// count-bypassing demotion so the object's future traffic avoids the
    /// coordination it just proved expensive.
    #[cold]
    fn note_coord_deadline(&self, ts: &mut ThreadState, o: ObjId) {
        ts.stats.bump(Event::CoordDeadlineExceeded);
        self.common.rt.trace(ts.tid, TraceKind::CoordDeadline, o.0 as u64);
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
        let (ev, tk) = if into_pess {
            (Event::AdaptDemotion, TraceKind::AdaptDemote)
        } else {
            (Event::AdaptPromotion, TraceKind::AdaptPromote)
        };
        ts.stats.bump(ev);
        self.common.rt.trace(ts.tid, tk, o.0 as u64);
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

    fn finish_opt_conflict(&self, ts: &mut ThreadState, o: ObjId, mode: CoordMode, write: bool) {
        let (ev, tk) = match mode {
            CoordMode::Explicit | CoordMode::Mixed => {
                (Event::OptConflictExplicit, TraceKind::ConflictExplicit)
            }
            CoordMode::Implicit => (Event::OptConflictImplicit, TraceKind::ConflictImplicit),
        };
        ts.stats.bump(ev);
        self.common.rt.trace(ts.tid, tk, o.0 as u64);
        let cx = SupportCx {
            rt: &self.common.rt,
            t: ts.tid,
            op: ts.op_index,
        };
        self.common.support.on_transition(
            cx,
            o,
            TransitionEv::Conflict {
                mode,
                sources: &ts.src_scratch,
                write,
            },
        );
    }

    fn emit_pess_acquire(&self, ts: &mut ThreadState, o: ObjId, prev: PrevHolders, write: bool) {
        let cx = self.common.cx(ts);
        self.common
            .support
            .on_transition(cx, o, TransitionEv::PessConflictingAcquire { prev, write });
    }

    /// A transition just took `lock` on `o`. Under the §3.1 ablation, and on
    /// an object the policy found `racy` if the support can do without Table
    /// 3's lock discipline, the lock goes back right after the program access
    /// and never enters the lock buffer; otherwise it is deferred to the next
    /// flush.
    #[inline]
    fn hold(&self, ts: &mut ThreadState, o: ObjId, lock: LockMode, racy: bool) -> Access {
        if self.cfg.eager_unlock || (S::RELAXED_LOCKING && racy) {
            return Access::ThenRelease;
        }
        ts.push_lock(o, lock);
        Access::Proceed
    }

    /// Count a pessimistic transition on `o`.
    fn count_pess(&self, ts: &mut ThreadState, o: ObjId, conflicting: bool) {
        ts.stats.bump(Event::PessUncontended);
        self.common.rt.trace(ts.tid, TraceKind::PessClaim, o.0 as u64);
        if conflicting {
            ts.stats.bump(Event::PessOwnerChange);
        }
    }

    /// Give the policy the sample of one pessimistic transition on `o`.
    fn sample_pess(&self, ts: &mut ThreadState, o: ObjId, conflicting: bool, contended: bool) -> PessVerdict {
        let verdict = self
            .common
            .policy
            .on_pess_transition(self.common.rt.obj(o).profile(), conflicting, contended);
        if verdict.promoted {
            self.note_phase_change(ts, o, false);
        }
        verdict
    }

    /// Count and sample a pessimistic transition that locked `o`, and say how
    /// long the lock stays. `taken` is the lock it took, or `None` if it
    /// upgraded, in place, one that is already in the lock buffer: that one
    /// stays deferred even if the object has turned racy since — the next
    /// flush releases it like any other, and no access defers another after.
    fn bump_pess(
        &self,
        ts: &mut ThreadState,
        o: ObjId,
        taken: Option<LockMode>,
        conflicting: bool,
        contended: bool,
    ) -> Access {
        self.count_pess(ts, o, conflicting);
        let racy = self.sample_pess(ts, o, conflicting, contended).racy;
        taken.map_or(Access::Proceed, |lock| self.hold(ts, o, lock, racy))
    }

    fn bump_reentrant(&self, ts: &mut ThreadState, o: ObjId) {
        ts.stats.bump(Event::PessReentrant);
        self.sample_pess(ts, o, false, false);
    }

    // --- Write slow path (Figure 10(b), extended to the full Table 3) ---

    /// [`Access::Aborted`] iff `abortable` and the support requested an abort
    /// after a mid-transition yield; nothing is claimed then.
    #[cold]
    fn write_slow(&self, ts: &mut ThreadState, o: ObjId, abortable: bool) -> Access {
        let t = ts.tid;
        let rt = &self.common.rt;
        let obj = rt.obj(o);
        let state = obj.state();
        let mut contended = false;
        let mut spin = rt.spinner("hybrid write slow path");
        loop {
            let cur = state.load(Ordering::Acquire);
            let w = StateWord(cur);
            if w == StateWord::wr_ex_opt(t) {
                ts.stats.bump(Event::OptSameState);
                return Access::Proceed;
            }
            if w.is_int() {
                self.common.respond_pending(ts);
                if abortable && self.common.support.should_abort(t) {
                    return Access::Aborted;
                }
                spin.spin();
                continue;
            }

            if !w.is_pess() {
                // --- Optimistic states ---
                if w == StateWord::rd_ex_opt(t) {
                    // Upgrading: RdExOpt(T) → WrExOpt(T).
                    if state
                        .compare_exchange(
                            cur,
                            StateWord::wr_ex_opt(t).0,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        ts.stats.bump(Event::OptUpgrading);
                        self.common.rt.trace(ts.tid, TraceKind::OptUpgrade, o.0 as u64);
                        let cx = self.common.cx(ts);
                        self.common.support.on_transition(cx, o, TransitionEv::UpgradeOwn);
                        return Access::Proceed;
                    }
                    continue;
                }
                // Conflicting optimistic transition (Figure 10(b) line 43).
                if state
                    .compare_exchange(cur, StateWord::int(t).0, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue;
                }
                let Some(mode) = self.coordinate(ts, o, w) else {
                    // Coordination deadline: restore the pre-claim state and
                    // retry. The object was force-demoted, so once the stall
                    // clears (one successful coordination, or the holder
                    // blocks) it runs the pessimistic protocol.
                    state.store(cur, Ordering::Release);
                    continue;
                };
                if abortable && self.common.support.should_abort(t) {
                    // Yielded mid-coordination: restore and abort.
                    state.store(cur, Ordering::Release);
                    return Access::Aborted;
                }
                let to_pess = self.conflict_to_pess(ts, o, mode);
                // Support first, then publish (recorder entries must be
                // visible before the new state is).
                self.finish_opt_conflict(ts, o, mode, true);
                if to_pess {
                    state.store(StateWord::wr_ex_pess(t, LockMode::Write).0, Ordering::Release);
                    ts.stats.bump(Event::OptToPess);
                    self.common.rt.trace(ts.tid, TraceKind::OptToPess, o.0 as u64);
                    return self.hold(ts, o, LockMode::Write, false);
                }
                state.store(StateWord::wr_ex_opt(t).0, Ordering::Release);
                return Access::Proceed;
            }

            // --- Pessimistic states ---
            if w.lock_mode() == LockMode::Unlocked {
                if let Some(access) = self.write_acquire_unlocked(ts, o, cur, w, contended) {
                    return access;
                }
                continue;
            }

            // Locked pessimistic states.
            if w == StateWord::wr_ex_pess(t, LockMode::Write) {
                // Reentrant: WrExWLock(T) W by T → same, no atomic op.
                self.bump_reentrant(ts, o);
                return Access::Proceed;
            }
            if w == StateWord::wr_ex_pess(t, LockMode::Read)
                || w == StateWord::rd_ex_pess(t, LockMode::Read)
            {
                // My own read lock upgrades in place:
                //   WrExRLock(T)/RdExRLock(T) W by T → WrExWLock(T).
                if state
                    .compare_exchange(
                        cur,
                        StateWord::wr_ex_pess(t, LockMode::Write).0,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    // Already in the lock buffer from the read-lock.
                    ts.rd_set.remove(o.0);
                    return self.bump_pess(ts, o, None, false, contended);
                }
                continue;
            }
            if w.kind() == Kind::RdSh && w.read_locks() == 1 && ts.rd_set.contains(o.0) {
                // I am the sole read-locker: upgrade in place (keeps
                // two-phase locking intact for the RS enforcer; no other
                // thread can be mid-access since pessimistic readers must
                // lock).
                let final_w = StateWord::wr_ex_pess(t, LockMode::Write);
                if self.common.claim(obj, cur, t, final_w) {
                    ts.rd_set.remove(o.0);
                    // Write after other threads' past reads: conservative
                    // clock edges to everyone.
                    self.emit_pess_acquire(ts, o, w.holders(), true);
                    self.common.publish(obj, final_w);
                    return self.bump_pess(ts, o, None, true, contended);
                }
                continue;
            }

            // Contended transition: conflicting with someone else's lock.
            if !contended {
                contended = true;
                ts.stats.bump(Event::PessContended);
                self.common.rt.trace(ts.tid, TraceKind::PessContended, o.0 as u64);
            }
            self.coordinate(ts, o, w);
            if abortable && self.common.support.should_abort(t) {
                return Access::Aborted;
            }
            // Retry: the holder(s) flush at their responding safe points.
            // Back off through the watchdog spinner so a contended livelock
            // is bounded and diagnosable.
            spin.spin();
        }
    }

    /// Write acquisition from an unlocked pessimistic state, uncontended:
    ///   WrExPess(T)/RdExPess(T)   W by T  → WrExWLock(T)   (non-confl)
    ///   WrExPess(T1)/RdExPess(T1) W by T2 → WrExWLock(T2)  (confl, clock edge)
    ///   RdShPess(c)               W by T  → WrExWLock(T)   (confl, clock edges)
    /// `None` to retry (the claim lost a race). Nearly every pessimistic
    /// write is one of these rows, so `write_impl` tries them before it
    /// leaves for the cold path.
    #[inline]
    fn write_acquire_unlocked(
        &self,
        ts: &mut ThreadState,
        o: ObjId,
        cur: u64,
        w: StateWord,
        contended: bool,
    ) -> Option<Access> {
        let t = ts.tid;
        let obj = self.common.rt.obj(o);
        let prev = w.holders();
        let final_w = StateWord::wr_ex_pess(t, LockMode::Write);
        if !self.common.claim(obj, cur, t, final_w) {
            return None;
        }
        let conflicting = prev != PrevHolders::One(t);
        if conflicting {
            self.emit_pess_acquire(ts, o, prev, true);
        }
        self.common.publish(obj, final_w);
        Some(self.bump_pess(ts, o, Some(LockMode::Write), conflicting, contended))
    }

    fn write_impl(&self, t: ThreadId, o: ObjId, v: u64, abortable: bool) -> Option<u64> {
        // SAFETY: attached thread (Tracker contract).
        let ts = unsafe { self.common.ts(t) };
        // Stamp before the state word is even examined: the epoch table must
        // prove "this shard never touched o" only when it is true (§14).
        self.common.rt.stamp_access(t, o);
        let obj = self.common.rt.obj(o);
        // Fast path (Figure 10(a)): only WrExOpt(T).
        let cur = obj.state().load(Ordering::Acquire);
        if cur == StateWord::wr_ex_opt(t).0 {
            ts.stats.bump(Event::OptSameState);
        } else {
            let w = StateWord(cur);
            // Nearly every pessimistic write finds the state unlocked: tried
            // here, before the cold path.
            let acquired = if w.is_pess_unlocked() {
                self.write_acquire_unlocked(ts, o, cur, w, false)
            } else {
                None
            };
            let access = acquired.unwrap_or_else(|| self.write_slow(ts, o, abortable));
            if access == Access::Aborted {
                return None;
            }
            // The one writer fence of DESIGN.md §12, between whatever state
            // the slow path installed and the payload store: a validating
            // reader that sees the store sees the install at its re-load.
            // Same-state writes need none — their install is behind them.
            fence(Ordering::Release);
            if access == Access::ThenRelease {
                return Some(self.write_then_release(ts, o, v));
            }
        }
        Some(self.program_write(ts, obj, o, v))
    }

    /// The program's write, once the state allows it. Returns the payload it
    /// overwrote.
    #[inline(always)]
    fn program_write(&self, ts: &mut ThreadState, obj: &ObjHeader, o: ObjId, v: u64) -> u64 {
        ts.stats.bump(Event::Write);
        self.common.rt.trace(ts.tid, TraceKind::Write, o.0 as u64);
        let prev = obj.data_read();
        obj.data_write(v);
        ts.op_index += 1;
        prev
    }

    /// The program's read, once the state allows it.
    #[inline(always)]
    fn program_read(&self, ts: &mut ThreadState, obj: &ObjHeader, o: ObjId) -> u64 {
        self.common.rt.trace(ts.tid, TraceKind::Read, o.0 as u64);
        let v = obj.data_read();
        ts.op_index += 1;
        v
    }

    /// The program write inside the critical section of a lock that is not
    /// deferred: the release comes *after* the payload access it guards. Out
    /// of line, so the deferred path pays nothing for it — but not cold: it
    /// is how every write to a racy object ends.
    #[inline(never)]
    fn write_then_release(&self, ts: &mut ThreadState, o: ObjId, v: u64) -> u64 {
        self.common.rt.sched_point(ts.tid, SchedPoint::LockedAccess);
        let prev = self.program_write(ts, self.common.rt.obj(o), o, v);
        // Every write is made under WrExWLock(T): a store releases it.
        self.common.unlock_write_lock(ts, o);
        prev
    }

    /// [`HybridEngine::write_then_release`]'s read twin.
    #[inline(never)]
    fn read_then_release(&self, ts: &mut ThreadState, o: ObjId) -> u64 {
        self.common.rt.sched_point(ts.tid, SchedPoint::LockedAccess);
        let v = self.program_read(ts, self.common.rt.obj(o), o);
        self.common.unlock_one_object(ts, o);
        v
    }

    // --- Read slow path ---

    #[cold]
    fn read_slow(&self, ts: &mut ThreadState, o: ObjId) -> Access {
        let t = ts.tid;
        let rt = &self.common.rt;
        let obj = rt.obj(o);
        let state = obj.state();
        let mut contended = false;
        let mut spin = rt.spinner("hybrid read slow path");
        loop {
            let cur = state.load(Ordering::Acquire);
            let w = StateWord(cur);
            if w == StateWord::wr_ex_opt(t) || w == StateWord::rd_ex_opt(t) {
                ts.stats.bump(Event::OptSameState);
                return Access::Proceed;
            }
            if w.is_int() {
                self.common.respond_pending(ts);
                spin.spin();
                continue;
            }

            if !w.is_pess() {
                // --- Optimistic states ---
                match w.kind() {
                    Kind::RdSh => {
                        let c = w.rdsh_count();
                        if ts.rd_sh_count >= c {
                            ts.stats.bump(Event::OptSameState);
                        } else {
                            fence(Ordering::Acquire);
                            ts.rd_sh_count = c;
                            ts.stats.bump(Event::OptFence);
                            self.common.rt.trace(ts.tid, TraceKind::OptFence, o.0 as u64);
                            let cx = self.common.cx(ts);
                            self.common
                                .support
                                .on_transition(cx, o, TransitionEv::Fence { c });
                        }
                        return Access::Proceed;
                    }
                    Kind::RdEx => {
                        // Upgrading: RdExOpt(T1) → RdShOpt(c).
                        let prev_owner = w.owner();
                        let pre = self.common.pre_epoch();
                        if self.common.claim(obj, cur, t, StateWord::rd_sh_opt(pre)) {
                            let c = self.common.post_epoch(pre);
                            ts.rd_sh_count = ts.rd_sh_count.max(c);
                            ts.stats.bump(Event::OptUpgrading);
                            self.common.rt.trace(ts.tid, TraceKind::OptUpgrade, o.0 as u64);
                            let cx = self.common.cx(ts);
                            self.common.support.on_transition(
                                cx,
                                o,
                                TransitionEv::RdShCreate {
                                    prev_owner,
                                    c,
                                    pess: false,
                                },
                            );
                            self.common.publish(obj, StateWord::rd_sh_opt(c));
                            return Access::Proceed;
                        }
                        continue;
                    }
                    Kind::WrEx => {
                        // Conflicting optimistic read: WrExOpt(T1) → RdEx*(T2).
                        if state
                            .compare_exchange(
                                cur,
                                StateWord::int(t).0,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_err()
                        {
                            continue;
                        }
                        let Some(mode) = self.coordinate(ts, o, w) else {
                            // Deadline: restore and retry (see write_slow).
                            state.store(cur, Ordering::Release);
                            continue;
                        };
                        let to_pess = self.conflict_to_pess(ts, o, mode);
                        self.finish_opt_conflict(ts, o, mode, false);
                        if to_pess {
                            state.store(
                                StateWord::rd_ex_pess(t, LockMode::Read).0,
                                Ordering::Release,
                            );
                            ts.stats.bump(Event::OptToPess);
                            self.common.rt.trace(ts.tid, TraceKind::OptToPess, o.0 as u64);
                            return self.hold(ts, o, LockMode::Read, false);
                        }
                        state.store(StateWord::rd_ex_opt(t).0, Ordering::Release);
                        return Access::Proceed;
                    }
                    Kind::Int => unreachable!("handled above"),
                }
            }

            // --- Pessimistic states ---
            if w.lock_mode() == LockMode::Unlocked {
                if let Some(access) = self.read_acquire_unlocked(ts, o, cur, w, &mut contended) {
                    return access;
                }
                continue;
            }

            // Locked pessimistic states: reentrant cases first.
            if w == StateWord::wr_ex_pess(t, LockMode::Write)
                || w == StateWord::wr_ex_pess(t, LockMode::Read)
                || w == StateWord::rd_ex_pess(t, LockMode::Read)
            {
                self.bump_reentrant(ts, o);
                return Access::Proceed;
            }
            if w.kind() == Kind::RdSh && ts.rd_set.contains(o.0) {
                // RdShRLock(n) R by T with o ∈ T.rdSet → same (reentrant).
                self.bump_reentrant(ts, o);
                return Access::Proceed;
            }

            match w.kind() {
                Kind::RdSh => {
                    // Join the read-shared lock: RdShRLock(n) → RdShRLock(n+1).
                    let c = w.rdsh_count();
                    let n = w.read_locks();
                    assert!(
                        (n as usize) < crate::word::MAX_READ_LOCKS as usize,
                        "read-lock count overflow"
                    );
                    if state
                        .compare_exchange(
                            cur,
                            StateWord::rd_sh_pess(c, n + 1).0,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        self.note_rdsh_read(ts, o, c);
                        return self.bump_pess(ts, o, Some(LockMode::Read), false, contended);
                    }
                    continue;
                }
                Kind::RdEx | Kind::WrEx if w.lock_mode() == LockMode::Read => {
                    // RdExRLock(T1)/WrExRLock(T1) R by T2 → RdShRLock(2)(c_new):
                    // the second concurrent reader avoids contention (§3.2).
                    let prev_owner = w.owner();
                    debug_assert_ne!(prev_owner, t, "own RLock handled above");
                    let pre = self.common.pre_epoch();
                    if self.common.claim(obj, cur, t, StateWord::rd_sh_pess(pre, 2)) {
                        let c = self.common.post_epoch(pre);
                        let final_w = StateWord::rd_sh_pess(c, 2);
                        ts.rd_sh_count = ts.rd_sh_count.max(c);
                        let cx = self.common.cx(ts);
                        self.common.support.on_transition(
                            cx,
                            o,
                            TransitionEv::RdShCreate {
                                prev_owner,
                                c,
                                pess: true,
                            },
                        );
                        self.common.publish(obj, final_w);
                        // A read of WrExRLock conflicts with T1's write under
                        // the cost model; of RdExRLock it does not.
                        let conflicting = w.kind() == Kind::WrEx;
                        return self.bump_pess(ts, o, Some(LockMode::Read), conflicting, contended);
                    }
                    continue;
                }
                _ => {
                    // WrExWLock(T1) R by T2: contended.
                    if !contended {
                        contended = true;
                        ts.stats.bump(Event::PessContended);
                        self.common.rt.trace(ts.tid, TraceKind::PessContended, o.0 as u64);
                    }
                    self.coordinate(ts, o, w);
                    spin.spin();
                }
            }
        }
    }

    /// Read acquisition from an unlocked pessimistic state. `None` to retry:
    /// the claim lost a race, or an installed-then-validated read has to go
    /// round again ([`HybridEngine::finish_read_acquire`]).
    fn read_acquire_unlocked(
        &self,
        ts: &mut ThreadState,
        o: ObjId,
        cur: u64,
        w: StateWord,
        contended: &mut bool,
    ) -> Option<Access> {
        let t = ts.tid;
        let rt = &self.common.rt;
        let obj = rt.obj(o);
        let state = obj.state();
        // The two conflicting-state rows depart from Table 3 on an object the
        // policy has found racy, if the support allows: they install the word
        // their read lock would have been *released* to. Decided before the
        // claim, because it picks the word the claim installs.
        let install_unlocked = S::RELAXED_LOCKING && self.common.policy.racy(obj.profile());
        match (w.kind(), w.owner() == t) {
            (Kind::WrEx, true) => {
                // WrExPess(T) R by T: full model → WrExRLock(T); prototype →
                // WrExWLock(T) (§7.1); ablation → RdExRLock(T) (unsound).
                let target = match self.cfg.self_read {
                    SelfReadMode::WrExRLock => StateWord::wr_ex_pess(t, LockMode::Read),
                    SelfReadMode::WrExWLock => StateWord::wr_ex_pess(t, LockMode::Write),
                    SelfReadMode::RdExRLockUnsound => StateWord::rd_ex_pess(t, LockMode::Read),
                };
                if self.common.claim(obj, cur, t, target) {
                    let cx = self.common.cx(ts);
                    self.common
                        .support
                        .on_transition(cx, o, TransitionEv::PessLocalAcquire);
                    self.common.publish(obj, target);
                    return Some(self.bump_pess(ts, o, Some(target.lock_mode()), false, *contended));
                }
                None
            }
            (Kind::WrEx, false) => {
                // WrExPess(T1) R by T2 → RdExRLock(T2): conflicting (w→r),
                // happens-before edge from T1's release clock (§4.2).
                // Racy: → RdExPess(T2), then validate.
                let lock = if install_unlocked { LockMode::Unlocked } else { LockMode::Read };
                let final_w = StateWord::rd_ex_pess(t, lock);
                if self.common.claim(obj, cur, t, final_w) {
                    self.emit_pess_acquire(ts, o, w.holders(), false);
                    self.common.publish(obj, final_w);
                    return self.finish_read_acquire(ts, o, final_w, true, contended);
                }
                None
            }
            (Kind::RdEx, true) => {
                // RdExPess(T) R by T → RdExRLock(T).
                let final_w = StateWord::rd_ex_pess(t, LockMode::Read);
                if self.common.claim(obj, cur, t, final_w) {
                    let cx = self.common.cx(ts);
                    self.common
                        .support
                        .on_transition(cx, o, TransitionEv::PessLocalAcquire);
                    self.common.publish(obj, final_w);
                    return Some(self.bump_pess(ts, o, Some(LockMode::Read), false, *contended));
                }
                None
            }
            (Kind::RdEx, false) => {
                // RdExPess(T1) R by T2 → RdShRLock(1)(c_new).
                // Racy: → RdShPess(c_new), then validate.
                let prev_owner = w.owner();
                let n = u64::from(!install_unlocked);
                let pre = self.common.pre_epoch();
                if self.common.claim(obj, cur, t, StateWord::rd_sh_pess(pre, n)) {
                    let c = self.common.post_epoch(pre);
                    let final_w = StateWord::rd_sh_pess(c, n);
                    ts.rd_sh_count = ts.rd_sh_count.max(c);
                    let cx = self.common.cx(ts);
                    self.common.support.on_transition(
                        cx,
                        o,
                        TransitionEv::RdShCreate {
                            prev_owner,
                            c,
                            pess: true,
                        },
                    );
                    self.common.publish(obj, final_w);
                    return self.finish_read_acquire(ts, o, final_w, false, contended);
                }
                None
            }
            (Kind::RdSh, _) => {
                // RdShPess(c) R by T → RdShRLock(1)(c), same epoch.
                let c = w.rdsh_count();
                if state
                    .compare_exchange(
                        cur,
                        StateWord::rd_sh_pess(c, 1).0,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    self.note_rdsh_read(ts, o, c);
                    return Some(self.bump_pess(ts, o, Some(LockMode::Read), false, *contended));
                }
                None
            }
            (Kind::Int, _) => unreachable!("Int is never pessimistic"),
        }
    }

    /// Tail of a read that took a conflicting state by installing `installed`
    /// (support hook run, state published). Read-locked, it is a Table 3 row
    /// like any other. Unlocked, it is the racy departure — *install, then
    /// validate* (DESIGN.md §12): `installed` names this thread or carries a
    /// fresh epoch, so no foreign writer reaches the payload without replacing
    /// it, and the same word back after the payload load is what the row's
    /// read lock guaranteed. The read is then counted once, as the transition
    /// plus the unlock it stands for.
    ///
    /// `None` sends the read round again, nothing counted: the transition
    /// stands (a recorded read by this thread, conservative), but a foreign
    /// install landed in the window — or this very sample promoted the object
    /// while nobody holds a lock whose release would carry it across the
    /// valve, so the retry takes one. The sample spent `contended`.
    fn finish_read_acquire(
        &self,
        ts: &mut ThreadState,
        o: ObjId,
        installed: StateWord,
        conflicting: bool,
        contended: &mut bool,
    ) -> Option<Access> {
        if installed.lock_mode() == LockMode::Read {
            return Some(self.bump_pess(ts, o, Some(LockMode::Read), conflicting, *contended));
        }
        if self.sample_pess(ts, o, conflicting, std::mem::take(contended)).promoted {
            return None;
        }
        let obj = self.common.rt.obj(o);
        let v = obj.data_read();
        self.common.rt.sched_point(ts.tid, SchedPoint::SeqlockReadValidate);
        fence(Ordering::Acquire);
        if obj.state().load(Ordering::Relaxed) != installed.0 {
            return None;
        }
        self.count_pess(ts, o, conflicting);
        ts.stats.bump(Event::StateUnlocked);
        self.common.rt.trace(ts.tid, TraceKind::Read, o.0 as u64);
        ts.op_index += 1;
        Some(Access::Read(v))
    }

    /// A pessimistic read joined RdSh epoch `c`: update `rdShCount` and emit
    /// the fence-equivalent event if this thread had not yet synchronized
    /// with the epoch (Table 3 footnote *).
    fn note_rdsh_read(&self, ts: &mut ThreadState, o: ObjId, c: u64) {
        if ts.rd_sh_count < c {
            fence(Ordering::Acquire);
            ts.rd_sh_count = c;
            let cx = self.common.cx(ts);
            self.common
                .support
                .on_transition(cx, o, TransitionEv::Fence { c });
        }
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
    fn read(&self, t: ThreadId, o: ObjId) -> u64 {
        // SAFETY: attached thread.
        let ts = unsafe { self.common.ts(t) };
        ts.stats.bump(Event::Read);
        // Stamp-before-examine, as in the write path (DESIGN.md §14).
        self.common.rt.stamp_access(t, o);
        let obj = self.common.rt.obj(o);
        let cur = obj.state().load(Ordering::Acquire);
        let w = StateWord(cur);
        // Fast path: exclusive owner, or read-shared with a fresh rdShCount
        // (Table 1's Same∗ row) — loads and compares, no synchronization.
        if cur == StateWord::wr_ex_opt(t).0
            || cur == StateWord::rd_ex_opt(t).0
            || (w.kind() == Kind::RdSh && !w.is_pess() && ts.rd_sh_count >= w.rdsh_count())
        {
            ts.stats.bump(Event::OptSameState);
        } else {
            // A read whose Table 3 row is non-conflicting, of a state nobody
            // holds write-locked, needs no transition: validate it against
            // the state word just loaded instead of taking the row's read lock
            // (DESIGN.md §12). On repeated invalidation it falls through to
            // `read_slow`, which takes that lock as before.
            let acquired = if S::RELAXED_LOCKING && w.validated_read_ok(t) {
                if let Some(v) = self.common.seqlock_read(ts, o, w) {
                    self.common.rt.trace(t, TraceKind::Read, o.0 as u64);
                    ts.op_index += 1;
                    return v;
                }
                None
            } else if w.is_pess_unlocked() {
                // Nearly every other pessimistic read: tried here, before
                // the cold path.
                self.read_acquire_unlocked(ts, o, cur, w, &mut false)
            } else {
                None
            };
            match acquired.unwrap_or_else(|| self.read_slow(ts, o)) {
                Access::ThenRelease => return self.read_then_release(ts, o),
                Access::Read(v) => return v,
                _ => {}
            }
        }
        self.program_read(ts, obj, o)
    }

    #[inline(always)]
    fn write(&self, t: ThreadId, o: ObjId, v: u64) {
        self.write_impl(t, o, v, false);
    }

    fn try_write(&self, t: ThreadId, o: ObjId, v: u64) -> Option<u64> {
        self.write_impl(t, o, v, true)
    }

    fn alloc_init(&self, o: ObjId, owner: ThreadId) {
        // "Each object newly allocated by thread T starts in the WrExOpt(T)
        // state" (§6.2). The allocation stamps the owner's shard: the state
        // word names the owner, so targeted coordination may reach it before
        // its first instrumented access.
        self.common.rt.stamp_access(owner, o);
        let obj = self.common.rt.obj(o);
        obj.state().store(StateWord::wr_ex_opt(owner).0, Ordering::SeqCst);
    }

    #[inline]
    fn safepoint(&self, t: ThreadId) {
        // SAFETY: attached thread.
        let ts = unsafe { self.common.ts(t) };
        self.common.poll(ts);
    }

    fn lock(&self, t: ThreadId, m: MonitorId) {
        // SAFETY: attached thread.
        let ts = unsafe { self.common.ts(t) };
        self.common.monitor_acquire(ts, m);
    }

    fn unlock(&self, t: ThreadId, m: MonitorId) {
        // SAFETY: attached thread.
        let ts = unsafe { self.common.ts(t) };
        self.common.monitor_release(ts, m);
    }

    fn wait(&self, t: ThreadId, m: MonitorId) {
        // SAFETY: attached thread.
        let ts = unsafe { self.common.ts(t) };
        self.common.monitor_wait(ts, m);
    }

    fn notify_all(&self, t: ThreadId, m: MonitorId) {
        self.common.rt.monitor_notify_all_from(m, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Phase, Profile};
    use crate::support::PaperModel;
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

    /// The engine on the paper's own model (no validated reads), for the
    /// tests that pin which lock a Table 3 read row takes.
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
            let mut spin = e.rt().spinner("scenario thread to finish");
            while !h.is_finished() {
                e.safepoint(t);
                spin.spin();
            }
            h.join().unwrap()
        })
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
        let e = engine_with(eager_pess());
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
        let e = engine_with(eager_pess());
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
        let e = engine_with(eager_pess());
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
        let e = engine_with(PolicyParams {
            cutoff_confl: 1,
            k_confl: 1,
            inertia: 2,
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
        // by CAS, not by roundtrip coordination.
        const ITERS: u64 = 2_000;
        let e = engine(); // paper defaults: cutoff 4
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
    /// counter. Hybrid tracking's worst case — contended transitions trigger
    /// coordination repeatedly, until the counter has contended
    /// `Cutoff_confl` times and stops deferring its unlocks. Two runs of it
    /// schedule differently, so this asserts only what holds under *every*
    /// schedule, and returns the report and the counter's final profile for
    /// policy-specific checks of the same kind.
    fn racy_inc_run(params: PolicyParams, iters: u64, counter: ObjId) -> (StatsReport, Profile) {
        const THREADS: u64 = 4;
        let e = engine_with(params);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        let racy = || {
            let p = AdaptivePolicy::profile(e.rt().obj(counter).profile());
            p.phase == Phase::Pess && p.pess_contended >= params.cutoff_confl
        };
        let last_writes: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (er, barrier, racy) = (&e, &barrier, &racy);
                    s.spawn(move || {
                        let t = er.attach();
                        barrier.wait();
                        let mut last = 0;
                        for _ in 0..iters {
                            for write in [false, true] {
                                // SAFETY: this is the OS thread attached as t.
                                let held_before =
                                    unsafe { er.common().ts(t) }.lock_buffer.contains(&counter);
                                let racy_before = racy();
                                if write {
                                    er.write(t, counter, last);
                                } else {
                                    last = er.read(t, counter) + 1;
                                }
                                // No access defers a lock on a racy object.
                                // (Under the one-way valve, racy before and
                                // after is racy throughout.) One deferred
                                // before the counter turned racy — by the
                                // read whose own sample tipped the count, say
                                // — stays, upgrades included, until the next
                                // flush; none joins it.
                                // SAFETY: as above.
                                let ts = unsafe { er.common().ts(t) };
                                assert!(
                                    !(racy_before && racy())
                                        || held_before
                                        || !ts.lock_buffer.contains(&counter),
                                    "deferred a lock on a racy object: {:?}",
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
        assert_eq!(w.is_pess(), profile.phase == Phase::Pess, "{w:?} in {profile:?}");
        assert_eq!(r.opt_to_pess(), u64::from(profile.phase != Phase::OptInitial));
        assert_eq!(r.pess_to_opt(), u64::from(profile.phase == Phase::OptFinal));
        (r, profile)
    }

    #[test]
    fn racy_inc_pattern_completes_and_counts_contention() {
        let (r, _) = racy_inc_run(PolicyParams::default(), 2_000, ObjId(10));
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
            Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(8)
        .heap_objects(32)
        .monitors(4)
        .build())),
            NullSupport,
            HybridConfig {
                policy: eager_pess(),
                eager_unlock: true,
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
    fn contended_cutoff_extension_rescues_racy_objects() {
        // §7.5: "Hybrid tracking could alleviate this deficiency by modifying
        // the adaptive policy ... if accesses to it trigger coordination
        // frequently." What the policy does about such an object is stop
        // deferring its unlocks (DESIGN.md §13); with the cutoff at 1 the
        // counter is racy from its first contended transition on, so nearly
        // the whole run exercises `racy_inc_run`'s per-access check that no
        // access defers a lock on it. How much contention
        // the run sees is up to the scheduler; what the profile must show
        // under every schedule is that contention was only ever counted
        // during a stay in `Pess`, and no more of it than the run had.
        let params = PolicyParams {
            cutoff_confl: 1,
            ..PolicyParams::default()
        };
        let (r, profile) = racy_inc_run(params, 400, ObjId(11));
        assert!(u64::from(profile.pess_contended) <= r.pess_contended(), "{profile:?}");
        assert!(profile.phase == Phase::Pess || profile.pess_contended == 0, "{profile:?}");
    }
}
