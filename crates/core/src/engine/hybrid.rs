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
//!   back (Figure 3's two diamonds).
//!
//! The state-transition logic below follows Table 3 row by row; comments
//! cite the rows. See `DESIGN.md` for the happens-before soundness argument
//! behind each `Support` event.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use drink_runtime::{Event, MonitorId, ObjId, Runtime, ThreadId, TraceKind};

use crate::adapt::{AdaptConfig, AdaptController, AdaptEvent};
use crate::common::EngineCommon;
use crate::coord::{coordinate_many_deadline, coordinate_one_deadline};
use crate::engine::Tracker;
use crate::policy::{AdaptivePolicy, PolicyParams};
use crate::support::{CoordMode, NullSupport, Support, SupportCx, TransitionEv};
use crate::tstate::ThreadState;
use crate::word::{Kind, LockMode, StateWord};

/// Count the peers a completed fan-out *skipped* via the epoch table
/// (DESIGN.md §14): every registered peer that contributed no source was
/// resolved vacuously by the shard-skip. Computed post-hoc so the fan-out's
/// hot loop carries no extra state; only meaningful on sharded runtimes
/// (unsharded fan-outs visit every peer and the difference is zero).
pub(crate) fn note_fanout_skips(rt: &Runtime, ts: &mut ThreadState, sources: usize) {
    if rt.heap().thread_shards() > 1 {
        let peers = rt.registered_threads().saturating_sub(1);
        ts.stats.add(Event::CoordFanoutSkipped, peers.saturating_sub(sources) as u64);
    }
}

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

/// Configuration of the hybrid engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridConfig {
    /// Adaptive-policy parameters.
    pub policy: PolicyParams,
    /// Self-read behaviour on `WrExPess` (see [`SelfReadMode`]).
    pub self_read: SelfReadMode,
    /// §3.1 ablation: the paper's *initial, pre-insight design* — unlock
    /// pessimistic states eagerly after every access instead of deferring to
    /// PSROs. Every pessimistic access then pays a conditional unlock, no
    /// transition is ever reentrant, and the recorder's release-clock edges
    /// are unavailable (tracking-only configurations may use this; runtime
    /// support may not). The paper reports this design "added significant
    /// overhead"; the `e10_deferred_unlock_ablation` harness quantifies it.
    pub eager_unlock: bool,
    /// Run the online opt→pess demotion controller (DESIGN.md §13) with
    /// these parameters. Meant for infinite-cutoff configurations: when set,
    /// the controller *replaces* the §6 phase valve at unlock time (see
    /// [`EngineCommon`]`::adapt`), demoting objects whose observed
    /// coordination cost crosses the hysteresis band and re-promoting them
    /// when pessimistic traffic proves cheap again.
    pub adapt: Option<AdaptConfig>,
}

impl HybridConfig {
    /// The "w/ infinite cutoff" configuration of Figure 7.
    pub fn infinite_cutoff() -> Self {
        HybridConfig {
            policy: PolicyParams::infinite_cutoff(),
            ..HybridConfig::default()
        }
    }

    /// Infinite cutoff with the online demotion controller attached: the
    /// "graceful degradation" configuration — optimistic until measured
    /// coordination cost says otherwise, per object, reversibly.
    pub fn adaptive() -> Self {
        HybridConfig {
            policy: PolicyParams::infinite_cutoff(),
            adapt: Some(AdaptConfig::default()),
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
        assert!(
            !(cfg.eager_unlock && S::PREPUBLISH),
            "the §3.1 eager-unlock ablation is tracking-only: recorders rely              on deferred unlocking's release-clock edges"
        );
        let adapt = cfg
            .adapt
            .map(|a| AdaptController::new(a, rt.config().heap_objects));
        HybridEngine {
            common: EngineCommon::new(rt, support, AdaptivePolicy::new(cfg.policy))
                .with_adapt(adapt),
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

    // --- Shared conflict helpers (same as the optimistic engine) ---

    /// Coordinate an optimistic conflict on `o`. Returns `None` iff the
    /// runtime's coordination deadline expired first (DESIGN.md §13): the
    /// deadline event is recorded, the object force-demoted, and the caller
    /// restores the pre-claim state and retries — subsequent traffic on the
    /// object runs the pessimistic protocol, whose conflicting acquires need
    /// no roundtrip at all.
    fn conflict_coordinate(
        &self,
        ts: &mut ThreadState,
        o: ObjId,
        w: StateWord,
    ) -> Option<CoordMode> {
        let rt = &self.common.rt;
        let t = ts.tid;
        let deadline = rt.coord_deadline();
        // Only the demotion controller consumes the roundtrip's duration.
        let timed = self.common.adapt.as_ref().map(|a| (a, std::time::Instant::now()));
        let mut scratch = std::mem::take(&mut ts.src_scratch);
        let mut pending = std::mem::take(&mut ts.fanout_scratch);
        scratch.clear();
        let fanout = w.kind() == Kind::RdSh;
        let mode = {
            let mut respond = self.common.respond_closure(ts);
            if fanout {
                coordinate_many_deadline(
                    rt,
                    t,
                    Some(o),
                    &mut respond,
                    &mut scratch,
                    &mut pending,
                    deadline,
                )
            } else {
                coordinate_one_deadline(rt, t, w.owner(), Some(o), &mut respond, deadline).map(
                    |out| {
                        scratch.push((w.owner(), out.source_clock));
                        out.mode
                    },
                )
            }
        };
        if fanout && mode.is_some() {
            ts.stats.bump(Event::CoordFanout);
            ts.stats.add(Event::CoordFanoutPeers, scratch.len() as u64);
            note_fanout_skips(rt, ts, scratch.len());
        }
        ts.src_scratch = scratch;
        ts.fanout_scratch = pending;
        match mode {
            Some(m) => {
                ts.stats.bump(Event::CoordinationRoundtrip);
                if let Some((a, t0)) = timed {
                    let ev = a.record_coord(o.0, t0.elapsed().as_nanos() as u64);
                    self.note_adapt_event(ts, o, ev);
                }
                Some(m)
            }
            None => {
                self.note_coord_deadline(ts, o);
                None
            }
        }
    }

    /// Bookkeeping for a tripped coordination deadline: stats, trace, and a
    /// cooldown-bypassing demotion so the object's future traffic avoids the
    /// coordination it just proved expensive.
    #[cold]
    fn note_coord_deadline(&self, ts: &mut ThreadState, o: ObjId) {
        ts.stats.bump(Event::CoordDeadlineExceeded);
        self.common.rt.trace(ts.tid, TraceKind::CoordDeadline, o.0 as u64);
        if let Some(a) = &self.common.adapt {
            if a.force_demote(o.0) {
                ts.stats.bump(Event::AdaptDemotion);
                self.common.rt.trace(ts.tid, TraceKind::AdaptDemote, o.0 as u64);
            }
        }
    }

    /// Stats/trace for a controller transition, if one happened.
    fn note_adapt_event(&self, ts: &mut ThreadState, o: ObjId, ev: Option<AdaptEvent>) {
        match ev {
            None => {}
            Some(AdaptEvent::Demoted) => {
                ts.stats.bump(Event::AdaptDemotion);
                self.common.rt.trace(ts.tid, TraceKind::AdaptDemote, o.0 as u64);
            }
            Some(AdaptEvent::Promoted) => {
                ts.stats.bump(Event::AdaptPromotion);
                self.common.rt.trace(ts.tid, TraceKind::AdaptPromote, o.0 as u64);
            }
        }
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

    /// Fill `ts.src_scratch` with one remote thread's release clock.
    fn read_source_one(&self, ts: &mut ThreadState, remote: ThreadId) {
        ts.src_scratch.clear();
        ts.src_scratch
            .push((remote, self.common.rt.control(remote).release_clock()));
    }

    /// Fill `ts.src_scratch` with every other registered thread's clock
    /// (conservative RdSh sources).
    fn read_sources_all(&self, ts: &mut ThreadState) {
        ts.src_scratch.clear();
        let n = self.common.rt.registered_threads();
        for i in 0..n {
            let r = ThreadId(i as u16);
            if r != ts.tid {
                ts.src_scratch
                    .push((r, self.common.rt.control(r).release_clock()));
            }
        }
    }

    fn emit_pess_acquire(&self, ts: &mut ThreadState, o: ObjId, write: bool) {
        let cx = SupportCx {
            rt: &self.common.rt,
            t: ts.tid,
            op: ts.op_index,
        };
        self.common.support.on_transition(
            cx,
            o,
            TransitionEv::PessConflictingAcquire {
                sources: &ts.src_scratch,
                write,
            },
        );
    }

    /// Contended transition (Figure 2(b)): coordinate with the holder(s) so
    /// they flush their lock buffers, then the caller retries. A tripped
    /// coordination deadline is recorded and simply returns — the caller's
    /// retry loop re-examines the state either way, and the holder may well
    /// have flushed in the meantime.
    fn contended_coordinate(&self, ts: &mut ThreadState, o: ObjId, w: StateWord) {
        let rt = &self.common.rt;
        let t = ts.tid;
        let deadline = rt.coord_deadline();
        let fanout = w.kind() == Kind::RdSh;
        // The sources are not recorded here (the caller just retries), but
        // the scratch buffers are still reused so a contended RdSh
        // transition allocates nothing.
        let mut sink = std::mem::take(&mut ts.src_scratch);
        let mut pending = std::mem::take(&mut ts.fanout_scratch);
        sink.clear();
        let done = {
            let mut respond = self.common.respond_closure(ts);
            if fanout {
                // Read-locked by unknown threads: conservatively coordinate
                // with everyone (the state word does not name RdSh holders).
                coordinate_many_deadline(
                    rt,
                    t,
                    Some(o),
                    &mut respond,
                    &mut sink,
                    &mut pending,
                    deadline,
                )
                .is_some()
            } else {
                coordinate_one_deadline(rt, t, w.owner(), Some(o), &mut respond, deadline)
                    .is_some()
            }
        };
        if fanout && done {
            ts.stats.bump(Event::CoordFanout);
            ts.stats.add(Event::CoordFanoutPeers, sink.len() as u64);
            note_fanout_skips(rt, ts, sink.len());
        }
        ts.src_scratch = sink;
        ts.fanout_scratch = pending;
        if done {
            ts.stats.bump(Event::CoordinationRoundtrip);
        } else {
            self.note_coord_deadline(ts, o);
        }
    }

    fn bump_pess(&self, ts: &mut ThreadState, o: ObjId, conflicting: bool, contended: bool) {
        ts.stats.bump(Event::PessUncontended);
        self.common.rt.trace(ts.tid, TraceKind::PessClaim, o.0 as u64);
        if conflicting {
            ts.stats.bump(Event::PessOwnerChange);
        }
        self.common
            .policy
            .on_pess_transition(self.common.rt.obj(o).profile(), conflicting, contended);
        if let Some(a) = &self.common.adapt {
            // Constant-cost samples, no clock reads: the pessimistic fast
            // path must stay tens of nanoseconds (see adapt.rs).
            let ev = a.record_pess(o.0, conflicting);
            self.note_adapt_event(ts, o, ev);
        }
        if self.cfg.eager_unlock {
            self.eager_unlock_now(ts, o);
        }
    }

    /// §3.1 ablation only: conditionally unlock the state this access just
    /// locked (the pre-deferred-unlocking design's per-access instrumentation
    /// tail). The object was pushed to the lock buffer by the caller; pop it
    /// and release the hold immediately.
    #[cold]
    fn eager_unlock_now(&self, ts: &mut ThreadState, o: ObjId) {
        // O(1) bitmap membership decides whether there is an entry to pop;
        // if absent (an in-place RLock→WLock upgrade re-locking an object
        // whose entry was already consumed) there is nothing to pop, but the
        // state still needs releasing below.
        ts.remove_lock(o);
        ts.rd_set.remove(o.0);
        let state = self.common.rt.obj(o).state();
        let mut cur = state.load(Ordering::Acquire);
        loop {
            let w = StateWord(cur);
            if !w.is_pess_locked() {
                return; // raced with a concurrent share-count change
            }
            let new = w.unlock_one();
            match state.compare_exchange_weak(cur, new.0, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.common.rt.obj(o).bump_version();
                    ts.stats.bump(Event::StateUnlocked);
                    return;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    fn bump_reentrant(&self, ts: &mut ThreadState, o: ObjId) {
        ts.stats.bump(Event::PessReentrant);
        self.common
            .policy
            .on_pess_transition(self.common.rt.obj(o).profile(), false, false);
    }

    // --- Write slow path (Figure 10(b), extended to the full Table 3) ---

    /// Returns false iff the write was aborted (`abortable` and the support
    /// requested it after a mid-transition yield); nothing is claimed then.
    #[cold]
    fn write_slow(&self, ts: &mut ThreadState, o: ObjId, abortable: bool) -> bool {
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
                return true;
            }
            if w.is_int() {
                self.common.respond_pending(ts);
                if abortable && self.common.support.should_abort(t) {
                    return false;
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
                        obj.bump_version();
                        ts.stats.bump(Event::OptUpgrading);
                        self.common.rt.trace(ts.tid, TraceKind::OptUpgrade, o.0 as u64);
                        let cx = self.common.cx(ts);
                        self.common.support.on_transition(cx, o, TransitionEv::UpgradeOwn);
                        return true;
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
                obj.bump_version();
                let Some(mode) = self.conflict_coordinate(ts, o, w) else {
                    // Coordination deadline: restore the pre-claim state and
                    // retry. The object was force-demoted, so once the stall
                    // clears (one successful coordination, or the holder
                    // blocks) it runs the pessimistic protocol.
                    state.store(cur, Ordering::Release);
                    obj.bump_version();
                    continue;
                };
                if abortable && self.common.support.should_abort(t) {
                    // Yielded mid-coordination: restore and abort.
                    state.store(cur, Ordering::Release);
                    obj.bump_version();
                    return false;
                }
                // Adaptive-policy decision (line 46). Only explicit
                // coordination counts (§6.2 footnote 7) — evaluated
                // unconditionally so the conflict histogram stays honest
                // even when the demotion controller forces the move.
                let phase_to_pess = matches!(mode, CoordMode::Explicit | CoordMode::Mixed)
                    && self.common.policy.on_explicit_conflict(obj.profile());
                let to_pess = phase_to_pess
                    || self.common.adapt.as_ref().is_some_and(|a| a.is_demoted(o.0));
                // Support first, then publish (recorder entries must be
                // visible before the new state is).
                self.finish_opt_conflict(ts, o, mode, true);
                if to_pess {
                    state.store(StateWord::wr_ex_pess(t, LockMode::Write).0, Ordering::Release);
                    obj.bump_version();
                    ts.push_lock(o);
                    ts.stats.bump(Event::OptToPess);
                    self.common.rt.trace(ts.tid, TraceKind::OptToPess, o.0 as u64);
                    if self.cfg.eager_unlock {
                        self.eager_unlock_now(ts, o);
                    }
                } else {
                    state.store(StateWord::wr_ex_opt(t).0, Ordering::Release);
                    obj.bump_version();
                }
                return true;
            }

            // --- Pessimistic states ---
            if w.lock_mode() == LockMode::Unlocked {
                // Uncontended acquisition from an unlocked state:
                //   WrExPess(T)/RdExPess(T)   W by T  → WrExWLock(T)   (non-confl)
                //   WrExPess(T1)/RdExPess(T1) W by T2 → WrExWLock(T2)  (confl, clock edge)
                //   RdShPess(c)               W by T  → WrExWLock(T)   (confl, clock edges)
                let own = w.kind() != Kind::RdSh && w.owner() == t;
                let prev_owner = w.owner();
                let was_rdsh = w.kind() == Kind::RdSh;
                let final_w = StateWord::wr_ex_pess(t, LockMode::Write);
                if self.common.claim(obj, cur, t, final_w) {
                    let conflicting = !own;
                    if conflicting {
                        if was_rdsh {
                            self.read_sources_all(ts);
                        } else {
                            self.read_source_one(ts, prev_owner);
                        }
                        self.emit_pess_acquire(ts, o, true);
                    }
                    self.common.publish(obj, final_w);
                    ts.push_lock(o);
                    self.bump_pess(ts, o, conflicting, contended);
                    return true;
                }
                continue;
            }

            // Locked pessimistic states.
            if w == StateWord::wr_ex_pess(t, LockMode::Write) {
                // Reentrant: WrExWLock(T) W by T → same, no atomic op.
                self.bump_reentrant(ts, o);
                return true;
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
                    obj.bump_version();
                    // Already in the lock buffer from the read-lock.
                    ts.rd_set.remove(o.0);
                    ts.stats.bump(Event::PessUncontended);
                    self.common
                        .policy
                        .on_pess_transition(obj.profile(), false, contended);
                    if self.cfg.eager_unlock {
                        self.eager_unlock_now(ts, o);
                    }
                    return true;
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
                    self.read_sources_all(ts);
                    self.emit_pess_acquire(ts, o, true);
                    self.common.publish(obj, final_w);
                    self.bump_pess(ts, o, true, contended);
                    return true;
                }
                continue;
            }

            // Contended transition: conflicting with someone else's lock.
            if !contended {
                contended = true;
                ts.stats.bump(Event::PessContended);
                self.common.rt.trace(ts.tid, TraceKind::PessContended, o.0 as u64);
            }
            self.contended_coordinate(ts, o, w);
            if abortable && self.common.support.should_abort(t) {
                return false;
            }
            // Retry: the holder(s) flush at their responding safe points.
            // Back off through the watchdog spinner so a contended livelock
            // is bounded and diagnosable.
            spin.spin();
        }
    }

    fn write_impl(&self, t: ThreadId, o: ObjId, v: u64, abortable: bool) -> Option<u64> {
        // SAFETY: attached thread (Tracker contract).
        let ts = unsafe { self.common.ts(t) };
        // Stamp before the state word is even examined: the epoch table must
        // prove "this shard never touched o" only when it is true (§14).
        self.common.rt.stamp_access(t, o);
        let obj = self.common.rt.obj(o);
        // Fast path (Figure 10(a)): only WrExOpt(T).
        if obj.state().load(Ordering::Acquire) == StateWord::wr_ex_opt(t).0 {
            ts.stats.bump(Event::OptSameState);
        } else if !self.write_slow(ts, o, abortable) {
            return None;
        }
        ts.stats.bump(Event::Write);
        self.common.rt.trace(t, TraceKind::Write, o.0 as u64);
        let prev = obj.data_read();
        obj.data_write(v);
        ts.op_index += 1;
        Some(prev)
    }

    // --- Read slow path ---

    #[cold]
    fn read_slow(&self, ts: &mut ThreadState, o: ObjId) {
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
                return;
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
                        return;
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
                            return;
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
                        obj.bump_version();
                        let Some(mode) = self.conflict_coordinate(ts, o, w) else {
                            // Deadline: restore and retry (see write_slow).
                            state.store(cur, Ordering::Release);
                            obj.bump_version();
                            continue;
                        };
                        let phase_to_pess = matches!(mode, CoordMode::Explicit | CoordMode::Mixed)
                            && self.common.policy.on_explicit_conflict(obj.profile());
                        let to_pess = phase_to_pess
                            || self.common.adapt.as_ref().is_some_and(|a| a.is_demoted(o.0));
                        self.finish_opt_conflict(ts, o, mode, false);
                        if to_pess {
                            state.store(
                                StateWord::rd_ex_pess(t, LockMode::Read).0,
                                Ordering::Release,
                            );
                            obj.bump_version();
                            ts.push_read_lock(o);
                            ts.stats.bump(Event::OptToPess);
                    self.common.rt.trace(ts.tid, TraceKind::OptToPess, o.0 as u64);
                            if self.cfg.eager_unlock {
                                self.eager_unlock_now(ts, o);
                            }
                        } else {
                            state.store(StateWord::rd_ex_opt(t).0, Ordering::Release);
                            obj.bump_version();
                        }
                        return;
                    }
                    Kind::Int => unreachable!("handled above"),
                }
            }

            // --- Pessimistic states ---
            if w.lock_mode() == LockMode::Unlocked {
                if self.read_acquire_unlocked(ts, o, cur, w, contended) {
                    return;
                }
                continue;
            }

            // Locked pessimistic states: reentrant cases first.
            if w == StateWord::wr_ex_pess(t, LockMode::Write)
                || w == StateWord::wr_ex_pess(t, LockMode::Read)
                || w == StateWord::rd_ex_pess(t, LockMode::Read)
            {
                self.bump_reentrant(ts, o);
                return;
            }
            if w.kind() == Kind::RdSh && ts.rd_set.contains(o.0) {
                // RdShRLock(n) R by T with o ∈ T.rdSet → same (reentrant).
                self.bump_reentrant(ts, o);
                return;
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
                        obj.bump_version();
                        ts.push_read_lock(o);
                        self.note_rdsh_read(ts, o, c);
                        self.bump_pess(ts, o, false, contended);
                        return;
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
                        ts.push_read_lock(o);
                        // A read of WrExRLock conflicts with T1's write under
                        // the cost model; of RdExRLock it does not.
                        let conflicting = w.kind() == Kind::WrEx;
                        self.bump_pess(ts, o, conflicting, contended);
                        return;
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
                    self.contended_coordinate(ts, o, w);
                    spin.spin();
                }
            }
        }
    }

    /// Read acquisition from an unlocked pessimistic state. Returns true on
    /// success (caller returns), false to retry.
    fn read_acquire_unlocked(
        &self,
        ts: &mut ThreadState,
        o: ObjId,
        cur: u64,
        w: StateWord,
        contended: bool,
    ) -> bool {
        let t = ts.tid;
        let rt = &self.common.rt;
        let obj = rt.obj(o);
        let state = obj.state();
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
                    if target.lock_mode() == LockMode::Read {
                        ts.push_read_lock(o);
                    } else {
                        ts.push_lock(o);
                    }
                    self.bump_pess(ts, o, false, contended);
                    return true;
                }
                false
            }
            (Kind::WrEx, false) => {
                // WrExPess(T1) R by T2 → RdExRLock(T2): conflicting (w→r),
                // happens-before edge from T1's release clock (§4.2).
                let prev_owner = w.owner();
                let final_w = StateWord::rd_ex_pess(t, LockMode::Read);
                if self.common.claim(obj, cur, t, final_w) {
                    self.read_source_one(ts, prev_owner);
                    self.emit_pess_acquire(ts, o, false);
                    self.common.publish(obj, final_w);
                    ts.push_read_lock(o);
                    self.bump_pess(ts, o, true, contended);
                    return true;
                }
                false
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
                    ts.push_read_lock(o);
                    self.bump_pess(ts, o, false, contended);
                    return true;
                }
                false
            }
            (Kind::RdEx, false) => {
                // RdExPess(T1) R by T2 → RdShRLock(1)(c_new).
                let prev_owner = w.owner();
                let pre = self.common.pre_epoch();
                if self.common.claim(obj, cur, t, StateWord::rd_sh_pess(pre, 1)) {
                    let c = self.common.post_epoch(pre);
                    let final_w = StateWord::rd_sh_pess(c, 1);
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
                    ts.push_read_lock(o);
                    self.bump_pess(ts, o, false, contended);
                    return true;
                }
                false
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
                    obj.bump_version();
                    ts.push_read_lock(o);
                    self.note_rdsh_read(ts, o, c);
                    self.bump_pess(ts, o, false, contended);
                    return true;
                }
                false
            }
            (Kind::Int, _) => unreachable!("Int is never pessimistic"),
        }
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
            // the version word instead of taking the row's read lock
            // (DESIGN.md §12). On repeated invalidation it falls through to
            // `read_slow`, which takes that lock as before.
            if S::SEQLOCK_READS && w.validated_read_ok(t) {
                if let Some(v) = self.common.seqlock_read(ts, o) {
                    self.common.rt.trace(t, TraceKind::Read, o.0 as u64);
                    ts.op_index += 1;
                    return v;
                }
            }
            self.read_slow(ts, o);
        }
        self.common.rt.trace(t, TraceKind::Read, o.0 as u64);
        let v = obj.data_read();
        ts.op_index += 1;
        v
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
        obj.bump_version();
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
            contended_cutoff: u32::MAX,
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
            contended_cutoff: u32::MAX,
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
    /// coordination repeatedly. Two runs of it schedule differently, so this
    /// asserts only what holds under *every* schedule, and returns the report
    /// and the counter's final profile for policy-specific checks of the
    /// same kind.
    fn racy_inc_run(params: PolicyParams, iters: u64, counter: ObjId) -> (StatsReport, Profile) {
        const THREADS: u64 = 4;
        let e = engine_with(params);
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
                            last = er.read(t, counter) + 1;
                            er.write(t, counter, last);
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
        // the adaptive policy to switch a pessimistic object back to
        // optimistic states if accesses to it trigger coordination
        // frequently." How much contention either run sees is up to the
        // scheduler; what the extension guarantees under every schedule is
        // that an object whose contended count reached the cutoff has left
        // pessimistic states for good (`racy_inc_run` checks that the state
        // word agrees with the phase).
        const CUTOFF: u32 = 8;
        let (_, base) = racy_inc_run(PolicyParams::default(), 400, ObjId(11));
        let (_, ext) =
            racy_inc_run(PolicyParams::default().with_contended_cutoff(CUTOFF), 400, ObjId(11));
        assert!(ext.pess_contended < CUTOFF || ext.phase == Phase::OptFinal, "{ext:?}");
        // Without the extension the contended count moves nothing: only
        // inequality (5) returns the object.
        if base.phase == Phase::OptFinal {
            let p = PolicyParams::default();
            assert!(
                u64::from(base.pess_non_confl)
                    >= u64::from(p.k_confl) * u64::from(base.pess_confl) + u64::from(p.inertia),
                "{base:?}"
            );
        }
    }
}
