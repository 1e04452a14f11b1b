//! Shared engine plumbing: the pieces every tracking engine needs regardless
//! of protocol — per-thread state slots, safe point responses, lock-buffer
//! flushes, PSRO handling, monitor operations, attach/detach lifecycle.
//!
//! [`EngineCommon`] implements [`RtHooks`], so the substrate's monitors call
//! straight into the protocol-independent parts of the instrumentation:
//!
//! * `on_psro` — flush the lock buffer (deferred unlocking, §3.1), bump the
//!   release clock, notify support;
//! * `before_block`/`on_blocked_publish` — the blocking-safe-point sequence
//!   that makes implicit coordination sound: flush, bump, publish, answer
//!   raced requests;
//! * `after_unblock` — observe implicit coordination;
//! * `poll` — the responding-safe-point fast path (a counter bump, a test for
//!   schedule hooks and one relaxed load when no request is pending).
//!
//! One engine holds an [`EngineCommon`]:
//! [`HybridEngine`](crate::engine::hybrid::HybridEngine), in every
//! configuration and on every support.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use drink_runtime::{
    Event, LatencyKind, MonitorId, ObjHeader, ObjId, RtHooks, Runtime, SchedPoint, ThreadId,
};

use crate::policy::{AdaptivePolicy, Phase};
use crate::support::{Locking, Support, SupportCx};
use crate::table::{version_after, Next};
use crate::tstate::{OwnedByThread, ThreadState};
use crate::word::{LockMode, StateWord};

/// Seqlock revalidation failures tolerated before a read gives up and takes
/// the engine's ordinary read path (the lock its Table 3 row prescribes).
/// Retrying once or twice rides out a single in-flight install; under a
/// genuine write burst the locking path is the right place to be anyway.
const SEQLOCK_MAX_RETRIES: u64 = 2;

/// Protocol-independent engine state shared by all tracking engines.
pub struct EngineCommon<S: Support> {
    /// The runtime this engine instruments.
    pub rt: Arc<Runtime>,
    /// The runtime support observing this engine.
    pub support: S,
    /// The adaptive policy (only the hybrid engine consults it on accesses,
    /// but flushes are shared).
    pub policy: AdaptivePolicy,
    /// One slot per mutator, each padded to its own cache line so thread
    /// A's hot bookkeeping (lock buffer, stats) never false-shares with
    /// thread B's.
    per_thread: Box<[drink_runtime::CachePadded<OwnedByThread<ThreadState>>]>,
}

impl<S: Support> EngineCommon<S> {
    /// Build engine state for `rt`.
    pub fn new(rt: Arc<Runtime>, support: S, policy: AdaptivePolicy) -> Self {
        let n = rt.config().max_threads;
        let per_thread = (0..n)
            .map(|i| {
                let state = Self::fresh_state(&rt, ThreadId(i as u16));
                drink_runtime::CachePadded::new(OwnedByThread::new(state))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EngineCommon {
            rt,
            support,
            policy,
            per_thread,
        }
    }

    fn fresh_state(rt: &Runtime, t: ThreadId) -> ThreadState {
        // SAFETY: the state goes into `per_thread`, beside the `Arc` that
        // keeps `rt` — whose control slice holds the control block — alive.
        unsafe { ThreadState::new(t, rt.config().heap_objects, rt.control(t)) }
    }

    /// Per-thread state of mutator `t`.
    ///
    /// # Safety
    ///
    /// Caller must be the OS thread attached as mutator `t` (see
    /// [`OwnedByThread`]); the `&mut` aliasing is sound because only that
    /// thread ever derives a reference from this slot.
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn ts(&self, t: ThreadId) -> &mut ThreadState {
        // SAFETY: forwarded to the caller.
        unsafe { self.per_thread[t.index()].get() }
    }

    /// Count event `e` on `ts`'s thread and, if the runtime has trace rings,
    /// record it there with `arg` (see [`Event`] for what each one carries).
    #[inline(always)]
    pub fn note(&self, ts: &mut ThreadState, e: Event, arg: u64) {
        ts.stats.bump(e);
        self.rt.trace(ts.tid, e, arg);
    }

    /// Support context for the current state of `ts`.
    #[inline(always)]
    pub fn cx<'a>(&'a self, ts: &ThreadState) -> SupportCx<'a> {
        SupportCx {
            rt: &self.rt,
            t: ts.tid,
            op: ts.op_index,
        }
    }

    /// Register the calling OS thread as a mutator and initialize its slot.
    pub fn attach(&self) -> ThreadId {
        let t = self.rt.register_thread();
        self.per_thread[t.index()].reset_owner();
        // SAFETY: we are the thread that just claimed this slot.
        unsafe {
            *self.per_thread[t.index()].get() = Self::fresh_state(&self.rt, t);
        }
        t
    }

    /// Detach mutator `t`: thread exit is a PSRO (final flush), after which
    /// the thread is permanently "blocked" so that remaining and future
    /// coordination against it resolves implicitly. Merges the thread's
    /// statistics into the runtime's aggregate.
    ///
    /// # Safety
    ///
    /// Caller must be the OS thread attached as mutator `t`.
    pub unsafe fn detach(&self, t: ThreadId) {
        // SAFETY: caller contract.
        let ts = unsafe { self.ts(t) };
        self.psro_flush(ts);
        let ctl = self.rt.control(t);
        ctl.publish_blocked();
        // Flag only after the final flush and BLOCKED are visible: a fan-out
        // that observes the flag cites our release clock without an epoch
        // CAS, so the clock it reads must already dominate our last access.
        ctl.mark_detached();
        // Answer requests that raced with the status change; later requesters
        // see the detached flag (or BLOCKED) and coordinate implicitly
        // forever.
        self.answer_requests(ts, false);
        assert!(ts.holds_no_locks(), "detached while holding object locks");
        ts.stats.merge_into(self.rt.stats());
    }

    // --- Deferred unlocking (§3.1, Figure 10(c)) ---

    /// Unlock every object state in `ts`'s lock buffer, moving each to a
    /// pessimistic-unlocked or optimistic state per the adaptive policy, and
    /// clear the read set.
    pub fn flush_lock_buffer(&self, ts: &mut ThreadState) {
        if ts.lock_buffer.is_empty() && ts.rd_set.is_empty() {
            return;
        }
        let flushed = ts.lock_buffer.len() as u64;
        self.note(ts, Event::LockBufferFlush, flushed);
        ts.stats.add(Event::StateUnlocked, flushed);
        // Swap the buffer out: unlock CASes can trigger support callbacks in
        // the future, and re-entrant pushes into a borrowed Vec would be UB.
        let mut buffer = std::mem::take(&mut ts.lock_buffer);
        for &o in &buffer {
            // Clear the read set entry-by-entry: rd_set ⊆ buffer, so this is
            // O(|buffer|), never O(heap).
            ts.rd_set.remove(o.0);
            self.unlock_one_object(ts, o);
        }
        buffer.clear();
        ts.lock_buffer = buffer;
        debug_assert!(ts.rd_set.is_empty(), "read set out of sync with the lock buffer");
        #[cfg(feature = "check-invariants")]
        ts.check_set_invariants();
    }

    /// Unlock this thread's hold on object `o`: one flush step, or the
    /// release of a lock that was never deferred. The caller has already
    /// dropped `o` from the lock bookkeeping, if it ever was in it.
    pub(crate) fn unlock_one_object(&self, ts: &mut ThreadState, o: ObjId) {
        let obj = self.rt.obj(o);
        let state = obj.state();
        let mut cur = state.load(Ordering::Acquire);
        if cur == StateWord::wr_ex_pess(ts.tid, LockMode::Write).0 {
            return self.unlock_write_lock(ts, o, None);
        }
        let mut wait = None;
        loop {
            let w = StateWord(cur);
            if w.is_int() {
                // A second reader is upgrading our read-locked exclusive
                // state to RdShRLock(2) under a pre-publishing support: its
                // claim parks the word at Int while the support hook runs.
                // Our hold survives that window; release it once the new
                // state is published.
                let wait = wait.get_or_insert_with(|| self.rt.wait(ts.tid, "second reader's publish"));
                let _ = wait.step();
                cur = state.load(Ordering::Acquire);
                continue;
            }
            debug_assert!(
                w.is_pess_locked(),
                "lock buffer entry {o:?} not locked: {w:?}"
            );
            #[cfg(feature = "check-invariants")]
            w.validate()
                .unwrap_or_else(|e| panic!("ill-formed state word on {o:?}: {w:?} — {e}"));
            let unlocked = w.unlock_one();
            // An exclusive state (or the last RdSh share) may transfer to
            // optimistic states at unlock time (Figure 3's upper diamond) —
            // but for a version word, whose count is no epoch (Table 3's
            // marked row ③): the object crosses at its next write's release.
            let to_opt = !unlocked.is_version() && self.policy.unlock_to_optimistic(obj.profile());
            let new = if unlocked.is_pess_unlocked() && to_opt {
                unlocked.to_optimistic()
            } else {
                unlocked
            };
            match state.compare_exchange_weak(cur, new.0, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    return self.note_unlocked(ts, o, unlocked.is_pess_unlocked().then_some(to_opt))
                }
                // Concurrent RdSh read-lock count changes (or a concurrent
                // upgrade of our WrExRLock to RdShRLock) can race; retry.
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release the write lock `ts` holds on `o` by a release store — the
    /// ordering the unlock CAS of a read lock has, without the CAS. A word
    /// `WrExWLock(T)` is changed by nobody but `T`: a reader or writer that
    /// finds it coordinates and spins (the contended rows), a pre-publishing
    /// claim parks only unlocked or read-locked words at `Int`, and a second
    /// reader upgrades only *read*-locked exclusive words. So there is no
    /// concurrent change for a CAS to lose to; `check-invariants` builds swap
    /// instead of storing and assert that.
    ///
    /// `written` is the word the lock's claim replaced, if the lock guarded
    /// a payload write released right after it: on a settled object under
    /// [`Locking::Relaxed`] that release publishes Table 3's version word
    /// (marked row ③), counted as [`Event::VersionPublished`].
    #[inline]
    pub(crate) fn unlock_write_lock(&self, ts: &mut ThreadState, o: ObjId, written: Option<StateWord>) {
        let obj = self.rt.obj(o);
        let t = ts.tid;
        // The valve, as at any unlock (Figure 3's upper diamond).
        let (new, e) = match (self.policy.phase(obj.profile()), written) {
            (Phase::OptFinal, _) => (StateWord::wr_ex_opt(t), Event::PessToOpt),
            (Phase::Settled, Some(replaced)) if matches!(S::LOCKING, Locking::Relaxed) => {
                (version_after(t, replaced), Event::VersionPublished)
            }
            _ => (StateWord::wr_ex_pess(t, LockMode::Unlocked), Event::ValveKeptPess),
        };
        Self::release_write_lock(obj, o, t, new);
        self.note(ts, e, o.0 as u64);
    }

    /// The release store of [`EngineCommon::unlock_write_lock`]: `t`'s
    /// `WrExWLock(T)` on `o` becomes `new`. (`check-invariants` builds swap
    /// and assert that the word was the lock.)
    #[inline(always)]
    pub(crate) fn release_write_lock(obj: &ObjHeader, o: ObjId, t: ThreadId, new: StateWord) {
        if cfg!(feature = "check-invariants") {
            let old = StateWord(obj.state().swap(new.0, Ordering::AcqRel));
            assert_eq!(old, StateWord::wr_ex_pess(t, LockMode::Write), "{o:?}: write lock changed under its holder");
        } else {
            obj.state().store(new.0, Ordering::Release);
        }
    }

    /// Stats and trace of one unlock; `valve` is the policy's decision if the
    /// unlock left the state fully unlocked: released to optimistic states,
    /// or deliberately held pessimistic. (A flush counts its unlocks as
    /// [`Event::StateUnlocked`]; the release of a lock that was never
    /// deferred lies inside the access that took it.)
    #[inline]
    fn note_unlocked(&self, ts: &mut ThreadState, o: ObjId, valve: Option<bool>) {
        match valve {
            Some(true) => self.note(ts, Event::PessToOpt, o.0 as u64),
            Some(false) => self.note(ts, Event::ValveKeptPess, o.0 as u64),
            None => {}
        }
    }

    // --- Safe points ---

    /// Non-blocking safe point: respond to pending requests, if any. With
    /// none and no schedule hooks it is a leaf: a counter bump, a test of the
    /// hooks' slot and a relaxed load of a flag located at attach.
    #[inline(always)]
    pub fn poll(&self, ts: &mut ThreadState) {
        ts.stats.bump(Event::SafepointPoll);
        if self.rt.perturbing() || ts.control().has_pending_requests() {
            self.poll_rest(ts);
        }
    }

    #[inline(never)]
    fn poll_rest(&self, ts: &mut ThreadState) {
        self.rt.sched_point(ts.tid, SchedPoint::SafepointPoll);
        if ts.control().has_pending_requests() {
            self.respond_pending(ts);
        }
    }

    /// Respond to all pending explicit requests: yield ownership (support
    /// rollback hook), bump the release clock, flush the lock buffer, and
    /// complete the tokens. This is a *responding safe point* (§2.2).
    ///
    /// Also invoked from coordination spin loops (Figure 1 line 18) so a
    /// waiting thread keeps acting as a safe point.
    #[cold]
    pub fn respond_pending(&self, ts: &mut ThreadState) {
        // Injected fault (check builds only): freeze the responder before it
        // drains, modeling a descheduled/overloaded victim. Gated on a
        // request actually waiting — some intermediate-state wait loops call
        // this unconditionally, and an ungated sleep would stall requesters
        // too, not just responders. What bounds the requester's wait is then
        // the coordination deadline (recoverable) or the spin watchdog
        // (panic) — scripts/check_gate.sh's stall canary asserts the latter
        // fires, is artifacted, and reproduces.
        #[cfg(feature = "check-invariants")]
        if self.rt.control(ts.tid).has_pending_requests() {
            if let Some(d) = drink_runtime::injected_fault("stall-responder") {
                std::thread::sleep(d);
            }
        }
        self.rt.sched_point(ts.tid, SchedPoint::CoordRespond);
        self.answer_requests(ts, true);
    }

    /// Drain `ts`'s inbox and answer the batch — however many requesters
    /// piled up — with ONE release-clock bump, counted and traced as one
    /// [`Event::RespondedExplicit`] that carries the batch size. At a
    /// responding safe point (`yielding`) the support first gets its
    /// rollback hook for the requested objects and the lock buffer is
    /// flushed after the bump; right after publishing BLOCKED and at detach
    /// both already happened.
    fn answer_requests(&self, ts: &mut ThreadState, yielding: bool) {
        let ctl = self.rt.control(ts.tid);
        // Drain into per-session scratch (swapped out so support callbacks
        // borrowing `ts` stay sound).
        let mut reqs = std::mem::take(&mut ts.req_scratch);
        debug_assert!(reqs.is_empty(), "request drain re-entered");
        ctl.drain_requests_into(&mut reqs);
        if !reqs.is_empty() {
            if yielding {
                let mut requested = std::mem::take(&mut ts.obj_scratch);
                requested.extend(reqs.iter().filter_map(|r| r.obj));
                self.support.before_yield(
                    self.cx(ts),
                    crate::support::YieldInfo {
                        requested: &requested,
                        pess_locked: &ts.lock_buffer,
                    },
                );
                requested.clear();
                ts.obj_scratch = requested;
            }
            // Bump *before* unlocking: a thread that acquires one of the
            // states we are about to unlock reads our clock afterwards and
            // must observe a value that dominates our accesses (see §4.2's
            // edge soundness).
            let clock = ctl.bump_release_clock();
            if yielding {
                self.flush_lock_buffer(ts);
            }
            self.note(ts, Event::RespondedExplicit, reqs.len() as u64);
            ts.stats.add(Event::CoordBatchRequests, reqs.len() as u64);
            self.support.on_release(self.cx(ts));
            for req in reqs.drain(..) {
                req.token.complete(clock);
            }
        }
        ts.req_scratch = reqs;
    }

    /// The respond closure handed to [`crate::coord`] while this thread
    /// itself waits for a coordination response.
    #[inline]
    pub fn respond_closure<'a>(&'a self, ts: &'a mut ThreadState) -> impl FnMut() + 'a {
        move || {
            if self.rt.control(ts.tid).has_pending_requests() {
                self.respond_pending(ts);
            }
        }
    }

    /// Claim a slow-path transition from `cur`. Without pre-publish this
    /// installs `final_w` directly; with pre-publish ([`Support::PREPUBLISH`])
    /// it parks the state at `Int(t)` so the caller can run support hooks
    /// before making the final state observable via
    /// [`EngineCommon::publish`].
    #[inline(always)]
    pub fn claim(&self, obj: &ObjHeader, cur: u64, t: ThreadId, final_w: StateWord) -> bool {
        let target = if S::PREPUBLISH {
            StateWord::int(t).0
        } else {
            final_w.0
        };
        obj.state()
            .compare_exchange(cur, target, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Second half of [`EngineCommon::claim`]: publish the final state.
    /// `check-invariants` builds assert the step, not just the word:
    /// `final_w` must be the `next` of `table_next` — the table, looked up
    /// again on the word the claim replaced. That catches a row executed on
    /// any word but the one it was looked up for.
    #[inline(always)]
    pub fn publish(&self, obj: &ObjHeader, final_w: StateWord, table_next: impl FnOnce() -> Next) {
        #[cfg(feature = "check-invariants")]
        {
            final_w
                .validate()
                .unwrap_or_else(|e| panic!("publishing ill-formed state word {final_w:?} — {e}"));
            let next = table_next();
            assert_eq!(final_w, next.word(final_w.rdsh_count()), "the claimed word's row leaves {next:?}");
        }
        #[cfg(not(feature = "check-invariants"))]
        let _ = table_next;
        if S::PREPUBLISH {
            obj.state().store(final_w.0, Ordering::Release);
        }
    }

    /// The validated read (DESIGN.md §12): read `o` with **no state
    /// transition**. `w0` is the state word the caller just loaded (acquire)
    /// and found [`StateWord::validated_read_ok`] for this thread — a state
    /// in which the read creates no dependence, and which the object never
    /// returns to once a foreign writer has installed its way out of it:
    ///
    /// 1. load the payload;
    /// 2. acquire fence, then re-load the state word;
    /// 3. the same word validates: no foreign write overlapped the window,
    ///    so the payload is exactly what the read's Table 3 row would have
    ///    returned under its lock. A different word that is still eligible
    ///    (a reader joined or left the read lock) retries from it; anything
    ///    else, or `SEQLOCK_MAX_RETRIES` (2) failures, falls back to the
    ///    engine's ordinary read path (`None`).
    ///
    /// The fence pairs, through the payload word, with the release fence
    /// every writer issues between its write-enabling install and its first
    /// payload store: a reader that saw the store sees the install at the
    /// re-load. The caller's acquire load of `w0` synchronizes with the
    /// release install that published it, so the installer's earlier writes
    /// are visible without a fence transition; `ts.rd_sh_count` is
    /// deliberately **not** updated (this path makes no claim about other
    /// objects' epochs). (A read leaf makes the first attempt itself:
    /// [`EngineCommon::validated_read_leaf`].)
    #[inline(never)]
    pub fn seqlock_read(&self, ts: &mut ThreadState, o: ObjId, mut w0: StateWord) -> Option<u64> {
        let obj = self.rt.obj(o);
        let mut retries = 0u64;
        loop {
            let value = obj.data_read();
            self.rt.sched_point(ts.tid, SchedPoint::SeqlockReadValidate);
            fence(Ordering::Acquire);
            let w1 = StateWord(obj.state().load(Ordering::Relaxed));
            if w1 == w0 {
                if retries > 0 {
                    self.rt.stats().record_latency(ts.tid, LatencyKind::SeqlockRetries, retries);
                }
                self.note(ts, Event::SeqlockValidated, o.0 as u64);
                return Some(value);
            }
            self.note(ts, Event::SeqlockRetry, o.0 as u64);
            retries += 1;
            let give_up = retries > SEQLOCK_MAX_RETRIES;
            if give_up || !w1.validated_read_ok(ts.tid) {
                // A write burst, or a writer claimed the object (or it left
                // the eligible states) inside the window.
                if give_up {
                    self.note(ts, Event::SeqlockFallback, o.0 as u64);
                }
                self.rt.stats().record_latency(ts.tid, LatencyKind::SeqlockRetries, retries);
                return None;
            }
            // The re-load was relaxed; order the next payload load after the
            // install that published `w1`.
            fence(Ordering::Acquire);
            w0 = w1;
        }
    }

    /// The validated read's first attempt, call-free, for an engine's read
    /// leaf: `cur` is the word the leaf just loaded (acquire). Made only
    /// under a support that allows validated reads and while neither trace
    /// rings nor schedule hooks want its events; a failed attempt is
    /// retried, and only then counted, by [`EngineCommon::seqlock_read`] in
    /// the leaf's continuation.
    #[inline(always)]
    pub fn validated_read_leaf(&self, ts: &mut ThreadState, obj: &ObjHeader, cur: u64) -> Option<u64> {
        if !matches!(S::LOCKING, Locking::Relaxed)
            || self.rt.tracing_enabled()
            || self.rt.perturbing()
            || !StateWord(cur).validated_read_ok(ts.tid)
        {
            return None;
        }
        let v = obj.data_read();
        fence(Ordering::Acquire);
        if obj.state().load(Ordering::Relaxed) != cur {
            return None;
        }
        ts.stats.bump(Event::SeqlockValidated);
        ts.op_index += 1;
        Some(v)
    }

    /// RdSh epoch claiming for transitions that create a RdSh state. Without
    /// pre-publish, the epoch must be claimed *before* the installing CAS
    /// (the new state word embeds it); call this first and pass the result
    /// to [`EngineCommon::post_epoch`] after the claim succeeds. With
    /// pre-publish, the epoch is instead claimed *inside* the Int window —
    /// this guarantees that epochs become observable in counter order, which
    /// the recorder's creation-chain edges require, and that no claimed
    /// epoch is ever abandoned by a failed CAS.
    #[inline(always)]
    pub fn pre_epoch(&self) -> u64 {
        if S::PREPUBLISH {
            0
        } else {
            self.rt.next_rdsh_count()
        }
    }

    /// See [`EngineCommon::pre_epoch`].
    #[inline(always)]
    pub fn post_epoch(&self, pre: u64) -> u64 {
        if S::PREPUBLISH {
            self.rt.next_rdsh_count()
        } else {
            pre
        }
    }

    /// PSRO instrumentation: bump the release clock, flush, notify support.
    /// (Bump-before-flush: see [`EngineCommon::respond_pending`].)
    pub fn psro_flush(&self, ts: &mut ThreadState) {
        self.rt.control(ts.tid).bump_release_clock();
        self.flush_lock_buffer(ts);
        self.support.on_release(self.cx(ts));
    }

    // --- Monitor operations (program synchronization) ---

    /// Monitor acquire: a blocking safe point when contended. Counts as one
    /// program operation for the deterministic op index.
    pub fn monitor_acquire(&self, ts: &mut ThreadState, m: MonitorId) {
        let info = self.rt.monitor_acquire(m, ts.tid, self);
        ts.stats.bump(info.event());
        self.support.on_monitor_acquire(self.cx(ts), info.prev_release);
        ts.op_index += 1;
    }

    /// Monitor release: a PSRO. Counts as one program operation.
    pub fn monitor_release(&self, ts: &mut ThreadState, m: MonitorId) {
        self.rt.monitor_release(m, ts.tid, self);
        ts.stats.bump(Event::MonitorRelease);
        ts.op_index += 1;
    }

    /// Monitor wait: PSRO + blocking safe point + re-acquire.
    pub fn monitor_wait(&self, ts: &mut ThreadState, m: MonitorId) {
        let info = self.rt.monitor_wait(m, ts.tid, self);
        ts.stats.bump(info.event());
        self.support.on_monitor_acquire(self.cx(ts), info.prev_release);
        ts.op_index += 1;
    }
}

impl<S: Support> RtHooks for EngineCommon<S> {
    #[inline]
    fn poll(&self, t: ThreadId) {
        // SAFETY: RtHooks callbacks always run on the mutator thread itself.
        let ts = unsafe { self.ts(t) };
        self.poll(ts);
    }

    fn before_block(&self, t: ThreadId) {
        // SAFETY: as above.
        let ts = unsafe { self.ts(t) };
        // Reaching a blocking safe point relinquishes ownership: support gets
        // its rollback hook (conservatively: everything may transfer while
        // blocked), the clock is bumped (so implicit coordination can cite it
        // as an edge source), then pessimistic locks are flushed.
        self.support.before_yield(
            self.cx(ts),
            crate::support::YieldInfo {
                requested: &[],
                pess_locked: &ts.lock_buffer,
            },
        );
        self.rt.control(t).bump_release_clock();
        // Injected bug `skip-flush-before-block` (check-invariants builds
        // only): entering BLOCKED while still holding pessimistic object
        // locks. Implicit coordination then transfers states the blocked
        // thread believes it holds — exactly the protocol violation the
        // blocking-safe-point flush exists to prevent.
        #[cfg(feature = "check-invariants")]
        let skip_flush = drink_runtime::injected_bug("skip-flush-before-block");
        #[cfg(not(feature = "check-invariants"))]
        let skip_flush = false;
        if !skip_flush {
            self.flush_lock_buffer(ts);
        }
        // The "BLOCKED threads hold no pessimistic locks" invariant. This is
        // precisely what detects `skip-flush-before-block`: the first time a
        // perturbed schedule parks a thread with a non-empty lock buffer, the
        // violation is reported here instead of hanging a remote spinner.
        #[cfg(feature = "check-invariants")]
        assert!(
            ts.holds_no_locks(),
            "T{} about to publish BLOCKED while holding pessimistic locks",
            t.raw()
        );
        self.support.on_release(self.cx(ts));
    }

    fn on_blocked_publish(&self, t: ThreadId) {
        // SAFETY: as above.
        let ts = unsafe { self.ts(t) };
        // Answer explicit requests that raced with the BLOCKED publication.
        // The buffer is already flushed.
        self.answer_requests(ts, false);
    }

    fn after_unblock(&self, t: ThreadId, epoch_bumped: bool) {
        // SAFETY: as above.
        let ts = unsafe { self.ts(t) };
        if epoch_bumped {
            self.note(ts, Event::ImplicitObservedOnWake, 0);
            self.support.on_wake_after_implicit(self.cx(ts));
        }
        // Stale explicit requests may also have queued up while parked.
        if self.rt.control(t).has_pending_requests() {
            self.respond_pending(ts);
        }
    }

    fn on_psro(&self, t: ThreadId) {
        // SAFETY: as above.
        let ts = unsafe { self.ts(t) };
        self.psro_flush(ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::NullSupport;
    use crate::word::LockMode;
    use drink_runtime::RuntimeConfig;

    fn engine() -> EngineCommon<NullSupport> {
        let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(4)
        .heap_objects(16)
        .monitors(2)
        .build()));
        EngineCommon::new(rt, NullSupport, AdaptivePolicy::default())
    }

    #[test]
    fn attach_assigns_dense_ids() {
        let e = engine();
        assert_eq!(e.attach(), ThreadId(0));
        assert_eq!(e.attach(), ThreadId(1));
    }

    #[test]
    fn flush_unlocks_exclusive_states() {
        let e = engine();
        let t = e.attach();
        let ts = unsafe { e.ts(t) };
        let o = ObjId(3);
        e.rt.obj(o)
            .state()
            .store(StateWord::wr_ex_pess(t, LockMode::Write).0, Ordering::SeqCst);
        ts.push_lock(o, LockMode::Write);
        e.flush_lock_buffer(ts);
        let w = StateWord(e.rt.obj(o).state().load(Ordering::SeqCst));
        assert_eq!(w, StateWord::wr_ex_pess(t, LockMode::Unlocked));
        assert!(ts.holds_no_locks());
    }

    #[test]
    fn flush_decrements_rdsh_share() {
        let e = engine();
        let t = e.attach();
        let ts = unsafe { e.ts(t) };
        let o = ObjId(0);
        e.rt.obj(o)
            .state()
            .store(StateWord::rd_sh_pess(7, 3).0, Ordering::SeqCst);
        ts.push_lock(o, LockMode::Read);
        e.flush_lock_buffer(ts);
        let w = StateWord(e.rt.obj(o).state().load(Ordering::SeqCst));
        assert_eq!(w, StateWord::rd_sh_pess(7, 2), "only this thread's share released");
    }

    #[test]
    fn flush_respects_policy_to_optimistic() {
        use crate::policy::{PolicyParams, Phase};
        let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(4)
        .heap_objects(16)
        .monitors(2)
        .build()));
        let e = EngineCommon::new(
            rt,
            NullSupport,
            AdaptivePolicy::new(PolicyParams {
                cutoff_confl: 1,
                k_confl: 1,
                inertia: 1,
            }),
        );
        let t = e.attach();
        let ts = unsafe { e.ts(t) };
        let o = ObjId(1);
        let obj = e.rt.obj(o);
        obj.state()
            .store(StateWord::wr_ex_pess(t, LockMode::Write).0, Ordering::SeqCst);
        // Drive the profile to OptFinal.
        e.policy.on_explicit_conflict(obj.profile());
        e.policy.on_pess_transition(obj.profile(), false);
        assert_eq!(AdaptivePolicy::profile(obj.profile()).phase, Phase::OptFinal);

        ts.push_lock(o, LockMode::Write);
        e.flush_lock_buffer(ts);
        let w = StateWord(obj.state().load(Ordering::SeqCst));
        assert_eq!(w, StateWord::wr_ex_opt(t), "unlock transfers to optimistic");
        assert_eq!(ts.stats.get(Event::PessToOpt), 1);
    }

    #[test]
    fn respond_pending_flushes_and_completes_tokens() {
        let e = engine();
        let t = e.attach();
        let requester = e.attach();
        let ts = unsafe { e.ts(t) };
        let o = ObjId(2);
        e.rt.obj(o)
            .state()
            .store(StateWord::rd_ex_pess(t, LockMode::Read).0, Ordering::SeqCst);
        ts.push_lock(o, LockMode::Read);

        let token = drink_runtime::ResponseToken::new();
        e.rt.control(t).enqueue_request(drink_runtime::CoordRequest {
            from: requester,
            obj: None,
            token: token.clone(),
        });
        e.poll(ts);
        assert!(token.is_done());
        assert_eq!(token.responder_clock(), 1);
        assert!(ts.holds_no_locks());
        let w = StateWord(e.rt.obj(o).state().load(Ordering::SeqCst));
        assert!(w.is_pess_unlocked());
    }

    #[test]
    fn batch_of_k_requests_answered_by_one_clock_bump() {
        const K: usize = 5;
        let e = engine();
        let t = e.attach();
        let ts = unsafe { e.ts(t) };
        let tokens: Vec<_> = (0..K)
            .map(|i| {
                let token = drink_runtime::ResponseToken::new();
                e.rt.control(t).enqueue_request(drink_runtime::CoordRequest {
                    from: ThreadId(1),
                    obj: Some(ObjId(i as u32)),
                    token: token.clone(),
                });
                token
            })
            .collect();
        assert_eq!(e.rt.control(t).release_clock(), 0);
        e.poll(ts);
        // One drained batch of K requests: exactly one release-clock bump...
        assert_eq!(e.rt.control(t).release_clock(), 1);
        // ...completes all K tokens, all carrying that one clock...
        for token in &tokens {
            assert!(token.is_done());
            assert_eq!(token.responder_clock(), 1);
        }
        // ...and the occupancy counters record the coalescing.
        assert_eq!(ts.stats.get(Event::RespondedExplicit), 1);
        assert_eq!(ts.stats.get(Event::CoordBatchRequests), K as u64);
    }

    #[test]
    fn detach_marks_control_detached() {
        let e = engine();
        let t = e.attach();
        assert!(!e.rt.control(t).is_detached());
        unsafe { e.detach(t) };
        assert!(e.rt.control(t).is_detached());
    }

    #[test]
    fn detach_answers_raced_requests_and_blocks_forever() {
        let e = engine();
        let t = e.attach();
        let requester = e.attach();
        let token = drink_runtime::ResponseToken::new();
        e.rt.control(t).enqueue_request(drink_runtime::CoordRequest {
            from: requester,
            obj: None,
            token: token.clone(),
        });
        unsafe { e.detach(t) };
        assert!(token.is_done());
        assert!(matches!(
            e.rt.control(t).status(),
            drink_runtime::ThreadStatus::Blocked { .. }
        ));
        // Post-detach coordination resolves implicitly.
        let mode = crate::coord::coordinate(
            &e.rt,
            requester,
            crate::support::PrevHolders::One(t),
            None,
            &mut || {},
            &mut Vec::new(),
            &mut Vec::new(),
        );
        assert_eq!(mode, Some(crate::coord::CoordMode::Implicit));
    }

    #[test]
    fn psro_bumps_release_clock() {
        let e = engine();
        let t = e.attach();
        let ts = unsafe { e.ts(t) };
        assert_eq!(e.rt.control(t).release_clock(), 0);
        e.psro_flush(ts);
        assert_eq!(e.rt.control(t).release_clock(), 1);
    }

    #[test]
    fn monitor_ops_advance_op_index() {
        let e = engine();
        let t = e.attach();
        let ts = unsafe { e.ts(t) };
        let m = MonitorId(0);
        e.monitor_acquire(ts, m);
        assert_eq!(ts.op_index, 1);
        e.monitor_release(ts, m);
        assert_eq!(ts.op_index, 2);
        assert_eq!(ts.stats.get(Event::MonitorAcquireFast), 1);
        assert_eq!(ts.stats.get(Event::MonitorRelease), 1);
        assert_eq!(e.rt.control(t).release_clock(), 1, "release is a PSRO");
    }
}
