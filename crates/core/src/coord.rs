//! The coordination client (§2.2, Figure 1's `coordinate`).
//!
//! A thread that needs another thread to relinquish access privileges — an
//! optimistic conflicting transition, or a contended pessimistic transition —
//! coordinates with it:
//!
//! * if the remote thread is **blocked** (parked at a blocking safe point),
//!   coordination is **implicit**: one CAS advancing the remote status word's
//!   epoch. The remote thread cannot be mid-access, so the requester may
//!   proceed immediately; the remote observes the epoch bump when it wakes.
//! * if the remote thread is **running**, coordination is **explicit**: the
//!   requester enqueues a request and spins on a response token until the
//!   remote reaches a safe point. Crucially, *while spinning the requester
//!   acts as a safe point itself* (Figure 1 line 18) — it keeps responding to
//!   other threads' requests, which is what makes the protocol deadlock-free
//!   when two threads coordinate with each other simultaneously.
//!
//! A lost-wakeup race exists between "requester reads RUNNING" and "remote
//! publishes BLOCKED": the request may be enqueued after the remote's final
//! drain. The requester therefore re-checks the remote status on every spin
//! iteration and falls back to implicit coordination if the remote has
//! blocked; the stale queued request is answered harmlessly when the remote
//! eventually wakes.
//!
//! ## Waiting, bounded two ways (DESIGN.md §13)
//!
//! Requesters wait through [`CoordWait`], a shared backoff ladder: spin
//! hints → yields (the [`Spin`] phases) → bounded condvar parks on the
//! requester's [`Waker`] once contention is evidently not transient. Both
//! the response-token completion and a peer enqueueing a request *to us*
//! notify that waker, so a parked requester keeps acting as a safe point
//! with at most one park-interval of latency.
//!
//! The wait is bounded two ways:
//!
//! * the `*_deadline` variants take a **recoverable deadline** (the
//!   runtime's `coord_deadline` knob): on expiry they return `None` and the
//!   engine falls back to the pessimistic protocol for that object — a
//!   *policy* decision, not a failure;
//! * the plain variants keep the **hard-panic spin watchdog**: a
//!   coordination that never completes with no deadline configured is a
//!   protocol bug, and hiding it would be worse than crashing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drink_runtime::{
    CoordRequest, LatencyKind, ResponseToken, Runtime, SchedPoint, Spin, SpinOutcome, ThreadId,
    ThreadStatus, TraceKind, Waker,
};

use crate::support::CoordMode;

/// Consecutive no-progress wait steps before a requester escalates from
/// spinning/yielding to parking on its [`Waker`]. Matches the tail of the
/// [`Spin`] yield phase: by this point the responder has demonstrably not
/// been one quantum away.
const PARK_AFTER_STEPS: u32 = 192;
/// First park interval; doubles per park up to [`PARK_MAX`]. Short enough
/// that a lost wakeup (tolerated by [`Waker::park`]'s bounded wait) costs
/// microseconds, long enough to actually free the core.
const PARK_INITIAL: Duration = Duration::from_micros(50);
/// Park interval ceiling: bounds both lost-wakeup latency and deadline
/// overshoot.
const PARK_MAX: Duration = Duration::from_millis(1);

/// The coordination wait ladder: spin → yield → park, with an optional
/// recoverable deadline. One instance per coordination episode; fan-outs
/// reset it via [`CoordWait::progressed`] whenever a poll pass resolves at
/// least one peer, so the ladder measures *time since last progress*, not
/// total episode length.
struct CoordWait<'rt> {
    spin: Spin<'rt>,
    waker: &'rt Arc<Waker>,
    /// Absolute expiry, if this wait is deadline-bounded (recoverable).
    expires_at: Option<Instant>,
    /// Wait steps since the last observed progress.
    idle: u32,
    interval: Duration,
}

impl<'rt> CoordWait<'rt> {
    fn new(
        rt: &'rt Runtime,
        me: ThreadId,
        what: &'static str,
        deadline: Option<Duration>,
    ) -> Self {
        let (spin, expires_at) = match deadline {
            // Exact budget: a DRINK_SPIN_BUDGET_MS override bounds hangs,
            // not clean deadline expiries.
            Some(d) => (rt.deadline_spinner_for(me, what, d), Some(Instant::now() + d)),
            None => (rt.spinner_for(me, what), None),
        };
        CoordWait {
            spin,
            waker: rt.control(me).waker(),
            expires_at,
            idle: 0,
            interval: PARK_INITIAL,
        }
    }

    /// Something completed since the last step; de-escalate fully.
    fn progressed(&mut self) {
        self.idle = 0;
        self.interval = PARK_INITIAL;
    }

    /// One no-progress wait step. Returns [`SpinOutcome::Expired`] only for
    /// deadline-bounded waits; without a deadline a wait that exhausts the
    /// watchdog budget panics (protocol bug), exactly as before.
    fn step(&mut self) -> SpinOutcome {
        self.idle += 1;
        if self.idle > PARK_AFTER_STEPS {
            // Escalate to parking. Token completions and incoming requests
            // notify the waker; the bounded interval is the lost-wakeup
            // backstop and keeps the caller's respond-as-safepoint duty at
            // one-interval latency worst case.
            self.spin.note_park();
            match self.expires_at {
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return SpinOutcome::Expired;
                    }
                    self.waker.park(self.interval.min(left));
                }
                None => self.waker.park(self.interval),
            }
            self.interval = (self.interval * 2).min(PARK_MAX);
        }
        // Still step the spinner every iteration: it keeps the hang
        // backstop armed (and, under a deadline, checks expiry).
        if self.expires_at.is_some() {
            self.spin.checked_spin()
        } else {
            self.spin.spin();
            SpinOutcome::Progress
        }
    }
}

/// Outcome of coordinating with one remote thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoordOutcome {
    /// Explicit (roundtrip) or implicit (epoch CAS)?
    pub mode: CoordMode,
    /// The remote thread's release clock dominating its last access: the
    /// responder's post-bump clock for explicit coordination, or the clock
    /// read after the epoch CAS for implicit coordination (the remote bumped
    /// it when it flushed before blocking).
    pub source_clock: u64,
}

/// Coordinate with `remote` on behalf of `me`. `respond_self` is invoked on
/// every wait step so the requester acts as a safe point while waiting.
///
/// Panics (via the runtime's spin watchdog) if the remote thread never
/// responds — always a protocol bug.
pub fn coordinate_one(
    rt: &Runtime,
    me: ThreadId,
    remote: ThreadId,
    obj: Option<drink_runtime::ObjId>,
    respond_self: &mut impl FnMut(),
) -> CoordOutcome {
    match coordinate_one_deadline(rt, me, remote, obj, respond_self, None) {
        Some(out) => out,
        // Without a deadline the wait either completes or the watchdog
        // panics inside the loop; it cannot expire.
        None => unreachable!("undeadlined coordination cannot expire"),
    }
}

/// [`coordinate_one`] with an optional recoverable deadline. Returns `None`
/// if `deadline` elapsed without a resolution: the requester stops waiting
/// and the caller falls back to the pessimistic protocol for this object
/// (DESIGN.md §13). Any enqueued token simply goes stale — the remote
/// answers it at its next safe point or wake, and nobody reads it, the same
/// closure as the blocked-fallback race above.
pub fn coordinate_one_deadline(
    rt: &Runtime,
    me: ThreadId,
    remote: ThreadId,
    obj: Option<drink_runtime::ObjId>,
    respond_self: &mut impl FnMut(),
    deadline: Option<Duration>,
) -> Option<CoordOutcome> {
    debug_assert_ne!(me, remote, "a thread never coordinates with itself");
    let ctl = rt.control(remote);
    let t0 = Instant::now();
    let mut pending: Option<Arc<ResponseToken>> = None;
    let mut wait = CoordWait::new(rt, me, "coordination response", deadline);
    loop {
        if let Some(tok) = &pending {
            if tok.is_done() {
                rt.stats()
                    .record_latency(LatencyKind::CoordRoundtrip, t0.elapsed().as_nanos() as u64);
                return Some(CoordOutcome {
                    mode: CoordMode::Explicit,
                    source_clock: tok.responder_clock(),
                });
            }
        }
        match ctl.status() {
            ThreadStatus::Blocked { epoch } => {
                if ctl.try_implicit(epoch) {
                    // The remote flushed and bumped its clock before it
                    // published BLOCKED, so this read dominates its last
                    // access. (If we also enqueued an explicit request, the
                    // remote answers the stale token on wake; nobody reads it.)
                    rt.trace(me, TraceKind::CoordImplicit, remote.raw() as u64);
                    return Some(CoordOutcome {
                        mode: CoordMode::Implicit,
                        source_clock: ctl.release_clock(),
                    });
                }
                // Status changed under us; retry the whole protocol.
            }
            ThreadStatus::Running { .. } => {
                if pending.is_none() {
                    // The token carries our waker so the responder's
                    // `complete` can unpark us if we escalated to parking.
                    let token = ResponseToken::with_waker(rt.control(me).waker().clone());
                    ctl.enqueue_request(CoordRequest {
                        from: me,
                        obj,
                        token: token.clone(),
                    });
                    rt.trace(me, TraceKind::CoordRequest, remote.raw() as u64);
                    rt.sched_point(me, SchedPoint::CoordRequest);
                    pending = Some(token);
                }
            }
        }
        // Act as a safe point while waiting (deadlock freedom).
        respond_self();
        if wait.step() == SpinOutcome::Expired {
            rt.trace(me, TraceKind::CoordDeadline, remote.raw() as u64);
            return None;
        }
    }
}

/// Sequential reference implementation of the conservative RdSh protocol:
/// one full [`coordinate_one`] roundtrip per registered peer, in thread-id
/// order. Worst-case latency is the *sum* of per-peer roundtrips, and every
/// registered thread is visited — even detached ones (resolved by an epoch
/// CAS against their permanently-blocked status word).
///
/// Kept benchable as the baseline the `contention` bench's `fanout_seq` rows
/// measure; engine hot paths use [`coordinate_many`].
pub fn coordinate_all_seq(
    rt: &Runtime,
    me: ThreadId,
    obj: Option<drink_runtime::ObjId>,
    respond_self: &mut impl FnMut(),
    sources: &mut Vec<(ThreadId, u64)>,
) -> CoordMode {
    let n = rt.registered_threads();
    let t0 = Instant::now();
    let mut any_explicit = false;
    let mut any_implicit = false;
    let before = sources.len();
    for i in 0..n {
        let remote = ThreadId(i as u16);
        if remote == me {
            continue;
        }
        let out = coordinate_one(rt, me, remote, obj, respond_self);
        sources.push((remote, out.source_clock));
        match out.mode {
            CoordMode::Explicit => any_explicit = true,
            CoordMode::Implicit => any_implicit = true,
            CoordMode::Mixed => unreachable!("coordinate_one never returns Mixed"),
        }
    }
    rt.stats().record_latency(LatencyKind::FanoutComplete, t0.elapsed().as_nanos() as u64);
    rt.trace(me, TraceKind::FanoutComplete, (sources.len() - before) as u64);
    combine_modes(any_explicit, any_implicit)
}

/// Mode aggregation shared by the sequential and fan-out all-peer protocols:
/// `Explicit` iff every resolved peer was explicit, `Implicit` if every peer
/// was implicit *or there were no peers* (vacuous), `Mixed` otherwise.
fn combine_modes(any_explicit: bool, any_implicit: bool) -> CoordMode {
    match (any_explicit, any_implicit) {
        (true, false) => CoordMode::Explicit,
        (false, _) => CoordMode::Implicit,
        (true, true) => CoordMode::Mixed,
    }
}

/// One peer of an in-flight [`coordinate_many`] fan-out: scratch state the
/// caller provides (and reuses across conflicts) so a fan-out allocates
/// nothing beyond the explicit-request inbox nodes themselves.
#[derive(Debug)]
pub struct PendingPeer {
    remote: ThreadId,
    token: Option<std::sync::Arc<ResponseToken>>,
}

/// Coordinate with every live registered thread except `me` — the
/// conservative protocol for RdSh conflicts ("T conservatively coordinates
/// with every other thread", §2.2 footnote 4) — with the per-peer roundtrips
/// overlapped instead of serialized:
///
/// 1. **snapshot + implicit sweep**: detached peers are resolved from their
///    (final) release clocks without touching their status words; blocked
///    peers are resolved by the implicit epoch CAS;
/// 2. **fan-out enqueue**: an explicit request is enqueued to every
///    still-running peer *at once*;
/// 3. **single poll loop**: all outstanding tokens are polled together, with
///    the per-peer implicit fallback when a peer blocks mid-wait, and
///    `respond_self` invoked every iteration so the requester still acts as
///    a safe point (deadlock freedom, Figure 1 line 18).
///
/// Latency is therefore the *max* of the per-peer response times, not their
/// sum. A peer that blocks (or detaches) after its request was enqueued is
/// resolved implicitly and its stale token answered harmlessly on the peer's
/// wake/detach path — the same lost-wakeup closure [`coordinate_one`]
/// documents, re-checked for every peer on every loop iteration.
///
/// Appends `(thread, clock)` pairs to `sources`; `pending` is caller-owned
/// scratch (cleared here). Returns the combined mode under the same
/// aggregation as [`coordinate_all_seq`] (detached peers count as implicit).
///
/// ## Epoch skip (DESIGN.md §14)
///
/// When the runtime is sharded (`thread_shards() > 1`) and the fan-out names
/// an object, the snapshot pass consults the heap's per-shard access-epoch
/// table and **skips entire shards** whose epoch proves no thread of the
/// shard ever accessed the object: zero roundtrip, zero enqueue. Skipped
/// peers are *vacuous* — they contribute neither a source nor a mode flag,
/// exactly like the no-peers case, so the `Mode` aggregation semantics are
/// unchanged (all peers skipped ⇒ `Implicit`). A peer whose first access
/// races the snapshot either stamps before our epoch load (we visit it) or
/// stamps after (its access is ordered after this coordination — the same
/// already-tolerated window as a thread registering mid-fan-out). Unsharded
/// runtimes and `obj == None` fan-outs visit every peer, byte-for-byte as
/// before.
pub fn coordinate_many(
    rt: &Runtime,
    me: ThreadId,
    obj: Option<drink_runtime::ObjId>,
    respond_self: &mut impl FnMut(),
    sources: &mut Vec<(ThreadId, u64)>,
    pending: &mut Vec<PendingPeer>,
) -> CoordMode {
    match coordinate_many_deadline(rt, me, obj, respond_self, sources, pending, None) {
        Some(mode) => mode,
        None => unreachable!("undeadlined fan-out cannot expire"),
    }
}

/// [`coordinate_many`] with an optional recoverable deadline covering the
/// *whole* fan-out. Returns `None` if the deadline elapsed with peers still
/// outstanding; `sources` may then hold partial resolutions, and the caller
/// must discard them (engines use cleared scratch, so abandoning the vec is
/// enough). The caller's abort path restores the state word. Outstanding
/// stale tokens are answered by their peers' next safe point, as ever.
pub fn coordinate_many_deadline(
    rt: &Runtime,
    me: ThreadId,
    obj: Option<drink_runtime::ObjId>,
    respond_self: &mut impl FnMut(),
    sources: &mut Vec<(ThreadId, u64)>,
    pending: &mut Vec<PendingPeer>,
    deadline: Option<Duration>,
) -> Option<CoordMode> {
    let n = rt.registered_threads();
    let t0 = Instant::now();
    let mut any_explicit = false;
    let mut any_implicit = false;
    let before = sources.len();
    pending.clear();

    // Epoch skip setup: only a sharded runtime with a named object can skip
    // (obj == None callers are the conservative visit-everyone paths).
    let heap = rt.heap();
    let map = heap.thread_shard_map();
    let skip_obj = if heap.thread_shards() > 1 { obj } else { None };

    // Phase 1: snapshot the live peers, resolving what needs no roundtrip.
    for i in 0..n {
        let remote = ThreadId(i as u16);
        if remote == me {
            continue;
        }
        if let Some(o) = skip_obj {
            if !heap.shard_stamped(o, map.shard_of(i)) {
                // No thread of this shard ever accessed `o` (the stamp is
                // SeqCst-ordered before any such access's effect), so the
                // peer can hold no privilege on it: resolved vacuously, no
                // roundtrip, no enqueue, no source.
                continue;
            }
        }
        let ctl = rt.control(remote);
        if ctl.is_detached() {
            // Permanently blocked: detach flushed, bumped the clock, then
            // set the flag (SeqCst), so this read dominates the peer's last
            // access. No epoch CAS — nobody is left to observe it.
            sources.push((remote, ctl.release_clock()));
            any_implicit = true;
            continue;
        }
        match ctl.status() {
            ThreadStatus::Blocked { epoch } if ctl.try_implicit(epoch) => {
                sources.push((remote, ctl.release_clock()));
                any_implicit = true;
            }
            // Running, or a blocked/running race: handled by the poll loop.
            _ => pending.push(PendingPeer {
                remote,
                token: None,
            }),
        }
    }

    if !pending.is_empty() {
        // Phase 2 happens inside the first `advance` pass over `pending`:
        // every still-running peer gets its request enqueued before any
        // backoff, so all responders work concurrently.
        rt.trace(me, TraceKind::FanoutEnqueue, pending.len() as u64);
        rt.sched_point(me, SchedPoint::CoordFanoutEnqueue);
        let mut wait = CoordWait::new(rt, me, "fan-out coordination responses", deadline);
        loop {
            // Phase 3: one combined poll pass over all outstanding peers.
            let outstanding = pending.len();
            pending.retain_mut(|p| {
                match advance_peer(rt, me, obj, p) {
                    Some((clock, CoordMode::Explicit)) => {
                        rt.trace(me, TraceKind::FanoutPeerDone, p.remote.raw() as u64);
                        sources.push((p.remote, clock));
                        any_explicit = true;
                        false
                    }
                    Some((clock, _)) => {
                        rt.trace(me, TraceKind::FanoutPeerDone, p.remote.raw() as u64);
                        sources.push((p.remote, clock));
                        any_implicit = true;
                        false
                    }
                    None => true,
                }
            });
            if pending.is_empty() {
                break;
            }
            if pending.len() < outstanding {
                // A peer resolved this pass: the fan-out is moving, so
                // de-escalate the ladder back to spinning.
                wait.progressed();
            }
            rt.sched_point(me, SchedPoint::CoordFanoutPoll);
            // Act as a safe point while waiting (deadlock freedom).
            respond_self();
            if wait.step() == SpinOutcome::Expired {
                rt.trace(me, TraceKind::CoordDeadline, pending.len() as u64);
                return None;
            }
        }
    }
    rt.stats().record_latency(LatencyKind::FanoutComplete, t0.elapsed().as_nanos() as u64);
    rt.trace(me, TraceKind::FanoutComplete, (sources.len() - before) as u64);
    Some(combine_modes(any_explicit, any_implicit))
}

/// One peer's step of the fan-out state machine — the body of
/// [`coordinate_one`]'s loop, minus the spin. Returns the resolution, or
/// `None` if the peer is still outstanding.
fn advance_peer(
    rt: &Runtime,
    me: ThreadId,
    obj: Option<drink_runtime::ObjId>,
    p: &mut PendingPeer,
) -> Option<(u64, CoordMode)> {
    if let Some(tok) = &p.token {
        if tok.is_done() {
            return Some((tok.responder_clock(), CoordMode::Explicit));
        }
    }
    let ctl = rt.control(p.remote);
    match ctl.status() {
        ThreadStatus::Blocked { epoch } => {
            if ctl.try_implicit(epoch) {
                // Peer blocked mid-wait: fall back to implicit. Any enqueued
                // token goes stale and is answered on the peer's wake.
                return Some((ctl.release_clock(), CoordMode::Implicit));
            }
            None // epoch raced; re-examine next iteration
        }
        ThreadStatus::Running { .. } => {
            if p.token.is_none() {
                // Waker-carrying, like coordinate_one's: completions unpark
                // a requester that escalated to parking.
                let token = ResponseToken::with_waker(rt.control(me).waker().clone());
                ctl.enqueue_request(CoordRequest {
                    from: me,
                    obj,
                    token: token.clone(),
                });
                rt.trace(me, TraceKind::CoordRequest, p.remote.raw() as u64);
                rt.sched_point(me, SchedPoint::CoordRequest);
                p.token = Some(token);
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_runtime::RuntimeConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn implicit_against_blocked_thread() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let remote = rt.register_thread();
        // Simulate the remote thread's pre-block sequence: bump clock, block.
        rt.control(remote).bump_release_clock();
        rt.control(remote).publish_blocked();

        let mut responded = 0u32;
        let out = coordinate_one(&rt, me, remote, None, &mut || responded += 1);
        assert_eq!(out.mode, CoordMode::Implicit);
        assert_eq!(out.source_clock, 1);
        assert_eq!(responded, 0, "implicit coordination completes immediately");
    }

    #[test]
    fn explicit_roundtrip_through_safe_point() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let remote = rt.register_thread();
        let stop = AtomicBool::new(false);

        std::thread::scope(|s| {
            // The "remote" mutator: polls its request queue like a safe point.
            let rtr = &rt;
            let stop_r = &stop;
            s.spawn(move || {
                let ctl = rtr.control(remote);
                let mut spin = rtr.spinner("requests in test");
                while !stop_r.load(Ordering::Relaxed) {
                    for req in ctl.take_requests() {
                        let clock = ctl.bump_release_clock();
                        req.token.complete(clock);
                        assert_eq!(req.from, me);
                    }
                    spin.spin();
                }
            });

            let out = coordinate_one(&rt, me, remote, None, &mut || {});
            assert_eq!(out.mode, CoordMode::Explicit);
            assert_eq!(out.source_clock, 1);
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn requester_falls_back_to_implicit_when_remote_blocks() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let remote = rt.register_thread();

        std::thread::scope(|s| {
            // Remote: never polls; blocks shortly after the requester starts.
            let rtr = &rt;
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                rtr.control(remote).bump_release_clock();
                rtr.control(remote).publish_blocked();
                // Answer stale requests like Monitor::acquire's publish path.
                for req in rtr.control(remote).take_requests() {
                    req.token.complete(rtr.control(remote).release_clock());
                }
            });

            let out = coordinate_one(&rt, me, remote, None, &mut || {});
            // Either path is legal depending on the race; both carry clock 1.
            assert_eq!(out.source_clock, 1);
        });
    }

    #[test]
    fn mutual_coordination_does_not_deadlock() {
        let rt = Runtime::new(RuntimeConfig::default());
        let a = rt.register_thread();
        let b = rt.register_thread();
        let done = std::sync::atomic::AtomicUsize::new(0);

        // Each thread coordinates with the other while itself acting as a
        // safe point, then — like a detaching mutator — publishes BLOCKED and
        // answers raced requests so the peer can always finish.
        let run = |me: ThreadId, other: ThreadId| {
            let ctl = rt.control(me);
            let out = coordinate_one(&rt, me, other, None, &mut || {
                for req in ctl.take_requests() {
                    req.token.complete(ctl.bump_release_clock());
                }
            });
            ctl.publish_blocked();
            for req in ctl.take_requests() {
                req.token.complete(ctl.bump_release_clock());
            }
            done.fetch_add(1, Ordering::Relaxed);
            out
        };

        std::thread::scope(|s| {
            let h1 = s.spawn(|| run(a, b));
            let h2 = s.spawn(|| run(b, a));
            let o1 = h1.join().unwrap();
            let o2 = h2.join().unwrap();
            // Depending on the interleaving either roundtrip may have been
            // answered explicitly or resolved implicitly post-block; the
            // property under test is completion, not the mode.
            assert!(matches!(o1.mode, CoordMode::Explicit | CoordMode::Implicit));
            assert!(matches!(o2.mode, CoordMode::Explicit | CoordMode::Implicit));
        });
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    /// Run an all-peer coordination with one blocked and one responding
    /// peer, through either implementation, and assert the Mixed outcome.
    fn all_peers_mixed(fanout: bool) {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let r1 = rt.register_thread();
        let r2 = rt.register_thread();
        // r1 blocked, r2 answered by a polling helper → Mixed.
        rt.control(r1).publish_blocked();

        let stop_flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            let rtr = &rt;
            let stop = &stop_flag;
            s.spawn(move || {
                let ctl = rtr.control(r2);
                let mut spin = rtr.spinner("requests in test");
                while !stop.load(Ordering::Relaxed) {
                    for req in ctl.take_requests() {
                        req.token.complete(ctl.bump_release_clock());
                    }
                    spin.spin();
                }
            });
            let mut sources = Vec::new();
            let mode = if fanout {
                let mut pending = Vec::new();
                coordinate_many(&rt, me, None, &mut || {}, &mut sources, &mut pending)
            } else {
                coordinate_all_seq(&rt, me, None, &mut || {}, &mut sources)
            };
            stop.store(true, Ordering::Relaxed);
            assert_eq!(mode, CoordMode::Mixed);
            assert_eq!(sources.len(), 2);
            assert!(sources.iter().any(|&(t, _)| t == r1));
            assert!(sources.iter().any(|&(t, _)| t == r2));
        });
    }

    #[test]
    fn coordinate_all_seq_aggregates_modes() {
        all_peers_mixed(false);
    }

    #[test]
    fn coordinate_many_aggregates_modes() {
        all_peers_mixed(true);
    }

    #[test]
    fn all_peer_protocols_with_no_peers_are_vacuous() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let mut sources = Vec::new();
        let mode = coordinate_all_seq(&rt, me, None, &mut || {}, &mut sources);
        assert_eq!(mode, CoordMode::Implicit);
        assert!(sources.is_empty());
        let mut pending = Vec::new();
        let mode = coordinate_many(&rt, me, None, &mut || {}, &mut sources, &mut pending);
        assert_eq!(mode, CoordMode::Implicit);
        assert!(sources.is_empty());
    }

    #[test]
    fn coordinate_many_skips_detached_peer_without_epoch_cas() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let gone = rt.register_thread();
        // Simulate a full detach: final flush (clock bump), block, flag.
        rt.control(gone).bump_release_clock();
        let epoch = rt.control(gone).publish_blocked();
        rt.control(gone).mark_detached();

        let mut sources = Vec::new();
        let mut pending = Vec::new();
        let mode = coordinate_many(&rt, me, None, &mut || {}, &mut sources, &mut pending);
        assert_eq!(mode, CoordMode::Implicit);
        assert_eq!(sources, vec![(gone, 1)], "final clock cited as the source");
        // The snapshot dropped the peer without an epoch CAS: a detached
        // thread never wakes to observe one, so bumping it is pure traffic.
        assert_eq!(
            rt.control(gone).status(),
            ThreadStatus::Blocked { epoch },
            "detached peer's epoch must not be bumped"
        );
    }

    /// The stale-token case: a fan-out enqueues an explicit request to a
    /// running peer, the peer blocks without answering, the requester falls
    /// back to implicit — and the abandoned token must still be answered by
    /// the peer's wake-side drain, leaving no stranded request behind.
    #[test]
    fn coordinate_many_stale_token_is_answered_on_wake() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let remote = rt.register_thread();
        let enqueued = AtomicBool::new(false);

        std::thread::scope(|s| {
            let rtr = &rt;
            let flag = &enqueued;
            s.spawn(move || {
                let ctl = rtr.control(remote);
                // Wait until the fan-out has enqueued its request, then block
                // without answering it (the losing side of the race).
                let mut spin = rtr.spinner("request to go stale");
                while !ctl.has_pending_requests() {
                    spin.spin();
                }
                flag.store(true, Ordering::Relaxed);
                ctl.bump_release_clock();
                ctl.publish_blocked();
            });

            let mut sources = Vec::new();
            let mut pending = Vec::new();
            let mode = coordinate_many(&rt, me, None, &mut || {}, &mut sources, &mut pending);
            assert!(enqueued.load(Ordering::Relaxed), "request did go stale");
            assert_eq!(mode, CoordMode::Implicit, "resolved by the fallback");
            assert_eq!(sources, vec![(remote, 1)]);
        });

        // The peer wakes: its drain must answer the stale token.
        let ctl = rt.control(remote);
        let stale = ctl.take_requests();
        assert_eq!(stale.len(), 1, "stale token still queued for the wake-up");
        let clock = ctl.bump_release_clock();
        for req in stale {
            req.token.complete(clock);
        }
        assert!(!ctl.has_stranded_requests(), "inbox clean after the wake");
    }

    /// A peer that stays RUNNING but never polls its request queue: the
    /// deadline must fire, the call must return `None` (no panic, no hang),
    /// and the stale token must be answerable afterwards.
    #[test]
    fn deadline_expires_against_stalled_peer() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let stalled = rt.register_thread();

        let t0 = Instant::now();
        let out = coordinate_one_deadline(
            &rt,
            me,
            stalled,
            None,
            &mut || {},
            Some(Duration::from_millis(30)),
        );
        assert_eq!(out, None, "stalled peer must trip the deadline");
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(30), "deadline honored: {waited:?}");
        assert!(waited < Duration::from_secs(5), "expiry is prompt, not a watchdog: {waited:?}");

        // The abandoned request is still answerable at the peer's next safe
        // point — nothing is stranded by the bail-out.
        let ctl = rt.control(stalled);
        let stale = ctl.take_requests();
        assert_eq!(stale.len(), 1);
        for req in stale {
            req.token.complete(ctl.bump_release_clock());
        }
        assert!(!ctl.has_stranded_requests());
    }

    /// Fan-out variant: one responsive peer, one stalled. The deadline fires
    /// with partial progress; the caller treats `sources` as garbage.
    #[test]
    fn fanout_deadline_expires_with_partial_progress() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let good = rt.register_thread();
        let _stalled = rt.register_thread();

        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let rtr = &rt;
            let stop_r = &stop;
            s.spawn(move || {
                let ctl = rtr.control(good);
                let mut spin = rtr.spinner("requests in test");
                while !stop_r.load(Ordering::Relaxed) {
                    for req in ctl.take_requests() {
                        req.token.complete(ctl.bump_release_clock());
                    }
                    spin.spin();
                }
            });

            let mut sources = Vec::new();
            let mut pending = Vec::new();
            let mode = coordinate_many_deadline(
                &rt,
                me,
                None,
                &mut || {},
                &mut sources,
                &mut pending,
                Some(Duration::from_millis(30)),
            );
            stop.store(true, Ordering::Relaxed);
            assert_eq!(mode, None, "one stalled peer must trip the fan-out deadline");
            assert!(sources.len() <= 1, "at most the responsive peer resolved");
        });
    }

    /// Liveness through the park phase: the responder answers only after the
    /// requester has long since escalated from spinning to parking, and the
    /// roundtrip must still complete (token notify → unpark).
    #[test]
    fn parked_requester_completes_roundtrip() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let remote = rt.register_thread();

        std::thread::scope(|s| {
            let rtr = &rt;
            s.spawn(move || {
                let ctl = rtr.control(remote);
                // Let the requester climb the whole ladder before answering.
                std::thread::sleep(Duration::from_millis(40));
                let mut spin = rtr.spinner("request in test");
                loop {
                    let reqs = ctl.take_requests();
                    if !reqs.is_empty() {
                        let clock = ctl.bump_release_clock();
                        for req in reqs {
                            req.token.complete(clock);
                        }
                        break;
                    }
                    spin.spin();
                }
            });

            let out = coordinate_one(&rt, me, remote, None, &mut || {});
            assert_eq!(out.mode, CoordMode::Explicit);
            assert_eq!(out.source_clock, 1);
        });
    }

    /// Safe-point duty survives parking: a requester stuck waiting on a
    /// stalled peer (deadline-bounded, deep in the park phase) must still
    /// answer coordination requests sent *to it*, because its waker is
    /// notified by `enqueue_request`.
    #[test]
    fn parked_requester_still_answers_requests() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let _stalled = rt.register_thread();
        let third = rt.register_thread();

        std::thread::scope(|s| {
            let rtr = &rt;
            let answered = s.spawn(move || {
                // Give the requester time to reach the park phase, then ask
                // it for a roundtrip; it must answer well before its own
                // 300ms deadline expires.
                std::thread::sleep(Duration::from_millis(60));
                let t0 = Instant::now();
                let out = coordinate_one(rtr, third, me, None, &mut || {});
                (out.mode, t0.elapsed())
            });

            let ctl = rt.control(me);
            let out = coordinate_one_deadline(
                &rt,
                me,
                ThreadId(1),
                None,
                &mut || {
                    for req in ctl.take_requests() {
                        req.token.complete(ctl.bump_release_clock());
                    }
                },
                Some(Duration::from_millis(300)),
            );
            assert_eq!(out, None, "the stalled peer still trips our deadline");

            let (mode, latency) = answered.join().unwrap();
            assert_eq!(mode, CoordMode::Explicit);
            assert!(
                latency < Duration::from_millis(200),
                "parked requester answered within a few park intervals: {latency:?}"
            );
        });
    }

    /// Epoch skip: in a per-thread-sharded runtime, a fan-out naming an
    /// object visits only the peers whose shards are stamped for it; the
    /// skipped peers are vacuous (no source, no mode contribution), and an
    /// all-skipped fan-out aggregates to Implicit exactly like no-peers.
    #[test]
    fn fanout_skips_unstamped_shards() {
        let rt = Runtime::new(RuntimeConfig::builder().max_threads(16).shards(16).build());
        let me = rt.register_thread();
        let stamped = rt.register_thread();
        let cold = rt.register_thread();
        assert_eq!(rt.heap().thread_shards(), 16, "per-thread shard granularity");
        let o = drink_runtime::ObjId(3);
        // Only `stamped`'s shard has ever touched `o`. `cold` never did; it
        // also never polls, so visiting it would hang or trip a deadline.
        rt.stamp_access(stamped, o);
        // `stamped` is blocked, so the one visited peer resolves implicitly.
        rt.control(stamped).bump_release_clock();
        rt.control(stamped).publish_blocked();
        let _ = cold;

        let mut sources = Vec::new();
        let mut pending = Vec::new();
        let mode = coordinate_many(&rt, me, Some(o), &mut || {}, &mut sources, &mut pending);
        assert_eq!(mode, CoordMode::Implicit);
        assert_eq!(sources, vec![(stamped, 1)], "only the stamped shard visited");
        assert!(
            !rt.control(cold).has_pending_requests(),
            "skipped peer must see zero explicit requests"
        );

        // A fan-out on a *different*, wholly-unstamped object skips everyone:
        // vacuous, Implicit, and it completes instantly despite `cold`.
        let o2 = drink_runtime::ObjId(7);
        sources.clear();
        let mode = coordinate_many(&rt, me, Some(o2), &mut || {}, &mut sources, &mut pending);
        assert_eq!(mode, CoordMode::Implicit, "all-skipped aggregates like no-peers");
        assert!(sources.is_empty());

        // obj = None keeps the conservative visit-everyone behavior: `cold`
        // would now be visited, so its inbox must receive a request.
        sources.clear();
        let _ = coordinate_many_deadline(
            &rt,
            me,
            None,
            &mut || {},
            &mut sources,
            &mut pending,
            Some(Duration::from_millis(20)),
        );
        assert!(
            rt.control(cold).has_pending_requests(),
            "obj=None fan-out still visits unstamped shards"
        );
        for req in rt.control(cold).take_requests() {
            req.token.complete(rt.control(cold).bump_release_clock());
        }
    }

    /// Satellite: thread registration racing a fan-out snapshot. The
    /// `Release` registration bump paired with the snapshot's `Acquire`
    /// `registered_threads()` load means a fan-out sees either the pre- or
    /// post-registration count, and any thread it does see has a fully
    /// initialized control block. Late registrants simply aren't coordinated
    /// with this round — their first access is ordered after the snapshot.
    #[test]
    fn fanout_snapshot_races_registration() {
        for _ in 0..50 {
            let rt = Runtime::new(RuntimeConfig::builder().max_threads(8).build());
            let me = rt.register_thread();
            let done = AtomicBool::new(false);

            std::thread::scope(|s| {
                let rtr = &rt;
                let done_r = &done;
                // Registrants: each registers mid-fan-out, acts as a safe
                // point until the requester finishes, then blocks.
                let mut joiners = Vec::new();
                for _ in 0..4 {
                    joiners.push(s.spawn(move || {
                        let t = rtr.register_thread();
                        let ctl = rtr.control(t);
                        let mut spin = rtr.spinner("registration race test");
                        while !done_r.load(Ordering::Relaxed) {
                            for req in ctl.take_requests() {
                                req.token.complete(ctl.bump_release_clock());
                            }
                            spin.spin();
                        }
                    }));
                }

                // Requester: repeated fan-outs while peers register.
                let ctl = rt.control(me);
                let mut sources = Vec::new();
                let mut pending = Vec::new();
                for _ in 0..20 {
                    sources.clear();
                    let seen = rt.registered_threads();
                    let mode = coordinate_many(
                        &rt,
                        me,
                        None,
                        &mut || {
                            for req in ctl.take_requests() {
                                req.token.complete(ctl.bump_release_clock());
                            }
                        },
                        &mut sources,
                        &mut pending,
                    );
                    // Every source is a distinct, registered, non-self peer.
                    assert!(matches!(
                        mode,
                        CoordMode::Explicit | CoordMode::Implicit | CoordMode::Mixed
                    ));
                    assert!(sources.len() >= seen - 1, "at least the pre-snapshot peers");
                    assert!(sources.len() <= rt.registered_threads() - 1);
                    let mut tids: Vec<_> = sources.iter().map(|&(t, _)| t).collect();
                    tids.sort();
                    tids.dedup();
                    assert_eq!(tids.len(), sources.len(), "no peer resolved twice");
                    assert!(!tids.contains(&me));
                }
                done.store(true, Ordering::Relaxed);
                for j in joiners {
                    j.join().unwrap();
                }
            });
        }
    }

    #[test]
    fn mutual_fanout_does_not_deadlock() {
        let rt = Runtime::new(RuntimeConfig::default());
        let ids: Vec<ThreadId> = (0..3).map(|_| rt.register_thread()).collect();
        let done = std::sync::atomic::AtomicUsize::new(0);

        // Three threads all fan out to each other simultaneously, each
        // acting as a safe point while it waits, then detach-style block and
        // answer raced requests.
        let run = |me: ThreadId| {
            let ctl = rt.control(me);
            let mut sources = Vec::new();
            let mut pending = Vec::new();
            let mode = coordinate_many(
                &rt,
                me,
                None,
                &mut || {
                    for req in ctl.take_requests() {
                        req.token.complete(ctl.bump_release_clock());
                    }
                },
                &mut sources,
                &mut pending,
            );
            ctl.publish_blocked();
            for req in ctl.take_requests() {
                req.token.complete(ctl.bump_release_clock());
            }
            done.fetch_add(1, Ordering::Relaxed);
            (mode, sources)
        };

        std::thread::scope(|s| {
            let run = &run;
            let handles: Vec<_> = ids.iter().map(|&t| s.spawn(move || run(t))).collect();
            for h in handles {
                let (_, sources) = h.join().unwrap();
                assert_eq!(sources.len(), 2, "every peer resolved exactly once");
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }
}
