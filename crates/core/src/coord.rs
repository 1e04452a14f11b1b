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
//! Requesters wait through a coordination [`drink_runtime::Wait`]: spin
//! hints → yields → bounded parks on the requester's
//! [`drink_runtime::Waker`] once contention is evidently not transient. Both
//! the response-token completion and a peer enqueueing a request *to us*
//! notify that waker, so a parked requester keeps acting as a safe point
//! with at most one park-interval of latency.
//!
//! The wait is bounded two ways:
//!
//! * with a **recoverable deadline** (the runtime's `coord_deadline` knob)
//!   [`coordinate`] returns `None` on expiry and the engine falls back to the
//!   pessimistic protocol for that object — a *policy* decision, not a
//!   failure;
//! * without one it keeps the **hard-panic watchdog**: a coordination that
//!   never completes with no deadline configured is a protocol bug, and
//!   hiding it would be worse than crashing.

use std::sync::Arc;
use std::time::Instant;

use drink_runtime::{
    CoordRequest, Event, LatencyKind, ObjId, ResponseToken, Runtime, SchedPoint, ThreadId,
    ThreadStatus,
};

use crate::support::PrevHolders;

/// How a conflicting transition's coordination was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordMode {
    /// Roundtrip request/response through the remote thread's safe point.
    Explicit,
    /// Epoch CAS against a blocked remote thread.
    Implicit,
    /// Mixed (RdSh conflicts coordinate with every thread; some responded
    /// explicitly, some were blocked).
    Mixed,
}

/// One outstanding peer of an in-flight [`coordinate`] call: scratch state
/// the caller provides (and reuses across conflicts) so a coordination
/// allocates nothing beyond the explicit-request inbox nodes themselves.
#[derive(Debug)]
pub struct PendingPeer {
    remote: ThreadId,
    token: Option<Arc<ResponseToken>>,
}

/// Coordinate, on behalf of `me`, with the threads `whom` names: the one
/// owner an exclusive state word names, or — the conservative protocol for
/// RdSh conflicts ("T conservatively coordinates with every other thread",
/// §2.2 footnote 4) — every live registered thread except `me`. One owner is
/// a fan-out of width one; either way the per-peer roundtrips overlap:
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
/// wake/detach path — the lost-wakeup closure of the module docs, re-checked
/// for every peer on every loop iteration.
///
/// Appends one `(thread, clock)` pair per resolved peer to `sources` — the
/// peer's release clock dominating its last access: the responder's
/// post-bump clock for an explicit resolution, the clock read after the
/// epoch CAS for an implicit one (the peer bumped it when it flushed before
/// blocking). `pending` is caller-owned scratch (cleared here). Returns the
/// combined mode (detached peers count as implicit).
///
/// ## Deadline
///
/// Without a [`Runtime::coord_deadline`] a wait that never completes panics
/// through the watchdog — always a protocol bug. With one, covering the
/// *whole* call, `None` is returned if it elapsed with peers still
/// outstanding: `sources` may then hold partial resolutions, which the
/// caller must discard (engines use cleared scratch, so abandoning the vec is
/// enough), and the caller falls back to the pessimistic protocol for this
/// object (DESIGN.md §13). Outstanding tokens simply go stale — each peer
/// answers its own at its next safe point or wake, and nobody reads them.
///
/// ## What each peer set reports
///
/// Every enqueued request is traced as [`Event::CoordRequestSent`].
/// [`PrevHolders::One`] records [`LatencyKind::CoordRoundtrip`] when its
/// peer answers explicitly and traces [`Event::CoordPeerImplicit`] when it
/// is resolved implicitly. [`PrevHolders::AllOthers`] traces
/// [`Event::CoordFanoutPeerDone`] for each peer its poll loop resolves, and
/// brackets the call with the `CoordFanout*` sched points and
/// [`LatencyKind::FanoutComplete`]. What is counted — the resolved call, the
/// fan-out, the expired deadline — the caller counts and traces, since the
/// counters are per thread.
///
/// `AllOthers` visits every peer registered when the snapshot is taken. A
/// thread that registers mid-fan-out is not visited: its first access is
/// ordered after this coordination (DESIGN.md §3). `obj` only labels the
/// enqueued requests for the responder's support.
pub fn coordinate(
    rt: &Runtime,
    me: ThreadId,
    whom: PrevHolders,
    obj: Option<ObjId>,
    respond_self: &mut impl FnMut(),
    sources: &mut Vec<(ThreadId, u64)>,
    pending: &mut Vec<PendingPeer>,
) -> Option<CoordMode> {
    let t0 = Instant::now();
    let mut any_explicit = false;
    let mut any_implicit = false;
    pending.clear();

    let (peers, fanout) = match whom {
        PrevHolders::One(remote) => {
            debug_assert_ne!(me, remote, "a thread never coordinates with itself");
            let i = remote.raw() as usize;
            (i..i + 1, false)
        }
        PrevHolders::AllOthers => (0..rt.registered_threads(), true),
    };

    // Phase 1: snapshot the live peers, resolving what needs no roundtrip.
    for i in peers {
        let remote = ThreadId(i as u16);
        if remote == me {
            continue;
        }
        let ctl = rt.control(remote);
        // Detached is permanently blocked: detach flushed, bumped the clock,
        // then set the flag (SeqCst), so the clock read below dominates the
        // peer's last access. No epoch CAS — nobody is left to observe it.
        let resolved = ctl.is_detached()
            || matches!(ctl.status(), ThreadStatus::Blocked { epoch } if ctl.try_implicit(epoch));
        if resolved {
            if !fanout {
                rt.trace(me, Event::CoordPeerImplicit, remote.raw() as u64);
            }
            sources.push((remote, ctl.release_clock()));
            any_implicit = true;
        } else {
            // Running, or a blocked/running race: handled by the poll loop.
            pending.push(PendingPeer { remote, token: None });
        }
    }

    if !pending.is_empty() {
        // Phase 2 happens inside the first `advance_peer` pass over
        // `pending`: every still-running peer gets its request enqueued
        // before any backoff, so all responders work concurrently.
        if fanout {
            rt.sched_point(me, SchedPoint::CoordFanoutEnqueue);
        }
        let mut wait = rt.wait(me, "coordination responses").coordination();
        loop {
            // Phase 3: one combined poll pass over all outstanding peers.
            let outstanding = pending.len();
            pending.retain_mut(|p| {
                let Some((clock, mode)) = advance_peer(rt, me, obj, p) else {
                    return true;
                };
                if fanout {
                    rt.trace(me, Event::CoordFanoutPeerDone, p.remote.raw() as u64);
                } else if mode == CoordMode::Explicit {
                    rt.stats().record_latency(
                        me,
                        LatencyKind::CoordRoundtrip,
                        t0.elapsed().as_nanos() as u64,
                    );
                } else {
                    rt.trace(me, Event::CoordPeerImplicit, p.remote.raw() as u64);
                }
                sources.push((p.remote, clock));
                if mode == CoordMode::Explicit {
                    any_explicit = true;
                } else {
                    any_implicit = true;
                }
                false
            });
            if pending.is_empty() {
                break;
            }
            if pending.len() < outstanding {
                // A peer resolved this pass: the fan-out is moving, so
                // de-escalate the ladder back to spinning.
                wait.progressed();
            }
            if fanout {
                rt.sched_point(me, SchedPoint::CoordFanoutPoll);
            }
            // Act as a safe point while waiting (deadlock freedom).
            respond_self();
            if wait.step().is_err() {
                return None;
            }
        }
    }
    if fanout {
        rt.stats().record_latency(me, LatencyKind::FanoutComplete, t0.elapsed().as_nanos() as u64);
    }
    // `Explicit` iff every resolved peer was explicit, `Implicit` if every
    // peer was implicit *or there were no peers* (vacuous), `Mixed` otherwise.
    Some(match (any_explicit, any_implicit) {
        (true, false) => CoordMode::Explicit,
        (false, _) => CoordMode::Implicit,
        (true, true) => CoordMode::Mixed,
    })
}

/// One outstanding peer's step of the poll loop. Returns the resolution, or
/// `None` if the peer is still outstanding.
fn advance_peer(
    rt: &Runtime,
    me: ThreadId,
    obj: Option<ObjId>,
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
                // The peer flushed and bumped its clock before it published
                // BLOCKED, so this read dominates its last access. Any
                // enqueued token goes stale and is answered on the peer's
                // wake; nobody reads it.
                return Some((ctl.release_clock(), CoordMode::Implicit));
            }
            None // epoch raced; re-examine next iteration
        }
        ThreadStatus::Running { .. } => {
            if p.token.is_none() {
                // The token carries our waker so the responder's `complete`
                // can unpark us if we escalated to parking.
                let token = ResponseToken::with_waker(rt.control(me).waker().clone());
                ctl.enqueue_request(CoordRequest {
                    from: me,
                    obj,
                    token: token.clone(),
                });
                rt.trace(me, Event::CoordRequestSent, p.remote.raw() as u64);
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
    use std::time::Duration;

    /// A default runtime whose coordination deadline is `ms` (0: none).
    fn deadlined(ms: u64) -> Runtime {
        Runtime::new(RuntimeConfig::builder().coord_deadline(Duration::from_millis(ms)).build())
    }

    /// [`coordinate`] with fresh scratch, expected to complete: the mode and
    /// the sources it resolved.
    fn coordinate_with(
        rt: &Runtime,
        me: ThreadId,
        whom: PrevHolders,
        obj: Option<ObjId>,
        respond_self: &mut impl FnMut(),
    ) -> (CoordMode, Vec<(ThreadId, u64)>) {
        let (mut sources, mut pending) = (Vec::new(), Vec::new());
        let mode = coordinate(rt, me, whom, obj, respond_self, &mut sources, &mut pending)
            .expect("the coordination completes");
        (mode, sources)
    }

    /// Answer `peer`'s coordination requests like a polling safe point until
    /// `stop` is set.
    fn respond_until(rt: &Runtime, peer: ThreadId, stop: &AtomicBool) {
        let ctl = rt.control(peer);
        let mut wait = rt.wait(peer, "requests in test");
        while !stop.load(Ordering::Relaxed) {
            for req in ctl.take_requests() {
                req.token.complete(ctl.bump_release_clock());
            }
            let _ = wait.step();
        }
    }

    #[test]
    fn implicit_against_blocked_thread() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let remote = rt.register_thread();
        // Simulate the remote thread's pre-block sequence: bump clock, block.
        rt.control(remote).bump_release_clock();
        rt.control(remote).publish_blocked();

        let mut responded = 0u32;
        let out =
            coordinate_with(&rt, me, PrevHolders::One(remote), None, &mut || responded += 1);
        assert_eq!(out, (CoordMode::Implicit, vec![(remote, 1)]));
        assert_eq!(responded, 0, "implicit coordination completes immediately");

        // The all-others fan-out against n − 1 blocked peers: every peer
        // resolved exactly once, by one epoch CAS each.
        for n in [8, 16, 32, 64] {
            let rt = Runtime::new(RuntimeConfig::builder().max_threads(n).build());
            let me = rt.register_thread();
            let peers: Vec<ThreadId> = (1..n).map(|_| rt.register_thread()).collect();
            let epochs: Vec<u64> = peers
                .iter()
                .map(|&t| {
                    rt.control(t).bump_release_clock();
                    rt.control(t).publish_blocked()
                })
                .collect();
            let (mode, mut sources) =
                coordinate_with(&rt, me, PrevHolders::AllOthers, None, &mut || responded += 1);
            assert_eq!(mode, CoordMode::Implicit, "t={n}");
            sources.sort();
            assert_eq!(sources, peers.iter().map(|&t| (t, 1)).collect::<Vec<_>>(), "t={n}");
            for (&t, &epoch) in peers.iter().zip(&epochs) {
                let epoch = epoch + 1;
                assert_eq!(rt.control(t).status(), ThreadStatus::Blocked { epoch }, "t={n}");
            }
        }
        assert_eq!(responded, 0);
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
                let mut wait = rtr.wait(remote, "requests in test");
                while !stop_r.load(Ordering::Relaxed) {
                    for req in ctl.take_requests() {
                        let clock = ctl.bump_release_clock();
                        req.token.complete(clock);
                        assert_eq!(req.from, me);
                    }
                    let _ = wait.step();
                }
            });

            let out = coordinate_with(&rt, me, PrevHolders::One(remote), None, &mut || {});
            assert_eq!(out, (CoordMode::Explicit, vec![(remote, 1)]));
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

            let (_, sources) =
                coordinate_with(&rt, me, PrevHolders::One(remote), None, &mut || {});
            // Either path is legal depending on the race; both carry clock 1.
            assert_eq!(sources, vec![(remote, 1)]);
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
            let (mode, _) = coordinate_with(&rt, me, PrevHolders::One(other), None, &mut || {
                for req in ctl.take_requests() {
                    req.token.complete(ctl.bump_release_clock());
                }
            });
            ctl.publish_blocked();
            for req in ctl.take_requests() {
                req.token.complete(ctl.bump_release_clock());
            }
            done.fetch_add(1, Ordering::Relaxed);
            mode
        };

        std::thread::scope(|s| {
            let h1 = s.spawn(|| run(a, b));
            let h2 = s.spawn(|| run(b, a));
            let o1 = h1.join().unwrap();
            let o2 = h2.join().unwrap();
            // Depending on the interleaving either roundtrip may have been
            // answered explicitly or resolved implicitly post-block; the
            // property under test is completion, not the mode.
            assert!(matches!(o1, CoordMode::Explicit | CoordMode::Implicit));
            assert!(matches!(o2, CoordMode::Explicit | CoordMode::Implicit));
        });
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    /// An all-others coordination with one blocked and one responding peer
    /// is `Mixed`, and cites both.
    #[test]
    fn fanout_aggregates_modes() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let r1 = rt.register_thread();
        let r2 = rt.register_thread();
        // r1 blocked, r2 answered by a polling helper → Mixed.
        rt.control(r1).publish_blocked();

        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| respond_until(&rt, r2, &stop));
            let (mode, sources) =
                coordinate_with(&rt, me, PrevHolders::AllOthers, None, &mut || {});
            stop.store(true, Ordering::Relaxed);
            assert_eq!(mode, CoordMode::Mixed);
            assert_eq!(sources.len(), 2);
            assert!(sources.iter().any(|&(t, _)| t == r1));
            assert!(sources.iter().any(|&(t, _)| t == r2));
        });
    }

    #[test]
    fn all_peer_protocols_with_no_peers_are_vacuous() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let out = coordinate_with(&rt, me, PrevHolders::AllOthers, None, &mut || {});
        assert_eq!(out, (CoordMode::Implicit, vec![]));
    }

    #[test]
    fn fanout_skips_detached_peer_without_epoch_cas() {
        let rt = Runtime::new(RuntimeConfig::default());
        let me = rt.register_thread();
        let gone = rt.register_thread();
        // Simulate a full detach: final flush (clock bump), block, flag.
        rt.control(gone).bump_release_clock();
        let epoch = rt.control(gone).publish_blocked();
        rt.control(gone).mark_detached();

        let (mode, sources) = coordinate_with(&rt, me, PrevHolders::AllOthers, None, &mut || {});
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
    fn fanout_stale_token_is_answered_on_wake() {
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
                let mut wait = rtr.wait(remote, "request to go stale");
                while !ctl.has_pending_requests() {
                    let _ = wait.step();
                }
                flag.store(true, Ordering::Relaxed);
                ctl.bump_release_clock();
                ctl.publish_blocked();
            });

            let (mode, sources) =
                coordinate_with(&rt, me, PrevHolders::AllOthers, None, &mut || {});
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
        let rt = deadlined(30);
        let me = rt.register_thread();
        let stalled = rt.register_thread();

        let t0 = Instant::now();
        let (mut sources, mut pending) = (Vec::new(), Vec::new());
        let out = coordinate(&rt, me, PrevHolders::One(stalled), None, &mut || {}, &mut sources, &mut pending);
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
        let rt = deadlined(30);
        let me = rt.register_thread();
        let good = rt.register_thread();
        let _stalled = rt.register_thread();

        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| respond_until(&rt, good, &stop));

            let mut sources = Vec::new();
            let mut pending = Vec::new();
            let mode = coordinate(&rt, me, PrevHolders::AllOthers, None, &mut || {}, &mut sources, &mut pending);
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
                let mut wait = rtr.wait(remote, "request in test");
                loop {
                    let reqs = ctl.take_requests();
                    if !reqs.is_empty() {
                        let clock = ctl.bump_release_clock();
                        for req in reqs {
                            req.token.complete(clock);
                        }
                        break;
                    }
                    let _ = wait.step();
                }
            });

            let out = coordinate_with(&rt, me, PrevHolders::One(remote), None, &mut || {});
            assert_eq!(out, (CoordMode::Explicit, vec![(remote, 1)]));
        });
    }

    /// Safe-point duty survives parking: a requester stuck waiting on a
    /// stalled peer (deadline-bounded, deep in the park phase) must still
    /// answer coordination requests sent *to it*, because its waker is
    /// notified by `enqueue_request`.
    #[test]
    fn parked_requester_still_answers_requests() {
        let rt = deadlined(300);
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
                let (mode, _) = coordinate_with(rtr, third, PrevHolders::One(me), None, &mut || {});
                (mode, t0.elapsed())
            });

            let ctl = rt.control(me);
            let out = coordinate(
                &rt,
                me,
                PrevHolders::One(ThreadId(1)),
                None,
                &mut || {
                    for req in ctl.take_requests() {
                        req.token.complete(ctl.bump_release_clock());
                    }
                },
                &mut Vec::new(),
                &mut Vec::new(),
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
                        let mut wait = rtr.wait(t, "registration race test");
                        while !done_r.load(Ordering::Relaxed) {
                            for req in ctl.take_requests() {
                                req.token.complete(ctl.bump_release_clock());
                            }
                            let _ = wait.step();
                        }
                    }));
                }

                // Requester: repeated fan-outs while peers register.
                let ctl = rt.control(me);
                for _ in 0..20 {
                    let seen = rt.registered_threads();
                    let (mode, sources) =
                        coordinate_with(&rt, me, PrevHolders::AllOthers, None, &mut || {
                            for req in ctl.take_requests() {
                                req.token.complete(ctl.bump_release_clock());
                            }
                        });
                    // Every source is a distinct, registered, non-self peer.
                    assert!(matches!(
                        mode,
                        CoordMode::Explicit | CoordMode::Implicit | CoordMode::Mixed
                    ));
                    assert!(sources.len() >= seen - 1, "at least the pre-snapshot peers");
                    assert!(sources.len() < rt.registered_threads());
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
            let out = coordinate_with(&rt, me, PrevHolders::AllOthers, None, &mut || {
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
            let run = &run;
            let handles: Vec<_> = ids.iter().map(|&t| s.spawn(move || run(t))).collect();
            for h in handles {
                let (_, sources) = h.join().unwrap();
                assert_eq!(sources.len(), 2, "every peer resolved exactly once");
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    /// With exactly one registered peer the two peer sets are the same
    /// protocol: `One(p)` and `AllOthers` resolve `p` the same way, to the
    /// same mode and the same `(p, clock)` source, whatever `p` is doing.
    #[test]
    fn one_peer_and_all_others_agree_on_a_single_peer() {
        type Outcome = Option<(CoordMode, Vec<(ThreadId, u64)>)>;
        let run = |whom: fn(ThreadId) -> PrevHolders| -> [Outcome; 4] {
            let call = |rt: &Runtime, me, peer| {
                let (mut sources, mut pending) = (Vec::new(), Vec::new());
                coordinate(rt, me, whom(peer), None, &mut || {}, &mut sources, &mut pending)
                    .map(|mode| (mode, sources))
            };
            let fresh = |deadline_ms| {
                let rt = deadlined(deadline_ms);
                let (me, peer) = (rt.register_thread(), rt.register_thread());
                (rt, me, peer)
            };

            // A running peer that polls: explicit.
            let (rt, me, peer) = fresh(0);
            let stop = AtomicBool::new(false);
            let running = std::thread::scope(|s| {
                s.spawn(|| respond_until(&rt, peer, &stop));
                let out = call(&rt, me, peer);
                stop.store(true, Ordering::Relaxed);
                out
            });

            // A blocked peer: implicit, by the epoch CAS.
            let (rt, me, peer) = fresh(0);
            rt.control(peer).bump_release_clock();
            let epoch = rt.control(peer).publish_blocked();
            let blocked = call(&rt, me, peer);
            assert_ne!(rt.control(peer).status(), ThreadStatus::Blocked { epoch });

            // A detached peer: implicit, its epoch untouched and nothing
            // left in an inbox nobody will ever drain.
            let (rt, me, peer) = fresh(0);
            rt.control(peer).bump_release_clock();
            let epoch = rt.control(peer).publish_blocked();
            rt.control(peer).mark_detached();
            let detached = call(&rt, me, peer);
            assert_eq!(rt.control(peer).status(), ThreadStatus::Blocked { epoch });
            assert!(!rt.control(peer).has_pending_requests(), "no token left queued");

            // A running peer that never polls, under a deadline: expiry, and
            // the one request it was sent stays answerable.
            let (rt, me, peer) = fresh(30);
            let stalled = call(&rt, me, peer);
            assert_eq!(rt.control(peer).take_requests().len(), 1);

            [running, blocked, detached, stalled]
        };

        let one = run(PrevHolders::One);
        let all = run(|_| PrevHolders::AllOthers);
        assert_eq!(one, all);
        let peer = ThreadId(1);
        assert_eq!(
            one,
            [
                Some((CoordMode::Explicit, vec![(peer, 1)])),
                Some((CoordMode::Implicit, vec![(peer, 1)])),
                Some((CoordMode::Implicit, vec![(peer, 1)])),
                None,
            ]
        );
    }
}
