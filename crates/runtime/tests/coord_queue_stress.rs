//! Stress test for the lock-free explicit-coordination request queue.
//!
//! Many requester threads hammer one responder's inbox concurrently while the
//! responder drains at simulated safe points. The test checks the two
//! properties the tracking protocols rely on:
//!
//! * **no request is lost** — every token a requester enqueued eventually
//!   completes (the `has_requests` flag / detach ordering closes the
//!   lost-wakeup window);
//! * **no request is double-answered** — each token completes exactly once,
//!   detected by counting completions per token.
//!
//! The requesters wait on their tokens through the same watchdog
//! ([`drink_runtime::Wait`]) the real protocols use, so a lost request fails
//! loudly with a watchdog panic instead of hanging CI.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use drink_runtime::{
    CoordRequest, ObjId, ResponseToken, ThreadControl, ThreadId, Wait,
};

const PRODUCERS: usize = 8;
const REQUESTS_PER_PRODUCER: usize = 500;

#[test]
fn multi_producer_queue_loses_and_duplicates_nothing() {
    let ctl = ThreadControl::new();
    let done = AtomicBool::new(false);
    // completions[p][i] counts how many times producer p's i-th token was
    // answered; the invariant is that every cell ends at exactly 1.
    let completions: Vec<Vec<AtomicU64>> = (0..PRODUCERS)
        .map(|_| (0..REQUESTS_PER_PRODUCER).map(|_| AtomicU64::new(0)).collect())
        .collect();

    std::thread::scope(|s| {
        let ctl = &ctl;
        let done = &done;
        let completions = &completions;

        for p in 0..PRODUCERS {
            s.spawn(move || {
                for i in 0..REQUESTS_PER_PRODUCER {
                    let token = ResponseToken::new();
                    ctl.enqueue_request(CoordRequest {
                        from: ThreadId(p as u16),
                        obj: Some(ObjId(i as u32)),
                        token: Arc::clone(&token),
                    });
                    // Wait like a real requester: the watchdog panics (rather
                    // than hanging) if the queue lost this request.
                    let mut wait = Wait::new("stress-test response token");
                    while !token.is_done() {
                        let _ = wait.step();
                    }
                    // The responder stamps each answer with a fresh clock.
                    assert!(token.responder_clock() > 0);
                }
            });
        }

        // Responder: drain at simulated safe points until every producer
        // reported completion of its whole batch.
        s.spawn(move || {
            let mut answered = 0usize;
            let total = PRODUCERS * REQUESTS_PER_PRODUCER;
            let mut wait = Wait::new("stress-test responder drain");
            while answered < total {
                let reqs = ctl.take_requests();
                if reqs.is_empty() {
                    let _ = wait.step();
                    continue;
                }
                wait = Wait::new("stress-test responder drain");
                for req in reqs {
                    let clock = ctl.bump_release_clock();
                    completions[req.from.index()][req.obj.unwrap().index()]
                        .fetch_add(1, Ordering::Relaxed);
                    req.token.complete(clock);
                    answered += 1;
                }
            }
            done.store(true, Ordering::Release);
        });
    });

    assert!(done.load(Ordering::Acquire));
    assert!(
        !ctl.has_pending_requests(),
        "inbox must be empty after all producers finished"
    );
    for (p, row) in completions.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            let n = cell.load(Ordering::Relaxed);
            assert_eq!(
                n, 1,
                "producer {p} request {i} answered {n} times (want exactly 1)"
            );
        }
    }
}

#[test]
fn flag_set_after_push_never_leaves_request_invisible() {
    // Tight two-thread interleaving check: one producer enqueues a single
    // request at a time while the consumer polls `has_pending_requests` then
    // drains — the exact fast path the responding safe point uses. If the
    // flag store were allowed to pass the push (or the drain could clear the
    // flag after a racing push's flag-set), a request would stay invisible
    // and the producer's watchdog would fire.
    let ctl = ThreadControl::new();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let ctl = &ctl;
        let stop = &stop;

        s.spawn(move || {
            for i in 0..2000u32 {
                let token = ResponseToken::new();
                ctl.enqueue_request(CoordRequest {
                    from: ThreadId(1),
                    obj: Some(ObjId(i)),
                    token: Arc::clone(&token),
                });
                let mut wait = Wait::new("single-producer response");
                while !token.is_done() {
                    let _ = wait.step();
                }
            }
            stop.store(true, Ordering::Release);
        });

        s.spawn(move || {
            let mut wait = Wait::new("poll-drain consumer");
            loop {
                // Same cheap check the poll() fast path performs.
                if ctl.has_pending_requests() {
                    for req in ctl.take_requests() {
                        req.token.complete(ctl.bump_release_clock());
                    }
                    wait = Wait::new("poll-drain consumer");
                } else if stop.load(Ordering::Acquire) && !ctl.has_pending_requests() {
                    break;
                } else {
                    let _ = wait.step();
                }
            }
        });
    });
}
