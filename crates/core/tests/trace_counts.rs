//! The trace rings and the counters speak one vocabulary (`Event`), and they
//! agree: on a run whose rings never wrap, every event that is both counted
//! and traced appears in the rings exactly as often as in the `StatsReport`.
//! A site that counts without recording, or records without counting, makes
//! its event's two numbers differ.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drink_core::prelude::*;
use drink_runtime::{Event, MonitorId, ObjId, Runtime, RuntimeConfig, StatsReport, ThreadId};

/// Events recorded but never counted (`Event`'s doc lists them).
const TRACED_ONLY: [Event; 4] = [
    Event::CoordRequestSent,
    Event::CoordPeerImplicit,
    Event::CoordFanoutPeerDone,
    Event::MonitorWait,
];

/// Events counted but never recorded (`Event`'s doc lists them).
const COUNTED_ONLY: [Event; 10] = [
    Event::OptSameState,
    Event::PessReentrant,
    Event::SafepointPoll,
    Event::PessOwnerChange,
    Event::StateUnlocked,
    Event::CoordBatchRequests,
    Event::CoordFanoutPeers,
    Event::ReplayWait,
    Event::RegionExec,
    Event::RegionRestart,
];

const THREADS: usize = 2;
const ITERS: u64 = 1_500;
const CAPACITY: usize = 1 << 16;
/// Written by both threads: optimistic conflicts, and pessimistic states once
/// the policy moves them.
const HOT: [ObjId; 2] = [ObjId(0), ObjId(1)];
/// Read by both, written now and then: RdSh states, fences and fan-outs.
const SHARED: ObjId = ObjId(2);
const M: MonitorId = MonitorId(0);

/// One thread's part: conflicting reads and writes, a locked section, a safe
/// point every iteration; then thread 0 waits on `M` until thread 1 has
/// finished and notified it.
fn worker(e: &AnyEngine, me: usize, started: &AtomicBool, done: &AtomicBool) {
    let t = e.attach();
    if me == 0 {
        for o in HOT.into_iter().chain([SHARED]) {
            e.alloc_init(o, t);
        }
        started.store(true, Ordering::Release);
    } else {
        // Stay a safe point while thread 0 initializes.
        while !started.load(Ordering::Acquire) {
            e.safepoint(t);
            std::hint::spin_loop();
        }
    }
    for i in 0..ITERS {
        let hot = HOT[(i as usize + me) % HOT.len()];
        let v = e.read(t, hot);
        e.write(t, hot, v + 1);
        let _ = e.read(t, SHARED);
        if i % 64 == me as u64 {
            e.write(t, SHARED, i);
        }
        if i % 16 == 0 {
            e.lock(t, M);
            e.write(t, HOT[me], i);
            e.unlock(t, M);
        }
        e.safepoint(t);
    }
    e.lock(t, M);
    if me == 0 {
        while !done.load(Ordering::Acquire) {
            e.wait(t, M);
        }
    } else {
        done.store(true, Ordering::Release);
        e.notify_all(t, M);
    }
    e.unlock(t, M);
    e.detach(t);
}

/// Run `kind` on the two-thread spec; return its report and, per event, how
/// often the rings recorded it and the sum of the recorded arguments.
fn run(kind: EngineKind) -> (StatsReport, Vec<(u64, u64)>) {
    let rt = Runtime::new(
        RuntimeConfig::builder()
            .max_threads(THREADS)
            .heap_objects(4)
            .monitors(1)
            .trace_capacity(CAPACITY)
            .build(),
    );
    let e = kind.build(Arc::new(rt));
    let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        for me in 0..THREADS {
            let (e, started, done) = (&e, &started, &done);
            s.spawn(move || worker(e, me, started, done));
        }
    });
    let rings = e.rt().trace_rings().expect("built with trace rings");
    let mut recorded = vec![(0u64, 0u64); Event::COUNT];
    for tid in 0..THREADS {
        let ring = rings
            .ring(ThreadId(tid as u16))
            .expect("one ring per thread");
        assert!(
            ring.written() < ring.capacity() as u64,
            "{kind:?}: thread {tid}'s ring wrapped ({} events), so it lost some",
            ring.written()
        );
        for r in ring.snapshot() {
            let slot = &mut recorded[r.kind as usize];
            slot.0 += 1;
            slot.1 += r.arg;
        }
    }
    (e.rt().stats().report(), recorded)
}

#[test]
fn every_counted_and_traced_event_is_recorded_once_per_count() {
    for kind in [
        EngineKind::Hybrid,
        EngineKind::Adaptive,
        EngineKind::Pessimistic,
    ] {
        let (report, recorded) = run(kind);
        for e in Event::ALL {
            let (times, _) = recorded[e as usize];
            if TRACED_ONLY.contains(&e) {
                assert_eq!(report.get(e), 0, "{kind:?}: {e:?} is only traced");
            } else if COUNTED_ONLY.contains(&e) {
                assert_eq!(times, 0, "{kind:?}: {e:?} is only counted");
            } else {
                assert_eq!(times, report.get(e), "{kind:?}: {e:?} recorded ≠ counted");
            }
        }
        // The batch and fan-out sizes ride on the traced events' arguments.
        let args = |e: Event| recorded[e as usize].1;
        assert_eq!(
            args(Event::RespondedExplicit),
            report.get(Event::CoordBatchRequests),
            "{kind:?}"
        );
        assert_eq!(
            args(Event::CoordFanout),
            report.get(Event::CoordFanoutPeers),
            "{kind:?}"
        );

        // What every schedule produces, so the comparison above is not vacuous.
        assert!(report.accesses() > THREADS as u64 * ITERS * 3, "{kind:?}");
        assert!(report.get(Event::MonitorRelease) > 0, "{kind:?}");
        match kind {
            EngineKind::Pessimistic => assert!(report.get(Event::PessUncontended) > 0),
            _ => assert!(
                report.opt_conflicting() > 0,
                "{kind:?}: the hot objects conflict"
            ),
        }
    }
}
