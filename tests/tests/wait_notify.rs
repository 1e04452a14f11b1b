//! Monitor wait/notify through the tracking engines: `Object.wait()` is
//! simultaneously a PSRO (its release half) and a blocking safe point, and
//! parked waiters must be coordinatable implicitly.

use drink_core::prelude::*;
use drink_runtime::{Event, MonitorId, ObjId, Runtime, RuntimeConfig};
use std::sync::Arc;

/// A bounded single-slot queue built from tracked objects and one monitor:
/// producers/consumers block on `wait` and hand data through tracked writes.
fn run_producer_consumer<T: Tracker + Sync>(engine: &T, items: u64) -> u64 {
    let m = MonitorId(0);
    let slot_full = ObjId(0); // 0 = empty, 1 = full (tracked)
    let slot_value = ObjId(1); // payload (tracked)
    let consumed_sum = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        // Producer.
        s.spawn(|| {
            let sess = Session::attach(engine);
            for i in 1..=items {
                sess.lock(m);
                while sess.read(slot_full) == 1 {
                    sess.wait(m);
                }
                sess.write(slot_value, i * 7);
                sess.write(slot_full, 1);
                sess.notify_all(m);
                sess.unlock(m);
                sess.safepoint();
            }
        });
        // Consumer.
        let consumed = &consumed_sum;
        s.spawn(move || {
            let sess = Session::attach(engine);
            let mut got = 0;
            while got < items {
                sess.lock(m);
                while sess.read(slot_full) == 0 {
                    sess.wait(m);
                }
                let v = sess.read(slot_value);
                sess.write(slot_full, 0);
                sess.notify_all(m);
                sess.unlock(m);
                consumed.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                got += 1;
                sess.safepoint();
            }
        });
    });
    consumed_sum.load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn producer_consumer_under_hybrid_tracking() {
    const ITEMS: u64 = 500;
    let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
    let engine = HybridEngine::new(rt);
    let sum = run_producer_consumer(&engine, ITEMS);
    assert_eq!(sum, 7 * ITEMS * (ITEMS + 1) / 2, "every item exactly once");
    let r = engine.rt().stats().report();
    // Waits are PSROs: release clocks advanced well beyond the lock count.
    assert!(r.get(Event::MonitorRelease) >= 2 * ITEMS);
    // The tracked slot ping-pongs; under hybrid it should go pessimistic.
    assert!(r.opt_to_pess() >= 1 || r.opt_conflicting() > 0);
}

#[test]
fn producer_consumer_under_optimistic_tracking() {
    const ITEMS: u64 = 300;
    let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
    let engine = HybridEngine::with_config(rt, NullSupport, HybridConfig::optimistic());
    let sum = run_producer_consumer(&engine, ITEMS);
    assert_eq!(sum, 7 * ITEMS * (ITEMS + 1) / 2);
    // Parked waiters are coordinated with implicitly at least occasionally,
    // or respond explicitly — either way conflicts resolve.
    let r = engine.rt().stats().report();
    assert!(r.opt_conflicting() > 0);
}

#[test]
fn producer_consumer_under_pessimistic_tracking() {
    const ITEMS: u64 = 300;
    let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
    let engine = EngineKind::Pessimistic.build(rt);
    // Born before either thread runs, as pessimistic tracking births them:
    // read-shared and pessimistic.
    for o in [ObjId(0), ObjId(1)] {
        engine.alloc_init_read_shared(o);
    }
    let sum = run_producer_consumer(&engine, ITEMS);
    assert_eq!(sum, 7 * ITEMS * (ITEMS + 1) / 2);
    // Blocked waiters hold no tracking locks, so nobody coordinates with them.
    assert_eq!(engine.rt().stats().get(Event::CoordinationRoundtrip), 0);
}

#[test]
fn recorded_waits_replay_via_sync_edges() {
    // wait/notify programs are DETERMINISTIC here (strict alternation), so
    // record → replay must reproduce the final heap even with sync elided.
    use drink_replay::{Recorder, ReplayEngine};
    const ITEMS: u64 = 200;

    let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
    let recorder = Recorder::for_runtime(&rt, "hybrid");
    let engine = EngineKind::Hybrid.with_support(rt, recorder);
    let sum = run_producer_consumer(&engine, ITEMS);
    let recorded_heap = engine.rt().heap().snapshot_data();
    let log = engine.into_support().into_log();
    log.validate().unwrap();

    let rt2 = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
    let replayer = ReplayEngine::new(rt2, log);
    let sum2 = run_producer_consumer(&replayer, ITEMS);
    assert_eq!(sum, sum2, "replayed consumption must match");
    assert_eq!(replayer.rt().heap().snapshot_data(), recorded_heap);
}
