//! `RuntimeConfig::padded_headers` is a pure layout knob: flipping it must
//! change nothing the engines can observe. This test runs the identical
//! deterministic two-thread workload under both layouts and asserts the
//! engines produce identical payloads and identical event counts — the
//! executable form of the acceptance condition "flipping the knob requires
//! no engine-code changes".

use std::sync::Arc;

use drink_core::prelude::*;
use drink_runtime::{Event, MonitorId, ObjId, Runtime, RuntimeConfig, StatsReport};

fn run(padded: bool) -> (Vec<u64>, StatsReport) {
    let config = RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(16)
        .monitors(1)
        .padded_headers(padded)
        .build();
    let rt = Arc::new(Runtime::new(config));
    assert_eq!(rt.heap().is_padded(), padded);
    let engine = HybridEngine::new(rt);

    // Deterministic single-threaded phase: allocate, mixed reads/writes,
    // monitor-protected increments (PSRO flushes), then a second thread that
    // only touches its own objects so scheduling cannot reorder conflicts.
    let t0 = engine.attach();
    for o in 0..8u32 {
        engine.alloc_init(ObjId(o), t0);
    }
    for round in 0..50u64 {
        for o in 0..8u32 {
            engine.lock(t0, MonitorId(0));
            let v = engine.read(t0, ObjId(o));
            engine.write(t0, ObjId(o), v + round);
            engine.unlock(t0, MonitorId(0));
        }
        engine.safepoint(t0);
    }

    std::thread::scope(|s| {
        let e = &engine;
        s.spawn(move || {
            let t1 = e.attach();
            for o in 8..16u32 {
                e.alloc_init(ObjId(o), t1);
            }
            for round in 0..50u64 {
                for o in 8..16u32 {
                    let v = e.read(t1, ObjId(o));
                    e.write(t1, ObjId(o), v + round + 1);
                }
                e.safepoint(t1);
            }
            e.detach(t1);
        });
    });
    engine.detach(t0);

    let data = engine.rt().heap().snapshot_data();
    let report = engine.rt().stats().report();
    (data, report)
}

#[test]
fn padded_and_compact_layouts_are_observationally_identical() {
    let (data_compact, report_compact) = run(false);
    let (data_padded, report_padded) = run(true);

    assert_eq!(data_compact, data_padded, "payloads diverge across layouts");
    for e in Event::ALL {
        assert_eq!(
            report_compact.get(e),
            report_padded.get(e),
            "event {e:?} diverges across layouts"
        );
    }
    // And the workload actually exercised the tracked paths.
    assert!(report_compact.get(Event::Write) > 0);
    assert!(report_compact.get(Event::MonitorRelease) > 0);
}
