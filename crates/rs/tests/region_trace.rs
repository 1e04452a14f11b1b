//! Region boundaries reach the trace rings: on a ring-enabled runtime whose
//! rings never wrap, every `RegionExec` and `RegionRestart` the counters
//! report is also a ring record, and each region's first attempt is the
//! record with attempt number 0 — so a timeline shows where each region
//! attempt starts.

use std::sync::Arc;

use drink_core::{EngineKind, Session, Tracker};
use drink_rs::RsEnforcer;
use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig, ThreadId};

const THREADS: usize = 4;
const REGIONS: u64 = 200;

/// Symmetric two-object regions (half the threads go a-then-b, half
/// b-then-a), so regions conflict and some restart.
fn run(kind: EngineKind) {
    let rt = Runtime::new(
        RuntimeConfig::builder()
            .max_threads(THREADS)
            .heap_objects(2)
            .monitors(1)
            .trace_capacity(1 << 16)
            .build(),
    );
    let e = RsEnforcer::new(Arc::new(rt), kind);
    let (oa, ob) = (ObjId(0), ObjId(1));
    std::thread::scope(|s| {
        for i in 0..THREADS {
            let e = &e;
            s.spawn(move || {
                let sess = Session::attach(e.engine());
                let t = sess.tid();
                let (first, second) = if i % 2 == 0 { (oa, ob) } else { (ob, oa) };
                for _ in 0..REGIONS {
                    e.region(t, |r| {
                        let x = r.read(first)?;
                        r.write(first, x + 1)?;
                        let y = r.read(second)?;
                        r.write(second, y + 1)?;
                        Ok(())
                    });
                    sess.safepoint();
                }
            });
        }
    });

    let name = kind.name();
    let rings = e.engine().rt().trace_rings().expect("built with trace rings");
    let (mut execs, mut first_attempts, mut restarts) = (0u64, 0u64, 0u64);
    for tid in 0..THREADS {
        let ring = rings
            .ring(ThreadId(tid as u16))
            .expect("one ring per thread");
        assert!(
            ring.written() < ring.capacity() as u64,
            "{name}: thread {tid}'s ring wrapped ({} events), so it lost some",
            ring.written()
        );
        for r in ring.snapshot() {
            match r.kind {
                Event::RegionExec => {
                    execs += 1;
                    first_attempts += u64::from(r.arg == 0);
                }
                Event::RegionRestart => restarts += 1,
                _ => {}
            }
        }
    }
    let report = e.engine().rt().stats().report();
    assert_eq!(
        execs,
        report.get(Event::RegionExec),
        "{name}: RegionExec recorded ≠ counted"
    );
    assert_eq!(
        restarts,
        report.get(Event::RegionRestart),
        "{name}: RegionRestart recorded ≠ counted"
    );
    assert_eq!(
        first_attempts,
        THREADS as u64 * REGIONS,
        "{name}: one first attempt per region"
    );
    assert_eq!(
        execs,
        first_attempts + restarts,
        "{name}: every restart starts one more attempt"
    );
    assert_eq!(e.engine().rt().obj(oa).data_read(), THREADS as u64 * REGIONS);
}

#[test]
fn hybrid_enforcer_records_every_region_attempt() {
    run(EngineKind::Hybrid);
}

#[test]
fn optimistic_enforcer_records_every_region_attempt() {
    run(EngineKind::Optimistic);
}
