//! Single-purpose probes: the cost of one layer's common path with nothing
//! else going on, taken by batch-timing calls through the same erased
//! `Session` the workloads use. They do not depend on the workload.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use drink_core::{EngineKind, Session};
use drink_runtime::{MonitorId, ObjId, RuntimeConfig};

use crate::harness::{run_workers, WATCHDOG};
use crate::streams::{Scale, WORKERS};

/// Nanoseconds per call of the common paths, one thread, no contention.
pub struct SoloProbe {
    /// `Session::read` of an object the thread owns (same-state fast path).
    pub read_same_state_ns: f64,
    /// `Session::write` of an object the thread owns.
    pub write_same_state_ns: f64,
    /// An empty `Session::synchronized` (monitor acquire + release).
    pub monitor_pair_ns: f64,
    /// `Session::safepoint` with no request pending.
    pub safepoint_poll_ns: f64,
}

fn per_call_ns(calls: u64, f: impl Fn(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

pub fn solo(kind: EngineKind, scale: &Scale) -> SoloProbe {
    let engine = kind.build_config(
        RuntimeConfig::builder()
            .max_threads(1)
            .heap_objects(1)
            .monitors(1)
            .build(),
    );
    let sess = Session::attach(&engine);
    let (obj, monitor) = (ObjId(0), MonitorId(0));
    sess.alloc(obj);
    sess.write(obj, 1);
    black_box(sess.read(obj));
    let calls = scale.probe_calls;
    SoloProbe {
        read_same_state_ns: per_call_ns(calls, |_| {
            black_box(sess.read(black_box(obj)));
        }),
        write_same_state_ns: per_call_ns(calls, |i| sess.write(black_box(obj), i)),
        // A monitor pair is an order of magnitude dearer than the others.
        monitor_pair_ns: per_call_ns(calls / 8, |_| sess.synchronized(black_box(monitor), |_| ())),
        safepoint_poll_ns: per_call_ns(calls, |_| sess.safepoint()),
    }
}

/// Two sessions write one object in strict alternation: every write takes
/// the object from the other thread, so each hand-off pays one conflicting
/// transition (a roundtrip, a contended pessimistic CAS, or whatever the
/// engine has made of the object by then). Nanoseconds per hand-off.
pub fn pingpong_ns(kind: EngineKind, scale: &Scale) -> f64 {
    let handoffs = scale.pingpong_handoffs;
    let engine = kind.build_config(
        RuntimeConfig::builder()
            .max_threads(WORKERS)
            .heap_objects(1)
            .monitors(1)
            .build(),
    );
    let os_barrier = Barrier::new(WORKERS);
    let turn = AtomicU64::new(0);
    let walls = run_workers(
        &format!("probe pingpong {}", kind.short_name()),
        WATCHDOG,
        |w| {
            os_barrier.wait();
            let sess = Session::attach(&engine);
            let start = Instant::now();
            // Waiting for the turn — and, at the end, for the peer's last write —
            // polls the safepoint: the peer's write needs this thread's reply.
            let wait_for = |done: &dyn Fn(u64) -> bool| {
                while !done(turn.load(Ordering::Acquire)) {
                    sess.safepoint();
                    std::hint::spin_loop();
                }
            };
            for i in (w as u64..handoffs).step_by(WORKERS) {
                wait_for(&|t| t == i);
                sess.write(ObjId(0), i);
                turn.store(i + 1, Ordering::Release);
            }
            wait_for(&|t| t == handoffs);
            start.elapsed().as_nanos() as f64
        },
    );
    walls.into_iter().fold(0.0, f64::max) / handoffs as f64
}
