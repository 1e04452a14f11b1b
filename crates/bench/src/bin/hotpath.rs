//! Hot-path microbenchmark for the three layers PR 1 touched:
//!
//! 1. **access fast paths** — the optimistic same-state check and the
//!    pessimistic reentrant check (one relaxed/acquire load, no atomic RMW);
//! 2. **per-thread bookkeeping** — the dense-bitmap read set / lock buffer
//!    behind the reentrant path;
//! 3. **coordination** — the lock-free request queue, both raw
//!    (enqueue + drain) and end-to-end (explicit roundtrip against a
//!    polling responder).
//!
//! This binary runs **fixed** iteration counts so runs are comparable across
//! commits — each row is the minimum of `--trials` (default 3) back-to-back
//! measurements, since host-load noise on shared CI boxes is strictly
//! additive — and emits machine-readable `BENCH_hotpath.json` for the bench
//! gate (`scripts/bench_gate.sh`).
//!
//! ```bash
//! cargo run --release -p drink-bench --bin hotpath -- [out.json] [--trials N]
//! ```

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::prelude::*;
use drink_core::support::PrevHolders;
use drink_core::word::{LockMode, StateWord};
use drink_bench::report::{Report, Row};
use drink_runtime::{
    CoordRequest, Heap, MonitorId, ObjId, ResponseToken, Runtime, RuntimeConfig, Spin,
    ThreadControl, ThreadId,
};

fn measure(name: &str, iters: u64, mut f: impl FnMut()) -> Row {
    let trials = drink_bench::trials_from_args(3);
    let ns = (0..trials)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min);
    println!("{name:<28} {ns:>10.2} ns/op   ({iters} iters, best of {trials})");
    Row {
        name: name.to_string(),
        iters,
        ns_per_op: ns,
        // Advisory rows (report-only, never gated) declare themselves at
        // the emission site: see `trace_overhead`. Scaling-curve rows set
        // `threads` at theirs: see `fanout_snapshot`.
        advisory: false,
        threads: 0,
        higher_is_better: false,
    }
}

fn fresh_rt() -> Arc<Runtime> {
    Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(1024)
        .monitors(1)
        .build()))
}

/// Layer 1a: optimistic same-state read/write (the common case of every
/// tracked access — Figure 4's "same state" row).
fn fast_path(rows: &mut Vec<Row>) {
    const N: u64 = 20_000_000;
    let engine = HybridEngine::new(fresh_rt());
    let t = engine.attach();
    engine.alloc_init(ObjId(0), t);
    rows.push(measure("fast_path_opt_read", N, || {
        for _ in 0..N {
            black_box(engine.read(t, ObjId(0)));
        }
    }));
    rows.push(measure("fast_path_opt_write", N, || {
        for i in 0..N {
            engine.write(t, ObjId(0), black_box(i));
        }
    }));
    engine.detach(t);
}

/// Layers 1b+2: reentrant pessimistic accesses. The thread already holds the
/// write lock, so every access is one state-word load plus (for reads of a
/// read-locked object) a bitmap membership test — the path the dense
/// `DenseObjSet` replaced a `HashSet` lookup on.
fn reentrant_pess(rows: &mut Vec<Row>) {
    const N: u64 = 20_000_000;
    let engine = HybridEngine::new(fresh_rt());
    let t = engine.attach();
    // Unlocked own pessimistic state; the first write takes the write lock
    // (entering the lock buffer), after which all accesses are reentrant.
    engine
        .rt()
        .obj(ObjId(0))
        .state()
        .store(StateWord::wr_ex_pess(t, LockMode::Unlocked).0, Ordering::SeqCst);
    engine.write(t, ObjId(0), 0);
    rows.push(measure("reentrant_pess_write", N, || {
        for i in 0..N {
            engine.write(t, ObjId(0), black_box(i));
        }
    }));
    rows.push(measure("reentrant_pess_read", N, || {
        for _ in 0..N {
            black_box(engine.read(t, ObjId(0)));
        }
    }));
    // Flush the hold at a PSRO before detaching.
    engine.lock(t, MonitorId(0));
    engine.unlock(t, MonitorId(0));
    engine.detach(t);
}

/// Layer 3a: the raw lock-free inbox — batched enqueue then drain, the
/// pattern a responding safe point sees.
fn queue_raw(rows: &mut Vec<Row>) {
    const BATCH: u64 = 64;
    const ROUNDS: u64 = 200_000;
    let ctl = ThreadControl::new();
    rows.push(measure("queue_enqueue_drain", BATCH * ROUNDS, || {
        for _ in 0..ROUNDS {
            for i in 0..BATCH {
                ctl.enqueue_request(CoordRequest {
                    from: ThreadId(1),
                    obj: Some(ObjId(i as u32)),
                    token: ResponseToken::new(),
                });
            }
            let reqs = ctl.take_requests();
            debug_assert_eq!(reqs.len(), BATCH as usize);
            black_box(reqs);
        }
    }));
}

/// Layer 3b: full explicit coordination roundtrip — conflicting write
/// against a RUNNING thread that answers at its next safe-point poll
/// (enqueue, flag, poll, drain, respond, token spin).
fn explicit_roundtrip(rows: &mut Vec<Row>) {
    const N: u64 = 50_000;
    // Infinite cutoff: conflicts never push the object pessimistic, so every
    // iteration exercises the same optimistic-conflict roundtrip.
    let engine = HybridEngine::with_config(
        fresh_rt(),
        NullSupport,
        HybridConfig::infinite_cutoff(),
    );
    let ready = AtomicBool::new(false);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let engine = &engine;
        let ready = &ready;
        let done = &done;

        // Responder: owns the object, polls safe points in a tight loop.
        s.spawn(move || {
            let tb = engine.attach();
            engine.alloc_init(ObjId(0), tb);
            ready.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                engine.safepoint(tb);
                // Yield between polls: on a single-core host a tight poll
                // loop would otherwise burn its whole scheduler quantum
                // while the requester waits, measuring the OS timeslice
                // instead of the coordination protocol.
                std::thread::yield_now();
            }
            engine.detach(tb);
        });

        let mut spin = Spin::new("responder ready");
        while !ready.load(Ordering::Acquire) {
            spin.spin();
        }
        let ta = engine.attach();
        let responder = ThreadId(0);
        rows.push(measure("explicit_roundtrip", N, || {
            for i in 0..N {
                // Hand the object back to the responder, then conflict.
                engine
                    .rt()
                    .obj(ObjId(0))
                    .state()
                    .store(StateWord::wr_ex_opt(responder).0, Ordering::SeqCst);
                engine.write(ta, ObjId(0), black_box(i));
            }
        }));
        done.store(true, Ordering::Release);
        engine.detach(ta);
    });
}

/// Layer 3c: the fan-out *snapshot pass* in isolation, across the sharded
/// substrate's thread widths (DESIGN.md §14). Two curves, both measured on a
/// single OS thread so the numbers are pure protocol cost, not scheduling:
///
/// * `fanout_snapshot_blocked_tN` — `obj = None` against N−1 blocked peers:
///   one status load + implicit epoch CAS per peer, so the row grows
///   linearly in the registered-thread count. This is the per-conflict cost
///   floor an *unsharded* RdSh conflict pays no matter how few threads
///   share the object.
/// * `fanout_snapshot_skip_tN` — a per-thread-sharded runtime
///   (`shards(N)`) where no peer's shard ever stamped the object: the
///   snapshot is one epoch load per peer and resolves vacuously, no status
///   word touched, no CAS, no source. The pair is the measured statement of
///   §14's cost model: what epoch skipping deletes from the fan-out.
fn fanout_snapshot(rows: &mut Vec<Row>) {
    const N: u64 = 200_000;
    for n in [8usize, 16, 32, 64] {
        // Blocked curve: unsharded (shards(1) keeps the epoch machinery
        // inert even at max_threads > 15, isolating the status-word cost).
        let rt = Runtime::new(RuntimeConfig::builder()
            .max_threads(n)
            .shards(1)
            .heap_objects(64)
            .monitors(1)
            .build());
        let me = rt.register_thread();
        for _ in 1..n {
            let peer = rt.register_thread();
            rt.control(peer).bump_release_clock();
            rt.control(peer).publish_blocked();
        }
        let mut sources = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        let mut row = measure(&format!("fanout_snapshot_blocked_t{n}"), N, || {
            for _ in 0..N {
                sources.clear();
                black_box(drink_core::coord::coordinate(
                    &rt, me, PrevHolders::AllOthers, None, &mut || {}, &mut sources, &mut pending, None,
                ));
            }
        });
        assert_eq!(sources.len(), n - 1, "every blocked peer resolved implicitly");
        row.threads = n as u64;
        rows.push(row);

        // Skip curve: per-thread shards, object stamped by nobody's shard
        // but the requester's own — the snapshot proves every peer vacuous
        // from the epoch table alone.
        let rt = Runtime::new(RuntimeConfig::builder()
            .max_threads(n)
            .shards(n)
            .heap_objects(64)
            .monitors(1)
            .build());
        let me = rt.register_thread();
        for _ in 1..n {
            rt.register_thread();
        }
        let obj = ObjId(3);
        rt.stamp_access(me, obj);
        let mut sources: Vec<(ThreadId, u64)> = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        let mut row = measure(&format!("fanout_snapshot_skip_t{n}"), N, || {
            for _ in 0..N {
                sources.clear();
                black_box(drink_core::coord::coordinate(
                    &rt, me, PrevHolders::AllOthers, Some(obj), &mut || {}, &mut sources, &mut pending, None,
                ));
            }
        });
        assert!(sources.is_empty(), "a skipped fan-out must resolve no sources");
        row.threads = n as u64;
        rows.push(row);
    }
}

/// Layer 2b: header addressing under both heap layouts — the branch-free
/// base + stride computation behind every tracked access.
fn heap_layouts(rows: &mut Vec<Row>) {
    const N: u64 = 20_000_000;
    for (label, padded) in [("heap_obj_compact", false), ("heap_obj_padded", true)] {
        let heap = Heap::with_layout(1024, padded);
        rows.push(measure(label, N, || {
            let mut acc = 0u64;
            for i in 0..N {
                // Strided walk so the index math can't be hoisted.
                let o = ObjId(((i * 7) % 1024) as u32);
                acc = acc.wrapping_add(heap.obj(o).data_read());
            }
            black_box(acc);
        }));
    }
}

/// The tracing valve: the same optimistic-write fast path with the trace
/// sink absent (default — one predicted-untaken branch, gated within the
/// regression threshold) and present (ring-buffer stores on the hot path —
/// advisory, since the cost is expected and opt-in).
fn trace_overhead(rows: &mut Vec<Row>) {
    const N: u64 = 20_000_000;
    for (label, capacity) in [("trace_off_opt_write", 0usize), ("trace_on_opt_write", 4096)] {
        let rt = Arc::new(Runtime::new(
            RuntimeConfig::builder()
                .max_threads(2)
                .heap_objects(1024)
                .monitors(1)
                .trace_capacity(capacity)
                .build(),
        ));
        let engine = HybridEngine::new(rt);
        let t = engine.attach();
        engine.alloc_init(ObjId(0), t);
        let mut row = measure(label, N, || {
            for i in 0..N {
                engine.write(t, ObjId(0), black_box(i));
            }
        });
        // Ring-buffer stores on the hot path are an expected, opt-in cost
        // (DESIGN.md §11): report-only. The trace-off row stays gated — it
        // is the evidence the disabled valve costs one predicted branch.
        row.advisory = capacity > 0;
        rows.push(row);
        engine.detach(t);
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    // Fail on an unwritable path now, not after minutes of measurement.
    if let Err(e) = std::fs::write(&out, "") {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(2);
    }

    let mut rows = Vec::new();
    fast_path(&mut rows);
    reentrant_pess(&mut rows);
    queue_raw(&mut rows);
    explicit_roundtrip(&mut rows);
    fanout_snapshot(&mut rows);
    heap_layouts(&mut rows);
    trace_overhead(&mut rows);

    let mut report = Report::new("drink-bench/hotpath");
    report.rows = rows;
    report.write(&out).unwrap_or_else(|e| {
        eprintln!("cannot write: {e}");
        std::process::exit(2);
    });
    println!("wrote {out}");
}
