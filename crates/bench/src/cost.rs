//! E1: regenerate the **§2.2 cost table** — average time per state
//! transition, by kind, measured on this substrate. Measurement strategies:
//! * **pessimistic**: single-thread loop of tracked accesses minus the
//!   untracked loop, under pessimistic tracking (`HybridConfig::pessimistic()`)
//!   on `EagerModel`: every access pays the CAS-lock/unlock pair inside
//!   itself, as §2.1 has it (under `NullSupport` the owner's reads validate,
//!   and on a deferring support they would turn reentrant);
//! * **optimistic same-state**: same loop under the optimistic engine;
//! * **conflicting (explicit)**: two threads ping-pong one object while the
//!   non-accessing thread polls safe points — every access is an explicit
//!   coordination roundtrip;
//! * **conflicting (implicit)**: one thread repeatedly conflicts with a
//!   detached (permanently blocked) thread's objects.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use drink_core::prelude::*;
use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig};

use crate::{Ctx, Line, Table};

fn per_access_ns<T: Tracker>(engine: &T, iters: u64) -> f64 {
    let t = engine.attach();
    // Alternate over a few objects to defeat trivial load-forwarding.
    let objs = [ObjId(0), ObjId(1), ObjId(2), ObjId(3)];
    for &o in &objs {
        engine.alloc_init(o, t);
    }
    let start = Instant::now();
    for i in 0..iters {
        let o = objs[(i % 4) as usize];
        if i % 3 == 0 {
            engine.write(t, o, i);
        } else {
            let _ = engine.read(t, o);
        }
    }
    let el = start.elapsed();
    engine.detach(t);
    el.as_nanos() as f64 / iters as f64
}

/// Explicit-coordination cost: the accessor conflicts with a running,
/// polling peer on every access.
fn explicit_ns(iters: u64) -> f64 {
    let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
    let engine = HybridEngine::with_config(rt, NullSupport, HybridConfig::optimistic());
    let o = ObjId(0);
    let stop = AtomicBool::new(false);
    let mut per = 0.0;
    std::thread::scope(|s| {
        let e = &engine;
        let stop_r = &stop;
        // The "remote" owner: keeps re-taking ownership and polling.
        s.spawn(move || {
            let t = e.attach();
            e.alloc_init(o, t);
            while !stop_r.load(Ordering::Relaxed) {
                e.write(t, o, 1);
                for _ in 0..64 {
                    e.safepoint(t);
                    std::thread::yield_now();
                    if stop_r.load(Ordering::Relaxed) {
                        break;
                    }
                }
            }
            e.detach(t);
        });
        let t = engine.attach();
        // Warm up: let the remote claim ownership.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let start = Instant::now();
        for i in 0..iters {
            engine.write(t, o, i);
            // Give ownership back by letting the remote's write conflict with
            // us while we poll.
            for _ in 0..64 {
                engine.safepoint(t);
                std::thread::yield_now();
                // Once the remote re-took it, our next write conflicts again.
                if engine.rt().obj(o).data_read() == 1 {
                    break;
                }
            }
        }
        per = start.elapsed().as_nanos() as f64 / iters as f64;
        stop.store(true, Ordering::Relaxed);
        engine.detach(t);
    });
    per
}

/// Implicit-coordination cost: conflict with a permanently blocked thread.
fn implicit_ns(iters: u64) -> f64 {
    let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(3)
        .heap_objects(4096)
        .monitors(1)
        .build()));
    let engine = HybridEngine::with_config(rt, NullSupport, HybridConfig::optimistic());
    let n = engine.rt().heap().len();
    std::thread::scope(|s| {
        let e = &engine;
        s.spawn(move || {
            let t = e.attach();
            for i in 0..n {
                e.alloc_init(ObjId(i as u32), t);
            }
            e.detach(t); // permanently blocked: all conflicts resolve implicitly
        })
        .join()
        .unwrap();
    });
    let t = engine.attach();
    let start = Instant::now();
    for i in 0..iters {
        // Each first touch of an object owned by the detached thread is an
        // implicit conflicting transition; cycle to keep conflicts coming.
        let o = ObjId((i % n as u64) as u32);
        engine.write(t, o, i);
        if i % n as u64 == n as u64 - 1 {
            // Re-own everything to the "dead" thread cheaply: reset states.
            for j in 0..n {
                engine.alloc_init(ObjId(j as u32), drink_runtime::ThreadId(0));
            }
        }
    }
    let per = start.elapsed().as_nanos() as f64 / iters as f64;
    engine.detach(t);
    per
}

pub(crate) fn cost_table(ctx: &Ctx) -> Table {
    let iters = ((2_000_000.0 * ctx.scale) as u64).max(10_000);
    let single = || Arc::new(Runtime::new(RuntimeConfig::builder().max_threads(1).heap_objects(4).monitors(1).build()));
    let base = per_access_ns(&NoTracking::new(single()), iters);
    let pess_engine = HybridEngine::with_config(single(), EagerModel, HybridConfig::pessimistic());
    let pess = per_access_ns(&pess_engine, iters);
    let locked = pess_engine.rt().stats().get(Event::PessUncontended);
    assert_eq!(locked, iters, "§2.1: every access takes the lock");
    let opt = per_access_ns(&HybridEngine::with_config(single(), NullSupport, HybridConfig::optimistic()), iters);
    let expl = explicit_ns((iters / 100).clamp(500, 20_000));
    let impl_ = implicit_ns((iters / 10).max(5_000));

    let mut t = Table::new(&["transition kind", "ns/access", "− baseline", "paper cycles"], &[]);
    let lines = [
        ("baseline (untracked)", base, "-"),
        ("pessimistic", pess, "150"),
        ("optimistic same-state", opt, "47"),
        ("conflicting (explicit)", expl, "9200"),
        ("conflicting (implicit)", impl_, "360"),
    ];
    for (name, ns, paper) in lines {
        let cells = [name.to_string(), format!("{ns:.1}"), format!("{:.1}", ns - base), paper.to_string()];
        t.lines.push(Line::Row(cells.to_vec()));
    }
    let tracked = lines[2..].iter().map(|l| l.0.to_string()).collect();
    t.runs_on = vec![("none", vec![lines[0].0.into()]), ("EagerModel", vec![lines[1].0.into()]), ("NullSupport", tracked)];
    t.notes = "Shape checks: same-state < pessimistic ≪ explicit; implicit between\n\
               pessimistic and explicit, much closer to pessimistic. The explicit /\n\
               same-state ratio should be 2–3 orders of magnitude (paper: ~196×).\n\
               Note: an explicit roundtrip here includes the polling peer's yields, so\n\
               the responder's scheduler trip, the moral equivalent of the paper's\n\
               remote-core communication latency.";
    t
}
