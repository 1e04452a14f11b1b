//! Driving workload specs through the region-serializability enforcers
//! (Figure 9(b)'s harness).
//!
//! SBRS regions are bounded by synchronization operations, method calls, and
//! loop back edges (§5). A workload step maps exactly onto that: the
//! accesses between two boundary ops (`Lock`, `Unlock`, `Safepoint`) form
//! one statically bounded region. Critical-section bodies become one region
//! per CS; unsynchronized accesses become short regions bounded by the loop
//! back edge.
//!
//! Region bodies re-execute on restart, so the driver's value accumulator is
//! snapshotted at region entry and committed only on success — the same
//! discipline the paper's compiler transformation guarantees for region-
//! local state.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use drink_rs::RsEnforcer;
use drink_runtime::Runtime;

use crate::driver::{local_work, RunResult};
use crate::spec::{Op, WorkloadSpec};

/// Which enforcer configuration to run (Figure 9(b)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RsKind {
    /// The optimistic enforcer (§5.1).
    Optimistic,
    /// The hybrid enforcer (§5.2).
    Hybrid,
}

impl RsKind {
    /// Configuration label.
    pub fn name(self) -> &'static str {
        match self {
            RsKind::Optimistic => "opt-rs",
            RsKind::Hybrid => "hybrid-rs",
        }
    }
}

/// Split one thread's op stream into statically bounded regions. Returns a
/// sequence of driver-level items.
fn regionize(ops: &[Op]) -> Vec<RegionItem> {
    let mut items = Vec::new();
    let mut batch: Vec<Op> = Vec::new();
    let flush = |items: &mut Vec<RegionItem>, batch: &mut Vec<Op>| {
        if !batch.is_empty() {
            items.push(RegionItem::Region(std::mem::take(batch)));
        }
    };
    for op in ops {
        match op {
            Op::Read(_) | Op::Write(_) => batch.push(*op),
            Op::Lock(m) => {
                flush(&mut items, &mut batch);
                items.push(RegionItem::Lock(*m));
            }
            Op::Unlock(m) => {
                flush(&mut items, &mut batch);
                items.push(RegionItem::Unlock(*m));
            }
            Op::Safepoint => {
                flush(&mut items, &mut batch);
                items.push(RegionItem::Safepoint);
            }
            Op::Work(n) => {
                flush(&mut items, &mut batch);
                items.push(RegionItem::Work(*n));
            }
            Op::Yield => {
                flush(&mut items, &mut batch);
                items.push(RegionItem::Yield);
            }
        }
    }
    flush(&mut items, &mut batch);
    items
}

enum RegionItem {
    Region(Vec<Op>),
    Lock(drink_runtime::MonitorId),
    Unlock(drink_runtime::MonitorId),
    Safepoint,
    Work(u32),
    Yield,
}

/// Run `spec` under `kind`'s enforcer over a caller-provided runtime (sized
/// by [`crate::driver::runtime_config_for`] or larger; the chaos harness
/// uses this to register schedule hooks before the runtime is shared).
pub fn run_rs_on(kind: RsKind, rt: Arc<Runtime>, spec: &WorkloadSpec) -> RunResult {
    let enforcer = match kind {
        RsKind::Optimistic => RsEnforcer::optimistic(rt),
        RsKind::Hybrid => RsEnforcer::hybrid(rt),
    };
    let rt = enforcer.rt();
    assert!(rt.heap().len() >= spec.heap_objects());
    for i in 0..spec.heap_objects() {
        let o = drink_runtime::ObjId(i as u32);
        if spec.is_read_shared(o) {
            enforcer
                .rt()
                .obj(o)
                .state()
                .store(drink_core::word::StateWord::rd_sh_opt(1).0, std::sync::atomic::Ordering::SeqCst);
        } else {
            enforcer.alloc_init(o, spec.initial_owner(o));
        }
    }
    let all_items: Vec<Vec<RegionItem>> = (0..spec.threads)
        .map(|t| regionize(&spec.ops(t)))
        .collect();
    let barrier = Barrier::new(spec.threads);

    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..spec.threads {
            let enforcer = &enforcer;
            let barrier = &barrier;
            let all_items = &all_items;
            s.spawn(move || {
                let t = enforcer.attach();
                let items = &all_items[t.index()];
                barrier.wait();
                let mut acc: u64 = u64::from(t.raw()) + 1;
                for item in items {
                    match item {
                        RegionItem::Region(ops) => {
                            // Snapshot region-local state; commit on success.
                            acc = enforcer.region(t, |r| {
                                let mut a = acc;
                                for op in ops {
                                    match *op {
                                        Op::Read(o) => {
                                            let v = r.read(o)?;
                                            a = a.rotate_left(7)
                                                ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
                                        }
                                        Op::Write(o) => {
                                            a = a
                                                .wrapping_mul(6_364_136_223_846_793_005)
                                                .wrapping_add(1_442_695_040_888_963_407);
                                            r.write(o, a)?;
                                        }
                                        _ => unreachable!("regions contain only accesses"),
                                    }
                                }
                                Ok(a)
                            });
                        }
                        RegionItem::Lock(m) => enforcer.lock(t, *m),
                        RegionItem::Unlock(m) => enforcer.unlock(t, *m),
                        RegionItem::Safepoint => enforcer.safepoint(t),
                        RegionItem::Work(n) => local_work(*n),
                        RegionItem::Yield => std::thread::yield_now(),
                    }
                }
                enforcer.detach(t);
            });
        }
    });
    let wall = start.elapsed();

    RunResult {
        engine: enforcer.name(),
        workload: spec.name.clone(),
        wall,
        report: rt.stats().report(),
        heap: rt.heap().snapshot_data(),
        conflicts_per_object: Vec::new(),
    }
}

/// Construct the enforcer and run `spec` on a fresh runtime.
pub fn run_rs(kind: RsKind, spec: &WorkloadSpec) -> RunResult {
    run_rs_on(kind, crate::driver::runtime_for(spec), spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_runtime::Event;

    #[test]
    fn regionize_bounds_regions_at_sync_and_back_edges() {
        use drink_runtime::{MonitorId, ObjId};
        let ops = vec![
            Op::Read(ObjId(0)),
            Op::Write(ObjId(0)),
            Op::Safepoint,
            Op::Lock(MonitorId(0)),
            Op::Read(ObjId(1)),
            Op::Unlock(MonitorId(0)),
            Op::Work(5),
            Op::Write(ObjId(2)),
        ];
        let items = regionize(&ops);
        let shapes: Vec<&str> = items
            .iter()
            .map(|i| match i {
                RegionItem::Region(_) => "R",
                RegionItem::Lock(_) => "L",
                RegionItem::Unlock(_) => "U",
                RegionItem::Safepoint => "S",
                RegionItem::Work(_) => "W",
                RegionItem::Yield => "Y",
            })
            .collect();
        assert_eq!(shapes, vec!["R", "S", "L", "R", "U", "W", "R"]);
    }

    #[test]
    fn both_enforcers_complete_a_locked_workload() {
        let spec = WorkloadSpec::builder()
            .name("rs-locked")
            .threads(4)
            .steps_per_thread(800)
            .locked_frac(0.15)
            .shared_read_frac(0.05)
            .build()
            .unwrap();
        for kind in [RsKind::Optimistic, RsKind::Hybrid] {
            let r = run_rs(kind, &spec);
            let execs = r.report.get(Event::RegionExec);
            let restarts = r.report.get(Event::RegionRestart);
            assert!(execs > 0, "{}", kind.name());
            // Every restart re-executes, so execs ≥ committed regions ≥ restarts
            // is the structural invariant (restarts may occur even in DRF
            // workloads when a waiting region must yield to a third party).
            assert!(execs > restarts, "{}", kind.name());
        }
    }

    #[test]
    fn racy_workload_restarts_but_completes() {
        let spec = WorkloadSpec::builder()
            .name("rs-racy")
            .threads(4)
            .steps_per_thread(800)
            .racy_frac(0.3)
            .hot_objects(4)
            .build()
            .unwrap();
        for kind in [RsKind::Optimistic, RsKind::Hybrid] {
            let r = run_rs(kind, &spec);
            assert!(
                r.report.get(Event::RegionExec)
                    >= r.report.get(Event::RegionRestart),
                "{}", kind.name()
            );
        }
    }
}
