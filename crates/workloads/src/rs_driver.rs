//! Driving workload specs through the region-serializability enforcers
//! (Figure 9(b)'s harness).
//!
//! SBRS regions are bounded by synchronization operations, method calls, and
//! loop back edges (§5). A workload step maps exactly onto that: a maximal
//! run of accesses between two other ops (`Lock`, `Unlock`, `Safepoint`,
//! `Work`, `Yield`) forms one statically bounded region. Critical-section
//! bodies become one region per CS; unsynchronized accesses become short
//! regions bounded by the loop back edge. The run itself is the workload
//! driver's: only what a thread does with its op stream differs.
//!
//! Region bodies re-execute on restart, so the driver's value accumulator is
//! snapshotted at region entry and committed only on success — the same
//! discipline the paper's compiler transformation guarantees for region-
//! local state.

use std::sync::Arc;

use drink_core::engine::hybrid::HybridEngine;
use drink_core::prelude::*;
use drink_rs::{RsEnforcer, RsSupport};
use drink_runtime::Runtime;

use crate::driver::{drive, execute_ops, first_acc, mix_read, mix_write, RunResult};
use crate::spec::{Op, WorkloadSpec};

/// The label of `kind`'s enforcer in tables and chaos artifacts (`opt-rs`,
/// `hybrid-rs`).
pub fn rs_label(kind: EngineKind) -> String {
    format!("{}-rs", kind.short_name())
}

/// Split one thread's op stream into statically bounded regions: each
/// maximal run of accesses is one slice, every other op a slice of its own.
fn regions(ops: &[Op]) -> impl Iterator<Item = &[Op]> {
    ops.chunk_by(|a, b| a.is_access() && b.is_access())
}

/// Run one thread's op stream with each region executed atomically, and
/// every other op as [`execute_ops`] runs it. Returns the final accumulator.
fn execute_regions(
    enforcer: &RsEnforcer,
    sess: &Session<'_, HybridEngine<RsSupport>>,
    ops: &[Op],
) -> u64 {
    let mut acc = first_acc(sess.tid());
    for ops in regions(ops) {
        if !ops[0].is_access() {
            execute_ops(sess, ops);
            continue;
        }
        // Snapshot region-local state; commit on success.
        acc = enforcer.region(sess.tid(), |r| {
            ops.iter().try_fold(acc, |acc, op| match *op {
                Op::Read(o) => Ok(mix_read(acc, r.read(o)?)),
                Op::Write(o) => {
                    let acc = mix_write(acc);
                    r.write(o, acc)?;
                    Ok(acc)
                }
                _ => unreachable!("regions contain only accesses"),
            })
        });
    }
    acc
}

/// Run `spec` under `kind`'s enforcer over a caller-provided runtime (sized
/// by [`crate::driver::runtime_config_for`] or larger; the chaos harness
/// uses this to register schedule hooks before the runtime is shared). The
/// result reports under `kind`'s name. Panics if `kind` is not a
/// configuration of the hybrid engine.
pub fn run_rs_on(kind: EngineKind, rt: Arc<Runtime>, spec: &WorkloadSpec) -> RunResult {
    let enforcer = RsEnforcer::new(rt, kind);
    drive(enforcer.engine(), kind.name(), spec, |sess, ops| {
        execute_regions(&enforcer, sess, ops)
    })
}

/// Construct the enforcer and run `spec` on a fresh runtime.
pub fn run_rs(kind: EngineKind, spec: &WorkloadSpec) -> RunResult {
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
        let shapes: Vec<&str> = regions(&ops)
            .map(|r| match r {
                [Op::Lock(_)] => "L",
                [Op::Unlock(_)] => "U",
                [Op::Safepoint] => "S",
                [Op::Work(_)] => "W",
                [Op::Yield] => "Y",
                accesses => {
                    assert!(accesses.iter().all(|op| op.is_access()), "{accesses:?}");
                    "R"
                }
            })
            .collect();
        assert_eq!(shapes, vec!["R", "S", "L", "R", "U", "W", "R"]);
    }

    #[test]
    fn both_enforcers_complete_a_locked_workload() {
        let spec = WorkloadSpec {
            name: "rs-locked".into(),
            threads: 4,
            steps_per_thread: 800,
            locked_frac: 0.15,
            shared_read_frac: 0.05,
            ..WorkloadSpec::default()
        };
        for kind in [EngineKind::Optimistic, EngineKind::Hybrid] {
            let r = run_rs(kind, &spec);
            let execs = r.report.get(Event::RegionExec);
            let restarts = r.report.get(Event::RegionRestart);
            assert!(execs > 0, "{kind:?}");
            // Every restart re-executes, so execs ≥ committed regions ≥ restarts
            // is the structural invariant (restarts may occur even in DRF
            // workloads when a waiting region must yield to a third party).
            assert!(execs > restarts, "{kind:?}");
        }
    }

    #[test]
    fn racy_workload_restarts_but_completes() {
        let spec = WorkloadSpec {
            name: "rs-racy".into(),
            threads: 4,
            steps_per_thread: 800,
            racy_frac: 0.3,
            hot_objects: 4,
            ..WorkloadSpec::default()
        };
        for kind in [EngineKind::Optimistic, EngineKind::Hybrid] {
            let r = run_rs(kind, &spec);
            assert!(
                r.report.get(Event::RegionExec) >= r.report.get(Event::RegionRestart),
                "{kind:?}"
            );
        }
    }
}
