//! Workload-level validation of the object-level race detector: racy
//! profiles report races on their hot set; DRF profiles report none.

use std::sync::Arc;

use drink_core::prelude::*;
use drink_race::RaceDetector;
use drink_workloads::{run_workload, runtime_for, WorkloadSpec};

fn detect_on(spec: &WorkloadSpec, hybrid: bool) -> RaceDetector {
    let rt = runtime_for(spec);
    let det = RaceDetector::for_runtime(&rt);
    let cfg = if hybrid { HybridConfig::default() } else { HybridConfig::optimistic() };
    run_workload(&HybridEngine::with_config(rt, det.clone(), cfg), spec);
    det
}

fn racy_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "race-racy".into(),
        threads: 4,
        steps_per_thread: 3_000,
        shared_objects: 32,
        hot_objects: 4,
        local_objects: 32,
        monitors: 4,
        racy_frac: 0.2,
        locked_frac: 0.05,
        shared_read_frac: 0.05,
        yield_every: 8,
        ..WorkloadSpec::default()
    }
}

#[test]
fn racy_workload_reports_races_on_the_hot_set_only() {
    for hybrid in [false, true] {
        let spec = racy_spec();
        let det = detect_on(&spec, hybrid);
        let racy = det.racy_objects();
        assert!(!racy.is_empty(), "hybrid={hybrid}: races must be found");
        for o in &racy {
            assert!(
                (o.0 as usize) < spec.hot_objects,
                "hybrid={hybrid}: false positive outside the racy hot set: {o} \
                 (hot set = 0..{})",
                spec.hot_objects
            );
        }
    }
}

#[test]
fn drf_workload_reports_no_races() {
    for hybrid in [false, true] {
        let spec = WorkloadSpec {
            name: "race-drf".into(),
            threads: 4,
            steps_per_thread: 3_000,
            shared_objects: 32,
            hot_objects: 4,
            local_objects: 32,
            monitors: 4,
            racy_frac: 0.0,
            locked_frac: 0.10,
            shared_read_frac: 0.0,
            yield_every: 8,
            ..WorkloadSpec::default()
        };
        let det = detect_on(&spec, hybrid);
        assert_eq!(
            det.race_count(),
            0,
            "hybrid={hybrid}: DRF workload produced false positives: {:?}",
            det.reports()
        );
    }
}

#[test]
fn detector_composes_with_single_thread_runs() {
    let spec = WorkloadSpec {
        name: "race-single".into(),
        threads: 1,
        steps_per_thread: 2_000,
        racy_frac: 0.3, // "racy" accesses with one thread are not races
        hot_objects: 4,
        ..WorkloadSpec::default()
    };
    let rt: Arc<drink_runtime::Runtime> = runtime_for(&spec);
    let det = RaceDetector::for_runtime(&rt);
    let engine = HybridEngine::with_config(rt, det.clone(), HybridConfig::default());
    run_workload(&engine, &spec);
    assert_eq!(det.race_count(), 0);
}
