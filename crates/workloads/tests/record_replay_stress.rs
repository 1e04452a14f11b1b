//! Record & replay determinism stress: many seeds, both recorders, varied
//! communication shapes. A single divergence here means a missed or
//! mis-ordered happens-before edge in the recorder.

use drink_workloads::record_replay::{record, replay};
use drink_workloads::EngineKind;
use drink_workloads::spec::WorkloadSpec;

fn check(spec: &WorkloadSpec, kind: EngineKind) {
    let rec = record(kind, spec);
    let rep = replay(spec, rec.log.clone());
    let diffs = rec
        .run
        .heap
        .iter()
        .zip(&rep.heap)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(
        diffs, 0,
        "{:?} recorder: {} objects diverged on {} (seed {:#x})",
        kind, diffs, spec.name, spec.seed
    );
}

#[test]
fn racy_many_seeds_optimistic() {
    for seed in 0..6u64 {
        let spec = WorkloadSpec {
            name: format!("stress-racy-{seed}"),
            threads: 4,
            steps_per_thread: 1_500,
            racy_frac: 0.25,
            hot_objects: 6,
            locked_frac: 0.04,
            shared_read_frac: 0.06,
            seed: 0xAB00 + seed,
            ..WorkloadSpec::default()
        };
        check(&spec, EngineKind::Optimistic);
    }
}

#[test]
fn racy_many_seeds_hybrid() {
    for seed in 0..6u64 {
        let spec = WorkloadSpec {
            name: format!("stress-racy-h-{seed}"),
            threads: 4,
            steps_per_thread: 1_500,
            racy_frac: 0.25,
            hot_objects: 6,
            locked_frac: 0.04,
            shared_read_frac: 0.06,
            seed: 0xCD00 + seed,
            ..WorkloadSpec::default()
        };
        check(&spec, EngineKind::Hybrid);
    }
}

#[test]
fn read_shared_heavy_both() {
    // Stresses RdSh creation chains and fence edges specifically.
    for kind in [EngineKind::Optimistic, EngineKind::Hybrid] {
        let spec = WorkloadSpec {
            name: "stress-rdsh".into(),
            threads: 6,
            steps_per_thread: 2_000,
            shared_read_frac: 0.35,
            racy_frac: 0.05,
            hot_objects: 8,
            write_frac: 0.3,
            seed: 0xEF01,
            ..WorkloadSpec::default()
        };
        check(&spec, kind);
    }
}

#[test]
fn eight_thread_mixed_hybrid() {
    let spec = WorkloadSpec {
        name: "stress-8t".into(),
        threads: 8,
        steps_per_thread: 1_200,
        racy_frac: 0.10,
        locked_frac: 0.08,
        shared_read_frac: 0.10,
        hot_objects: 12,
        seed: 0xFEED,
        ..WorkloadSpec::default()
    };
    check(&spec, EngineKind::Hybrid);
    check(&spec, EngineKind::Optimistic);
}

#[test]
fn two_threads_tight_pingpong() {
    // Maximal conflict density between two threads.
    for kind in [EngineKind::Optimistic, EngineKind::Hybrid] {
        let spec = WorkloadSpec {
            name: "stress-pingpong".into(),
            threads: 2,
            steps_per_thread: 4_000,
            racy_frac: 0.8,
            hot_objects: 2,
            local_work: 0,
            seed: 0xF00D,
            ..WorkloadSpec::default()
        };
        check(&spec, kind);
    }
}
