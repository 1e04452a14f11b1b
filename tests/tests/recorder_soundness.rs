//! Recorder soundness, verified independently of the replayer: the happens-
//! before edges in a recording must *order every conflicting access pair* —
//! the paper's claim that state transitions "establish happens-before edges
//! that transitively imply all of an execution's cross-thread dependences"
//! (§2, citing [11]).
//!
//! Method: build per-operation vector clocks from the log alone
//! ([`drink_integration_tests::HbClocks`]) and check that for every pair of
//! accesses to the same object from different threads, at least one of which
//! is a write, the log orders them one way or the other.

use drink_integration_tests::{accesses_of, HbClocks};
use drink_workloads::{record, RecorderKind, WorkloadSpec};

fn assert_all_conflicts_ordered(spec: &WorkloadSpec, kind: RecorderKind) {
    let outcome = record(kind, spec);
    outcome.log.validate().expect("log well-formed");
    let hb = HbClocks::build(spec, &outcome.log);

    // Group accesses by object; check all cross-thread conflicting pairs.
    let accesses = accesses_of(spec);
    let mut by_obj: std::collections::HashMap<u32, Vec<usize>> = Default::default();
    for (i, a) in accesses.iter().enumerate() {
        by_obj.entry(a.obj).or_default().push(i);
    }
    let mut checked = 0u64;
    for idxs in by_obj.values() {
        for (pos, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pos + 1..] {
                let (a, b) = (&accesses[i], &accesses[j]);
                if a.thread == b.thread || (!a.is_write && !b.is_write) {
                    continue;
                }
                checked += 1;
                assert!(
                    hb.ordered(a, b) || hb.ordered(b, a),
                    "{:?} recorder missed a dependence between {:?} and {:?} on {}",
                    kind,
                    a,
                    b,
                    spec.name
                );
            }
        }
    }
    assert!(checked > 0, "test must actually exercise conflicting pairs");
}

fn racy_spec(name: &str, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        threads: 3,
        steps_per_thread: 250,
        shared_objects: 16,
        hot_objects: 4,
        local_objects: 8,
        monitors: 2,
        racy_frac: 0.30,
        locked_frac: 0.10,
        shared_read_frac: 0.10,
        seed,
        ..WorkloadSpec::default()
    }
}

#[test]
fn optimistic_recorder_orders_all_conflicts() {
    for seed in 0..4 {
        assert_all_conflicts_ordered(&racy_spec("sound-opt", 0x5000 + seed), RecorderKind::Optimistic);
    }
}

#[test]
fn hybrid_recorder_orders_all_conflicts() {
    for seed in 0..4 {
        assert_all_conflicts_ordered(&racy_spec("sound-hyb", 0x6000 + seed), RecorderKind::Hybrid);
    }
}

#[test]
fn hybrid_recorder_orders_conflicts_in_pessimistic_regime() {
    // Heavier per-object conflict counts so the policy actually moves hot
    // objects to pessimistic states, exercising the release-clock edges of
    // §4.2 rather than only coordination edges. A yield after every step
    // interleaves the three threads by construction: left to OS quanta on a
    // host with fewer cores than threads, they can run back to back and
    // never conflict often enough to move an object.
    let spec = WorkloadSpec {
        name: "sound-pess-regime".into(),
        threads: 3,
        steps_per_thread: 600,
        shared_objects: 8,
        hot_objects: 2,
        local_objects: 8,
        monitors: 2,
        racy_frac: 0.4,
        locked_frac: 0.1,
        seed: 0x77,
        yield_every: 1,
        ..WorkloadSpec::default()
    };
    let outcome = record(RecorderKind::Hybrid, &spec);
    assert!(
        outcome.run.report.pess_uncontended() > 0,
        "regime check: pessimistic transitions must occur"
    );
    assert_all_conflicts_ordered(&spec, RecorderKind::Hybrid);
}

#[test]
fn read_shared_fences_are_ordered_after_the_writer() {
    // RdSh-heavy shape: many readers of objects that a writer occasionally
    // kills back to WrEx — exercises fence edges and the epoch chain.
    let spec = WorkloadSpec {
        name: "sound-rdsh".into(),
        threads: 4,
        steps_per_thread: 400,
        shared_objects: 12,
        hot_objects: 6,
        local_objects: 8,
        monitors: 2,
        racy_frac: 0.2,
        write_frac: 0.15,
        shared_read_frac: 0.3,
        seed: 0x88,
        ..WorkloadSpec::default()
    };
    assert_all_conflicts_ordered(&spec, RecorderKind::Optimistic);
    assert_all_conflicts_ordered(&spec, RecorderKind::Hybrid);
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_racy_spec() -> impl Strategy<Value = WorkloadSpec> {
        (
            2usize..4,
            120usize..400,
            1usize..5,    // hot objects
            0.05f64..0.5, // racy
            0.0f64..0.2,  // locked
            0.0f64..0.3,  // shared reads
            0.1f64..0.9,  // write frac
            any::<u64>(),
        )
            .prop_map(
                |(threads, steps, hot, racy, locked, shared_read, write_frac, seed)| {
                    WorkloadSpec {
                        name: format!("prop-sound-{seed:x}"),
                        threads,
                        steps_per_thread: steps,
                        shared_objects: 12,
                        hot_objects: hot,
                        local_objects: 8,
                        monitors: 2,
                        racy_frac: racy,
                        locked_frac: locked,
                        shared_read_frac: shared_read,
                        write_frac,
                        seed,
                        ..WorkloadSpec::default()
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 6,
            max_shrink_iters: 8,
            .. ProptestConfig::default()
        })]

        /// For ANY racy workload shape, both recorders' logs order every
        /// conflicting access pair (checked via the vector-clock simulator,
        /// independent of the replayer).
        #[test]
        fn prop_recorders_order_all_conflicts(spec in arb_racy_spec(), hybrid in any::<bool>()) {
            let kind = if hybrid { RecorderKind::Hybrid } else { RecorderKind::Optimistic };
            let outcome = record(kind, &spec);
            outcome.log.validate().map_err(|e| TestCaseError::fail(e))?;
            let hb = HbClocks::build(&spec, &outcome.log);
            let accesses = accesses_of(&spec);
            let mut by_obj: std::collections::HashMap<u32, Vec<usize>> = Default::default();
            for (i, a) in accesses.iter().enumerate() {
                by_obj.entry(a.obj).or_default().push(i);
            }
            for idxs in by_obj.values() {
                for (pos, &i) in idxs.iter().enumerate() {
                    for &j in &idxs[pos + 1..] {
                        let (a, b) = (&accesses[i], &accesses[j]);
                        if a.thread == b.thread || (!a.is_write && !b.is_write) {
                            continue;
                        }
                        prop_assert!(
                            hb.ordered(a, b) || hb.ordered(b, a),
                            "missed dependence between {a:?} and {b:?}"
                        );
                    }
                }
            }
        }
    }
}
