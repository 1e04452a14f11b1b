//! Property-based tests over randomly generated workload shapes.
//!
//! Case counts are kept small — each case is a real multithreaded run — but
//! every property quantifies over the whole spec space: thread counts,
//! object-partition sizes, conflict mixes, and policy parameters.

use proptest::prelude::*;

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::policy::PolicyParams;
use drink_core::support::NullSupport;
use drink_runtime::Event;
use drink_workloads::{
    record, replay, run_kind, run_workload, runtime_for, EngineKind, WorkloadSpec,
};

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        2usize..5,         // threads
        200usize..900,     // steps
        1usize..6,         // hot objects
        0.0f64..0.4,       // racy
        0.0f64..0.2,       // locked
        0.0f64..0.3,       // shared reads
        0.1f64..0.9,       // write fraction
        any::<u64>(),      // seed
    )
        .prop_map(
            |(threads, steps, hot, racy, locked, shared_read, write_frac, seed)| WorkloadSpec {
                name: format!("prop-{seed:x}"),
                threads,
                steps_per_thread: steps,
                shared_objects: 24,
                hot_objects: hot,
                local_objects: 16,
                monitors: 3,
                racy_frac: racy,
                locked_frac: locked,
                shared_read_frac: shared_read,
                write_frac,
                seed,
                ..WorkloadSpec::default()
            },
        )
}

fn arb_policy() -> impl Strategy<Value = PolicyParams> {
    (1u32..64, 1u32..2000, 1u32..2000).prop_map(|(cutoff, k, inertia)| PolicyParams {
        cutoff_confl: cutoff,
        k_confl: k,
        inertia,
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 16,
    })]

    /// Replay of any recorded execution reproduces its heap, for both
    /// recorder configurations.
    #[test]
    fn prop_record_replay_deterministic(spec in arb_spec(), hybrid in any::<bool>()) {
        let kind = if hybrid { EngineKind::Hybrid } else { EngineKind::Optimistic };
        let rec = record(kind, &spec);
        let rep = replay(&spec, rec.log);
        prop_assert_eq!(rec.run.heap, rep.heap);
    }

    /// Transition categories partition accesses under any spec and any
    /// policy parameters.
    #[test]
    fn prop_transitions_partition_accesses(spec in arb_spec(), policy in arb_policy()) {
        let rt = runtime_for(&spec);
        let engine = HybridEngine::with_config(
            rt,
            NullSupport,
            HybridConfig { policy, ..HybridConfig::default() },
        );
        let r = run_workload(&engine, &spec).report;
        // Seqlock-validated reads resolve with no transition at all
        // (DESIGN.md §12); they are the one non-transition category.
        let transitions = r.get(Event::OptSameState)
            + r.get(Event::OptUpgrading)
            + r.get(Event::OptFence)
            + r.opt_conflicting()
            + r.pess_uncontended()
            + r.get(Event::SeqlockValidated);
        prop_assert_eq!(transitions, r.accesses());
        // Policy moves are bounded by the one-way valve: at most one
        // opt→pess and one pess→opt per object.
        prop_assert!(r.opt_to_pess() <= spec.heap_objects() as u64);
        prop_assert!(r.pess_to_opt() <= r.opt_to_pess());
    }

    /// All engines count the same number of accesses for the same spec
    /// (instrumentation never skips or duplicates a program access).
    #[test]
    fn prop_access_counts_agree(spec in arb_spec()) {
        let expected: usize = (0..spec.threads)
            .map(|t| WorkloadSpec::count_accesses(&spec.ops(t)))
            .sum();
        for kind in [EngineKind::Pessimistic, EngineKind::Optimistic, EngineKind::Hybrid] {
            let r = run_kind(kind, &spec).report;
            prop_assert_eq!(r.accesses(), expected as u64, "{:?}", kind);
        }
    }

    /// Object-level-DRF workloads never trigger contended transitions under
    /// hybrid tracking (the §3.1 deferred-unlocking assumption), regardless
    /// of policy parameters.
    #[test]
    fn prop_drf_implies_no_contention(
        threads in 2usize..5,
        steps in 200usize..800,
        locked in 0.02f64..0.3,
        policy in arb_policy(),
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec {
            name: "prop-drf".into(),
            threads,
            steps_per_thread: steps,
            shared_objects: 24,
            hot_objects: 4,
            local_objects: 16,
            monitors: 3,
            racy_frac: 0.0,
            locked_frac: locked,
            shared_read_frac: 0.0,
            seed,
            ..WorkloadSpec::default()
        };
        let rt = runtime_for(&spec);
        let engine = HybridEngine::with_config(
            rt,
            NullSupport,
            HybridConfig { policy, ..HybridConfig::default() },
        );
        let r = run_workload(&engine, &spec).report;
        prop_assert_eq!(r.pess_contended(), 0);
    }
}
