//! Cross-engine equivalence and quiescence invariants.
//!
//! The unperturbed tests here pin the baseline equivalences; the
//! `*_under_chaos` tests re-run the same oracles through `drink-check`'s
//! seeded schedule-perturbation layer, which is where schedule-dependent
//! protocol bugs actually surface.

use drink_check::{run_cell, Oracle, Subject, MATRIX_ENGINES};
use drink_core::prelude::{HybridConfig, HybridEngine, IdealModel, Tracker};
use drink_core::word::{Kind, StateWord};
use drink_workloads::{
    chaos_disjoint, chaos_handoff, chaos_mix, run_kind, run_rs, run_workload, runtime_for,
    EngineKind, WorkloadSpec,
};

/// A workload whose final heap is schedule-independent: threads touch only
/// their private partitions plus a read-only shared region.
fn disjoint_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "disjoint".into(),
        threads: 4,
        steps_per_thread: 4_000,
        locked_frac: 0.0,
        racy_frac: 0.0,
        shared_read_frac: 0.15,
        ..WorkloadSpec::default()
    }
}

#[test]
fn disjoint_workload_heap_identical_across_all_engines() {
    let spec = disjoint_spec();
    let base = run_kind(EngineKind::Baseline, &spec);
    for kind in [EngineKind::Pessimistic, EngineKind::Optimistic, EngineKind::Hybrid] {
        let r = run_kind(kind, &spec);
        assert_eq!(r.heap, base.heap, "{kind:?} changed program semantics");
    }
    // Figure 7's Ideal, which no kind names.
    let ideal = HybridEngine::with_config(runtime_for(&spec), IdealModel, HybridConfig::optimistic());
    assert_eq!(run_workload(&ideal, &spec).heap, base.heap, "Ideal changed program semantics");
    // The enforcers run the same regions; region boundaries don't change
    // values for a schedule-independent program.
    for kind in [EngineKind::Optimistic, EngineKind::Hybrid] {
        let r = run_rs(kind, &spec);
        assert_eq!(r.heap, base.heap, "{kind:?} enforcer changed program semantics");
    }
}

/// After any run, every state word must be quiescent: no Int, no pessimistic
/// locks — instrumentation never leaks a critical section.
fn assert_quiescent(kind: EngineKind, spec: &WorkloadSpec) {
    let engine = kind.build(runtime_for(spec));
    run_workload(&engine, spec);
    for (id, obj) in engine.rt().heap().iter() {
        let w = StateWord(obj.state().load(std::sync::atomic::Ordering::SeqCst));
        assert!(!w.is_int(), "{kind:?}: {id} left Int: {w:?}");
        assert!(
            !w.is_pess_locked(),
            "{kind:?}: {id} left pessimistically locked: {w:?} (lock-buffer leak)"
        );
        // Kind must decode to a legal state.
        let _ = w.kind() == Kind::WrEx;
    }
}

#[test]
fn racy_runs_end_quiescent_under_every_engine() {
    let spec = WorkloadSpec {
        name: "quiesce".into(),
        threads: 4,
        steps_per_thread: 3_000,
        racy_frac: 0.25,
        hot_objects: 6,
        locked_frac: 0.05,
        shared_read_frac: 0.05,
        ..WorkloadSpec::default()
    };
    for kind in [
        EngineKind::Pessimistic,
        EngineKind::Optimistic,
        EngineKind::Hybrid,
    ] {
        assert_quiescent(kind, &spec);
    }
}

#[test]
fn transition_counts_partition_accesses() {
    // Every access resolves as exactly one transition category; the
    // contended marker is extra. This pins the Table 2 accounting.
    use drink_runtime::Event;
    let spec = WorkloadSpec {
        name: "partition".into(),
        threads: 4,
        steps_per_thread: 4_000,
        racy_frac: 0.15,
        locked_frac: 0.05,
        shared_read_frac: 0.10,
        ..WorkloadSpec::default()
    };
    for kind in [
        EngineKind::Pessimistic,
        EngineKind::Optimistic,
        EngineKind::Hybrid,
    ] {
        let r = run_kind(kind, &spec).report;
        // `SeqlockValidated` is the one category that is not a transition:
        // the read completed against a standing RdSh state with no state
        // change at all (DESIGN.md §12). Retries/fallbacks are not terminal —
        // a fallback resolves through one of the other categories.
        let transitions = r.get(Event::OptSameState)
            + r.get(Event::OptUpgrading)
            + r.get(Event::OptFence)
            + r.opt_conflicting()
            + r.pess_uncontended()
            + r.get(Event::SeqlockValidated);
        assert_eq!(
            transitions,
            r.accesses(),
            "{kind:?}: transition categories must partition accesses"
        );
    }
}

// --- Chaos-seeded differential checks (via drink-check) ---

#[test]
fn differential_oracle_holds_under_chaos() {
    // Disjoint spec: full oracle (access counts + heap vs baseline + zero
    // conflicts). Seed doubles as the chaos decision-stream seed.
    Oracle::Differential
        .check(&chaos_disjoint(0x51), 0x51)
        .unwrap_or_else(|a| panic!("{}: {}", a.engine, a.failure));
}

#[test]
fn perturbed_matrix_cells_stay_quiescent() {
    // Racy + locked specs under perturbation: every engine must complete,
    // end quiescent, and leak no coordination requests.
    for spec in [chaos_mix(0x52), chaos_handoff(0x53)] {
        for kind in MATRIX_ENGINES {
            let cell = run_cell(Subject::Engine(kind), &spec, 0x54)
                .unwrap_or_else(|a| panic!("{} / {}: {}", spec.name, a.engine, a.failure));
            assert!(
                cell.traces.iter().map(Vec::len).sum::<usize>() > 0,
                "chaos layer recorded no decisions — hooks not wired?"
            );
        }
    }
}

#[test]
fn replay_and_rs_oracles_hold_under_chaos() {
    Oracle::Replay.check(&chaos_mix(0x55), 0x55).unwrap();
    Oracle::Rs.check(&chaos_handoff(0x56), 0x56).unwrap();
}
