//! E9: the §7.1 "extraneous contention" ablation.
//!
//! The paper's 32-bit prototype omits the `WrExRLock` state (a self-read
//! write-locks instead), which can trigger coordination without any
//! object-level data race. They validate the omission is harmless via an
//! *unsound* alternate (self-read downgrades to `RdExRLock`). Our 64-bit
//! state word implements the full model, so we can compare all three:
//!
//! * `WrExRLock` — the full model (our default);
//! * `WrExWLock` — the paper's prototype encoding;
//! * `RdExRLock` — the paper's unsound diagnostic.
//!
//! Workload: single-writer/multi-reader on pessimistic objects — the exact
//! pattern where a read-locked write-exclusive state saves a second reader
//! from contending.

use drink_bench::{banner, overhead_pct, row, scale_from_args};
use drink_core::engine::hybrid::{HybridConfig, HybridEngine, SelfReadMode};
use drink_core::policy::PolicyParams;
use drink_core::support::PaperModel;
use drink_runtime::Event;
use drink_workloads::{run_kind, run_workload, runtime_for, EngineKind, WorkloadSpec};

fn spec(scale: f64) -> WorkloadSpec {
    WorkloadSpec {
        name: "writer-reader".into(),
        threads: 6,
        steps_per_thread: ((20_000.0 * scale) as usize).max(500),
        shared_objects: 64,
        hot_objects: 16,
        local_objects: 128,
        monitors: 4,
        // Lock-mediated single-writer updates + plenty of unsynchronized
        // *reads* of the same hot set: object-level DRF against the readers
        // is violated (reads race with locked writes), giving the self-read
        // encoding something to matter for.
        locked_frac: 0.04,
        lock_affinity: 0.0,
        racy_frac: 0.10,
        shared_read_frac: 0.0,
        write_frac: 0.15,
        cs_len: 3,
        cs_work: 0,
        local_work: 10,
        safepoint_every: 2,
        seed: 0xE9,
        yield_every: 0,
        monitor_spin: None,
        coord_deadline_ms: None,
        phase_every: 0,
        shards: None,
    }
}

fn main() {
    banner("E9 e9_wrex_rlock_ablation", "§7.1 extraneous-contention ablation");
    let scale = scale_from_args();
    let spec = spec(scale);
    // An eager policy so the hot set is actually pessimistic.
    let policy = PolicyParams {
        cutoff_confl: 2,
        ..PolicyParams::default()
    };

    let base = run_kind(EngineKind::Baseline, &spec).wall;
    let widths = [26, 12, 12, 12, 12];
    println!(
        "{}",
        row(
            &["self-read mode", "wall %", "contended", "reentrant", "coord"].map(String::from),
            &widths
        )
    );
    for (label, mode) in [
        ("WrExRLock (full model)", SelfReadMode::WrExRLock),
        ("WrExWLock (prototype)", SelfReadMode::WrExWLock),
        ("RdExRLock (unsound)", SelfReadMode::RdExRLockUnsound),
    ] {
        let rt = runtime_for(&spec);
        // The self-read modes differ only in which lock `WrExPess(T) R by T`
        // takes; under `NullSupport` that read validates and takes none
        // (DESIGN.md §12), so the comparison runs on the paper's model.
        let engine = HybridEngine::with_config(
            rt,
            PaperModel,
            HybridConfig {
                policy,
                self_read: mode,
                ..HybridConfig::default()
            },
        );
        let r = run_workload(&engine, &spec);
        println!(
            "{}",
            row(
                &[
                    label.to_string(),
                    format!("{:.0}", overhead_pct(r.wall, base)),
                    format!("{}", r.report.pess_contended()),
                    format!("{}", r.report.get(Event::PessReentrant)),
                    format!("{}", r.report.get(Event::CoordinationRoundtrip)),
                ],
                &widths
            )
        );
    }
    println!();
    println!("Shape checks: the prototype encoding (WrExWLock) shows more contended");
    println!("transitions than the full model; the unsound RdExRLock diagnostic");
    println!("matches the full model's contention (the paper found no performance");
    println!("benefit, concluding spurious contention was insignificant — compare");
    println!("the full-model row to see whether that holds here too).");
}
