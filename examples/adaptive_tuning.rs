//! The adaptive policy at work (§6): the same high-conflict workload under
//! optimistic tracking (Figure 7's infinite-cutoff configuration too),
//! hybrid tracking with the paper's policy, and a custom policy with a
//! re-opening valve.
//!
//! Run: `cargo run --release -p drink-examples --bin adaptive_tuning`

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::policy::{PolicyParams, Valve};
use drink_core::support::NullSupport;
use drink_runtime::Event;
use drink_workloads::{run_kind, run_workload, runtime_for, EngineKind, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec {
        name: "hot-pool".into(),
        threads: 6,
        steps_per_thread: 30_000,
        locked_frac: 0.02,
        lock_affinity: 0.3,
        hot_objects: 16,
        shared_read_frac: 0.05,
        ..WorkloadSpec::default()
    };

    println!("{:<34} {:>12} {:>12} {:>10}", "configuration", "conflicting", "pess unc.", "opt→pess");
    let show = |name: &str, r: &drink_runtime::StatsReport| {
        println!(
            "{:<34} {:>12} {:>12} {:>10}",
            name,
            r.opt_conflicting(),
            r.pess_uncontended(),
            r.opt_to_pess()
        );
    };

    let opt = run_kind(EngineKind::Optimistic, &spec);
    show("optimistic (Cutoff=∞, no policy)", &opt.report);

    let hyb = run_kind(EngineKind::Hybrid, &spec);
    show("hybrid, paper defaults", &hyb.report);

    // Custom policy: eager cutoff, quick return to optimistic — and a valve
    // that re-opens, so a quick return that proves wrong is not final.
    let rt = runtime_for(&spec);
    let engine = HybridEngine::with_config(
        rt,
        NullSupport,
        HybridConfig {
            policy: PolicyParams {
                cutoff_confl: 2,
                k_confl: 50,
                inertia: 50,
            },
            valve: Valve::Reopening,
            ..HybridConfig::default()
        },
    );
    let custom = run_workload(&engine, &spec);
    show("hybrid, custom (re-opening valve)", &custom.report);

    println!(
        "\ncoordination roundtrips: optimistic {} vs hybrid {}",
        opt.report.get(Event::CoordinationRoundtrip),
        hyb.report.get(Event::CoordinationRoundtrip)
    );
    println!("The policy converts repeated conflicts on hot objects into cheap");
    println!("pessimistic CAS transfers, and moves mistakenly-converted objects");
    println!("back to optimistic states (pess→opt = {}).", hyb.report.pess_to_opt());
}
