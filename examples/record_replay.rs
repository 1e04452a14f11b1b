//! Record & replay (§4): record a racy multithreaded execution with the
//! hybrid dependence recorder, then replay its happens-before log to a
//! bit-identical final heap — twice.
//!
//! Run: `cargo run --release -p drink-examples --bin record_replay`

use drink_workloads::{record, replay, EngineKind, WorkloadSpec};

fn main() {
    // A deliberately nasty workload: 20% of steps are unsynchronized
    // accesses to 8 hot objects (data races), on top of lock-based sharing.
    let spec = WorkloadSpec {
        name: "example-racy".into(),
        threads: 4,
        steps_per_thread: 20_000,
        racy_frac: 0.20,
        hot_objects: 8,
        locked_frac: 0.05,
        shared_read_frac: 0.05,
        ..WorkloadSpec::default()
    };

    println!("recording one execution under the hybrid recorder...");
    let recorded = record(EngineKind::Hybrid, &spec);
    println!(
        "  wall time {:?}; {} happens-before edges over {} accesses",
        recorded.run.wall,
        recorded.log.total_edges(),
        recorded.run.report.accesses()
    );

    println!("replaying the log (program synchronization elided)...");
    let replayed = replay(&spec, recorded.log.clone());
    assert_eq!(recorded.run.heap, replayed.heap);
    println!("  replay #1 reproduced the recorded heap exactly ({:?})", replayed.wall);

    let replayed2 = replay(&spec, recorded.log);
    assert_eq!(recorded.run.heap, replayed2.heap);
    println!("  replay #2 reproduced it again ({:?})", replayed2.wall);

    println!("\nEvery cross-thread dependence of a racy execution was captured");
    println!("by the recorder's edges — the §4 soundness property.");
}
