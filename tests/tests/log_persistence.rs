//! Recording logs are artifacts: they serialize, survive a round trip
//! through JSON, and replay identically afterwards — the "record now,
//! replay elsewhere/offline" use case of §4 (e.g. replication-based fault
//! tolerance, offline debugging).

use drink_replay::RecordingLog;
use drink_runtime::Event;
use drink_workloads::{record, replay, EngineKind, WorkloadSpec};

fn racy_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "persist".into(),
        threads: 4,
        steps_per_thread: 1_500,
        racy_frac: 0.15,
        hot_objects: 6,
        locked_frac: 0.05,
        shared_read_frac: 0.05,
        ..WorkloadSpec::default()
    }
}

#[test]
fn log_round_trips_through_json_and_replays() {
    let spec = racy_spec();
    let recorded = record(EngineKind::Hybrid, &spec);

    let json = serde_json::to_string(&recorded.log).expect("serialize");
    let restored: RecordingLog = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(restored, recorded.log);
    restored.validate().expect("restored log valid");

    let replayed = replay(&spec, restored);
    assert_eq!(recorded.run.heap, replayed.heap);
}

#[test]
fn log_size_scales_with_dependences_not_accesses() {
    // The recorder's selling point (§4.2): log size tracks cross-thread
    // dependences, not accesses. Only a state transition reaches the
    // recorder, and each logs at most its widest source list — every other
    // thread for a conflict or a conflicting pessimistic acquire, the
    // previous holder and the previous epoch's creator for an RdSh creation,
    // one for a fence or a monitor acquire — so the run's own transition
    // counts bound its log, and a same-state or reentrant access (most of
    // them) adds nothing. How many transitions a racy run makes is up to the
    // scheduler (DESIGN.md §13), so no fixed fraction of the access count
    // bounds them.
    let spec = racy_spec();
    let recorded = record(EngineKind::Hybrid, &spec);
    let r = &recorded.run.report;
    let others = spec.threads as u64 - 1;
    let conflicting_acquires = r.get(Event::PessOwnerChange);
    // An RdSh creation is an upgrading transition or a pessimistic one that
    // takes a lock; the report does not tell it from the rest of either.
    let rdsh_creations =
        r.get(Event::OptUpgrading) + r.get(Event::PessUncontended) - conflicting_acquires;
    let bound = (r.opt_conflicting() + conflicting_acquires) * others
        + rdsh_creations * 2
        + r.get(Event::OptFence)
        + r.get(Event::MonitorAcquireFast)
        + r.get(Event::MonitorAcquireBlocked);
    let edges = recorded.log.total_edges() as u64;
    assert!(edges > 0);
    assert!(edges <= bound, "{edges} edges from transitions that can log at most {bound}");

    // And a low-conflict run's log is near-empty.
    let quiet = WorkloadSpec {
        name: "persist-quiet".into(),
        racy_frac: 0.0,
        locked_frac: 0.0,
        shared_read_frac: 0.0,
        ..racy_spec()
    };
    let recorded = record(EngineKind::Hybrid, &quiet);
    assert!(
        recorded.log.total_edges() <= 4,
        "thread-local program should record almost nothing: {}",
        recorded.log.total_edges()
    );
}

#[test]
fn both_recorders_produce_interchangeable_heaps() {
    // The two recorders log different edges for the same program, but both
    // logs replay the *same* recorded execution's heap (each its own).
    let spec = racy_spec();
    for kind in [EngineKind::Optimistic, EngineKind::Hybrid] {
        let recorded = record(kind, &spec);
        let replayed = replay(&spec, recorded.log);
        assert_eq!(
            recorded.run.heap, replayed.heap,
            "{:?} log failed to reproduce its run",
            kind
        );
    }
}
