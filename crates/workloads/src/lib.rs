//! # drink-workloads: deterministic workload suite
//!
//! The evaluation substrate: 13 synthetic workloads calibrated to the
//! communication profiles of the paper's DaCapo/pjbb programs
//! ([`profiles`]), the `syncInc`/`racyInc` stress microbenchmarks of
//! Figure 8 ([`spec::sync_inc`]/[`spec::racy_inc`]), and a [`driver`] that
//! runs any spec on any tracking engine and collects the measurements the
//! paper reports.
//!
//! Workloads are **deterministic**: a spec expands to fixed per-thread
//! operation sequences, so the same program can be recorded and then
//! replayed (crate `drink-replay`), and final heap images can be compared
//! across runs.

pub mod driver;
pub mod profiles;
pub mod record_replay;
pub mod rs_driver;
pub mod spec;

pub use driver::{
    run_kind, run_kind_on, run_workload, runtime_config_for, runtime_for, EngineKind, RunResult,
};
pub use profiles::{all as all_profiles, by_name, scaled, PaperRef, Profile};
pub use record_replay::{record, record_on, replay, replay_with, RecordOutcome};
pub use rs_driver::{rs_label, run_rs, run_rs_on};
pub use spec::{
    chaos_adapt, chaos_disjoint, chaos_handoff, chaos_mix, chaos_rdsh, chaos_read_mostly,
    chaos_wide, racy_inc, sync_inc, Op, SpecError, WorkloadSpec,
};
