//! # drink-check: seeded schedule exploration with cross-engine oracles
//!
//! The checking harness for the tracking protocols. Three layers:
//!
//! 1. **[`chaos`]** — a deterministic perturbation scheduler registered on
//!    the runtime's [`SchedHooks`](drink_runtime::SchedHooks) seam. One
//!    `u64` seed fully determines every thread's decision stream
//!    (yield / spin / preemption burst / microsecond sleep) at every
//!    schedule-relevant point the substrate reports.
//! 2. **[`oracle`]** — what a run is checked against: post-run quiescence
//!    of every state word, differential equivalence across the
//!    Pessimistic/Optimistic/Hybrid engines, record→replay heap fidelity,
//!    and region-serializability structural checks.
//! 3. **[`harness`]** + **[`artifact`]** — cell execution with panic
//!    capture, JSON failure artifacts (seed + spec + decision traces),
//!    seed-based reproduction, and greedy trace shrinking.
//!
//! The fourth layer — the `check-invariants` assertions inside
//! `drink-core`/`drink-runtime` hot paths — lives in those crates and is
//! enabled by this crate's `check-invariants` feature. The
//! `chaos_smoke` binary runs the fixed matrix CI executes
//! (`scripts/check_gate.sh`), including the injected-bug canary
//! (`DRINK_INJECT_BUG`) proving the matrix actually catches protocol bugs.

pub mod artifact;
pub mod chaos;
pub mod harness;
pub mod oracle;

pub use artifact::FailureArtifact;
pub use chaos::{ChaosSched, Decision, TraceStep};
pub use harness::{kind_from_label, reproduce, run_cell, shrink, CellRun, MATRIX_ENGINES};
pub use oracle::{
    adapt_check, check_quiescent, differential_check, read_mostly_check, replay_check, rs_check,
    schedule_independent, serve_check, SERVE_ORACLE_ENGINE,
};
