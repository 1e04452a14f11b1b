//! # drink-replay: multithreaded record & replay on dependence tracking
//!
//! The paper's first runtime-support client (§4): a **dependence recorder**
//! that logs happens-before edges implying all of an execution's cross-thread
//! dependences, and a **replayer** that re-executes the program enforcing
//! exactly those edges.
//!
//! * [`Recorder`] is a [`drink_core::support::Support`] implementation;
//!   attach it to a [`HybridEngine`](drink_core::prelude::HybridEngine) —
//!   under `EngineKind::Optimistic`'s configuration for the *optimistic
//!   recorder*, under `EngineKind::Hybrid`'s for the paper's *hybrid
//!   recorder* (`drink_workloads::record` takes the kind). The hybrid
//!   recorder exploits deferred unlocking: for
//!   pessimistic conflicting transitions it names edge sources by reading
//!   the previous holder's **release clock** — no communication — which is
//!   the §4.2 contribution.
//! * [`RecordingLog`] is the serializable two-sided schedule.
//! * [`ReplayEngine`] replays a log through the same workload driver,
//!   eliding program synchronization (§7.6).
//!
//! See `tests/` at the workspace root for end-to-end determinism proofs:
//! racy workloads recorded and replayed to bit-identical final heaps.

pub mod log;
pub mod recorder;
pub mod replayer;

pub use log::{RecordingLog, SinkEntry, ThreadLog};
pub use recorder::Recorder;
pub use replayer::ReplayEngine;
