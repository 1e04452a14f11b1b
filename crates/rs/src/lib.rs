//! # drink-rs: region serializability enforcement on dependence tracking
//!
//! The paper's second runtime-support client (§5): enforcing **statically
//! bounded region serializability (SBRS)** — every region bounded by
//! synchronization operations, method calls, and loop back edges executes
//! atomically, *even for programs with data races*.
//!
//! Two configurations, as in Figure 9(b), each an [`RsEnforcer::new`] on
//! an [`EngineKind`](drink_core::EngineKind):
//!
//! * `Optimistic` — the prior-work enforcer on Octet tracking;
//! * `Hybrid` — the paper's enforcer on hybrid tracking, which relies on
//!   **deferred unlocking** so region ends don't need conditional unlock
//!   checks (§5.2): pessimistic states stay locked until a PSRO or
//!   responding safe point, both of which are region boundaries.
//!
//! Serializability comes from two-phase locking of object states with
//! rollback-on-yield: a thread relinquishes ownership mid-region only when
//! it must respond to coordination while itself waiting (deadlock freedom),
//! and `RsSupport::before_yield` undoes the region's writes before the
//! transfer becomes visible.
//!
//! ```
//! use std::sync::Arc;
//! use drink_core::{EngineKind, Session};
//! use drink_rs::RsEnforcer;
//! use drink_runtime::{ObjId, Runtime, RuntimeConfig};
//!
//! let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
//!     .max_threads(2)
//!     .heap_objects(8)
//!     .monitors(1)
//!     .build()));
//! let enforcer = RsEnforcer::new(rt, EngineKind::Hybrid);
//! let s = Session::attach(enforcer.engine());
//! // Atomically move a unit from one counter to another.
//! enforcer.region(s.tid(), |r| {
//!     let a = r.read(ObjId(0))?;
//!     r.write(ObjId(0), a.wrapping_sub(1))?;
//!     let b = r.read(ObjId(1))?;
//!     r.write(ObjId(1), b + 1)?;
//!     Ok(())
//! });
//! ```

pub mod enforcer;
pub mod support;

pub use enforcer::{RegionCx, Restart, RsEnforcer};
pub use support::RsSupport;
