//! # drink-core: hybrid pessimistic/optimistic dependence tracking
//!
//! A from-scratch Rust implementation of the tracking schemes of
//!
//! > Cao, Zhang, Sengupta, Bond. *Drinking from Both Glasses: Combining
//! > Pessimistic and Optimistic Tracking of Cross-Thread Dependences.*
//! > PPoPP 2016.
//!
//! The crate provides:
//!
//! * the per-object [`word::StateWord`] encoding every state of the hybrid
//!   model (§3.2), and [`table::transition`], its transitions (Appendix B's
//!   Table 3) as one pure function;
//! * two [`engine`] types — untracked baseline and hybrid (§3) — and
//!   [`EngineKind`]'s table of their configurations (pessimistic tracking,
//!   §2.1, is hybrid at cutoff 0; Octet, §2.2, is hybrid at cutoff ∞). The
//!   unsound "Ideal" estimate, §7.5, is Octet on a support that does not
//!   coordinate, built by the Figure 7 runner alone;
//! * the profile-guided [`policy::AdaptivePolicy`] (§6) over one profile
//!   word per object, and the [`policy::Valve`] that says whether its
//!   decisions are final (the paper's) or re-open (DESIGN.md §13);
//! * the [`support::Support`] observer interface that the dependence
//!   recorder (`drink-replay`) and the region-serializability enforcer
//!   (`drink-rs`) build on, whose [`support::Locking`] says how long a lock
//!   lives;
//! * the [`session::Session`] façade workloads drive everything through.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use drink_core::prelude::*;
//! use drink_runtime::{ObjId, Runtime, RuntimeConfig};
//!
//! let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
//!     .max_threads(4)
//!     .heap_objects(16)
//!     .monitors(2)
//!     .build()));
//! let engine = HybridEngine::new(rt);
//! std::thread::scope(|s| {
//!     for _ in 0..2 {
//!         let engine = &engine;
//!         s.spawn(move || {
//!             let sess = Session::attach(engine);
//!             for i in 0..100 {
//!                 let v = sess.read(ObjId(0));
//!                 sess.write(ObjId(1), v + i);
//!                 sess.safepoint();
//!             }
//!         });
//!     }
//! });
//! let report = engine.rt().stats().report();
//! assert_eq!(report.accesses(), 400);
//! ```

pub mod common;
pub mod coord;
pub mod engine;
pub mod policy;
pub mod session;
pub mod support;
pub mod table;
pub mod tstate;
pub mod word;

/// The names most users need.
pub mod prelude {
    pub use crate::engine::hybrid::{HybridConfig, HybridEngine, SelfReadMode};
    pub use crate::engine::none::NoTracking;
    pub use crate::engine::{AnyEngine, EngineKind, Tracker};
    pub use crate::policy::{AdaptivePolicy, PolicyParams, Valve};
    pub use crate::session::Session;
    pub use crate::support::{EagerModel, IdealModel, Locking, NullSupport, PaperModel, Support};
}

pub use engine::{AnyEngine, EngineKind, Tracker};
pub use session::Session;

/// The valve's tests, under the module path their ids were recorded under.
#[cfg(test)]
mod adapt;
