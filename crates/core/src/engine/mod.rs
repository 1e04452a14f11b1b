//! The tracking engines.
//!
//! Five engines implement the [`Tracker`] interface:
//!
//! | engine | paper configuration |
//! |---|---|
//! | [`NoTracking`](none::NoTracking) | unmodified JVM (the overhead baseline) |
//! | [`PessimisticEngine`](pessimistic::PessimisticEngine) | "Pessimistic tracking" (§2.1) |
//! | [`OptimisticEngine`](optimistic::OptimisticEngine) | "Optimistic tracking" (§2.2, Octet) |
//! | [`HybridEngine`](hybrid::HybridEngine) | "Hybrid tracking" (§3); with `PolicyParams::infinite_cutoff()` it is the "w/ infinite cutoff" configuration |
//! | [`IdealEngine`](ideal::IdealEngine) | the unsound "Ideal" estimate of Figure 7 |
//!
//! All methods that take a `ThreadId` must be called from the OS thread that
//! attached as that mutator (checked in debug builds); the `Session` façade
//! makes this hard to get wrong.

pub mod hybrid;
pub mod ideal;
pub mod kind;
pub mod none;
pub mod optimistic;
pub mod pessimistic;

pub use kind::{AnyEngine, DynTracker, EngineKind};

use std::sync::Arc;

use drink_runtime::{MonitorId, ObjId, Runtime, ThreadId};

/// Uniform interface over the tracking engines, used by workload drivers and
/// the `Session` façade. Statically dispatched where a concrete engine type
/// is in scope (the fast paths inline); deliberately **object-safe**, so
/// binaries that select the engine at runtime erase it behind
/// [`kind::AnyEngine`] / `Box<dyn Tracker>` instead of duplicating
/// monomorphized dispatch arms.
pub trait Tracker: Send + Sync {
    /// The runtime this engine instruments.
    fn rt(&self) -> &Arc<Runtime>;

    /// Short configuration name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Register the calling OS thread as a mutator.
    fn attach(&self) -> ThreadId;

    /// Final flush + permanent blocked status + statistics merge. Must be
    /// called from the attached thread.
    fn detach(&self, t: ThreadId);

    /// Tracked read of `o`'s payload.
    fn read(&self, t: ThreadId, o: ObjId) -> u64;

    /// Tracked write of `o`'s payload.
    fn write(&self, t: ThreadId, o: ObjId, v: u64);

    /// Abortable tracked write, for speculation-based runtime support (the
    /// RS enforcer): returns `Some(previous payload)` if the write completed
    /// (the payload read under ownership, for undo logging), or `None` if
    /// the engine's support asked for an abort mid-transition — in which
    /// case nothing was written and no state was claimed.
    ///
    /// The default implementation never aborts and reads the previous value
    /// racily; engines that can yield ownership mid-write override it.
    fn try_write(&self, t: ThreadId, o: ObjId, v: u64) -> Option<u64> {
        let prev = self.rt().obj(o).data_read();
        self.write(t, o, v);
        Some(prev)
    }

    /// Initialize `o` as freshly allocated by `owner` (each new object starts
    /// write-exclusive for its allocating thread, §6.2).
    fn alloc_init(&self, o: ObjId, owner: ThreadId);

    /// Initialize `o` as long-lived, already-shared read-mostly data: the
    /// state starts read-shared with the pre-run epoch 1 (claimed by no
    /// thread; the global counter starts past it). Workloads use this for
    /// data that real programs would have shared long before the measured
    /// window, so that one-time initialization conflicts don't swamp the
    /// steady-state conflict rate the paper's multi-minute runs measure.
    fn alloc_init_read_shared(&self, o: ObjId) {
        self.rt()
            .obj(o)
            .state()
            .store(crate::word::StateWord::rd_sh_opt(1).0, std::sync::atomic::Ordering::SeqCst);
    }

    /// Non-blocking safe point poll (loop back edges).
    fn safepoint(&self, t: ThreadId);

    /// Program lock acquire (blocking safe point when contended).
    fn lock(&self, t: ThreadId, m: MonitorId);

    /// Program lock release (a PSRO).
    fn unlock(&self, t: ThreadId, m: MonitorId);

    /// Monitor wait (PSRO + blocking safe point).
    fn wait(&self, t: ThreadId, m: MonitorId);

    /// Monitor notify-all, performed by thread `t`.
    fn notify_all(&self, t: ThreadId, m: MonitorId);
}
