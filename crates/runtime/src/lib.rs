//! # drink-runtime: a managed-runtime substrate for dependence tracking
//!
//! The PPoPP'16 paper *Drinking from Both Glasses* implements its tracking
//! schemes inside Jikes RVM, where the JIT compilers insert instrumentation
//! before every memory access, program synchronization release operation
//! (PSRO), and safe point. This crate is the Rust substitute for that
//! substrate: it provides the *mechanisms* a managed runtime offers to the
//! tracking instrumentation, without prescribing any tracking policy.
//!
//! The substrate consists of:
//!
//! * a registry of **mutator threads**, each with a [`control::ThreadControl`]
//!   holding the cross-thread-visible status word (RUNNING/BLOCKED + epoch),
//!   an explicit coordination request queue, and a release clock;
//! * **safe point** conventions: threads respond to coordination requests only
//!   at safe points (explicit polls, or blocking operations), mirroring the
//!   JVM safe point mechanism the paper piggybacks on (§7.1);
//! * **monitors** (program locks) and wait/notify with hook callbacks at the
//!   points where the paper's instrumentation runs: PSROs, blocking safe
//!   points, and wake-ups;
//! * a **tracked-object heap**: every shared object carries a state word and a
//!   profile word (the "two 32-bit words per object" of §7.1 — we use two
//!   64-bit words) next to its data;
//! * shared **statistics** and the paper's **cycle-cost model** (§2.2) so that
//!   transition counts can be converted into platform-independent overhead
//!   estimates.
//!
//! Tracking engines (crate `drink-core`) implement the [`RtHooks`] trait to
//! receive these callbacks; workloads drive everything through the
//! `drink-core` `Session` façade.

pub mod control;
pub mod cost;
pub mod heap;
pub mod ids;
pub mod monitor;
pub mod pad;
pub mod runtime;
pub mod spin;
pub mod stats;
pub mod trace;

pub use control::{CoordRequest, ResponseToken, ThreadControl, ThreadStatus, Waker};
pub use cost::CostModel;
pub use heap::{Heap, ObjHeader};
pub use ids::{MonitorId, ObjId, ThreadId};
pub use monitor::Monitor;
pub use pad::CachePadded;
pub use runtime::{Runtime, RuntimeConfig, RuntimeConfigBuilder, MAX_RDSH_COUNT};
pub use spin::{Expired, Wait};
pub use stats::{Event, GlobalStats, HistogramSnapshot, LatencyKind, LocalStats, StatsReport};
pub use trace::{ThreadTrace, TraceRecord, TraceRings, TraceSnapshot};

/// A schedule-relevant program point, as reported to [`SchedHooks`].
///
/// These are exactly the windows where the tracking protocols race: the
/// moments between "decide based on a remote thread's state" and "act on
/// that decision". A perturbation layer (crate `drink-check`) injects
/// delays at these points to force the interleavings a 1-core OS scheduler
/// would essentially never produce on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SchedPoint {
    /// A non-blocking safe point poll (loop back edge).
    SafepointPoll,
    /// One backoff step of a [`Wait`]: every `Wait` reports here.
    SpinBackoff,
    /// One iteration of a contended monitor acquire's spin phase.
    MonitorAcquireSpin,
    /// About to park on a contended monitor acquire (BLOCKED published).
    MonitorPark,
    /// Woke from a monitor park (acquire or wait), back to RUNNING.
    MonitorUnpark,
    /// About to make a monitor release visible (PSRO hook already ran).
    MonitorRelease,
    /// About to park inside `Object.wait()` (monitor already released).
    MonitorWaitPark,
    /// About to wake every waiter (`notifyAll`).
    MonitorNotify,
    /// Just enqueued an explicit coordination request (requester side).
    CoordRequest,
    /// About to answer pending explicit requests (responder side).
    CoordRespond,
    /// A coordination fan-out is about to enqueue explicit requests to every
    /// still-running peer at once (requester side, once per fan-out).
    CoordFanoutEnqueue,
    /// One iteration of a fan-out's combined poll loop: all outstanding
    /// tokens checked, peers re-examined for the blocked fallback (requester
    /// side). This is the widened blocked/running race window the batched
    /// protocol introduces.
    CoordFanoutPoll,
    /// About to run a generic blocking operation (BLOCKED published).
    BlockedPublish,
    /// A validating reader has loaded the payload and is about to re-load
    /// the state word (DESIGN.md §12). This is the race window of the
    /// coordination-free read path: a writer's claim landing here must make
    /// the revalidation fail.
    SeqlockReadValidate,
    /// A hybrid slow path has locked a pessimistic state that it will release
    /// right after the program access, and that access is about to run. A
    /// foreign access landing here must find the state still locked.
    LockedAccess,
}

/// A deterministic schedule-perturbation layer, registered on a [`Runtime`]
/// via [`Runtime::set_sched_hooks`].
///
/// `perturb` is always invoked by thread `t` itself, at the [`SchedPoint`]s
/// above; implementations delay the calling thread (yield, sleep, spin) or
/// do nothing. Production runs register no hooks, and every call site
/// reduces to a branch on a `None`.
pub trait SchedHooks: Send + Sync + std::fmt::Debug {
    /// Possibly delay the calling thread `t` at `point`.
    fn perturb(&self, t: ThreadId, point: SchedPoint);
}

/// Is the deliberately-injected protocol bug `name` enabled via the
/// `DRINK_INJECT_BUG` env var? Only consulted from `check-invariants`
/// builds; the checking harness uses it to prove the chaos matrix catches
/// real protocol violations (see DESIGN.md §9).
pub fn injected_bug(name: &str) -> bool {
    static CACHE: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| std::env::var("DRINK_INJECT_BUG").ok())
        .as_deref()
        == Some(name)
}

/// The parameter of the deliberately-injected *fault* `name`, from the
/// `DRINK_INJECT_FAULT=<name>:<ms>` env var, as a duration. Unlike
/// [`injected_bug`] (which plants protocol *violations* the oracles must
/// flag), a fault models a legal-but-hostile environment — e.g.
/// `stall-responder:<ms>` freezes a victim's responding-safe-point loop so
/// the coordination-deadline/demotion paths are actually exercised. Only
/// consulted from `check-invariants` builds.
pub fn injected_fault(name: &str) -> Option<std::time::Duration> {
    static CACHE: std::sync::OnceLock<Option<(String, u64)>> = std::sync::OnceLock::new();
    let parsed = CACHE.get_or_init(|| {
        let raw = std::env::var("DRINK_INJECT_FAULT").ok()?;
        let (fault, ms) = raw.split_once(':')?;
        Some((fault.to_string(), ms.trim().parse::<u64>().ok()?))
    });
    match parsed {
        Some((fault, ms)) if fault == name => Some(std::time::Duration::from_millis(*ms)),
        _ => None,
    }
}

/// Callbacks invoked by the substrate at the program points where a managed
/// runtime would run tracking instrumentation.
///
/// The tracking engines in `drink-core` implement this; the substrate itself
/// never interprets object states or coordination requests.
pub trait RtHooks {
    /// Non-blocking safe point poll: respond to any pending coordination
    /// requests. Called by the mutator at loop back edges and while it spins
    /// inside blocking operations.
    fn poll(&self, t: ThreadId);

    /// About to publish BLOCKED status: the thread must reach a consistent
    /// "blocking safe point" state (e.g. flush its pessimistic lock buffer and
    /// bump its release clock) because other threads may now coordinate with
    /// it implicitly.
    fn before_block(&self, t: ThreadId);

    /// Called immediately after BLOCKED status is visible, to respond to
    /// explicit requests that raced with the status change (the requester saw
    /// RUNNING an instant before we blocked).
    fn on_blocked_publish(&self, t: ThreadId);

    /// Back to RUNNING. `epoch_bumped` is true if one or more threads
    /// coordinated with this thread implicitly while it was blocked.
    fn after_unblock(&self, t: ThreadId, epoch_bumped: bool);

    /// Program synchronization release operation: monitor release, monitor
    /// wait (which releases the monitor), thread fork, thread exit.
    fn on_psro(&self, t: ThreadId);
}

/// A no-op hook implementation, useful for untracked baseline runs and tests
/// of the bare substrate.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl RtHooks for NoHooks {
    #[inline]
    fn poll(&self, _t: ThreadId) {}
    #[inline]
    fn before_block(&self, _t: ThreadId) {}
    #[inline]
    fn on_blocked_publish(&self, _t: ThreadId) {}
    #[inline]
    fn after_unblock(&self, _t: ThreadId, _epoch_bumped: bool) {}
    #[inline]
    fn on_psro(&self, _t: ThreadId) {}
}
