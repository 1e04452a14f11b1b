//! The interface between tracking engines and runtime support.
//!
//! The paper layers two kinds of runtime support on top of tracking: a
//! dependence recorder (§4) and a region-serializability enforcer (§5). Both
//! need to observe what the engines do — state transitions with their
//! happens-before sources, responding safe points, PSRO flushes — without the
//! engines knowing anything about them. [`Support`] is that observer
//! interface; every method has an empty inline default so the
//! tracking-alone configurations ([`NullSupport`]) compile to exactly the
//! uninstrumented engine — happens-before sources included: an event carries
//! only what the protocol already has in hand, and a support that wants a
//! remote clock reads it itself.
//!
//! ## How transition events carry happens-before information
//!
//! The engines hand the recorder *protocol-derived* sources:
//!
//! * **coordination** (explicit or implicit) yields `(thread, clock)` pairs
//!   read from responses or from blocked threads' release clocks — these
//!   dominate the remote thread's last access (Figure 4(b));
//! * **pessimistic uncontended transitions involving conflicting states**
//!   name the previous holder(s); the recorder reads their release clocks
//!   inside the hook, without communication — sound because deferred
//!   unlocking means an *unlocked* pessimistic state was flushed at a PSRO no
//!   later than the clock value read (§4.2);
//! * **upgrades and fences** carry no protocol source. The recorder closes
//!   the gap with a per-object *last-transition* side table: every recorded
//!   transition deposits `(thread, clock)` for the next accessor. This is
//!   sound for exactly these rows of Table 3 because after an upgrade/fence
//!   the previous holder can only have performed *reads* of the object since
//!   its own (recorded) transition — see `drink-replay` for the full
//!   argument.

use drink_runtime::{ObjId, Runtime, ThreadId};

/// Whom a pessimistic conflicting acquire took the state from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrevHolders {
    /// The owner named by the exclusive state.
    One(ThreadId),
    /// The state was read-shared, which names no one: conservatively, every
    /// other registered thread.
    AllOthers,
}

/// A non-same-state transition, as reported to [`Support::on_transition`].
///
/// `sources` slices borrow the engine's per-thread scratch buffer; consumers
/// must copy what they keep.
#[derive(Clone, Copy, Debug)]
pub enum TransitionEv<'a> {
    /// Upgrading transition by the owner itself (RdEx(T) → WrEx(T) on T's
    /// write): no cross-thread ordering is created.
    UpgradeOwn,
    /// A RdSh state was created with counter `c` by this thread reading an
    /// object last held by `prev_owner` (covers both `RdExOpt(T1) → RdShOpt`
    /// and the pessimistic `RdEx*/WrExRLock(T1) → RdShRLock` rows, and, where
    /// a read installs unlocked, `RdExPess/WrExPess(T1) → RdShPess`: the
    /// latter is a conflicting, w→r, transition).
    RdShCreate {
        /// The previous exclusive holder.
        prev_owner: ThreadId,
        /// The freshly claimed `gRdShCount` value.
        c: u64,
        /// True if the new state is pessimistic (RdShRLock).
        pess: bool,
    },
    /// Fence transition: this thread's first read of RdSh epoch `c`
    /// (its `rdShCount` was stale). Covers the optimistic fence row and the
    /// equivalent pessimistic `RdShPess(c)` first-read.
    Fence {
        /// The epoch being fenced against.
        c: u64,
    },
    /// Conflicting transition resolved by coordination.
    Conflict {
        /// `(thread, release clock)` pairs dominating each remote thread's
        /// last access.
        sources: &'a [(ThreadId, u64)],
    },
    /// Pessimistic uncontended transition involving conflicting states
    /// (e.g. `WrExPess(T1)` read by T2). The happens-before sources are the
    /// previous holders' release clocks, read without communication; a
    /// support that records them reads them here — after the claim, before
    /// the publish (§4.2).
    PessConflictingAcquire {
        /// The previous holder(s) of the state.
        prev: PrevHolders,
    },
    /// This thread read-locked its *own* unlocked exclusive state
    /// (`WrExPess(T) → WrEx*Lock(T)` or `RdExPess(T) → RdExRLock(T)`). No
    /// cross-thread edge, but recorders must refresh the object's
    /// last-transition entry: a second reader may later upgrade this state
    /// to `RdShRLock(2)` and needs an edge dominating this thread's earlier
    /// writes — which this (post-write, program-ordered) read-lock provides.
    PessLocalAcquire,
}

/// What a responding thread is about to give up (passed to
/// [`Support::before_yield`]). Speculation-based support uses it to decide
/// whether its in-flight region is actually disturbed.
#[derive(Clone, Copy, Debug)]
pub struct YieldInfo<'a> {
    /// Objects named by the pending explicit requests (the requesters will
    /// take exactly these via their Int claims).
    pub requested: &'a [ObjId],
    /// Pessimistic objects this thread currently holds locked — the flush
    /// that follows will unlock *all* of them.
    pub pess_locked: &'a [ObjId],
}

/// Context handed to every support callback.
#[derive(Clone, Copy)]
pub struct SupportCx<'a> {
    /// The runtime (for reading clocks, completing side tables, etc.).
    pub rt: &'a Runtime,
    /// The thread the event occurred on.
    pub t: ThreadId,
    /// The thread's deterministic operation index: the id of the program
    /// operation currently executing (or, between operations, the id the
    /// next operation will have). Recorders pin log entries to this.
    pub op: u64,
}

/// A support's lock discipline: the one place lock lifetime is decided.
/// Every discipline runs Table 3's rows; they differ in when a lock goes
/// back, and in whether a read may be served without one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locking {
    /// §3.1's deferred unlocking, Table 3 to the letter: every lock is held
    /// until the next PSRO or responding safe point flushes the lock
    /// buffer; an access to a state its thread holds is reentrant, and one
    /// that meets another thread's lock coordinates so that the holder
    /// flushes. The recorder needs it for its release-clock edges (§4.2), the
    /// RS enforcer to hold each lock to the end of its region (§5).
    Deferred,
    /// §3.1's initial design: the same rows, but every lock goes back inside
    /// the access that took it — after the payload access, by a store for a
    /// write lock and as one flush step for a read lock. No access is ever
    /// reentrant, and one that meets a lock waits for its release instead of
    /// coordinating.
    Eager,
    /// [`Locking::Eager`] plus the departures tracking alone allows, since no
    /// support consumes the events they skip:
    ///
    /// * a read whose state word says
    ///   [`validated_read_ok`](crate::word::StateWord::validated_read_ok) is
    ///   served by seqlock validation (DESIGN.md §12), which performs **no
    ///   state transition and therefore fires no support hook**;
    /// * a conflicting read installs an *unlocked* read-shared state under a
    ///   fresh epoch, then validates the payload against it (Table 3's
    ///   marked rows ②, DESIGN.md §12);
    /// * on an object the policy has settled, a write's release publishes a
    ///   read-shared version word that every later read validates against
    ///   (marked row ③).
    ///
    /// None is sound for a support that reads those events: the recorder
    /// needs the `Fence` transition to order replayed RdSh reads, and the RS
    /// enforcer needs reads to take read locks for its two-phase-locking
    /// argument.
    Relaxed,
}

/// Observer interface for runtime support built on a tracking engine.
///
/// All methods default to no-ops; [`NullSupport`] is the canonical "tracking
/// alone" instantiation. Each hook has one consumer: the recorder (§4) reads
/// [`Support::on_transition`], [`Support::on_release`] and
/// [`Support::on_monitor_acquire`]; the RS enforcer (§5) reads
/// [`Support::before_yield`], [`Support::on_wake_after_implicit`] and
/// [`Support::should_abort`]. Implementations must be cheap and
/// reentrancy-free: they are called from instrumentation paths, sometimes
/// while the calling thread holds pessimistic object locks.
#[allow(unused_variables)]
pub trait Support: Send + Sync + 'static {
    /// If true, engines *pre-publish* transitions: the state word is parked
    /// at `Int(T)` while [`Support::on_transition`] runs and only then set to
    /// the final state. Recorders need this — their per-object side-table
    /// and RdSh-epoch entries must be visible before any thread can observe
    /// (and record edges against) the new state. Costs one extra store per
    /// slow-path transition, so it is off for supports that don't read
    /// per-object recorder state.
    const PREPUBLISH: bool = false;

    /// How long a lock lives, and whether an access may do without one (see
    /// [`Locking`]). Table 3 to the letter unless a support says otherwise:
    /// the supports built on tracking need every lock held until the next
    /// flush.
    const LOCKING: Locking = Locking::Deferred;

    /// Whether a `Conflict` row of Table 3 coordinates with the state's
    /// holder(s) (Figure 10(b) line 43), as every sound tracking must. Only
    /// [`IdealModel`] says no: its conflicts install the row's optimistic word
    /// with one CAS and are priced as pessimistic transitions.
    const COORDINATE: bool = true;

    /// A non-same-state transition of `obj` completed on thread `cx.t`.
    /// Called with the final state already decided; if
    /// [`Support::PREPUBLISH`] is set, the state word still reads `Int(T)`
    /// while this runs. Always called *before* the program access is
    /// performed. The recorder turns it into log edges.
    #[inline(always)]
    fn on_transition(&self, cx: SupportCx<'_>, obj: ObjId, ev: TransitionEv<'_>) {}

    /// Thread `cx.t` bumped its release clock and flushed its lock buffer,
    /// at a PSRO, a blocking safe point or a responding safe point (there,
    /// before the response tokens complete). The recorder mirrors the bump
    /// into its log.
    #[inline(always)]
    fn on_release(&self, cx: SupportCx<'_>) {}

    /// Thread `cx.t` is about to relinquish ownership of object states (it
    /// will flush and respond, or it is entering a blocking safe point). The
    /// RS enforcer rolls back its in-flight region here — *before* any other
    /// thread can observe the yielded states — but only when `info` actually
    /// intersects the region's accesses.
    #[inline(always)]
    fn before_yield(&self, cx: SupportCx<'_>, info: YieldInfo<'_>) {}

    /// Thread `cx.t` acquired a monitor; `prev` identifies the previous
    /// release (thread and its release clock at release time), if any. The
    /// recorder logs it as a synchronization edge.
    #[inline(always)]
    fn on_monitor_acquire(&self, cx: SupportCx<'_>, prev: Option<(ThreadId, u64)>) {}

    /// Thread `cx.t` woke from a blocking safe point and learned it had been
    /// coordinated with implicitly. The RS enforcer rolls its region back
    /// defensively.
    #[inline(always)]
    fn on_wake_after_implicit(&self, cx: SupportCx<'_>) {}

    /// Should thread `t` abort its in-flight *write* instead of completing
    /// it? Engines consult this in write slow paths after any point where the
    /// thread may have yielded ownership (responded to coordination). The RS
    /// enforcer answers true once the thread's current region has been rolled
    /// back — completing the write would publish a value from an aborted
    /// region. Reads never abort (a stale read acquisition is harmless; the
    /// region discards the value and restarts).
    #[inline(always)]
    fn should_abort(&self, t: ThreadId) -> bool {
        let _ = t;
        false
    }
}

/// Tracking alone: every hook is a no-op, and the discipline is
/// [`Locking::Relaxed`] — no lock outlives its access, and reads validate
/// where they may.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSupport;

impl Support for NullSupport {
    const LOCKING: Locking = Locking::Relaxed;
}

/// Tracking alone on the paper's own model: every hook is a no-op, as with
/// [`NullSupport`], but the discipline is [`Locking::Deferred`], so every
/// access takes exactly the transition its Table 3 row prescribes. The tests
/// that pin those rows, and the experiments that reproduce the paper's shape
/// (Table 2's reentrant and contended counts, E9's self-read modes, Figure
/// 8's racyInc worst case), run on this.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaperModel;

impl Support for PaperModel {}

/// [`PaperModel`] under [`Locking::Eager`]: Table 3's rows, every lock
/// released inside its access. E10 prices it against `PaperModel`, and E1
/// prices §2.1's pessimistic CAS pair on it.
#[derive(Clone, Copy, Debug, Default)]
pub struct EagerModel;

impl Support for EagerModel {
    const LOCKING: Locking = Locking::Eager;
}

/// Figure 7's "Ideal" estimate (§7.5), run on
/// [`HybridConfig::optimistic`](crate::engine::hybrid::HybridConfig::optimistic):
///
/// > "This unsound configuration estimates the cost of all conflicting
/// > transitions becoming pessimistic and all same-state transitions
/// > remaining optimistic."
///
/// Every hook is a no-op and the discipline is [`Locking::Deferred`], so no
/// read is served by validation and every access takes its row of Table 1.
/// A `Conflict` row coordinates with no one ([`Support::COORDINATE`]): its
/// optimistic word is installed by one CAS and counted as
/// [`Event::PessUncontended`](drink_runtime::Event::PessUncontended), so the
/// cost model prices it at the pessimistic rate and no thread ever waits for
/// another. **Unsound**: it can miss dependences and break
/// instrumentation–access atomicity, so no support is ever built on it.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdealModel;

impl Support for IdealModel {
    const COORDINATE: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Support that records which hooks fired, proving defaults are
    /// overridable and the dispatch is static.
    #[derive(Default)]
    struct Probe {
        transitions: std::sync::atomic::AtomicUsize,
        /// Every `PessConflictingAcquire`, as `(object, holders named)`.
        acquires: std::sync::Mutex<Vec<(ObjId, PrevHolders)>>,
    }

    impl Support for Probe {
        fn on_transition(&self, _cx: SupportCx<'_>, obj: ObjId, ev: TransitionEv<'_>) {
            self.transitions
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let TransitionEv::PessConflictingAcquire { prev } = ev {
                self.acquires.lock().unwrap().push((obj, prev));
            }
        }
    }

    #[test]
    fn null_support_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NullSupport>(), 0);
    }

    #[test]
    fn probe_receives_events() {
        let rt = Runtime::new(Default::default());
        let p = Probe::default();
        let cx = SupportCx {
            rt: &rt,
            t: ThreadId(0),
            op: 7,
        };
        p.on_transition(cx, ObjId(1), TransitionEv::UpgradeOwn);
        p.on_release(cx); // default no-op
        assert_eq!(p.transitions.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    /// A pessimistic conflicting acquire names whom it took the state from
    /// and reads no clock on the support's behalf: the owner of an exclusive
    /// state, everyone else for a read-shared one.
    #[test]
    fn pess_conflicting_acquires_name_the_previous_holders() {
        use crate::engine::hybrid::{HybridConfig, HybridEngine};
        use crate::engine::Tracker;
        use crate::word::{LockMode, StateWord};
        use std::sync::atomic::Ordering;

        let rt = std::sync::Arc::new(Runtime::new(
            drink_runtime::RuntimeConfig::builder().max_threads(4).heap_objects(8).build(),
        ));
        let e = HybridEngine::with_config(rt, Probe::default(), HybridConfig::default());
        let (t, other) = (e.attach(), e.attach());
        let inject = |o: ObjId, w: StateWord| e.rt().obj(o).state().store(w.0, Ordering::SeqCst);

        // WrExPess(T1) R by T → RdExRLock(T), W by T → WrExWLock(T).
        inject(ObjId(0), StateWord::wr_ex_pess(other, LockMode::Unlocked));
        e.read(t, ObjId(0));
        inject(ObjId(1), StateWord::wr_ex_pess(other, LockMode::Unlocked));
        e.write(t, ObjId(1), 7);
        // RdShPess(c) W by T → WrExWLock(T).
        inject(ObjId(2), StateWord::rd_sh_pess(3, 0));
        e.write(t, ObjId(2), 7);
        // RdShRLock(1)(c), read-locked by T alone, W by T: upgrade in place.
        inject(ObjId(3), StateWord::rd_sh_pess(3, 0));
        e.read(t, ObjId(3));
        e.write(t, ObjId(3), 7);

        assert_eq!(
            *e.common().support.acquires.lock().unwrap(),
            [
                (ObjId(0), PrevHolders::One(other)),
                (ObjId(1), PrevHolders::One(other)),
                (ObjId(2), PrevHolders::AllOthers),
                (ObjId(3), PrevHolders::AllOthers),
            ]
        );
        e.detach(t);
    }
}
