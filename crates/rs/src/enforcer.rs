//! The region-serializability enforcer façade (§5).
//!
//! [`RsEnforcer`] wraps the hybrid tracking engine carrying [`RsSupport`] —
//! in [`EngineKind::Optimistic`]'s configuration for §5.1's enforcer, in
//! [`EngineKind::Hybrid`]'s for §5.2's — and executes *statically bounded
//! regions* atomically. Between regions its engine is driven like any other,
//! through a [`Session`](drink_core::Session) attached to
//! [`RsEnforcer::engine`]. Inside a region:
//!
//! * every access inside a region acquires (and keeps) ownership of the
//!   object's state — two-phase locking via the tracking protocol itself;
//! * the thread responds to coordination only while it is itself waiting
//!   for a transition; doing so rolls the region back (undo log) and flags a
//!   restart. Region bodies are written against [`RegionCx`], whose
//!   operations return `Err(Restart)` once the region is doomed, so the body
//!   unwinds promptly via `?`;
//! * the region end is a safe point: pending coordination requests are
//!   answered there, *after* the region's effects are committed.
//!
//! Deferred unlocking (§5.2) is what makes region ends cheap under hybrid
//! tracking: pessimistic locks are flushed at PSROs and responding safe
//! points — both region boundaries — so a region end that has nothing to
//! answer is a single flag check.

use std::sync::Arc;

use drink_core::engine::hybrid::HybridEngine;
use drink_core::engine::{EngineKind, Tracker};
use drink_runtime::{Event, ObjId, Runtime, ThreadId};

use crate::support::{RegionState, RsSupport};

/// Marker error: the current region was rolled back and must restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Restart;

/// The region-serializability enforcer; Figure 9(b)'s two configurations are
/// the enforcers on [`EngineKind::Optimistic`] and [`EngineKind::Hybrid`].
pub struct RsEnforcer {
    engine: HybridEngine<RsSupport>,
}

impl RsEnforcer {
    /// Build the enforcer on `kind`'s tracking configuration over `rt`.
    /// Panics if `kind` is not a configuration of the hybrid engine
    /// ([`EngineKind::with_support`]). Its locks are deferred whatever the
    /// kind: [`RsSupport`]'s discipline is `Locking::Deferred`, which
    /// two-phase locking needs to hold each lock to the end of its region
    /// (§5).
    pub fn new(rt: Arc<Runtime>, kind: EngineKind) -> Self {
        let support = RsSupport::for_runtime(&rt);
        RsEnforcer { engine: kind.with_support(rt, support) }
    }

    /// The tracking engine: attach sessions to it, and drive it between
    /// regions like any engine.
    pub fn engine(&self) -> &HybridEngine<RsSupport> {
        &self.engine
    }

    /// Thread `t`'s region state, in the support the engine owns.
    ///
    /// # Safety
    ///
    /// Caller must be mutator `t`, and must not hold the reference across
    /// an engine access, which may roll the region back.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self, t: ThreadId) -> &mut RegionState {
        // SAFETY: forwarded to the caller.
        unsafe { self.engine.common().support.slot(t) }
    }

    /// Execute `body` as an atomic region on mutator `t`, retrying on
    /// rollback. The body reads and writes shared objects only through the
    /// provided [`RegionCx`] and must propagate `Restart` errors with `?`.
    ///
    /// Region bodies must be *pure* apart from their tracked accesses: they
    /// may run several times.
    pub fn region<R>(
        &self,
        t: ThreadId,
        mut body: impl FnMut(&RegionCx<'_>) -> Result<R, Restart>,
    ) -> R {
        let mut attempts = 0u32;
        loop {
            {
                // SAFETY: region() is called from the attached mutator
                // thread; the borrow is scoped so it never overlaps the
                // body's own slot accesses.
                let slot = unsafe { self.slot(t) };
                slot.in_region = true;
                slot.must_restart = false;
                slot.undo.clear();
                slot.accessed.clear();
            }
            self.note(t, Event::RegionExec, attempts.into());

            let cx = RegionCx { enforcer: self, t };
            let result = body(&cx);

            let doomed = {
                // SAFETY: as above.
                let slot = unsafe { self.slot(t) };
                let doomed = slot.must_restart;
                slot.in_region = false;
                if !doomed {
                    slot.undo.clear();
                }
                doomed
            };
            match result {
                Ok(r) if !doomed => {
                    // Region end: a safe point. Answer requests that queued up
                    // while the region held ownership.
                    self.engine.safepoint(t);
                    return r;
                }
                _ => {
                    // Rolled back (or body observed Restart): try again. The
                    // undo log was already applied at the yield.
                    debug_assert!(doomed, "body returned Err without a rollback");
                    self.note(t, Event::RegionRestart, attempts.into());
                    self.engine.safepoint(t);
                    // Contention management: back off so the threads that
                    // restarted us can commit before we re-acquire.
                    attempts += 1;
                    for _ in 0..attempts.min(16) {
                        self.engine.safepoint(t);
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Count `e` in the engine's per-thread stats and record it in `t`'s
    /// trace ring, if the runtime has rings (`arg` = the attempt number).
    fn note(&self, t: ThreadId, e: Event, arg: u64) {
        let common = self.engine.common();
        // SAFETY: acting thread.
        common.note(unsafe { common.ts(t) }, e, arg)
    }
}

/// Accessor handle passed to region bodies.
pub struct RegionCx<'a> {
    enforcer: &'a RsEnforcer,
    t: ThreadId,
}

impl RegionCx<'_> {
    /// Tracked read within the region.
    pub fn read(&self, o: ObjId) -> Result<u64, Restart> {
        // SAFETY: acting thread.
        let slot = unsafe { self.enforcer.slot(self.t) };
        if slot.must_restart {
            return Err(Restart);
        }
        let v = self.enforcer.engine.read(self.t, o);
        // The read may have yielded (and rolled back) while acquiring
        // ownership; its value is then from a doomed schedule.
        let slot = unsafe { self.enforcer.slot(self.t) };
        if slot.must_restart {
            return Err(Restart);
        }
        if !slot.accessed.contains(&o.0) {
            slot.accessed.push(o.0);
        }
        Ok(v)
    }

    /// Tracked write within the region (undo-logged).
    pub fn write(&self, o: ObjId, v: u64) -> Result<(), Restart> {
        // SAFETY: acting thread.
        let slot = unsafe { self.enforcer.slot(self.t) };
        if slot.must_restart {
            return Err(Restart);
        }
        let Some(old) = self.enforcer.engine.try_write(self.t, o, v) else {
            return Err(Restart);
        };
        let slot = unsafe { self.enforcer.slot(self.t) };
        slot.undo.push((o, old));
        if !slot.accessed.contains(&o.0) {
            slot.accessed.push(o.0);
        }
        Ok(())
    }
}
