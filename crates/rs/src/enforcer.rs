//! The region-serializability enforcer façade (§5).
//!
//! [`RsEnforcer`] wraps the hybrid tracking engine carrying [`RsSupport`] —
//! in its optimistic configuration for §5.1's enforcer, in the paper's
//! default one for §5.2's — and executes *statically bounded regions*
//! atomically:
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

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::engine::Tracker;
use drink_runtime::{Event, MonitorId, ObjId, Runtime, ThreadId};

use crate::support::{RegionTable, RsSupport};

/// Marker error: the current region was rolled back and must restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Restart;

/// The region-serializability enforcer; Figure 9(b)'s two configurations are
/// [`RsEnforcer::optimistic`] and [`RsEnforcer::hybrid`].
pub struct RsEnforcer {
    engine: HybridEngine<RsSupport>,
    table: Arc<RegionTable>,
    name: &'static str,
}

impl RsEnforcer {
    /// Build the optimistic enforcer (§5.1, per prior work) over `rt`.
    pub fn optimistic(rt: Arc<Runtime>) -> Self {
        RsEnforcer::build(rt, HybridConfig::optimistic(), "opt-rs")
    }

    /// Build the hybrid enforcer (§5.2, the paper's contribution) over `rt`
    /// (paper-default policy).
    pub fn hybrid(rt: Arc<Runtime>) -> Self {
        RsEnforcer::build(rt, HybridConfig::default(), "hybrid-rs")
    }

    fn build(rt: Arc<Runtime>, cfg: HybridConfig, name: &'static str) -> Self {
        let table = RegionTable::new(rt.clone());
        let engine = HybridEngine::with_config(rt, RsSupport::new(table.clone()), cfg);
        RsEnforcer { engine, table, name }
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
                let slot = unsafe { self.table.slot(t) };
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
                let slot = unsafe { self.table.slot(t) };
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
                    self.safepoint(t);
                    return r;
                }
                _ => {
                    // Rolled back (or body observed Restart): try again. The
                    // undo log was already applied at the yield.
                    debug_assert!(doomed, "body returned Err without a rollback");
                    self.note(t, Event::RegionRestart, attempts.into());
                    self.safepoint(t);
                    // Contention management: back off so the threads that
                    // restarted us can commit before we re-acquire.
                    attempts += 1;
                    for _ in 0..attempts.min(16) {
                        self.safepoint(t);
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

    // The mutator lifecycle + non-region operations, forwarded so the
    // enforcer can be driven like any engine between regions.

    /// The runtime.
    pub fn rt(&self) -> &Arc<Runtime> {
        self.engine.rt()
    }

    /// Configuration name ("opt-rs" / "hybrid-rs").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Attach the calling thread.
    pub fn attach(&self) -> ThreadId {
        let t = self.engine.attach();
        self.table.reset_owner(t);
        t
    }

    /// Detach (must be outside any region).
    pub fn detach(&self, t: ThreadId) {
        debug_assert!(!unsafe { self.table.slot(t) }.in_region);
        self.engine.detach(t)
    }

    /// Safe point poll between regions.
    pub fn safepoint(&self, t: ThreadId) {
        self.engine.safepoint(t)
    }

    /// Program lock acquire (between regions; sync ops bound regions).
    pub fn lock(&self, t: ThreadId, m: MonitorId) {
        self.engine.lock(t, m)
    }

    /// Program lock release.
    pub fn unlock(&self, t: ThreadId, m: MonitorId) {
        self.engine.unlock(t, m)
    }

    /// Initialize `o` as allocated by `owner`.
    pub fn alloc_init(&self, o: ObjId, owner: ThreadId) {
        self.engine.alloc_init(o, owner)
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
        let slot = unsafe { self.enforcer.table.slot(self.t) };
        if slot.must_restart {
            return Err(Restart);
        }
        let v = self.enforcer.engine.read(self.t, o);
        // The read may have yielded (and rolled back) while acquiring
        // ownership; its value is then from a doomed schedule.
        let slot = unsafe { self.enforcer.table.slot(self.t) };
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
        let slot = unsafe { self.enforcer.table.slot(self.t) };
        if slot.must_restart {
            return Err(Restart);
        }
        let Some(old) = self.enforcer.engine.try_write(self.t, o, v) else {
            return Err(Restart);
        };
        let slot = unsafe { self.enforcer.table.slot(self.t) };
        slot.undo.push((o, old));
        if !slot.accessed.contains(&o.0) {
            slot.accessed.push(o.0);
        }
        Ok(())
    }
}
