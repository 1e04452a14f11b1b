//! The enforcer's [`Support`] implementation: speculation state per thread.
//!
//! The optimistic/hybrid RS enforcers (§5) provide serializability by
//! two-phase locking of object states: a region never relinquishes ownership
//! until it ends — *except* when its thread must respond to coordination
//! while itself waiting for a transition (deadlock freedom, §5.1). At that
//! point the region cannot be salvaged: [`RsSupport::before_yield`] rolls
//! back the region's writes (undo log, newest first) **before** ownership
//! becomes visible to the requester, and marks the region for restart.
//!
//! The engines consult [`Support::should_abort`] after any potential yield in
//! a write slow path, so a write belonging to a rolled-back region is never
//! performed.

use drink_core::support::{Support, SupportCx, YieldInfo};
use drink_core::tstate::OwnedByThread;
use drink_runtime::{ObjId, Runtime, ThreadId};

/// Per-thread speculation state.
#[derive(Default)]
pub(crate) struct RegionState {
    /// Is a region currently executing on this thread?
    pub in_region: bool,
    /// Has the current region been rolled back (must restart)?
    pub must_restart: bool,
    /// Undo log: `(object, payload before each write)`; applied in reverse
    /// on rollback.
    pub undo: Vec<(ObjId, u64)>,
    /// Objects this region has accessed so far. A yield disturbs the region
    /// only if it hands over one of these (two-phase locking cares about the
    /// locks the region actually took, not about ownership left over from
    /// earlier, committed regions). Statically bounded regions are short, so
    /// a linear vector beats a hash set.
    pub accessed: Vec<u32>,
}

/// The enforcer's engine-side hooks, over its one table of per-thread region
/// states. The engine owns it; the enforcer façade reaches it through
/// `engine.common().support`.
pub struct RsSupport {
    slots: Box<[OwnedByThread<RegionState>]>,
}

impl RsSupport {
    /// A table sized for `rt`'s thread slots.
    pub fn for_runtime(rt: &Runtime) -> Self {
        let n = rt.config().max_threads;
        RsSupport { slots: (0..n).map(|_| OwnedByThread::new(RegionState::default())).collect() }
    }

    /// Thread `t`'s region state.
    ///
    /// # Safety
    ///
    /// Caller must be the OS thread attached as mutator `t` (all yield hooks
    /// and region operations run on the owning thread).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub(crate) unsafe fn slot(&self, t: ThreadId) -> &mut RegionState {
        // SAFETY: forwarded to the caller.
        unsafe { self.slots[t.index()].get() }
    }

    /// Roll back thread `t`'s in-flight region, if any: restore payloads of
    /// `rt`'s heap in reverse write order and mark the region for restart.
    ///
    /// # Safety
    ///
    /// Caller must be thread `t`.
    pub(crate) unsafe fn rollback(&self, rt: &Runtime, t: ThreadId) {
        // SAFETY: caller contract.
        let slot = unsafe { self.slot(t) };
        if !slot.in_region {
            return;
        }
        for (o, old) in slot.undo.drain(..).rev() {
            rt.obj(o).data_write(old);
        }
        slot.must_restart = true;
    }
}

impl Support for RsSupport {
    fn before_yield(&self, cx: SupportCx<'_>, info: YieldInfo<'_>) {
        // Runs on cx.t itself, before any object state is unlocked or
        // transferred — the requester can never observe speculative payloads.
        //
        // Restart only when the yield actually gives away something this
        // region accessed: the requester takes exactly the objects it named,
        // and the flush unlocks exactly the pessimistic lock buffer. States
        // still owned from *earlier, committed* regions may transfer freely —
        // without this distinction, hot workloads restart-livelock (every
        // incoming request for a long-held object would nuke the current
        // region).
        // SAFETY: support hooks run on the mutator thread.
        let slot = unsafe { self.slot(cx.t) };
        if !slot.in_region {
            return;
        }
        let disturbed = info
            .requested
            .iter()
            .chain(info.pess_locked.iter())
            .any(|o| slot.accessed.contains(&o.0));
        if disturbed {
            // SAFETY: as above.
            unsafe { self.rollback(cx.rt, cx.t) }
        }
    }

    #[inline]
    fn should_abort(&self, t: ThreadId) -> bool {
        // SAFETY: engines call this from the acting thread.
        let slot = unsafe { self.slot(t) };
        slot.in_region && slot.must_restart
    }

    fn on_wake_after_implicit(&self, cx: SupportCx<'_>) {
        // Statically bounded regions contain no blocking operations, so a
        // region can never be implicitly coordinated with. Defensive anyway:
        // treat it like a yield.
        // SAFETY: as above.
        unsafe { self.rollback(cx.rt, cx.t) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_runtime::RuntimeConfig;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeConfig::builder().max_threads(2).heap_objects(4).monitors(1).build())
    }

    #[test]
    fn rollback_restores_in_reverse_order() {
        let rt = runtime();
        let sup = RsSupport::for_runtime(&rt);
        let t = ThreadId(0);
        rt.obj(ObjId(0)).data_write(100);

        let slot = unsafe { sup.slot(t) };
        slot.in_region = true;
        // Two writes to the same object: undo must land on the oldest value.
        slot.undo.push((ObjId(0), 100));
        rt.obj(ObjId(0)).data_write(1);
        slot.undo.push((ObjId(0), 1));
        rt.obj(ObjId(0)).data_write(2);

        unsafe { sup.rollback(&rt, t) };
        assert_eq!(rt.obj(ObjId(0)).data_read(), 100);
        let slot = unsafe { sup.slot(t) };
        assert!(slot.must_restart);
        assert!(slot.undo.is_empty());
    }

    #[test]
    fn rollback_outside_region_is_noop() {
        let rt = runtime();
        let sup = RsSupport::for_runtime(&rt);
        rt.obj(ObjId(1)).data_write(7);
        unsafe { sup.rollback(&rt, ThreadId(0)) };
        assert_eq!(rt.obj(ObjId(1)).data_read(), 7);
        assert!(!unsafe { sup.slot(ThreadId(0)) }.must_restart);
    }

    #[test]
    fn should_abort_only_in_rolled_back_region() {
        let rt = runtime();
        let sup = RsSupport::for_runtime(&rt);
        let t = ThreadId(0);
        assert!(!sup.should_abort(t));
        unsafe { sup.slot(t) }.in_region = true;
        assert!(!sup.should_abort(t));
        unsafe { sup.rollback(&rt, t) };
        assert!(sup.should_abort(t));
    }
}
