//! The "Ideal" configuration of Figure 7: optimistic tracking **without**
//! coordination for conflicting transitions.
//!
//! > "This unsound configuration estimates the cost of all conflicting
//! > transitions becoming pessimistic and all same-state transitions
//! > remaining optimistic. ... representing an estimated upper bound on the
//! > performance that hybrid tracking might be able to provide." (§7.5)
//!
//! Conflicting transitions are resolved with a bare CAS (roughly the cost of
//! a pessimistic transition — the statistics count them as
//! [`Event::PessUncontended`] so the cost model prices them at the
//! pessimistic rate); no thread ever waits for another. **This engine is
//! unsound**: it can miss dependences and break instrumentation–access
//! atomicity. It exists purely to bound the benefit of hybridization.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use drink_runtime::{Event, MonitorId, ObjId, Runtime, ThreadId};

use crate::common::EngineCommon;
use crate::engine::Tracker;
use crate::policy::AdaptivePolicy;
use crate::support::NullSupport;
use crate::table::{transition, Access, Class, Departures, Next, Who};
use crate::tstate::ThreadState;
use crate::word::{Kind, StateWord};

/// The unsound upper-bound estimate engine.
pub struct IdealEngine {
    common: EngineCommon<NullSupport>,
}

impl IdealEngine {
    /// Ideal-estimate tracking over `rt`. Never combined with runtime
    /// support (it is unsound by construction).
    pub fn new(rt: Arc<Runtime>) -> Self {
        IdealEngine {
            common: EngineCommon::new(rt, NullSupport, AdaptivePolicy::default()),
        }
    }

    /// Execute the table's optimistic rows ([`transition`]; no state here is
    /// ever pessimistic), with a bare CAS where `Conflict` would coordinate.
    #[cold]
    fn slow(&self, ts: &mut ThreadState, o: ObjId, access: Access) {
        let rt = &self.common.rt;
        let state = rt.obj(o).state();
        let mut wait = rt.wait(ts.tid, "ideal slow path");
        loop {
            let cur = state.load(Ordering::Acquire);
            let who = Who { t: ts.tid, rd_sh_count: ts.rd_sh_count, in_rd_set: &|| false };
            let row = transition(StateWord(cur), access, who, Departures::default());
            let (event, next) = match (row.class, row.next) {
                (Class::Same, _) => return ts.stats.bump(Event::OptSameState),
                (Class::Fence, _) => {
                    fence(Ordering::Acquire);
                    ts.rd_sh_count = StateWord(cur).rdsh_count();
                    return ts.stats.bump(Event::OptFence);
                }
                // Upgrades keep their optimistic cost; conflicts are priced as
                // pessimistic transitions (the whole point of this estimate).
                (Class::Conflict, Next::Either { opt, .. }) => (Event::PessUncontended, opt),
                (Class::Upgrade, Next::Word(w)) => (Event::OptUpgrading, w),
                (Class::Upgrade, fresh) => (Event::OptUpgrading, fresh.word(rt.next_rdsh_count())),
                _ => unreachable!("{:?} is no optimistic state", StateWord(cur)),
            };
            if state
                .compare_exchange(cur, next.0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if next.kind() == Kind::RdSh {
                    ts.rd_sh_count = ts.rd_sh_count.max(next.rdsh_count());
                }
                return ts.stats.bump(event);
            }
            let _ = wait.step();
        }
    }
}

impl Tracker for IdealEngine {
    tracker_via_common!();

    fn name(&self) -> &'static str {
        "ideal"
    }

    #[inline(always)]
    fn read(&self, t: ThreadId, o: ObjId) -> u64 {
        // SAFETY: attached thread.
        let ts = unsafe { self.common.ts(t) };
        ts.stats.bump(Event::Read);
        let obj = self.common.rt.obj(o);
        if ts.read_is_same_state(obj.state().load(Ordering::Acquire)) {
            ts.stats.bump(Event::OptSameState);
        } else {
            self.slow(ts, o, Access::Read);
        }
        let v = obj.data_read();
        ts.op_index += 1;
        v
    }

    #[inline(always)]
    fn write(&self, t: ThreadId, o: ObjId, v: u64) {
        // SAFETY: attached thread.
        let ts = unsafe { self.common.ts(t) };
        ts.stats.bump(Event::Write);
        let obj = self.common.rt.obj(o);
        if obj.state().load(Ordering::Acquire) == StateWord::wr_ex_opt(t).0 {
            ts.stats.bump(Event::OptSameState);
        } else {
            self.slow(ts, o, Access::Write);
        }
        obj.data_write(v);
        ts.op_index += 1;
    }

    fn alloc_init(&self, o: ObjId, owner: ThreadId) {
        self.common
            .rt
            .obj(o)
            .state()
            .store(StateWord::wr_ex_opt(owner).0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_runtime::RuntimeConfig;

    #[test]
    fn ideal_never_waits_for_other_threads() {
        // Conflict with a thread that never reaches a safe point: sound
        // optimistic tracking would hang; the ideal estimate proceeds.
        let e = IdealEngine::new(Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(4)
        .heap_objects(8)
        .monitors(1)
        .build())));
        let t0 = e.attach();
        let o = ObjId(0);
        e.alloc_init(o, t0);
        e.write(t0, o, 3);

        std::thread::scope(|s| {
            let er = &e;
            s.spawn(move || {
                let t1 = er.attach();
                // t0 is running and never polls — ideal still completes.
                assert_eq!(er.read(t1, o), 3);
                er.write(t1, o, 4);
                er.detach(t1);
            })
            .join()
            .unwrap();
        });
        e.detach(t0);
        let r = e.rt().stats().report();
        // The conflicting read was priced as pessimistic; the write that
        // followed it was an owner upgrade (RdEx(t1) → WrEx(t1)).
        assert_eq!(r.get(Event::PessUncontended), 1);
        assert_eq!(r.get(Event::OptUpgrading), 1);
        assert_eq!(r.opt_conflicting(), 0);
    }

    #[test]
    fn ideal_same_state_accesses_stay_optimistic() {
        let e = IdealEngine::new(Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build())));
        let t = e.attach();
        let o = ObjId(1);
        e.alloc_init(o, t);
        for i in 0..10 {
            e.write(t, o, i);
        }
        e.detach(t);
        assert_eq!(e.rt().stats().get(Event::OptSameState), 10);
    }
}
