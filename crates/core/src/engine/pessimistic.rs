//! Pessimistic tracking (§2.1): a CAS-locked critical section around every
//! write and every foreign read.
//!
//! Per the paper's pseudocode, each such access:
//!
//! 1. spins CASing the object's state word to the `LOCKED` sentinel;
//! 2. inspects the old state (any state other than `WrEx(T)` on a write
//!    indicates a potential cross-thread dependence);
//! 3. performs the program access inside the critical section;
//! 4. stores the new, unlocked state (with release semantics, the paper's
//!    `memfence`).
//!
//! The states it stores are §3.2's pessimistic-unlocked words —
//! `WrExPess(T)`, `RdExPess(T)`, `RdShPess(c)` — so a read that creates no
//! dependence (of a state its thread owns, or of a read-shared one) is served
//! by validation instead (DESIGN.md §12): the lock only made the access
//! atomic with its instrumentation, and every payload write in this engine
//! happens under `LOCKED`, so the state word is the read's seqlock version.
//! The atomic operations are paid on writes and on foreign reads.
//!
//! There is no coordination and no deferred unlocking: access privileges
//! transfer simply by the unlock store, which is why the cost of pessimistic
//! tracking is largely independent of the conflict rate (§2.2's 150-cycle
//! row).
//!
//! The paper does not build runtime support on pessimistic tracking
//! ("pessimistic tracking alone is slower than both optimistic and hybrid
//! runtime support", §7.6), so this engine reports no transition events.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use drink_runtime::{Event, MonitorId, ObjId, Runtime, ThreadId};

use crate::common::EngineCommon;
use crate::engine::Tracker;
use crate::policy::AdaptivePolicy;
use crate::support::{NullSupport, Support};
use crate::tstate::ThreadState;
use crate::word::{Kind, LockMode, StateWord};

/// The flat pessimistic engine of §2.1.
pub struct PessimisticEngine<S: Support = NullSupport> {
    common: EngineCommon<S>,
}

impl PessimisticEngine<NullSupport> {
    /// Pessimistic tracking over `rt`, no runtime support.
    pub fn new(rt: Arc<Runtime>) -> Self {
        Self::with_support(rt, NullSupport)
    }
}

impl<S: Support> PessimisticEngine<S> {
    /// Pessimistic tracking over `rt`, observed by `support`. Validated reads
    /// need [`Support::RELAXED_LOCKING`]; under `PaperModel` every access
    /// takes the critical section, as §2.1 has it.
    pub fn with_support(rt: Arc<Runtime>, support: S) -> Self {
        PessimisticEngine {
            common: EngineCommon::new(rt, support, AdaptivePolicy::default()),
        }
    }

    /// Shared engine state.
    pub fn common(&self) -> &EngineCommon<S> {
        &self.common
    }

    /// Every read but the leaf's: the validated read with its retries, then
    /// the critical section.
    #[inline(never)]
    fn read_rest(&self, ts: &mut ThreadState, o: ObjId, cur: u64) -> u64 {
        let w = StateWord(cur);
        if S::RELAXED_LOCKING && w.validated_read_ok(ts.tid) {
            if let Some(v) = self.common.seqlock_read(ts, o, w) {
                self.common.rt.trace(ts.tid, Event::Read, o.0 as u64);
                ts.op_index += 1;
                return v;
            }
        }
        self.locked_access(ts, o, None)
    }

    /// One access inside the `LOCKED` critical section. Returns the value
    /// read (reads) after performing the access.
    fn locked_access(&self, ts: &mut ThreadState, o: ObjId, write: Option<u64>) -> u64 {
        let t = ts.tid;
        let obj = self.common.rt.obj(o);
        let state = obj.state();

        // Lock the state word. The wait is built only once a CAS has failed.
        let mut wait = None;
        let old = loop {
            let cur = state.load(Ordering::Relaxed);
            if cur != StateWord::LOCKED.0
                && state
                    .compare_exchange_weak(
                        cur,
                        StateWord::LOCKED.0,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
            {
                break StateWord(cur);
            }
            let wait = wait.get_or_insert_with(|| self.common.rt.wait(t, "pessimistic state lock"));
            let _ = wait.step();
        };

        // Compute the post-access state per Table 1, in the
        // pessimistic-unlocked encodings (an object never `alloc_init`ed
        // still holds the all-zero `WrExOpt(T0)`; its first access converts it).
        let new = if write.is_some() {
            StateWord::wr_ex_pess(t, LockMode::Unlocked)
        } else {
            match old.kind() {
                Kind::WrEx if old.owner() == t => StateWord::wr_ex_pess(t, LockMode::Unlocked),
                Kind::WrEx => StateWord::rd_ex_pess(t, LockMode::Unlocked),
                Kind::RdEx if old.owner() == t => StateWord::rd_ex_pess(t, LockMode::Unlocked),
                Kind::RdEx => StateWord::rd_sh_pess(self.common.rt.next_rdsh_count(), 0),
                Kind::RdSh => old,
                Kind::Int => unreachable!("flat pessimistic model has no Int states"),
            }
        };

        // Program access inside the critical section.
        let value = match write {
            Some(v) => {
                // The writer fence of DESIGN.md §12: a validating reader that
                // sees this store sees the LOCKED install at its re-load.
                fence(Ordering::Release);
                obj.data_write(v);
                v
            }
            None => obj.data_read(),
        };

        // Unlock + update metadata (release = the paper's memfence).
        state.store(new.0, Ordering::Release);
        self.common.note(ts, Event::PessUncontended, o.0 as u64);
        let access = if write.is_some() { Event::Write } else { Event::Read };
        self.common.rt.trace(t, access, o.0 as u64);
        // §7.5's remote-cache-miss proxy: did this access take the state
        // from a different thread than the previous access?
        if old.kind() != Kind::RdSh && old.owner() != t {
            ts.stats.bump(Event::PessOwnerChange);
        }
        ts.op_index += 1;
        value
    }
}

impl<S: Support> Tracker for PessimisticEngine<S> {
    tracker_via_common!();

    fn name(&self) -> &'static str {
        "pessimistic"
    }

    /// A read's leaf: one inline validated attempt, call-free; everything
    /// else in the continuation.
    #[inline(always)]
    fn read(&self, t: ThreadId, o: ObjId) -> u64 {
        // SAFETY: Tracker methods are called from the attached thread.
        let ts = unsafe { self.common.ts(t) };
        ts.stats.bump(Event::Read);
        let obj = self.common.rt.obj(o);
        let cur = obj.state().load(Ordering::Acquire);
        if let Some(v) = self.common.validated_read_leaf(ts, obj, cur) {
            return v;
        }
        self.read_rest(ts, o, cur)
    }

    #[inline]
    fn write(&self, t: ThreadId, o: ObjId, v: u64) {
        // SAFETY: as above.
        let ts = unsafe { self.common.ts(t) };
        ts.stats.bump(Event::Write);
        self.locked_access(ts, o, Some(v));
    }

    fn alloc_init(&self, o: ObjId, owner: ThreadId) {
        let state = self.common.rt.obj(o).state();
        state.store(StateWord::wr_ex_pess(owner, LockMode::Unlocked).0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_runtime::RuntimeConfig;

    fn engine() -> PessimisticEngine {
        PessimisticEngine::new(Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(8)
        .heap_objects(16)
        .monitors(2)
        .build())))
    }

    fn state_of(e: &PessimisticEngine, o: ObjId) -> StateWord {
        StateWord(e.rt().obj(o).state().load(Ordering::SeqCst))
    }

    #[test]
    fn single_thread_states_follow_table_1() {
        let e = engine();
        let t = e.attach();
        let o = ObjId(0);
        e.alloc_init(o, t);
        assert_eq!(state_of(&e, o), StateWord::wr_ex_pess(t, LockMode::Unlocked));

        e.write(t, o, 5);
        assert_eq!(state_of(&e, o), StateWord::wr_ex_pess(t, LockMode::Unlocked));
        assert_eq!(e.read(t, o), 5);
        assert_eq!(
            state_of(&e, o),
            StateWord::wr_ex_pess(t, LockMode::Unlocked),
            "read by the writer keeps WrEx"
        );
        e.detach(t);
        // The write locks; the owner's read validates.
        assert_eq!(e.rt().stats().get(Event::PessUncontended), 1);
        assert_eq!(e.rt().stats().get(Event::SeqlockValidated), 1);
    }

    #[test]
    fn cross_thread_reads_reach_rdsh() {
        let e = engine();
        let t0 = e.attach();
        let o = ObjId(1);
        e.alloc_init(o, t0);
        e.write(t0, o, 9);

        std::thread::scope(|s| {
            let er = &e;
            s.spawn(move || {
                let t1 = er.attach();
                assert_eq!(er.read(t1, o), 9); // WrExPess(t0) → RdExPess(t1)
                assert_eq!(state_of(er, o), StateWord::rd_ex_pess(t1, LockMode::Unlocked));
                er.detach(t1);
            });
        });

        assert_eq!(e.read(t0, o), 9); // RdExPess(t1) → RdShPess(c)
        let w = state_of(&e, o);
        assert_eq!(w, StateWord::rd_sh_pess(w.rdsh_count(), 0));
        assert!(w.rdsh_count() >= 1);
        e.detach(t0);
        assert_eq!(e.rt().stats().get(Event::PessUncontended), 3, "foreign reads lock");
    }

    #[test]
    fn racy_increments_are_tracked_without_hanging() {
        // Pessimistic tracking must serialize instrumentation+access even
        // under heavy races on one object.
        const THREADS: usize = 4;
        const ITERS: usize = 5_000;
        let e = engine();
        let o = ObjId(2);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let er = &e;
                s.spawn(move || {
                    let t = er.attach();
                    for _ in 0..ITERS {
                        let v = er.read(t, o);
                        er.write(t, o, v + 1);
                    }
                    er.detach(t);
                });
            }
        });
        // Racy read-modify-write loses updates (that's the program's bug, not
        // the tracker's), but instrumentation–access atomicity means every
        // access completed and the final state word is unlocked.
        assert!(!state_of(&e, o).is_locked_sentinel());
        let r = e.rt().stats().report();
        assert_eq!(r.accesses(), (THREADS * ITERS * 2) as u64);
        // Reads of a state their thread owns, or of a read-shared one, may
        // complete on the seqlock path (no critical section); every other
        // access pays the lock.
        // Writes always lock, so at least half the accesses are pessimistic.
        let locked = r.get(Event::PessUncontended);
        let validated = r.get(Event::SeqlockValidated);
        assert_eq!(locked + validated, (THREADS * ITERS * 2) as u64);
        assert!(locked >= (THREADS * ITERS) as u64, "writes always lock");
    }
}
