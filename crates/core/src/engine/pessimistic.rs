//! Pessimistic tracking (§2.1): a CAS-locked critical section around every
//! access and its instrumentation.
//!
//! Per the paper's pseudocode, each access:
//!
//! 1. spins CASing the object's state word to the `LOCKED` sentinel;
//! 2. inspects the old state (any state other than `WrEx(T)` on a write
//!    indicates a potential cross-thread dependence);
//! 3. performs the program access inside the critical section;
//! 4. stores the new, unlocked state (with release semantics, the paper's
//!    `memfence`).
//!
//! There is no coordination and no deferred unlocking: access privileges
//! transfer simply by the unlock store, which is why pessimistic tracking
//! pays an atomic operation on *every* access and why its cost is largely
//! independent of the conflict rate (§2.2's 150-cycle row).
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
use crate::word::{Kind, StateWord};

/// The flat pessimistic engine of §2.1.
pub struct PessimisticEngine<S: Support = NullSupport> {
    common: EngineCommon<S>,
}

impl PessimisticEngine<NullSupport> {
    /// Pessimistic tracking over `rt`, no runtime support.
    pub fn new(rt: Arc<Runtime>) -> Self {
        PessimisticEngine {
            common: EngineCommon::new(rt, NullSupport, AdaptivePolicy::default()),
        }
    }
}

impl<S: Support> PessimisticEngine<S> {
    /// One instrumented access. Returns the value read (reads) after
    /// performing the access inside the critical section.
    fn access(&self, t: ThreadId, o: ObjId, write: Option<u64>) -> u64 {
        // SAFETY: Tracker methods are called from the attached thread.
        let ts = unsafe { self.common.ts(t) };
        let access = if write.is_some() { Event::Write } else { Event::Read };
        ts.stats.bump(access);

        let obj = self.common.rt.obj(o);
        let state = obj.state();

        // A read of a standing RdSh state keeps the state (Table 1's
        // RdSh→old row), so the validated read (DESIGN.md §12) can skip the
        // CAS-lock critical section entirely — validation proves no write
        // overlapped the read window, which is exactly what the critical
        // section would have guaranteed. (This engine's exclusive states use
        // the optimistic encodings, so RdSh is the only eligible kind.)
        if S::RELAXED_LOCKING && write.is_none() {
            let w = StateWord(state.load(Ordering::Acquire));
            if w.validated_read_ok(t) {
                if let Some(v) = self.common.seqlock_read(ts, o, w) {
                    self.common.rt.trace(t, Event::Read, o.0 as u64);
                    ts.op_index += 1;
                    return v;
                }
            }
        }

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

        // Compute the post-access state per Table 1 (flat model, optimistic
        // encodings — the pessimistic flag is unused here).
        let new = if write.is_some() {
            StateWord::wr_ex_opt(t)
        } else {
            match old.kind() {
                Kind::WrEx if old.owner() == t => old,
                Kind::WrEx => StateWord::rd_ex_opt(t),
                Kind::RdEx if old.owner() == t => old,
                Kind::RdEx => StateWord::rd_sh_opt(self.common.rt.next_rdsh_count()),
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

    #[inline]
    fn read(&self, t: ThreadId, o: ObjId) -> u64 {
        self.access(t, o, None)
    }

    #[inline]
    fn write(&self, t: ThreadId, o: ObjId, v: u64) {
        self.access(t, o, Some(v));
    }

    fn alloc_init(&self, o: ObjId, owner: ThreadId) {
        let state = self.common.rt.obj(o).state();
        state.store(StateWord::wr_ex_opt(owner).0, Ordering::SeqCst);
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

    #[test]
    fn single_thread_states_follow_table_1() {
        let e = engine();
        let t = e.attach();
        let o = ObjId(0);
        e.alloc_init(o, t);

        e.write(t, o, 5);
        assert_eq!(
            StateWord(e.rt().obj(o).state().load(Ordering::SeqCst)),
            StateWord::wr_ex_opt(t)
        );
        assert_eq!(e.read(t, o), 5);
        assert_eq!(
            StateWord(e.rt().obj(o).state().load(Ordering::SeqCst)),
            StateWord::wr_ex_opt(t),
            "read by the writer keeps WrEx"
        );
        e.detach(t);
        assert_eq!(e.rt().stats().get(Event::PessUncontended), 2);
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
                assert_eq!(er.read(t1, o), 9); // WrEx(t0) → RdEx(t1)
                let w = StateWord(er.rt().obj(o).state().load(Ordering::SeqCst));
                assert_eq!(w, StateWord::rd_ex_opt(t1));
                er.detach(t1);
            });
        });

        assert_eq!(e.read(t0, o), 9); // RdEx(t1) → RdSh(c)
        let w = StateWord(e.rt().obj(o).state().load(Ordering::SeqCst));
        assert_eq!(w.kind(), Kind::RdSh);
        assert!(w.rdsh_count() >= 1);
        e.detach(t0);
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
        let w = StateWord(e.rt().obj(o).state().load(Ordering::SeqCst));
        assert!(!w.is_locked_sentinel());
        let r = e.rt().stats().report();
        assert_eq!(r.accesses(), (THREADS * ITERS * 2) as u64);
        // Reads that momentarily observe RdSh may complete on the seqlock
        // path (no critical section); every other access pays the lock.
        // Writes always lock, so at least half the accesses are pessimistic.
        let locked = r.get(Event::PessUncontended);
        let validated = r.get(Event::SeqlockValidated);
        assert_eq!(locked + validated, (THREADS * ITERS * 2) as u64);
        assert!(locked >= (THREADS * ITERS) as u64, "writes always lock");
    }
}
