//! Optimistic tracking (§2.2): Octet, with graceful degradation.
//!
//! The fast path is a single load and compare — no atomic operation, no
//! fence. The slow path (Figure 1) distinguishes:
//!
//! * **upgrading** transitions (`RdEx(T) → WrEx(T)` by the owner,
//!   `RdEx(T1) → RdSh(c)` by a second reader): one CAS;
//! * **fence** transitions (first read of a RdSh epoch newer than the
//!   thread's `rdShCount`): a memory fence;
//! * **conflicting** transitions: the accessor claims the state with the
//!   intermediate `Int(T)` state, then *coordinates* with the previous
//!   owner(s) — a roundtrip through their next safe point (explicit), or an
//!   epoch CAS if they are blocked (implicit) — before installing the new
//!   state. While waiting, the accessor itself responds to requests
//!   (Figure 1 line 18), which keeps the protocol deadlock-free.
//!
//! RdSh conflicts coordinate with every other registered thread
//! (footnote 4).
//!
//! ## Implementation: the infinite-cutoff hybrid
//!
//! Since the hybrid engine at infinite cutoff *is* Octet (no object ever
//! crosses the conflict cutoff, so every state stays optimistic — Figure 7's
//! "w/ infinite cutoff" row), this engine is a thin wrapper over
//! [`HybridEngine`] at `Cutoff_confl = ∞` — by default under the re-opening
//! valve, the fourth cell of the 2 × 2 that [`EngineKind`] tabulates
//! (`HybridInfiniteCutoff` is the same cutoff under the one-way valve).
//!
//! At infinite cutoff no count ever moves an object, so both ∞ cells are
//! pure Octet on every object — **unless** the runtime has a coordination
//! deadline configured and one expires (DESIGN.md §13): the expiry forces the
//! object's phase to `Pess`, its traffic runs the pessimistic protocol —
//! whose conflicting acquires need no roundtrips — and inequality (5)
//! returns it once that traffic proves cheap. The valve then decides whether
//! a later expiry may demote the same object again. No figure bin configures
//! a deadline; the chaos matrix does, which is how this engine survives a
//! stalled responder.
//!
//! The per-object conflict histogram (Figure 6's CDF, §7.3 limit study)
//! works as before: the infinite-cutoff policy counts every explicit
//! conflict in the profile word without ever leaving `OptInitial`.
//!
//! [`EngineKind`]: crate::engine::EngineKind

use std::sync::Arc;

use drink_runtime::{MonitorId, ObjId, Runtime, ThreadId};

use crate::common::EngineCommon;
use crate::engine::hybrid::{HybridConfig, HybridEngine};
use crate::engine::Tracker;
use crate::policy::Valve;
use crate::support::{NullSupport, Support};

/// The Octet engine (degrading to pessimistic states only past an expired
/// coordination deadline; see the module docs).
pub struct OptimisticEngine<S: Support = NullSupport> {
    inner: HybridEngine<S>,
}

impl OptimisticEngine<NullSupport> {
    /// Optimistic tracking over `rt`, no runtime support.
    pub fn new(rt: Arc<Runtime>) -> Self {
        OptimisticEngine::with_support(rt, NullSupport)
    }
}

impl<S: Support> OptimisticEngine<S> {
    /// Optimistic tracking with runtime support `support`.
    pub fn with_support(rt: Arc<Runtime>, support: S) -> Self {
        OptimisticEngine::with_valve(rt, support, Valve::Reopening)
    }

    /// Optimistic tracking under an explicit valve. It only matters to
    /// objects an expired coordination deadline demoted: under
    /// [`Valve::OneWay`] each can be demoted once, ever.
    pub fn with_valve(rt: Arc<Runtime>, support: S, valve: Valve) -> Self {
        let cfg = HybridConfig {
            valve,
            ..HybridConfig::infinite_cutoff()
        };
        OptimisticEngine {
            inner: HybridEngine::with_config(rt, support, cfg),
        }
    }

    /// Shared engine state (used by runtime-support crates).
    pub fn common(&self) -> &EngineCommon<S> {
        self.inner.common()
    }
}

impl<S: Support> Tracker for OptimisticEngine<S> {
    fn rt(&self) -> &Arc<Runtime> {
        self.inner.rt()
    }

    fn name(&self) -> &'static str {
        "optimistic"
    }

    fn attach(&self) -> ThreadId {
        self.inner.attach()
    }

    fn detach(&self, t: ThreadId) {
        self.inner.detach(t)
    }

    #[inline(always)]
    fn read(&self, t: ThreadId, o: ObjId) -> u64 {
        self.inner.read(t, o)
    }

    #[inline(always)]
    fn write(&self, t: ThreadId, o: ObjId, v: u64) {
        self.inner.write(t, o, v)
    }

    fn try_write(&self, t: ThreadId, o: ObjId, v: u64) -> Option<u64> {
        self.inner.try_write(t, o, v)
    }

    fn alloc_init(&self, o: ObjId, owner: ThreadId) {
        self.inner.alloc_init(o, owner)
    }

    fn alloc_init_read_shared(&self, o: ObjId) {
        self.inner.alloc_init_read_shared(o)
    }

    #[inline]
    fn safepoint(&self, t: ThreadId) {
        self.inner.safepoint(t)
    }

    fn lock(&self, t: ThreadId, m: MonitorId) {
        self.inner.lock(t, m)
    }

    fn unlock(&self, t: ThreadId, m: MonitorId) {
        self.inner.unlock(t, m)
    }

    fn wait(&self, t: ThreadId, m: MonitorId) {
        self.inner.wait(t, m)
    }

    fn notify_all(&self, t: ThreadId, m: MonitorId) {
        self.inner.notify_all(t, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::{Kind, StateWord};
    use drink_runtime::{Event, RuntimeConfig};
    use std::sync::atomic::Ordering;

    /// The one-way ∞ configuration for the protocol-shape tests. (No
    /// deadline is configured, so no object of theirs ever leaves optimistic
    /// states under either valve; the degradation path is exercised by
    /// `hot_object_demotes_under_deadline`.)
    fn engine() -> OptimisticEngine {
        OptimisticEngine::with_valve(
            Arc::new(Runtime::new(RuntimeConfig::builder()
                .max_threads(8)
                .heap_objects(16)
                .monitors(2)
                .build())),
            NullSupport,
            Valve::OneWay,
        )
    }

    fn state_of(e: &OptimisticEngine, o: ObjId) -> StateWord {
        StateWord(e.rt().obj(o).state().load(Ordering::SeqCst))
    }

    #[test]
    fn owner_accesses_take_fast_path() {
        let e = engine();
        let t = e.attach();
        let o = ObjId(0);
        e.alloc_init(o, t);
        e.write(t, o, 1);
        e.write(t, o, 2);
        assert_eq!(e.read(t, o), 2);
        e.detach(t);
        let r = e.rt().stats().report();
        assert_eq!(r.get(Event::OptSameState), 3);
        assert_eq!(r.opt_conflicting(), 0);
    }

    #[test]
    fn own_read_then_write_is_upgrading() {
        let e = engine();
        let t = e.attach();
        let o = ObjId(1);
        // Make the object RdEx(t): start owned elsewhere conceptually by
        // initializing directly.
        e.rt()
            .obj(o)
            .state()
            .store(StateWord::rd_ex_opt(t).0, Ordering::SeqCst);
        e.write(t, o, 5);
        assert_eq!(state_of(&e, o), StateWord::wr_ex_opt(t));
        e.detach(t);
        assert_eq!(e.rt().stats().get(Event::OptUpgrading), 1);
    }

    #[test]
    fn second_reader_upgrades_to_rdsh_and_fences() {
        let e = engine();
        let t0 = e.attach();
        let o = ObjId(2);
        e.rt()
            .obj(o)
            .state()
            .store(StateWord::rd_ex_opt(t0).0, Ordering::SeqCst);
        e.rt().obj(o).data_write(42);

        std::thread::scope(|s| {
            let er = &e;
            s.spawn(move || {
                let t1 = er.attach();
                assert_eq!(er.read(t1, o), 42); // RdEx(t0) → RdSh(c)
                er.detach(t1);
            });
        });
        let w = state_of(&e, o);
        assert_eq!(w.kind(), Kind::RdSh);
        // t0's first read of the RdSh epoch now takes the coordination-free
        // seqlock path (DESIGN.md §12): validated, no fence transition.
        assert_eq!(e.read(t0, o), 42);
        e.detach(t0);
        let r = e.rt().stats().report();
        assert_eq!(r.get(Event::OptUpgrading), 1);
        assert_eq!(r.get(Event::SeqlockValidated), 1);
        assert_eq!(r.get(Event::OptFence), 0);
    }

    #[test]
    fn conflicting_write_coordinates_and_transfers_ownership() {
        let e = engine();
        let t0 = e.attach();
        let o = ObjId(3);
        e.alloc_init(o, t0);
        e.write(t0, o, 7);

        std::thread::scope(|s| {
            let er = &e;
            let writer = s.spawn(move || {
                let t1 = er.attach();
                er.write(t1, o, 8); // conflicts with WrEx(t0)
                er.detach(t1);
                t1
            });
            // t0 keeps polling safe points until the writer finishes,
            // responding to the coordination request.
            let mut spin = e.rt().spinner("writer to finish");
            while !writer.is_finished() {
                e.safepoint(t0);
                spin.spin();
            }
            let t1 = writer.join().unwrap();
            assert_eq!(state_of(&e, o), StateWord::wr_ex_opt(t1));
        });
        assert_eq!(e.read(t0, o), 8); // conflicting read back: WrEx(t1) → RdEx(t0)
        assert_eq!(state_of(&e, o), StateWord::rd_ex_opt(t0));
        e.detach(t0);
        let r = e.rt().stats().report();
        assert!(r.opt_conflicting() >= 2, "write + read-back both conflict");
        assert!(r.get(Event::RespondedExplicit) >= 1);
    }

    #[test]
    fn conflict_with_detached_thread_resolves_implicitly() {
        let e = engine();
        let o = ObjId(4);
        std::thread::scope(|s| {
            let er = &e;
            s.spawn(move || {
                let t0 = er.attach();
                er.alloc_init(o, t0);
                er.write(t0, o, 11);
                er.detach(t0); // permanently blocked from now on
            })
            .join()
            .unwrap();

            s.spawn(move || {
                let t1 = er.attach();
                assert_eq!(er.read(t1, o), 11);
                er.detach(t1);
            });
        });
        let r = e.rt().stats().report();
        assert_eq!(r.get(Event::OptConflictImplicit), 1);
        assert_eq!(r.get(Event::OptConflictExplicit), 0);
    }

    #[test]
    fn rdsh_write_coordinates_with_all_threads() {
        let e = engine();
        let t0 = e.attach();
        let o = ObjId(5);
        e.rt()
            .obj(o)
            .state()
            .store(StateWord::rd_sh_opt(1).0, Ordering::SeqCst);

        std::thread::scope(|s| {
            let er = &e;
            let h = s.spawn(move || {
                let t1 = er.attach();
                er.write(t1, o, 9); // RdSh conflict: coordinate with t0
                er.detach(t1);
                t1
            });
            let mut spin = e.rt().spinner("rdsh writer to finish");
            while !h.is_finished() {
                e.safepoint(t0);
                spin.spin();
            }
            let t1 = h.join().unwrap();
            assert_eq!(state_of(&e, o), StateWord::wr_ex_opt(t1));
        });
        e.detach(t0);
        assert_eq!(e.rt().stats().report().opt_conflicting(), 1);
    }

    #[test]
    fn symmetric_conflicts_do_not_deadlock() {
        // Two threads repeatedly write each other's object: every access is a
        // conflicting transition, and both threads constantly coordinate with
        // each other. Deadlock freedom comes from responding-while-waiting.
        let e = engine();
        let oa = ObjId(6);
        let ob = ObjId(7);
        std::thread::scope(|s| {
            let er = &e;
            s.spawn(move || {
                let t = er.attach();
                er.alloc_init(oa, t);
                for i in 0..2_000 {
                    er.write(t, oa, i);
                    er.write(t, ob, i);
                }
                er.detach(t);
            });
            s.spawn(move || {
                let t = er.attach();
                er.alloc_init(ob, t);
                for i in 0..2_000 {
                    er.write(t, ob, i);
                    er.write(t, oa, i);
                }
                er.detach(t);
            });
        });
        let r = e.rt().stats().report();
        assert_eq!(r.accesses(), 8_000);
        assert!(r.opt_conflicting() > 0);
    }

    /// The degradation path end to end: a hot object under a coordination
    /// deadline demotes, runs pessimistic, and the engines still agree on
    /// the data (writes are never lost).
    #[test]
    fn hot_object_demotes_under_deadline() {
        let rt = Arc::new(Runtime::new(
            RuntimeConfig::builder()
                .max_threads(4)
                .heap_objects(16)
                .monitors(2)
                .coord_deadline(std::time::Duration::from_millis(50))
                .build(),
        ));
        let e = OptimisticEngine::new(rt);
        let o = ObjId(8);
        std::thread::scope(|s| {
            let er = &e;
            for _ in 0..2 {
                s.spawn(move || {
                    let t = er.attach();
                    for i in 0..20_000 {
                        er.write(t, o, i);
                        if i % 64 == 0 {
                            er.safepoint(t);
                        }
                    }
                    er.detach(t);
                });
            }
        });
        // Completion itself is the property: no watchdog panic, no hang,
        // every write performed whichever protocol served it.
        let r = e.rt().stats().report();
        assert_eq!(r.accesses(), 40_000);
    }
}
