//! The tracking engines.
//!
//! Two engine types implement the [`Tracker`] interface:
//!
//! | engine type | what it is |
//! |---|---|
//! | [`NoTracking`](none::NoTracking) | unmodified JVM (the overhead baseline) |
//! | [`HybridEngine`](hybrid::HybridEngine) | the hybrid state word (§3), driven by the optimistic protocol (§2.2), the pessimistic one (§2.1, its locks deferred (§3.1) or not as the support's discipline says) and the policy that picks between them per object (§6) |
//!
//! [`EngineKind`] names the configurations a program selects at run time:
//! one for the first type, and four that are a
//! [`HybridConfig`](hybrid::HybridConfig) of the second on `NullSupport`.
//! Figure 7's "Ideal" is a fifth configuration of the second type, which only
//! its runner builds:
//!
//! | [`EngineKind`] | [`HybridConfig`](hybrid::HybridConfig) | paper configuration |
//! |---|---|---|
//! | `Pessimistic` | `pessimistic()`: `Cutoff_confl = 0`, write-locked self-reads | "Pessimistic tracking" (§2.1): every object pessimistic from birth, each lock released at the end of its access on `NullSupport` |
//! | `Optimistic` | `optimistic()`: `Cutoff_confl = ∞`, re-opening valve | "Optimistic tracking" (§2.2, Octet), and "Hybrid tracking w/ infinite cutoff", which runs the same protocol here |
//! | `Hybrid` | `default()`: `Cutoff_confl = 4`, one-way valve | "Hybrid tracking" (§3) |
//! | `Adaptive` | `adaptive()`: `Cutoff_confl = 4`, re-opening valve | — (DESIGN.md §13) |
//! | — | `optimistic()`, on [`IdealModel`](crate::support::IdealModel) instead of `NullSupport` | "Ideal" (§7.5): each conflict one CAS, priced as a pessimistic transition — unsound, so no support is built on it |
//!
//! `NoTracking` has no state word to drive.
//!
//! All methods that take a `ThreadId` must be called from the OS thread that
//! attached as that mutator (checked in debug builds); the `Session` façade
//! makes this hard to get wrong.

pub mod hybrid;
pub mod kind;
pub mod none;

pub use kind::{AnyEngine, EngineKind};

use std::sync::Arc;

use drink_runtime::{MonitorId, ObjId, Runtime, ThreadId};

/// Uniform interface over the tracking engines, used by workload drivers and
/// the `Session` façade. Statically dispatched where a concrete engine type
/// is in scope (the fast paths inline) and behind [`kind::AnyEngine`], the
/// enum that binaries selecting the engine at runtime hold instead of
/// duplicating monomorphized dispatch arms; deliberately **object-safe** as
/// well, so an engine type the enum does not know still fits behind a
/// `Box<dyn Tracker>`.
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

/// Octet's protocol shape (§2.2, Figure 1) on the `Cutoff_confl = ∞`
/// configurations of [`hybrid::HybridEngine`], which *are* Octet: no object
/// ever crosses the cutoff, so every state stays optimistic. (The module
/// path is the one these tests had when a wrapper type built that
/// configuration, so their ids — and the runs recorded under them — carry
/// over.)
#[cfg(test)]
mod optimistic {
    mod tests {
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig};

        use crate::engine::hybrid::{HybridConfig, HybridEngine};
        use crate::engine::Tracker;
        use crate::support::NullSupport;
        use crate::word::{Kind, StateWord};

        /// The optimistic configuration for the protocol-shape tests. (No
        /// deadline is configured, so no object of theirs ever leaves
        /// optimistic states; the degradation path is exercised by
        /// `hot_object_demotes_under_deadline`.)
        fn engine() -> HybridEngine {
            HybridEngine::with_config(
                Arc::new(Runtime::new(RuntimeConfig::builder()
                    .max_threads(8)
                    .heap_objects(16)
                    .monitors(2)
                    .build())),
                NullSupport,
                HybridConfig::optimistic(),
            )
        }

        fn state_of(e: &HybridEngine, o: ObjId) -> StateWord {
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
                let mut wait = e.rt().wait(t0, "writer to finish");
                while !writer.is_finished() {
                    e.safepoint(t0);
                    let _ = wait.step();
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
                let mut wait = e.rt().wait(t0, "rdsh writer to finish");
                while !h.is_finished() {
                    e.safepoint(t0);
                    let _ = wait.step();
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
            let e = HybridEngine::with_config(rt, NullSupport, HybridConfig::optimistic());
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
}

/// §2.1's protocol on [`hybrid::HybridConfig::pessimistic`]: every object is
/// settled from birth, so every write takes a lock and releases it by
/// publishing a read-shared version word (Table 3's marked row ③), every
/// read of a written object validates against that word and writes nothing,
/// and racy accesses complete. (The module path is the one
/// these tests had when a separate engine type ran the protocol, so their ids
/// carry over.)
#[cfg(test)]
mod pessimistic {
    mod tests {
        use std::sync::atomic::Ordering;
        use std::sync::{Arc, Mutex, OnceLock, Weak};

        use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig, SchedHooks, SchedPoint, ThreadId};

        use crate::engine::hybrid::{HybridConfig, HybridEngine};
        use crate::engine::Tracker;
        use crate::support::{EagerModel, NullSupport};
        use crate::word::{LockMode, StateWord};

        fn engine() -> HybridEngine {
            HybridEngine::with_config(
                Arc::new(Runtime::new(RuntimeConfig::builder()
                    .max_threads(8)
                    .heap_objects(16)
                    .monitors(2)
                    .build())),
                NullSupport,
                HybridConfig::pessimistic(),
            )
        }

        fn state_of(e: &HybridEngine, o: ObjId) -> StateWord {
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
            // The write's release publishes the version word: one past the
            // birth word's count.
            assert_eq!(state_of(&e, o), StateWord::version(t, 1));
            assert_eq!(e.read(t, o), 5);
            assert_eq!(state_of(&e, o), StateWord::version(t, 1), "the writer's read writes nothing");
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
            let epoch = e.rt().current_rdsh_count();

            let w = std::thread::scope(|s| {
                let er = &e;
                s.spawn(move || {
                    let t1 = er.attach();
                    assert_eq!(er.read(t1, o), 9); // validated against RdShPess[t0,v=1]
                    let w = state_of(er, o);
                    assert_eq!(w, StateWord::version(t0, 1));
                    assert_eq!(er.rt().current_rdsh_count(), epoch, "a version is no epoch");
                    // SAFETY: this is the OS thread attached as t1.
                    assert!(unsafe { er.common().ts(t1) }.holds_no_locks());
                    er.detach(t1);
                    w
                })
                .join()
                .unwrap()
            });

            assert_eq!(e.read(t0, o), 9, "the writer's read validates");
            assert_eq!(state_of(&e, o), w);
            e.detach(t0);
            // The write claims; both reads validate.
            assert_eq!(e.rt().stats().get(Event::PessUncontended), 1);
            assert_eq!(e.rt().stats().get(Event::PessOwnerChange), 0, "the w→r read writes nothing");
            assert_eq!(e.rt().stats().get(Event::SeqlockValidated), 2);
        }

        /// The script of one hot key after a PUT: T0 writes, T1 reads, T0
        /// reads, T1 reads. The write's release publishes the version word,
        /// so the foreign read costs no claim and no epoch any more: every
        /// read validates, the writer's included. (Both mutators are
        /// attached to this OS thread: no access of the script ever waits
        /// for the other.)
        #[test]
        fn a_foreign_read_costs_one_claim_and_one_epoch() {
            let e = engine();
            let (t0, t1) = (e.attach(), e.attach());
            let o = ObjId(3);
            e.alloc_init(o, t0);
            let epoch = e.rt().current_rdsh_count();
            e.write(t0, o, 7);
            for t in [t1, t0, t1] {
                assert_eq!(e.read(t, o), 7);
            }
            let w = state_of(&e, o);
            assert_eq!(w, StateWord::version(t0, 1));
            e.detach(t0);
            e.detach(t1);
            let r = e.rt().stats().report();
            assert_eq!(r.get(Event::PessUncontended), 1, "T0's write");
            assert_eq!(e.rt().current_rdsh_count() - epoch, 0, "no epoch drawn");
            assert_eq!(r.get(Event::SeqlockValidated), 3, "every read");
            assert_eq!(r.get(Event::VersionPublished), 1);
            assert_eq!(r.accesses(), 4);
        }

        /// A settled object's reads make no store to its state word: across
        /// T0's write, T1's reads, T0's read and T1's write, the word changes
        /// only at the two writes' releases, and the second write is the one
        /// owner change.
        #[test]
        fn a_settled_object_is_read_without_a_store() {
            const K: u64 = 5;
            let e = engine();
            let (t0, t1) = (e.attach(), e.attach());
            let o = ObjId(4);
            e.alloc_init(o, t0);
            let epoch = e.rt().current_rdsh_count();
            e.write(t0, o, 1);
            let published = state_of(&e, o);
            assert_eq!(published, StateWord::version(t0, 1));
            for t in std::iter::repeat_n(t1, K as usize).chain([t0]) {
                assert_eq!(e.read(t, o), 1);
                assert_eq!(state_of(&e, o), published, "a read stored to the state word");
            }
            e.write(t1, o, 2);
            assert_eq!(state_of(&e, o), StateWord::version(t1, 2));
            e.detach(t0);
            e.detach(t1);
            let r = e.rt().stats().report();
            assert_eq!(r.get(Event::PessUncontended), 2, "the two writes, no read");
            assert_eq!(r.get(Event::SeqlockValidated), K + 1);
            assert_eq!(r.get(Event::PessOwnerChange), 1, "T1's write");
            assert_eq!(r.get(Event::VersionPublished), 2);
            assert_eq!(e.rt().current_rdsh_count(), epoch, "no epoch drawn");
        }

        /// Records the state word each access finds at its locked window.
        #[derive(Debug, Default)]
        struct LockedWords {
            rt: OnceLock<Weak<Runtime>>,
            seen: Mutex<Vec<(ThreadId, StateWord)>>,
        }

        impl SchedHooks for LockedWords {
            fn perturb(&self, t: ThreadId, point: SchedPoint) {
                if point == SchedPoint::LockedAccess {
                    let rt = self.rt.get().and_then(Weak::upgrade).expect("runtime registered");
                    let w = StateWord(rt.obj(ObjId(3)).state().load(Ordering::SeqCst));
                    self.seen.lock().unwrap().push((t, w));
                }
            }
        }

        /// The same script on the paper's model, which keeps Table 3's rows to
        /// the letter — here with each lock released inside its access, as
        /// §2.1 has it (`EagerModel`): T1's read installs `RdExRLock(T1)`,
        /// and every access locks.
        #[test]
        fn the_paper_model_keeps_the_read_exclusive_row() {
            let hook = Arc::new(LockedWords::default());
            let mut rt = Runtime::new(RuntimeConfig::builder().max_threads(8).heap_objects(16).monitors(2).build());
            rt.set_sched_hooks(hook.clone());
            let rt = Arc::new(rt);
            hook.rt.set(Arc::downgrade(&rt)).expect("set once");
            let e = HybridEngine::with_config(rt, EagerModel, HybridConfig::pessimistic());
            let (t0, t1) = (e.attach(), e.attach());
            let o = ObjId(3);
            e.alloc_init(o, t0);
            let epoch = e.rt().current_rdsh_count();
            e.write(t0, o, 7);
            for t in [t1, t0, t1] {
                assert_eq!(e.read(t, o), 7);
            }
            e.detach(t0);
            e.detach(t1);
            let seen = hook.seen.lock().unwrap().clone();
            let c = epoch + 1;
            assert_eq!(
                seen,
                [
                    (t0, StateWord::wr_ex_pess(t0, LockMode::Write)),
                    (t1, StateWord::rd_ex_pess(t1, LockMode::Read)),
                    (t0, StateWord::rd_sh_pess(c, 1)),
                    (t1, StateWord::rd_sh_pess(c, 1)),
                ]
            );
            let r = e.rt().stats().report();
            assert_eq!(r.get(Event::PessUncontended), 4);
            assert_eq!(r.get(Event::SeqlockValidated), 0);
            assert_eq!(e.rt().current_rdsh_count() - epoch, 1);
        }

        #[test]
        fn racy_increments_are_tracked_without_hanging() {
            // Pessimistic tracking must serialize instrumentation+access even
            // under heavy races on one object.
            const THREADS: usize = 4;
            const ITERS: usize = 5_000;
            let e = engine();
            let o = ObjId(2);
            e.alloc_init_read_shared(o);
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
            // Racy read-modify-write loses updates (that's the program's bug,
            // not the tracker's), but instrumentation–access atomicity means
            // every access completed and the final state word is unlocked.
            assert!(state_of(&e, o).is_pess_unlocked(), "{:?}", state_of(&e, o));
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
}

/// Figure 7's "Ideal" estimate, as the Figure 7 runner builds it: the
/// optimistic configuration on [`IdealModel`](crate::support::IdealModel),
/// whose conflicts coordinate with no one. (The module path is the one these
/// tests had when a separate engine type ran the estimate, so their ids
/// carry over.)
#[cfg(test)]
mod ideal {
    mod tests {
        use std::sync::Arc;

        use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig};

        use crate::engine::hybrid::{HybridConfig, HybridEngine};
        use crate::engine::Tracker;
        use crate::support::IdealModel;

        fn engine(threads: usize, objects: usize) -> HybridEngine<IdealModel> {
            let cfg = RuntimeConfig::builder().max_threads(threads).heap_objects(objects).monitors(1).build();
            HybridEngine::with_config(Arc::new(Runtime::new(cfg)), IdealModel, HybridConfig::optimistic())
        }

        #[test]
        fn ideal_never_waits_for_other_threads() {
            // Conflict with a thread that never reaches a safe point: sound
            // optimistic tracking would hang; the ideal estimate proceeds.
            let e = engine(4, 8);
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
            let e = engine(2, 4);
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
}
