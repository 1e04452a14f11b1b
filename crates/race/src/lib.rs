//! # drink-race: object-level data-race detection on dependence tracking
//!
//! A third runtime-support client, beyond the paper's recorder (§4) and RS
//! enforcer (§5): the paper's §2 names data-race detectors as canonical
//! runtime support, and its deferred-unlocking design leans on the
//! observation (from von Praun & Gross, the paper's \[39\]) that *object-level
//! data races* — unsynchronized conflicting accesses to the same object —
//! "closely over-approximate precise data races in practice".
//!
//! [`RaceDetector`] implements exactly that notion at *transition*
//! granularity:
//!
//! * per-thread and per-monitor **sync vector clocks** track happens-before
//!   induced by program synchronization only (monitor release → acquire);
//!   coordination performed by the tracking protocol itself deliberately
//!   does **not** order accesses — the protocol's job is to make racy
//!   accesses safe to observe, not to excuse them;
//! * every ownership-taking transition deposits a **grab record**
//!   `(thread, its sync epoch)` in a per-object side table; the next
//!   transition checks whether its thread's vector clock covers the previous
//!   grab and reports an object-level race otherwise.
//!
//! ## Precision, precisely
//!
//! *Over-approximation* (inherited from object-level granularity): distinct
//! fields of one object are not distinguished, so false positives are
//! possible for field-disjoint sharing — the same trade the paper's hybrid
//! model makes for contention (§3.1).
//!
//! *Under-approximation* (specific to transition granularity): same-state
//! accesses are invisible by design (that is the entire point of optimistic
//! tracking), so an access the previous owner performed *after* its recorded
//! grab and *after* its last release is not distinguished from its grab-time
//! accesses. A shared-memory race detector needing per-access precision
//! (FastTrack et al.) must instrument every access — i.e., pay the
//! pessimistic-tracking costs this paper exists to avoid. This detector is
//! the cheap, transition-granular point in that design space.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use drink_core::support::{Support, SupportCx, TransitionEv};
use drink_core::tstate::OwnedByThread;
use drink_runtime::{MonitorId, ObjId, ThreadId};

/// One reported object-level race.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RaceReport {
    /// The object involved.
    pub obj: ObjId,
    /// The previous holder (its grab was not ordered before `second`).
    pub first: ThreadId,
    /// The thread whose transition exposed the race.
    pub second: ThreadId,
}

/// Pack `(tid + 1, wrote, epoch)` into a side-table word; 0 = empty.
#[inline]
fn pack(t: ThreadId, epoch: u64, wrote: bool) -> u64 {
    debug_assert!(epoch < 1 << 46);
    ((t.raw() as u64 + 1) << 47) | ((wrote as u64) << 46) | epoch
}

#[inline]
fn unpack(w: u64) -> Option<(ThreadId, u64, bool)> {
    if w == 0 {
        None
    } else {
        Some((
            ThreadId::from_raw(((w >> 47) - 1) as u16),
            w & ((1 << 46) - 1),
            (w >> 46) & 1 == 1,
        ))
    }
}

struct ThreadSync {
    /// Sync vector clock; component `t` counts thread `t`'s completed
    /// monitor releases.
    vc: Vec<u64>,
}

struct Shared {
    threads: usize,
    /// Per-thread sync state (owner-thread access only).
    sync: Box<[OwnedByThread<ThreadSync>]>,
    /// Per-monitor published vector clock.
    monitors: Mutex<std::collections::HashMap<u32, Vec<u64>>>,
    /// Per-object grab records.
    grabs: Box<[AtomicU64]>,
    /// Deduplicated reports.
    reports: Mutex<std::collections::HashSet<RaceReport>>,
}

/// The object-level race detector: attach as an engine's `Support`.
#[derive(Clone)]
pub struct RaceDetector {
    inner: Arc<Shared>,
}

impl RaceDetector {
    /// A detector for `threads` mutator slots over `objects` heap objects.
    pub fn new(threads: usize, objects: usize) -> Self {
        RaceDetector {
            inner: Arc::new(Shared {
                threads,
                sync: (0..threads)
                    .map(|_| OwnedByThread::new(ThreadSync { vc: vec![0; threads] }))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
                monitors: Mutex::new(Default::default()),
                grabs: (0..objects)
                    .map(|_| AtomicU64::new(0))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
                reports: Mutex::new(Default::default()),
            }),
        }
    }

    /// A detector sized for `rt`.
    pub fn for_runtime(rt: &drink_runtime::Runtime) -> Self {
        RaceDetector::new(rt.config().max_threads, rt.heap().len())
    }

    /// The races found so far, sorted for stable output.
    pub fn reports(&self) -> Vec<RaceReport> {
        let mut v: Vec<RaceReport> = self.inner.reports.lock().iter().copied().collect();
        v.sort_by_key(|r| (r.obj.0, r.first.raw(), r.second.raw()));
        v
    }

    /// Number of distinct `(object, thread-pair)` races found.
    pub fn race_count(&self) -> usize {
        self.inner.reports.lock().len()
    }

    /// Objects with at least one reported race.
    pub fn racy_objects(&self) -> Vec<ObjId> {
        let mut v: Vec<ObjId> = self
            .inner
            .reports
            .lock()
            .iter()
            .map(|r| r.obj)
            .collect();
        v.sort_by_key(|o| o.0);
        v.dedup();
        v
    }

    /// Grab the object for `cx.t`: check the previous record, then replace.
    /// `write` is the current access's kind; a pair is conflicting only if
    /// at least one side wrote.
    fn grab_and_check(&self, cx: &SupportCx<'_>, obj: ObjId, write: bool) {
        // SAFETY: support hooks run on the acting mutator thread.
        let sync = unsafe { self.inner.sync[cx.t.index()].get() };
        let me_epoch = sync.vc[cx.t.index()];
        let prev = self.inner.grabs[obj.index()].swap(pack(cx.t, me_epoch, write), Ordering::AcqRel);
        if let Some((prev_t, prev_epoch, prev_wrote)) = unpack(prev) {
            // The previous grab happened when `prev_t` had completed
            // `prev_epoch` releases; ordering it before us requires syncing
            // with a release that came *after* it — release number
            // `prev_epoch + 1` or later. Read→read transfers are not
            // conflicts (no write on either side).
            if prev_t != cx.t
                && (write || prev_wrote)
                && prev_t.index() < self.inner.threads
                && sync.vc[prev_t.index()] <= prev_epoch
            {
                self.inner.reports.lock().insert(RaceReport {
                    obj,
                    first: prev_t,
                    second: cx.t,
                });
            }
        }
    }
}

impl Support for RaceDetector {
    fn on_transition(&self, cx: SupportCx<'_>, obj: ObjId, ev: TransitionEv<'_>) {
        match ev {
            // Ownership-taking transitions: check + re-grab, carrying the
            // access kind (RdSh creations are reads by definition).
            TransitionEv::Conflict { write, .. }
            | TransitionEv::PessConflictingAcquire { write, .. } => {
                self.grab_and_check(&cx, obj, write)
            }
            TransitionEv::RdShCreate { .. } => self.grab_and_check(&cx, obj, false),
            // Own-state transitions refresh the grab epoch without a check.
            // UpgradeOwn is the owner's write; PessLocalAcquire a self-read
            // of a written state (keep the write bit: the owner's writes are
            // what the next transfer must be ordered after).
            TransitionEv::UpgradeOwn | TransitionEv::PessLocalAcquire => {
                // SAFETY: acting thread.
                let sync = unsafe { self.inner.sync[cx.t.index()].get() };
                let me_epoch = sync.vc[cx.t.index()];
                self.inner.grabs[obj.index()]
                    .store(pack(cx.t, me_epoch, true), Ordering::Release);
            }
            // Read-after-read of an existing epoch: no conflict to check
            // (the write preceding the RdSh formation was checked when the
            // RdSh was created).
            TransitionEv::Fence { .. } => {}
        }
    }

    fn on_monitor_acquire(
        &self,
        cx: SupportCx<'_>,
        m: MonitorId,
        _prev: Option<(ThreadId, u64)>,
    ) {
        // Join the monitor's published clock into ours.
        let monitors = self.inner.monitors.lock();
        if let Some(mvc) = monitors.get(&m.0) {
            // SAFETY: acting thread.
            let sync = unsafe { self.inner.sync[cx.t.index()].get() };
            for (a, b) in sync.vc.iter_mut().zip(mvc) {
                *a = (*a).max(*b);
            }
        }
    }

    fn on_monitor_release(&self, cx: SupportCx<'_>, m: MonitorId) {
        // Publish our clock to the monitor, then advance our epoch: accesses
        // after this release form a new, unordered-until-synced segment.
        // SAFETY: acting thread.
        let sync = unsafe { self.inner.sync[cx.t.index()].get() };
        sync.vc[cx.t.index()] += 1;
        self.inner
            .monitors
            .lock()
            .insert(m.0, sync.vc.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_core::prelude::*;
    use drink_runtime::{Runtime, RuntimeConfig};

    fn engine_with_detector(
        threads: usize,
        objects: usize,
    ) -> (HybridEngine<RaceDetector>, RaceDetector) {
        let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(threads)
        .heap_objects(objects)
        .monitors(4)
        .build()));
        let det = RaceDetector::for_runtime(&rt);
        let engine = HybridEngine::with_config(
            rt,
            det.clone(),
            drink_core::engine::hybrid::HybridConfig::default(),
        );
        (engine, det)
    }

    #[test]
    fn pack_roundtrip() {
        assert_eq!(unpack(0), None);
        for (t, e) in [(0u16, 0u64), (3, 7), (u16::MAX, 1 << 40)] {
            for wrote in [false, true] {
                assert_eq!(
                    unpack(pack(ThreadId(t), e, wrote)),
                    Some((ThreadId(t), e, wrote))
                );
            }
        }
    }

    #[test]
    fn well_synchronized_handoff_is_race_free() {
        let (engine, det) = engine_with_detector(2, 4);
        let m = MonitorId(0);
        let o = ObjId(0);
        let t0 = engine.attach();
        engine.alloc_init(o, t0);
        engine.lock(t0, m);
        engine.write(t0, o, 1);
        engine.unlock(t0, m);

        std::thread::scope(|s| {
            let e = &engine;
            let h = s.spawn(move || {
                let t1 = e.attach();
                e.lock(t1, m);
                let _ = e.read(t1, o);
                e.unlock(t1, m);
                e.detach(t1);
            });
            let mut wait = engine.rt().wait(t0, "locked reader");
            while !h.is_finished() {
                engine.safepoint(t0);
                let _ = wait.step();
            }
            h.join().unwrap();
        });
        // Take it back under the same lock: the second transfer is the one
        // the detector checks, and it is ordered through m.
        engine.lock(t0, m);
        engine.write(t0, o, 2);
        engine.unlock(t0, m);
        engine.detach(t0);
        assert_eq!(det.race_count(), 0, "{:?}", det.reports());
    }

    #[test]
    fn unsynchronized_handoff_is_reported() {
        let (engine, det) = engine_with_detector(2, 4);
        let o = ObjId(1);
        let t0 = engine.attach();
        engine.alloc_init(o, t0);
        engine.write(t0, o, 1);

        // First transfer (t1's read) deposits t1's grab; it is unchecked
        // because t0's allocation-time accesses leave no record (a real
        // detector treats first publication as initialization). t0's write
        // back is the checked, racy transfer.
        std::thread::scope(|s| {
            let e = &engine;
            let h = s.spawn(move || {
                let t1 = e.attach();
                let _ = e.read(t1, o); // no synchronization anywhere
                e.detach(t1);
            });
            let mut wait = engine.rt().wait(t0, "racy reader");
            while !h.is_finished() {
                engine.safepoint(t0);
                let _ = wait.step();
            }
            h.join().unwrap();
        });
        engine.write(t0, o, 2); // conflicts with t1's grab: race
        engine.detach(t0);
        assert_eq!(det.racy_objects(), vec![o]);
    }

    #[test]
    fn sync_through_different_monitor_does_not_order() {
        // T0 writes o under m0; T1 reads o under m1: synchronized, but not
        // with each other — still an object-level race.
        let (engine, det) = engine_with_detector(2, 4);
        let o = ObjId(2);
        let t0 = engine.attach();
        engine.alloc_init(o, t0);
        engine.lock(t0, MonitorId(0));
        engine.write(t0, o, 1);
        engine.unlock(t0, MonitorId(0));

        std::thread::scope(|s| {
            let e = &engine;
            let h = s.spawn(move || {
                let t1 = e.attach();
                e.lock(t1, MonitorId(1));
                let _ = e.read(t1, o);
                e.unlock(t1, MonitorId(1));
                e.detach(t1);
            });
            let mut wait = engine.rt().wait(t0, "cross-monitor reader");
            while !h.is_finished() {
                engine.safepoint(t0);
                let _ = wait.step();
            }
            h.join().unwrap();
        });
        // t0 takes the object back under m0 — still never synchronized with
        // t1's m1-guarded grab: an object-level race.
        engine.lock(t0, MonitorId(0));
        engine.write(t0, o, 2);
        engine.unlock(t0, MonitorId(0));
        engine.detach(t0);
        assert_eq!(det.racy_objects(), vec![o]);
    }

    #[test]
    fn unsynchronized_read_read_transfer_is_not_a_race() {
        // T0 writes under a lock and releases; T1 and T2 both read with
        // sync to T0's release. The T1→T2 read-read ownership transfer is
        // unsynchronized between the READERS, but with no write on either
        // side it is not a conflict.
        let (engine, det) = engine_with_detector(3, 4);
        let m = MonitorId(0);
        let o = ObjId(3);
        let t0 = engine.attach();
        engine.alloc_init(o, t0);
        engine.lock(t0, m);
        engine.write(t0, o, 1);
        engine.unlock(t0, m);

        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let e = &engine;
            let mut handles = Vec::new();
            for _ in 0..2 {
                let b = &barrier;
                handles.push(s.spawn(move || {
                    let t = e.attach();
                    // Sync with the writer's release...
                    e.lock(t, m);
                    e.unlock(t, m);
                    b.wait();
                    // ...then read racily w.r.t. the *other reader* only.
                    let _ = e.read(t, o);
                    e.detach(t);
                }));
            }
            let mut wait = engine.rt().wait(t0, "readers");
            while handles.iter().any(|h| !h.is_finished()) {
                engine.safepoint(t0);
                let _ = wait.step();
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        engine.detach(t0);
        assert_eq!(
            det.race_count(),
            0,
            "read-read transfers must not be reported: {:?}",
            det.reports()
        );
    }

    #[test]
    fn reports_deduplicate_per_object_and_pair() {
        const ROUNDS: usize = 50;
        let (engine, det) = engine_with_detector(2, 2);
        let o = ObjId(0);
        let t0 = engine.attach();
        engine.alloc_init(o, t0);

        // The two threads write in strict turns (even: T0, odd: T1), so the
        // object provably changes hands 2 × ROUNDS − 1 times whatever the
        // schedule. The turn counter is not program synchronization: the
        // detector does not see it, and every hand-over after the first
        // (which finds no grab record yet) is an unordered write→write
        // transfer. Whoever waits keeps acting as a safe point.
        let turn = std::sync::atomic::AtomicUsize::new(0);
        let write_in_turns = |t: ThreadId, parity: usize| {
            for i in 0..ROUNDS {
                let mut wait = engine.rt().wait(t, "the other writer's turn");
                while turn.load(Ordering::Acquire) != 2 * i + parity {
                    engine.safepoint(t);
                    let _ = wait.step();
                }
                engine.write(t, o, i as u64);
                turn.store(2 * i + parity + 1, Ordering::Release);
            }
        };
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let t1 = engine.attach();
                write_in_turns(t1, 1);
                engine.detach(t1);
            });
            write_in_turns(t0, 0);
            // T1's last write may still need this thread to answer.
            let mut wait = engine.rt().wait(t0, "racy peer to finish");
            while !h.is_finished() {
                engine.safepoint(t0);
                let _ = wait.step();
            }
            h.join().unwrap();
        });
        engine.detach(t0);
        // Many racy transfers, but one report per (ordered) pair.
        let reports = det.reports();
        assert!((1..=2).contains(&reports.len()), "{reports:?}");
        assert!(reports.iter().all(|r| r.obj == o && r.first != r.second), "{reports:?}");
    }
}
