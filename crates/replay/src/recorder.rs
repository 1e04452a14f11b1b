//! The dependence recorder (§4): a [`Support`] implementation that turns
//! engine transition events into a [`RecordingLog`].
//!
//! ## Edge sources, case by case
//!
//! | event | sink wait(s) recorded | soundness argument |
//! |---|---|---|
//! | `Conflict` | the coordination-derived `(thread, clock)` pairs | the responder bumped at a safe point after its last access (Figure 4(b)); a blocked thread bumped before publishing BLOCKED |
//! | `PessConflictingAcquire` | the previous holders' release clocks, read here between the engine's claim and its publish | deferred unlocking: an unlocked pessimistic state was flushed at a bump that precedes any clock value read afterwards (§4.2) |
//! | `RdShCreate` | the object's last-transition side-table entry, plus the global previous-RdSh-creation entry | the previous holder has performed only *reads* of the object since its recorded transition, so ordering after that transition covers every write; the creation chain makes Octet's counter-based fence reasoning explicit for replay |
//! | `Fence` | the creating entry of epoch `c` | the creation is (transitively) after every write that preceded the object becoming read-shared |
//! | monitor acquire | the previous releaser's `(thread, clock)` | the release bump is a PSRO |
//!
//! Each recorded transition also *bumps the acting thread's release clock*
//! and deposits `(thread, new clock)` in the object's side table, pinned at
//! the thread's current operation — that is what makes the side-table and
//! epoch entries usable as replayable sources.
//!
//! Each thread's log is written only by that thread (every [`Support`]
//! callback runs on the mutator it names): an [`OwnedByThread`] slot, so a
//! wait or a bump is logged without a lock. RdSh epochs are dense counters
//! deposited in counter order, so their creating entries are one table
//! indexed by `c − first_epoch`, whose last entry heads the creation chain.
//! Only the depositor the `next_epoch` gate admits appends (the `RwLock`'s
//! write half); a `Fence` reads under the shared half.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use drink_core::support::{PrevHolders, Support, SupportCx, TransitionEv};
use drink_core::tstate::OwnedByThread;
use drink_runtime::{ObjId, ThreadId};

use crate::log::{RecordingLog, ThreadLog};

/// Pack `(tid, clock)` into one word: clock in the low 47 bits, `tid + 1`
/// (17 bits, so `u16::MAX` fits) above it. Zero means "no entry yet".
const CLOCK_BITS: u32 = 47;
const CLOCK_MASK: u64 = (1 << CLOCK_BITS) - 1;

#[inline]
pub(crate) fn pack(t: ThreadId, clock: u64) -> u64 {
    debug_assert!(clock <= CLOCK_MASK, "release clock overflow");
    ((t.raw() as u64 + 1) << CLOCK_BITS) | clock
}

#[inline]
pub(crate) fn unpack(word: u64) -> Option<(ThreadId, u64)> {
    (word != 0).then(|| (ThreadId::from_raw(((word >> CLOCK_BITS) - 1) as u16), word & CLOCK_MASK))
}

/// The recorder. The engine it records owns it, and hands it back by
/// [`HybridEngine::into_support`](drink_core::prelude::HybridEngine::into_support)
/// once the run is over, for [`Recorder::into_log`].
pub struct Recorder {
    /// Per-thread logs, each written only by its own mutator.
    logs: Box<[OwnedByThread<ThreadLog>]>,
    /// Per-object last-transition entry.
    side_table: Box<[AtomicU64]>,
    /// Packed creating entry of RdSh epoch `first_epoch + i` at index `i`.
    /// Its last entry is the last creation, the chain head (the explicit
    /// form of Octet's monotonic-counter fence argument).
    epochs: RwLock<Vec<u64>>,
    first_epoch: u64,
    /// The next epoch value allowed to deposit. Creations deposit in strict
    /// counter order (see `Support::PREPUBLISH`: epochs are claimed inside
    /// the Int window, so every claimed epoch is deposited and the order is
    /// total). This makes `epochs` a counter-ordered chain, which is what
    /// lets a no-fence read (rdShCount ≥ c) rely on
    /// creation(c) → creation(c') → reader transitivity during replay.
    next_epoch: AtomicU64,
    name: &'static str,
}

impl Recorder {
    /// A recorder for a runtime with `threads` thread slots and `objects`
    /// heap objects. `name` labels the configuration ("optimistic"/"hybrid");
    /// `first_epoch` is the first RdSh epoch value the run will claim
    /// (`rt.current_rdsh_count() + 1` on a fresh runtime).
    pub fn new(threads: usize, objects: usize, name: &'static str, first_epoch: u64) -> Self {
        Recorder {
            logs: (0..threads).map(|_| OwnedByThread::new(ThreadLog::default())).collect(),
            side_table: (0..objects).map(|_| AtomicU64::new(0)).collect(),
            epochs: RwLock::new(Vec::new()),
            first_epoch,
            next_epoch: AtomicU64::new(first_epoch),
            name,
        }
    }

    /// A recorder sized for `rt`.
    pub fn for_runtime(rt: &drink_runtime::Runtime, name: &'static str) -> Self {
        Recorder::new(rt.config().max_threads, rt.heap().len(), name, rt.current_rdsh_count() + 1)
    }

    /// The recording: every thread's log, taken over from its writer.
    pub fn into_log(self) -> RecordingLog {
        RecordingLog {
            threads: self.logs.into_vec().into_iter().map(OwnedByThread::into_inner).collect(),
            recorder: self.name.to_string(),
        }
    }

    /// `cx.t`'s own log.
    #[allow(clippy::mut_from_ref)]
    fn log(&self, cx: &SupportCx<'_>) -> &mut ThreadLog {
        // SAFETY: every `Support` callback runs on the mutator `cx.t`, the
        // slot's only writer; callers never keep the reference.
        unsafe { self.logs[cx.t.index()].get() }
    }

    /// Bump `cx.t`'s release clock for a recorded *transition* of `obj`,
    /// logging it in the post-wait stream (the transition is ordered after
    /// its own sources; see `log` module docs), and return the new clock
    /// value. The `(thread, clock)` entry becomes the object's side-table
    /// entry by a release store, so a later `RdShCreate` that loads it
    /// (acquire) also sees the transition's bump.
    fn bump_here(&self, cx: &SupportCx<'_>, obj: ObjId) -> u64 {
        let clock = cx.rt.control(cx.t).bump_release_clock();
        self.log(cx).push_transition_bump(cx.op);
        self.side_table[obj.index()].store(pack(cx.t, clock), Ordering::Release);
        clock
    }

    fn wait_for(&self, cx: &SupportCx<'_>, src: ThreadId, clock: u64) {
        if src != cx.t && clock > 0 {
            self.log(cx).push_wait(cx.op, src, clock);
        }
    }
}

impl Support for Recorder {
    // Side-table and epoch entries must be deposited before the new state is
    // observable, or a racing reader could record a stale edge.
    const PREPUBLISH: bool = true;

    fn on_transition(&self, cx: SupportCx<'_>, obj: ObjId, ev: TransitionEv<'_>) {
        match ev {
            TransitionEv::UpgradeOwn => {
                // RdEx(T) → WrEx(T) by the owner: no cross-thread ordering,
                // and any later access by another thread conflicts (and thus
                // coordinates), so no side-table refresh is needed either.
            }
            TransitionEv::PessLocalAcquire => {
                // Own-state read-lock: refresh the side table so a future
                // RdShCreate from this state orders after our writes.
                self.bump_here(&cx, obj);
            }
            TransitionEv::Fence { c } => {
                // An epoch below `first_epoch` was created before the run:
                // it has no entry and orders nothing.
                let entry = c.checked_sub(self.first_epoch).and_then(|i| {
                    self.epochs.read().unwrap().get(i as usize).copied()
                });
                if let Some((src, clock)) = entry.and_then(unpack) {
                    self.wait_for(&cx, src, clock);
                }
            }
            TransitionEv::RdShCreate { prev_owner, c, .. } => {
                // Deposit strictly in counter order (epochs are claimed
                // inside the Int window under PREPUBLISH, so epoch `c − 1`
                // is either already deposited or about to be, with nothing
                // blocking its depositor).
                let mut wait = cx.rt.wait(cx.t, "rdsh epoch chain order");
                while self.next_epoch.load(Ordering::Acquire) != c {
                    let _ = wait.step();
                }
                // Sink edges: the object's last transition (dominates the
                // previous exclusive holder's writes)...
                if let Some((src, clock)) = unpack(
                    self.side_table[obj.index()].load(Ordering::Acquire),
                ) {
                    self.wait_for(&cx, src, clock);
                } else {
                    // No recorded transition yet: the previous holder may
                    // still have unpublished writes; order after its last
                    // flush conservatively.
                    let clock = cx.rt.control(prev_owner).release_clock();
                    self.wait_for(&cx, prev_owner, clock);
                }
                // ...and the previous RdSh creation (the counter chain: the
                // table's last entry, now guaranteed to be creation(c − 1)).
                let mut epochs = self.epochs.write().unwrap();
                debug_assert_eq!(self.first_epoch + epochs.len() as u64, c);
                if let Some((src, clock)) = epochs.last().copied().and_then(unpack) {
                    self.wait_for(&cx, src, clock);
                }
                // Source side: register this creation.
                let clock = self.bump_here(&cx, obj);
                epochs.push(pack(cx.t, clock));
                self.next_epoch.store(c + 1, Ordering::Release);
            }
            TransitionEv::Conflict { sources, .. } => {
                for &(src, clock) in sources {
                    self.wait_for(&cx, src, clock);
                }
                self.bump_here(&cx, obj);
            }
            TransitionEv::PessConflictingAcquire { prev, .. } => {
                // The state is claimed (parked at Int) and not yet published:
                // the point at which §4.2 reads the remote release counters.
                let edge_from =
                    |src: ThreadId| self.wait_for(&cx, src, cx.rt.control(src).release_clock());
                match prev {
                    PrevHolders::One(src) => edge_from(src),
                    // `wait_for` drops the acquirer's own entry.
                    PrevHolders::AllOthers => (0..cx.rt.registered_threads())
                        .map(|i| ThreadId(i as u16))
                        .for_each(edge_from),
                }
                self.bump_here(&cx, obj);
            }
        }
    }

    fn on_release(&self, cx: SupportCx<'_>) {
        // The engine already bumped the clock; mirror it into the log.
        self.log(&cx).push_bump(cx.op);
    }

    fn on_monitor_acquire(&self, cx: SupportCx<'_>, prev: Option<(ThreadId, u64)>) {
        if let Some((src, clock)) = prev {
            self.wait_for(&cx, src, clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_runtime::{MonitorId, Runtime, RuntimeConfig};

    #[test]
    fn pack_unpack_roundtrip() {
        assert_eq!(unpack(0), None);
        for (t, c) in [(0u16, 0u64), (1, 1), (255, 1 << 40), (u16::MAX, 123)] {
            assert_eq!(unpack(pack(ThreadId(t), c)), Some((ThreadId(t), c)));
        }
    }

    /// Every release-clock bump — a PSRO's, a blocking safe point's, a
    /// response's — is one pre-wait bump, and bumps pinned at one operation
    /// coalesce.
    #[test]
    fn release_and_respond_mirror_bumps_into_log() {
        let rt = Runtime::new(RuntimeConfig::default());
        let t = rt.register_thread();
        let rec = Recorder::new(4, 8, "test", 1);
        let cx = SupportCx { rt: &rt, t, op: 5 };
        rec.on_release(cx);
        rec.on_release(cx);
        rec.on_release(SupportCx { op: 6, ..cx });
        let log = rec.into_log();
        assert_eq!(log.threads[t.index()].sources_pre, vec![(5, 2), (6, 1)]);
    }

    #[test]
    fn conflict_records_waits_and_side_table_entry() {
        let rt = Runtime::new(RuntimeConfig::default());
        let t0 = rt.register_thread();
        let t1 = rt.register_thread();
        let rec = Recorder::new(4, 8, "test", 1);
        let o = ObjId(3);

        // t0's clock reached 7 through PSRO bumps (mirrored into its log so
        // the fabricated wait below is satisfiable).
        let cx0m = SupportCx { rt: &rt, t: t0, op: 0 };
        for _ in 0..7 {
            rec.on_release(cx0m);
        }

        // t1 "transitions" o with an edge from t0 at clock 7.
        let cx1 = SupportCx { rt: &rt, t: t1, op: 2 };
        rec.on_transition(
            cx1,
            o,
            TransitionEv::Conflict { sources: &[(t0, 7)] },
        );
        // A later RdShCreate by t0 must order after t1's transition.
        let cx0 = SupportCx { rt: &rt, t: t0, op: 9 };
        rec.on_transition(
            cx0,
            o,
            TransitionEv::RdShCreate {
                prev_owner: t1,
                c: 1,
                pess: false,
            },
        );

        let log = rec.into_log();
        assert_eq!(log.threads[t1.index()].sinks[0].waits, vec![(t0, 7)]);
        // t1 bumped once (its transition); t0's create waits for that bump.
        assert_eq!(log.threads[t1.index()].total_bumps(), 1);
        assert_eq!(log.threads[t0.index()].sinks[0].waits, vec![(t1, 1)]);
        assert_eq!(log.validate(), Ok(()));
    }

    /// §4.2: the recorder reads the previous holders' release counters
    /// itself. Whatever it reads after a holder's PSRO is at least that
    /// PSRO's bump — the value that dominates the holder's last access.
    #[test]
    fn pess_conflicting_acquire_reads_the_holders_clocks_itself() {
        let rt = Runtime::new(RuntimeConfig::default());
        let (t0, t1, t2) = (rt.register_thread(), rt.register_thread(), rt.register_thread());
        let rec = Recorder::new(4, 8, "test", 1);

        // t0 and t2 each flush at a PSRO (the engine bumps, the recorder
        // mirrors the bump into the log); t0 then flushes once more.
        let psro = |t: ThreadId| {
            let clock = rt.control(t).bump_release_clock();
            rec.on_release(SupportCx { rt: &rt, t, op: 0 });
            clock
        };
        let (first, _) = (psro(t0), psro(t2));
        let second = psro(t0);
        assert!(second > first);

        let acquire = |op, prev| {
            let cx1 = SupportCx { rt: &rt, t: t1, op };
            let ev = TransitionEv::PessConflictingAcquire { prev };
            rec.on_transition(cx1, ObjId(op as u32), ev)
        };
        acquire(2, PrevHolders::One(t0));
        acquire(3, PrevHolders::AllOthers);

        let log = rec.into_log();
        let sinks = &log.threads[t1.index()].sinks;
        // One(t0): an edge from t0 alone, at a clock no older than its PSROs.
        assert_eq!(sinks[0].waits, vec![(t0, second)]);
        // AllOthers: every registered thread but the acquirer.
        assert_eq!(sinks[1].waits, vec![(t0, second), (t2, 1)]);
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    fn fence_waits_on_epoch_creator() {
        let rt = Runtime::new(RuntimeConfig::default());
        let t0 = rt.register_thread();
        let t1 = rt.register_thread();
        let rec = Recorder::new(4, 8, "test", 1);
        let o = ObjId(0);

        let cx0 = SupportCx { rt: &rt, t: t0, op: 4 };
        rec.on_transition(
            cx0,
            o,
            TransitionEv::RdShCreate {
                prev_owner: t1,
                c: 1,
                pess: false,
            },
        );
        let cx1 = SupportCx { rt: &rt, t: t1, op: 6 };
        rec.on_transition(cx1, o, TransitionEv::Fence { c: 1 });

        let log = rec.into_log();
        // t0's creation bumped its clock to 1; t1's fence waits for it.
        assert_eq!(log.threads[t1.index()].sinks[0].waits, vec![(t0, 1)]);
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    fn rdsh_chain_links_creations() {
        let rt = Runtime::new(RuntimeConfig::default());
        let t0 = rt.register_thread();
        let t1 = rt.register_thread();
        let rec = Recorder::new(4, 8, "test", 1);

        let cx0 = SupportCx { rt: &rt, t: t0, op: 1 };
        rec.on_transition(
            cx0,
            ObjId(0),
            TransitionEv::RdShCreate { prev_owner: t1, c: 1, pess: false },
        );
        let cx1 = SupportCx { rt: &rt, t: t1, op: 3 };
        rec.on_transition(
            cx1,
            ObjId(1),
            TransitionEv::RdShCreate { prev_owner: t0, c: 2, pess: false },
        );
        let log = rec.into_log();
        // The second creation (t1) waits on the first creation's bump (t0@1)
        // via both the side-table-miss fallback and the chain.
        assert!(log.threads[t1.index()].sinks[0]
            .waits
            .contains(&(t0, 1)));
        assert_eq!(log.validate(), Ok(()));
    }

    /// A creation by `t` at epoch `c` whose object has no side-table entry
    /// and whose previous owner is `t` itself, so the only wait it can log
    /// is the chain's.
    fn create(rec: &Recorder, rt: &Runtime, t: ThreadId, op: u64, c: u64) {
        let ev = TransitionEv::RdShCreate { prev_owner: t, c, pess: false };
        rec.on_transition(SupportCx { rt, t, op }, ObjId(c as u32), ev);
    }

    #[test]
    fn fence_below_first_epoch_logs_no_wait() {
        let rt = Runtime::new(RuntimeConfig::default());
        let (t0, t1) = (rt.register_thread(), rt.register_thread());
        // Epoch 1 was created before the run; the run's first is 2.
        let rec = Recorder::new(4, 8, "test", 2);
        create(&rec, &rt, t0, 0, 2);
        rec.on_transition(SupportCx { rt: &rt, t: t1, op: 1 }, ObjId(0), TransitionEv::Fence { c: 1 });
        let log = rec.into_log();
        assert!(log.threads[t1.index()].sinks.is_empty());
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    fn epoch_table_chains_creations_and_serves_fences() {
        let rt = Runtime::new(RuntimeConfig::default());
        let (t0, t1, t2) = (rt.register_thread(), rt.register_thread(), rt.register_thread());
        let c = 5;
        let rec = Recorder::new(4, 8, "test", c);
        // Alternating creators: t0 @ c (clock 1), t1 @ c+1 (clock 1),
        // t0 @ c+2 (clock 2).
        create(&rec, &rt, t0, 0, c);
        create(&rec, &rt, t1, 1, c + 1);
        create(&rec, &rt, t0, 2, c + 2);
        // A fence on the middle epoch waits on the middle creation.
        rec.on_transition(SupportCx { rt: &rt, t: t2, op: 3 }, ObjId(0), TransitionEv::Fence { c: c + 1 });

        let log = rec.into_log();
        let waits = |t: ThreadId| -> Vec<_> {
            log.threads[t.index()].sinks.iter().map(|s| (s.op, s.waits.clone())).collect()
        };
        // Each creation waits on its predecessor's creator; the first on none.
        assert_eq!(waits(t1), vec![(1, vec![(t0, 1)])]);
        assert_eq!(waits(t0), vec![(2, vec![(t1, 1)])]);
        assert_eq!(waits(t2), vec![(3, vec![(t1, 1)])]);
        assert_eq!(log.validate(), Ok(()));
    }

    /// Each mutator writes its own log slot, through the engine that owns
    /// the recorder; the log comes back through that engine once they
    /// finish.
    #[test]
    fn into_log_collects_logs_written_by_other_threads() {
        use drink_core::prelude::*;
        let rt = Runtime::new(RuntimeConfig::builder().max_threads(4).heap_objects(8).monitors(3).build());
        let rt = std::sync::Arc::new(rt);
        let recorder = Recorder::for_runtime(&rt, "test");
        let engine = EngineKind::Hybrid.with_support(rt, recorder);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    // Thread i releases its own monitor i + 1 times, then
                    // detaches: i + 2 PSROs, each pinned at its own op.
                    let t = engine.attach();
                    let m = MonitorId(t.raw() as u32);
                    for _ in 0..=t.index() {
                        engine.lock(t, m);
                        engine.unlock(t, m);
                    }
                    engine.detach(t);
                });
            }
        });
        let log = engine.into_support().into_log();
        for i in 0..3u64 {
            let pins: Vec<_> = (0..=i).map(|k| (2 * k + 1, 1)).chain([(2 * i + 2, 1)]).collect();
            assert_eq!(log.threads[i as usize].sources_pre, pins);
        }
        assert_eq!(log.threads[3], ThreadLog::default());
        assert_eq!(log.recorder, "test");
        assert_eq!(log.validate(), Ok(()));
    }

    #[test]
    fn monitor_acquire_records_sync_edge() {
        let rt = Runtime::new(RuntimeConfig::default());
        let t0 = rt.register_thread();
        let t1 = rt.register_thread();
        let rec = Recorder::new(4, 8, "test", 1);
        // Pretend t0 released at clock 3 — but a wait is only valid if t0's
        // log shows 3 bumps; mirror them first.
        let cx0 = SupportCx { rt: &rt, t: t0, op: 0 };
        for _ in 0..3 {
            rec.on_release(cx0);
        }
        let cx1 = SupportCx { rt: &rt, t: t1, op: 2 };
        rec.on_monitor_acquire(cx1, Some((t0, 3)));
        let log = rec.into_log();
        assert_eq!(log.threads[t1.index()].sinks[0].waits, vec![(t0, 3)]);
        assert_eq!(log.validate(), Ok(()));
    }
}
