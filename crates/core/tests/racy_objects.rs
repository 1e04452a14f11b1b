//! Racy objects under tracking alone, whose discipline is `Locking::Relaxed`
//! (DESIGN.md §13): no lock outlives the access that took it. A write
//! releases its write lock by a store right after the payload store — never
//! before it — and a conflicting read installs an unlocked read-shared word
//! under a fresh epoch, then validates the payload against that word
//! (DESIGN.md §12). So a racing access waits for a release instead of
//! contending. On `PaperModel` (`Locking::Deferred`) Table 3 stays exact.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use drink_core::engine::hybrid::{HybridConfig, HybridEngine};
use drink_core::policy::PolicyParams;
use drink_core::prelude::*;
use drink_core::support::{PrevHolders, SupportCx, TransitionEv};
use drink_core::word::{Kind, LockMode, StateWord};
use drink_runtime::{
    Event, MonitorId, ObjId, Runtime, RuntimeConfig, SchedHooks, SchedPoint, StatsReport, ThreadId, Wait,
};

const O: ObjId = ObjId(0);
const M: MonitorId = MonitorId(0);
const T0: ThreadId = ThreadId(0);
const T1: ThreadId = ThreadId(1);

fn runtime() -> Runtime {
    Runtime::new(
        RuntimeConfig::builder()
            .max_threads(4)
            .heap_objects(8)
            .monitors(2)
            .build(),
    )
}

/// Every access was classified exactly once.
fn assert_partition(r: &StatsReport) {
    let classified = r.opt_same_state()
        + r.get(Event::OptUpgrading)
        + r.get(Event::OptFence)
        + r.opt_conflicting()
        + r.pess_uncontended()
        + r.validated_reads();
    assert_eq!(classified, r.accesses(), "an access was dropped or double-counted");
}

/// What one access to `O` did to the thread that made it.
#[derive(Clone, Copy, Debug)]
struct Obs {
    /// The object's state was pessimistic when the access began.
    pess_before: bool,
    /// Contended transitions and coordination roundtrips it cost.
    contended: u64,
    roundtrips: u64,
    /// The thread still holds a lock on `O` now that it is over.
    locked_after: bool,
}

fn observe<S: Support>(e: &HybridEngine<S>, t: ThreadId, access: impl FnOnce()) -> Obs {
    let counters = || {
        // SAFETY: this is the OS thread attached as `t`.
        let ts = unsafe { e.common().ts(t) };
        (
            ts.stats.get(Event::PessContended),
            ts.stats.get(Event::CoordinationRoundtrip),
            !ts.lock_buffer.is_empty(),
        )
    };
    let pess_before = StateWord(e.rt().obj(O).state().load(Ordering::SeqCst)).is_pess();
    let before = counters();
    access();
    let after = counters();
    Obs {
        pess_before,
        contended: after.0 - before.0,
        roundtrips: after.1 - before.1,
        locked_after: after.2,
    }
}

/// The `KvStore` GET/PUT shape on one key, in strict turns so that the run is
/// the same under every schedule: the reader's unsynchronised GET, then the
/// writer's `synchronized` read-modify-write, `rounds` times. Whoever waits
/// for its turn keeps polling safe points. Returns the reader's observations
/// (one per GET), the writer's (a read and a write per PUT) and the report.
fn get_put_rounds<S: Support>(e: &HybridEngine<S>, rounds: usize) -> (Vec<Obs>, Vec<Obs>, StatsReport) {
    e.alloc_init_read_shared(O);
    // Even: the reader's turn. Odd: the writer's.
    let turn = AtomicUsize::new(0);
    let await_turn = |t: ThreadId, mine: usize| {
        let mut wait = e.rt().wait(t, "the other thread's turn");
        while turn.load(Ordering::Acquire) != mine {
            e.safepoint(t);
            let _ = wait.step();
        }
    };
    let (gets, puts) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let t = e.attach();
            let mut obs = Vec::new();
            for round in 0..rounds {
                await_turn(t, 2 * round);
                obs.push(observe(e, t, || {
                    let _ = e.read(t, O);
                }));
                turn.store(2 * round + 1, Ordering::Release);
            }
            // The last PUT may still need this thread to give up a lock.
            await_turn(t, 2 * rounds);
            e.detach(t);
            obs
        });
        let writer = s.spawn(|| {
            let t = e.attach();
            let mut obs = Vec::new();
            for round in 0..rounds {
                await_turn(t, 2 * round + 1);
                e.lock(t, M);
                let mut seq = 0;
                obs.push(observe(e, t, || seq = e.read(t, O)));
                obs.push(observe(e, t, || e.write(t, O, seq + 1)));
                e.unlock(t, M);
                turn.store(2 * round + 2, Ordering::Release);
            }
            e.detach(t);
            obs
        });
        (reader.join().unwrap(), writer.join().unwrap())
    });
    assert_eq!(e.rt().obj(O).data_read(), rounds as u64, "one increment per PUT");
    let w = StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
    assert!(!w.is_int() && !w.is_pess_locked(), "quiescent state: {w:?}");
    let r = e.rt().stats().report();
    assert_eq!(r.accesses(), 3 * rounds as u64);
    assert_partition(&r);
    (gets, puts, r)
}

const ROUNDS: usize = 40;

#[test]
fn get_put_shape_stops_contending_past_the_cutoff() {
    let e = HybridEngine::new(Arc::new(runtime()));
    let cutoff = u64::from(e.config().policy.cutoff_confl);
    let (gets, puts, r) = get_put_rounds(&e, ROUNDS);

    // The key's first `cutoff` explicit conflicts send it to pessimistic
    // states. From then on no access contends, coordinates, or leaves a lock
    // behind: each lock goes back inside the access that took it.
    assert_eq!(r.opt_to_pess(), 1);
    for o in gets.iter().chain(&puts) {
        assert_eq!((o.contended, o.locked_after), (0, false), "{o:?}");
    }
    let coordinating = gets.iter().chain(&puts).filter(|o| o.roundtrips > 0).count();
    assert_eq!(coordinating as u64, cutoff, "the optimistic conflicts, and nothing after");
    for o in gets.iter().chain(&puts).filter(|o| o.pess_before) {
        assert_eq!(o.roundtrips, 0, "{o:?}");
    }
    assert_eq!(r.pess_contended(), 0);
}

#[test]
fn paper_model_keeps_every_lock_deferred() {
    let e = HybridEngine::with_config(Arc::new(runtime()), PaperModel, HybridConfig::default());
    let (gets, puts, r) = get_put_rounds(&e, ROUNDS);

    // The key goes pessimistic as it does under tracking alone...
    assert_eq!(r.opt_to_pess(), 1);
    let pess_gets: Vec<_> = gets.iter().filter(|o| o.pess_before).collect();
    assert!(!pess_gets.is_empty());
    // ...and Table 3 stays exact: the GET's read lock is deferred, and every
    // PUT write contends with it once and coordinates.
    assert!(pess_gets.iter().all(|o| o.locked_after), "{pess_gets:?}");
    let pess_puts: Vec<_> = puts.chunks(2).filter(|put| put[0].pess_before).collect();
    for put in &pess_puts {
        assert_eq!((put[1].contended, put[1].locked_after), (1, true), "{put:?}");
        assert!(put[1].roundtrips >= 1, "{put:?}");
    }
    // Contention is counted once per PUT, for the whole run.
    assert!(pess_puts.len() > ROUNDS / 2);
    assert_eq!(r.pess_contended(), pess_puts.len() as u64);
}

/// Two `synchronized` writers and a racy reader, free-running, under every
/// tracked kind on `NullSupport`: whatever the schedule, no PUT is lost, and
/// no access leaves its thread holding a lock.
#[test]
fn free_running_readers_and_writers_lose_no_update() {
    for kind in EngineKind::ALL {
        if let Some(cfg) = kind.hybrid_config() {
            free_running(HybridEngine::with_config(Arc::new(runtime()), NullSupport, cfg));
        }
    }
}

fn free_running(e: HybridEngine) {
    const PUTS: u64 = 3_000;
    // SAFETY (both uses): called on the OS thread attached as `t`.
    let no_locks = |t: ThreadId| {
        let ts = unsafe { e.common().ts(t) };
        assert!(ts.holds_no_locks(), "{}: a lock outlived its access: {:?}", e.name(), ts.lock_buffer);
    };
    e.alloc_init_read_shared(O);
    let writers_left = AtomicUsize::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let t = e.attach();
                for _ in 0..PUTS {
                    e.lock(t, M);
                    let seq = e.read(t, O);
                    no_locks(t);
                    e.write(t, O, seq + 1);
                    no_locks(t);
                    e.unlock(t, M);
                    e.safepoint(t);
                }
                writers_left.fetch_sub(1, Ordering::Release);
                e.detach(t);
            });
        }
        s.spawn(|| {
            let t = e.attach();
            let mut last = 0;
            while writers_left.load(Ordering::Acquire) > 0 {
                let seq = e.read(t, O);
                no_locks(t);
                assert!(seq >= last, "GET went back in time: {seq} after {last}");
                last = seq;
                e.safepoint(t);
            }
            e.detach(t);
        });
    });
    assert_eq!(e.rt().obj(O).data_read(), 2 * PUTS);
    let w = StateWord(e.rt().obj(O).state().load(Ordering::SeqCst));
    assert!(!w.is_int() && !w.is_pess_locked(), "quiescent state: {w:?}");
    assert_partition(&e.rt().stats().report());
}

/// At [`SchedPoint::LockedAccess`] on T0 — the state locked, the payload
/// access still to come — let T1 loose on the object and hold T0 there until
/// T1 has backed off from the lock.
#[derive(Debug)]
struct WriteInWindow {
    rt: OnceLock<Weak<Runtime>>,
    fired: AtomicBool,
    go: AtomicBool,
    /// T1 backed off while T0 held the write lock.
    waited: AtomicBool,
}

impl SchedHooks for WriteInWindow {
    fn perturb(&self, t: ThreadId, point: SchedPoint) {
        let rt = || self.rt.get().and_then(Weak::upgrade).expect("runtime registered");
        let held = StateWord::wr_ex_pess(T0, LockMode::Write);
        if point == SchedPoint::SpinBackoff && t == T1 && self.go.load(Ordering::Acquire) {
            if StateWord(rt().obj(O).state().load(Ordering::SeqCst)) == held {
                self.waited.store(true, Ordering::Release);
            }
            return;
        }
        if point != SchedPoint::LockedAccess || t != T0 || self.fired.swap(true, Ordering::Relaxed) {
            return;
        }
        let rt = rt();
        let w = StateWord(rt.obj(O).state().load(Ordering::SeqCst));
        assert_eq!(w, held, "the access runs locked");
        self.go.store(true, Ordering::Release);
        // T1 can only be backing off because it found the state locked.
        let mut wait = Wait::new("T1 to back off from the write lock");
        while !self.waited.load(Ordering::Acquire) {
            let _ = wait.step();
        }
    }
}

/// The release that is not deferred comes *after* the access it guards: a
/// second thread's write forced between T0's lock and T0's payload write
/// finds the state locked, waits for T0, and lands on top of T0's value.
#[test]
fn the_release_follows_the_access_it_guards() {
    let hook = Arc::new(WriteInWindow {
        rt: OnceLock::new(),
        fired: AtomicBool::new(false),
        go: AtomicBool::new(false),
        waited: AtomicBool::new(false),
    });
    let mut rt = runtime();
    rt.set_sched_hooks(hook.clone());
    let rt = Arc::new(rt);
    hook.rt.set(Arc::downgrade(&rt)).expect("set once");
    // Tracking alone releases after every access, so the very first
    // locking access goes through the window; no policy move needed.
    let e = HybridEngine::with_config(
        rt,
        NullSupport,
        HybridConfig {
            policy: PolicyParams {
                cutoff_confl: u32::MAX,
                k_confl: u32::MAX,
                inertia: u32::MAX,
            },
            ..HybridConfig::default()
        },
    );
    let t0 = e.attach();
    assert_eq!(t0, T0);
    let obj = e.rt().obj(O);
    obj.state()
        .store(StateWord::wr_ex_pess(T0, LockMode::Unlocked).0, Ordering::SeqCst);

    std::thread::scope(|s| {
        let second = s.spawn(|| {
            let t1 = e.attach();
            assert_eq!(t1, T1);
            // No schedule point here (a bare `Wait` reports to no runtime):
            // T1's first backoff is the write's.
            let mut wait = Wait::new("T0 to take the write lock");
            while !hook.go.load(Ordering::Acquire) {
                let _ = wait.step();
            }
            let prev = e.try_write(t1, O, 2);
            // SAFETY: this is the OS thread attached as t1.
            let ts = unsafe { e.common().ts(t1) };
            let coordinated = ts.stats.get(Event::PessContended) + ts.stats.get(Event::CoordinationRoundtrip);
            e.detach(t1);
            (prev, coordinated)
        });
        e.write(t0, O, 1);
        let w = StateWord(obj.state().load(Ordering::SeqCst));
        assert_ne!(w, StateWord::wr_ex_pess(T0, LockMode::Write), "T0 released after its write");
        let mut wait = e.rt().wait(t0, "the second thread to finish");
        while !second.is_finished() {
            e.safepoint(t0);
            let _ = wait.step();
        }
        let (prev, coordinated) = second.join().unwrap();
        assert_eq!(prev, Some(1), "T1's write overwrote T0's, not the other way round");
        assert!(hook.waited.load(Ordering::Relaxed), "T1 found the state locked");
        assert_eq!(coordinated, 0, "and waited for the release without asking for it");
    });
    assert_eq!(obj.data_read(), 2);
    assert!(hook.fired.load(Ordering::Relaxed));
    e.detach(t0);
}

// --- The rows that depart, one by one ---

/// Tracking alone that writes down every transition event it is shown, and
/// the previous holder the event names, under the lock discipline of `S`:
/// `Probe<NullSupport>` is relaxed, `Probe<PaperModel>` deferred.
struct Probe<S> {
    seen: Mutex<Vec<(String, Option<PrevHolders>)>>,
    discipline: PhantomData<S>,
}

impl<S: Support> Default for Probe<S> {
    fn default() -> Self {
        Probe { seen: Mutex::default(), discipline: PhantomData }
    }
}

impl<S: Support> Support for Probe<S> {
    const LOCKING: Locking = S::LOCKING;

    fn on_transition(&self, _cx: SupportCx<'_>, obj: ObjId, ev: TransitionEv<'_>) {
        let named = match ev {
            TransitionEv::RdShCreate { prev_owner, .. } => Some(PrevHolders::One(prev_owner)),
            TransitionEv::PessConflictingAcquire { prev } => Some(prev),
            _ => None,
        };
        self.seen.lock().unwrap().push((format!("{obj:?} {ev:?}"), named));
    }
}

/// What one row left behind.
struct Row {
    /// The state word after the access.
    state: StateWord,
    /// Whether the accessing thread holds any lock (buffer, bitmap, read set).
    holds_locks: bool,
    /// The accessing thread's `rdShCount`.
    rd_sh_count: u64,
    /// Every transition event the support saw.
    seen: Vec<String>,
    /// The previous holder each of them named, if any.
    named: Vec<Option<PrevHolders>>,
    /// The accessing thread's counters.
    uncontended: u64,
    owner_change: u64,
    unlocked: u64,
    seqlock_events: u64,
}

/// T0 accesses `O` in state `old` (T1 is the "other" thread of the row)
/// under `S`'s discipline.
fn row<S: Support>(old: StateWord, write: bool) -> Row {
    let e = HybridEngine::with_config(
        Arc::new(runtime()),
        Probe::<S>::default(),
        HybridConfig {
            policy: PolicyParams {
                k_confl: u32::MAX,
                inertia: u32::MAX,
                ..PolicyParams::default()
            },
            ..HybridConfig::default()
        },
    );
    let (t0, t1) = (e.attach(), e.attach());
    assert_eq!((t0, t1), (T0, T1));
    e.rt().obj(O).data_write(41);
    e.rt().obj(O).state().store(old.0, Ordering::SeqCst);
    if write {
        e.write(t0, O, 42);
    } else {
        assert_eq!(e.read(t0, O), 41);
    }
    // SAFETY: this is the OS thread attached as both mutators.
    let ts = unsafe { e.common().ts(t0) };
    let seen = e.common().support.seen.lock().unwrap().clone();
    let row = Row {
        state: StateWord(e.rt().obj(O).state().load(Ordering::SeqCst)),
        holds_locks: !ts.holds_no_locks(),
        rd_sh_count: ts.rd_sh_count,
        seen: seen.iter().map(|(ev, _)| ev.clone()).collect(),
        named: seen.iter().map(|&(_, named)| named).collect(),
        uncontended: ts.stats.get(Event::PessUncontended),
        owner_change: ts.stats.get(Event::PessOwnerChange),
        unlocked: ts.stats.get(Event::StateUnlocked),
        seqlock_events: ts.stats.get(Event::SeqlockValidated)
            + ts.stats.get(Event::SeqlockRetry)
            + ts.stats.get(Event::SeqlockFallback),
    };
    assert_eq!(ts.stats.get(Event::PessContended), 0);
    assert_eq!(e.rt().obj(O).data_read(), if write { 42 } else { 41 });
    e.detach(t0);
    e.detach(t1);
    row
}

/// The transition is the deferred row's — one event to the support, naming
/// the same previous holder, and the same counts — and the lock it stands
/// for is already released, inside the access: no flush unlock is counted
/// for it. The event's kind may differ: a relaxed `WrExPess(T1)` R installs a
/// read-shared word, so the support hears `RdShCreate { prev_owner: T1 }`
/// where the deferred row tells `PessConflictingAcquire { prev: One(T1) }`.
/// Both name `T1`, which is what a support orders the read after.
fn assert_departs_only_in_the_lock(relaxed: &Row, deferred: &Row, label: &str) {
    assert!(!relaxed.holds_locks && deferred.holds_locks, "{label}");
    assert_eq!(relaxed.named, deferred.named, "{label}: {:?} vs {:?}", relaxed.seen, deferred.seen);
    assert_eq!(relaxed.named, [Some(PrevHolders::One(T1))], "{label}: {:?}", relaxed.seen);
    assert_eq!((relaxed.uncontended, relaxed.unlocked), (1, 0), "{label}");
    assert_eq!((deferred.uncontended, deferred.unlocked), (1, 0), "{label}");
    assert_eq!(relaxed.owner_change, deferred.owner_change, "{label}");
    assert_eq!(relaxed.seqlock_events, 0, "{label}: counted as the transition it is");
}

#[test]
fn racy_conflicting_read_of_a_written_state_installs_it_unlocked() {
    // WrExPess(T1) R by T0 → RdExRLock(T0); relaxed: RdShPess(c), a fresh
    // epoch, in the one claim.
    let old = StateWord::wr_ex_pess(T1, LockMode::Unlocked);
    let (relaxed, deferred) = (row::<NullSupport>(old, false), row::<PaperModel>(old, false));
    let w = relaxed.state;
    assert_eq!(w, StateWord::rd_sh_pess(w.rdsh_count(), 0));
    assert!(w.rdsh_count() >= 2, "a fresh epoch from gRdShCount: {w:?}");
    assert!(relaxed.rd_sh_count >= w.rdsh_count(), "the creator has fenced against its own epoch");
    assert_eq!(deferred.state, StateWord::rd_ex_pess(T0, LockMode::Read));
    assert_departs_only_in_the_lock(&relaxed, &deferred, "WrExPess(T1) R by T0");
    assert_eq!(relaxed.owner_change, 1, "a conflicting (w→r) acquire");
}

#[test]
fn racy_read_of_a_foreign_read_state_installs_a_fresh_unlocked_epoch() {
    // RdExPess(T1) R by T0 → RdShRLock(1)(c); relaxed: RdShPess(c).
    let old = StateWord::rd_ex_pess(T1, LockMode::Unlocked);
    let (relaxed, deferred) = (row::<NullSupport>(old, false), row::<PaperModel>(old, false));
    for (r, n) in [(&relaxed, 0), (&deferred, 1)] {
        let w = r.state;
        assert_eq!((w.kind(), w.is_pess(), w.read_locks()), (Kind::RdSh, true, n), "{w:?}");
        assert!(w.rdsh_count() >= 2, "a fresh epoch from gRdShCount: {w:?}");
        assert!(r.rd_sh_count >= w.rdsh_count(), "the creator has fenced against its own epoch");
    }
    assert_departs_only_in_the_lock(&relaxed, &deferred, "RdExPess(T1) R by T0");
    assert_eq!(relaxed.seen, deferred.seen, "the same event, RdShCreate");
    assert_eq!(relaxed.owner_change, 0, "read after read: non-conflicting");
}

#[test]
fn racy_writes_release_by_a_store_and_leave_the_state_unlocked() {
    for old in [
        StateWord::wr_ex_pess(T0, LockMode::Unlocked),
        StateWord::rd_ex_pess(T0, LockMode::Unlocked),
        StateWord::wr_ex_pess(T1, LockMode::Unlocked),
        StateWord::rd_ex_pess(T1, LockMode::Unlocked),
        StateWord::rd_sh_pess(3, 0),
    ] {
        let (relaxed, deferred) = (row::<NullSupport>(old, true), row::<PaperModel>(old, true));
        assert_eq!(relaxed.state, StateWord::wr_ex_pess(T0, LockMode::Unlocked), "{old:?}");
        assert_eq!(deferred.state, StateWord::wr_ex_pess(T0, LockMode::Write), "{old:?}");
        assert!(!relaxed.holds_locks && deferred.holds_locks, "{old:?}");
        assert_eq!(relaxed.seen, deferred.seen, "{old:?}");
        let foreign = old.holders() != PrevHolders::One(T0);
        assert_eq!(relaxed.seen.len(), usize::from(foreign), "{old:?}: {:?}", relaxed.seen);
        assert_eq!((relaxed.uncontended, relaxed.unlocked), (1, 0), "{old:?}");
        assert_eq!((deferred.uncontended, deferred.unlocked), (1, 0), "{old:?}");
        assert_eq!(relaxed.owner_change, u64::from(foreign), "{old:?}");
    }
}

/// The store that releases a write lock consults the valve like any unlock:
/// once the profile says `OptFinal`, it installs the optimistic counterpart.
#[test]
fn a_store_release_crosses_the_valve_when_the_profile_says_so() {
    let e = HybridEngine::with_config(
        Arc::new(runtime()),
        NullSupport,
        HybridConfig {
            policy: PolicyParams {
                cutoff_confl: 1,
                k_confl: 1,
                inertia: 1,
            },
            ..HybridConfig::default()
        },
    );
    let t0 = e.attach();
    e.rt().obj(O).state().store(StateWord::wr_ex_pess(t0, LockMode::Unlocked).0, Ordering::SeqCst);
    let (policy, profile) = (&e.common().policy, e.rt().obj(O).profile());
    assert!(policy.force_pess(profile));
    assert!(policy.on_pess_transition(profile, false));
    e.write(t0, O, 1);
    assert_eq!(StateWord(e.rt().obj(O).state().load(Ordering::SeqCst)), StateWord::wr_ex_opt(t0));
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert!(ts.holds_no_locks());
    // The release lies inside the write: the valve is counted, no flush
    // unlock is.
    assert_eq!((ts.stats.get(Event::StateUnlocked), ts.stats.get(Event::PessToOpt)), (0, 1));
    e.detach(t0);
}

/// Parks T0 inside the window of its first installed-then-validated read —
/// state installed, payload read, re-load still to come — until T1 has
/// claimed the object, written it and released it again.
#[derive(Debug, Default)]
struct WriteInValidationWindow {
    /// 0: armed. 1: T0 is in the window, T1 may go. 2: T1 is done.
    phase: AtomicUsize,
}

impl SchedHooks for WriteInValidationWindow {
    fn perturb(&self, t: ThreadId, point: SchedPoint) {
        if point == SchedPoint::SeqlockReadValidate
            && t == T0
            && self.phase.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed).is_ok()
        {
            let mut wait = Wait::new("T1 to write inside the validation window");
            while self.phase.load(Ordering::Acquire) != 2 {
                let _ = wait.step();
            }
        }
    }
}

/// A foreign write inside the window fails the validation: the reader's
/// transition stands, the read goes round again from the writer's word, and
/// returns the writer's value — counted once. In a `check-invariants` build
/// the writer's releasing store is a swap that asserts it replaced the
/// `WrExWLock(T1)` it installed (scripts/check_gate.sh runs this there too).
#[test]
fn failed_validation_of_an_installed_read_goes_round_again() {
    let hook = Arc::new(WriteInValidationWindow::default());
    let mut rt = runtime();
    rt.set_sched_hooks(hook.clone());
    let e = HybridEngine::new(Arc::new(rt));
    let t0 = e.attach();
    assert_eq!(t0, T0);
    let obj = e.rt().obj(O);
    obj.data_write(41);
    // T1 wrote O last.
    obj.state().store(StateWord::wr_ex_pess(T1, LockMode::Unlocked).0, Ordering::SeqCst);

    std::thread::scope(|s| {
        s.spawn(|| {
            let t1 = e.attach();
            assert_eq!(t1, T1);
            let mut wait = e.rt().wait(t1, "the reader to enter its window");
            while hook.phase.load(Ordering::Acquire) != 1 {
                let _ = wait.step();
            }
            let found = StateWord(obj.state().load(Ordering::SeqCst));
            assert_eq!(found, StateWord::rd_sh_pess(found.rdsh_count(), 0), "installed, unlocked");
            e.write(t1, O, 99);
            let left = StateWord(obj.state().load(Ordering::SeqCst));
            assert_eq!(left, StateWord::wr_ex_pess(t1, LockMode::Unlocked), "released by its store");
            hook.phase.store(2, Ordering::Release);
            e.detach(t1);
        });
        assert_eq!(e.read(t0, O), 99, "41 was read inside a window a write landed in");
    });
    assert_eq!(hook.phase.load(Ordering::Relaxed), 2, "the window was forced");
    // The later of the two accesses made the state: the retry's own epoch.
    let w = StateWord(obj.state().load(Ordering::SeqCst));
    assert_eq!(w, StateWord::rd_sh_pess(e.rt().current_rdsh_count(), 0));
    assert!(w.rdsh_count() > 2, "the failed attempt's epoch is not reused: {w:?}");
    // SAFETY: this is the OS thread attached as t0.
    let ts = unsafe { e.common().ts(t0) };
    assert!(ts.holds_no_locks());
    let got = [Event::Read, Event::PessUncontended, Event::PessOwnerChange, Event::StateUnlocked]
        .map(|ev| ts.stats.get(ev));
    assert_eq!(got, [1, 1, 1, 0], "one access, classified once, its unlock inside it");
    let seqlock = [Event::SeqlockValidated, Event::SeqlockRetry, Event::SeqlockFallback]
        .map(|ev| ts.stats.get(ev));
    assert_eq!(seqlock, [0, 0, 0]);
    e.detach(t0);
    assert_partition(&e.rt().stats().report());
}
