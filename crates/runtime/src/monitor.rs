//! Program monitors (locks) with instrumentation hooks.
//!
//! Monitors are the *program's* synchronization — the paper's `synchronized`
//! blocks. The tracking instrumentation cares about them at two points:
//!
//! * a **release** (and the release half of `wait`) is a *program
//!   synchronization release operation* (PSRO): hybrid tracking flushes the
//!   thread's lock buffer immediately before the release becomes visible
//!   (§3.1, Figure 2a), and the hybrid recorder's release clock is bumped;
//! * a **contended acquire** (and the wait half of `wait`) is a *blocking
//!   safe point*: the thread publishes BLOCKED so other threads can
//!   coordinate with it implicitly (§2.2).
//!
//! The monitor also remembers, under its internal lock, the last releasing
//! thread and that thread's release clock. Recorders read this at acquire
//! time to log the synchronization happens-before edge, which lets the
//! replayer elide monitor operations entirely and still preserve mutual
//! exclusion (§7.6: "the replayer elides program synchronization operations
//! and replays only the recorded dependences").
//!
//! [`Runtime::monitor_acquire`] and its siblings are the one monitor API: the
//! protocol methods here take the [`Runtime`], from which they read the
//! thread's control block and the spin budget, and to which they report
//! their [`SchedPoint`]s, whatever hooks the engine passes.

use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::ids::ThreadId;
use crate::runtime::Runtime;
use crate::stats::Event;
use crate::{RtHooks, SchedPoint};

#[derive(Debug, Default)]
struct MonState {
    /// Current holder, if any.
    held_by: Option<ThreadId>,
    /// Reentrancy depth of the holder.
    recursion: u32,
    /// Last releasing thread and its release clock at release time.
    last_release: Option<(ThreadId, u64)>,
    /// Wait-set generation, used by `wait`/`notify_all` to avoid stealing
    /// wakeups across distinct waits.
    wait_generation: u64,
}

/// Outcome of an acquire, consumed by tracking engines and recorders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcquireInfo {
    /// Did the acquire block (making it a blocking safe point)?
    pub blocked: bool,
    /// The previous releaser and its release clock, if the monitor has ever
    /// been released. Recorders turn this into a sync happens-before edge.
    pub prev_release: Option<(ThreadId, u64)>,
    /// How long the acquire spun and parked after its first attempt
    /// found the monitor held by another thread; `None` when that attempt
    /// took it (uncontended or reentrant), so no clock was read. `wait`
    /// leaves it `None`: its park waits for a notify, not for the monitor.
    pub waited: Option<Duration>,
}

impl AcquireInfo {
    /// The event that counts this acquire: [`Event::MonitorAcquireBlocked`]
    /// if it parked, else [`Event::MonitorAcquireFast`].
    #[inline]
    pub fn event(&self) -> Event {
        if self.blocked {
            Event::MonitorAcquireBlocked
        } else {
            Event::MonitorAcquireFast
        }
    }
}

enum TryAcquire {
    Taken(AcquireInfo),
    Contended,
}

/// Park on `cv` until `ready(&st)` holds, under the same watchdog budget as
/// every [`crate::Wait`]: condvar parks are the one wait a `Wait` cannot
/// cover, and a parked thread whose wake-up depends on a peer that died
/// mid-protocol would hang the process silently. With the watchdog disabled
/// (zero budget) this is a plain condition-variable loop.
fn park_until(
    cv: &Condvar,
    st: &mut MutexGuard<'_, MonState>,
    what: &'static str,
    mut ready: impl FnMut(&MonState) -> bool,
) {
    let budget = crate::spin::budget();
    let mut started = None;
    while !ready(st) {
        match budget {
            Duration::ZERO => cv.wait(st),
            b => {
                let t0 = *started.get_or_insert_with(std::time::Instant::now);
                cv.wait_for(st, b);
                if !ready(st) && t0.elapsed() >= b {
                    panic!(
                        "park watchdog expired after {:?} while waiting for: {what}",
                        t0.elapsed()
                    );
                }
            }
        }
    }
}

/// A blocking safe point around `park` (a monitor park, or any blocking
/// operation): reach a consistent state ([`RtHooks::before_block`]), publish
/// BLOCKED, answer the explicit requests that raced with the publication
/// ([`RtHooks::on_blocked_publish`]), report `point` to `rt`, run `park`,
/// then return to RUNNING and tell [`RtHooks::after_unblock`] whether another
/// thread coordinated implicitly meanwhile. Returns `park`'s result and that
/// flag.
pub(crate) fn blocking_safe_point<H: RtHooks, R>(
    rt: &Runtime,
    t: ThreadId,
    hooks: &H,
    point: SchedPoint,
    park: impl FnOnce() -> R,
) -> (R, bool) {
    let control = rt.control(t);
    hooks.before_block(t);
    let block_epoch = control.publish_blocked();
    hooks.on_blocked_publish(t);
    rt.sched_point(t, point);
    let r = park();
    let bumped = control.return_to_running(block_epoch);
    hooks.after_unblock(t, bumped);
    (r, bumped)
}

/// A reentrant program monitor with wait/notify.
#[derive(Debug)]
pub struct Monitor {
    state: Mutex<MonState>,
    acquire_cv: Condvar,
    wait_cv: Condvar,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// A fresh, unheld monitor.
    pub fn new() -> Self {
        Monitor {
            state: Mutex::new(MonState::default()),
            acquire_cv: Condvar::new(),
            wait_cv: Condvar::new(),
        }
    }

    /// One attempt to take the monitor without waiting.
    fn try_acquire(&self, t: ThreadId) -> TryAcquire {
        let mut st = self.state.lock();
        match st.held_by {
            None => {
                st.held_by = Some(t);
                st.recursion = 1;
            }
            Some(holder) if holder == t => st.recursion += 1,
            Some(_) => return TryAcquire::Contended,
        }
        TryAcquire::Taken(AcquireInfo { blocked: false, prev_release: st.last_release, waited: None })
    }

    /// Acquire the monitor for `t`. Uncontended acquires never touch the
    /// thread status word and read no clock. Contended acquires time their
    /// wait ([`AcquireInfo::waited`]) and first *spin* for up to `rt`'s
    /// `monitor_spin_iters` iterations — remaining a RUNNING thread and
    /// polling safe points, like a JVM thin lock — and only then run the
    /// full blocking-safe-point protocol around parking. (The spin phase matters
    /// to the tracking protocols: a spinning waiter answers coordination
    /// requests *explicitly*, a parked one is coordinated with *implicitly*.)
    pub(crate) fn acquire<H: RtHooks>(&self, rt: &Runtime, t: ThreadId, hooks: &H) -> AcquireInfo {
        match self.try_acquire(t) {
            TryAcquire::Taken(info) => return info,
            TryAcquire::Contended => {}
        }
        let t0 = Instant::now();

        // Spin phase: keep responding to coordination while waiting. Yield
        // periodically so the holder can run on oversubscribed machines.
        for i in 0..rt.config().monitor_spin_iters {
            hooks.poll(t);
            rt.sched_point(t, SchedPoint::MonitorAcquireSpin);
            if i % 8 == 7 {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
            if let TryAcquire::Taken(info) = self.try_acquire(t) {
                return AcquireInfo { waited: Some(t0.elapsed()), ..info };
            }
        }

        // Contended: park at a blocking safe point.
        let (prev_release, _) = blocking_safe_point(rt, t, hooks, SchedPoint::MonitorPark, || {
            let mut st = self.state.lock();
            park_until(&self.acquire_cv, &mut st, "contended monitor acquire", |s| {
                s.held_by.is_none()
            });
            st.held_by = Some(t);
            st.recursion = 1;
            st.last_release
        });
        rt.sched_point(t, SchedPoint::MonitorUnpark);
        AcquireInfo { blocked: true, prev_release, waited: Some(t0.elapsed()) }
    }

    /// Release the monitor. The PSRO hook runs *before* the release becomes
    /// visible to other threads, matching the paper's Figure 2(a): the lock
    /// buffer is flushed, then the program lock is released.
    ///
    /// Panics if `t` does not hold the monitor (a workload bug).
    pub(crate) fn release<H: RtHooks>(&self, rt: &Runtime, t: ThreadId, hooks: &H) {
        // PSRO instrumentation first: flush pessimistic states, bump clock.
        hooks.on_psro(t);
        let clock = rt.control(t).release_clock();
        rt.sched_point(t, SchedPoint::MonitorRelease);
        let mut st = self.state.lock();
        assert_eq!(st.held_by, Some(t), "release of monitor not held by {t}");
        st.recursion -= 1;
        if st.recursion == 0 {
            st.held_by = None;
            st.last_release = Some((t, clock));
            drop(st);
            self.acquire_cv.notify_one();
        }
    }

    /// `Object.wait()`: atomically release the monitor and park until
    /// notified, then re-acquire. The release half is a PSRO; the park is a
    /// blocking safe point. Spurious wakeups are possible (callers loop on
    /// their condition, as in Java).
    ///
    /// Panics if `t` does not hold the monitor.
    pub(crate) fn wait<H: RtHooks>(&self, rt: &Runtime, t: ThreadId, hooks: &H) -> AcquireInfo {
        hooks.on_psro(t);
        let clock = rt.control(t).release_clock();

        let (prev_release, _) = blocking_safe_point(rt, t, hooks, SchedPoint::MonitorWaitPark, || {
            let mut st = self.state.lock();
            assert_eq!(st.held_by, Some(t), "wait on monitor not held by {t}");
            let saved_recursion = st.recursion;
            st.held_by = None;
            st.recursion = 0;
            st.last_release = Some((t, clock));
            let my_generation = st.wait_generation;
            self.acquire_cv.notify_one();

            // Park until a notify advances the generation.
            park_until(&self.wait_cv, &mut st, "monitor notify", |s| {
                s.wait_generation != my_generation
            });
            // Re-acquire.
            park_until(&self.acquire_cv, &mut st, "monitor re-acquire after wait", |s| {
                s.held_by.is_none()
            });
            st.held_by = Some(t);
            st.recursion = saved_recursion;
            st.last_release
        });
        rt.sched_point(t, SchedPoint::MonitorUnpark);
        AcquireInfo { blocked: true, prev_release, waited: None }
    }

    /// `Object.notifyAll()`: wake every waiter. The caller should hold the
    /// monitor (as in Java), but this is not enforced — some lock-free
    /// shutdown patterns notify without holding.
    pub(crate) fn notify_all(&self) {
        let mut st = self.state.lock();
        st.wait_generation += 1;
        drop(st);
        self.wait_cv.notify_all();
    }

    /// Current holder (diagnostic; racy by nature).
    pub fn holder(&self) -> Option<ThreadId> {
        self.state.lock().held_by
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoHooks, RuntimeConfig, SchedHooks};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// A runtime of `n` thread slots whose contended acquires spin
    /// `spin_iters` times before they park. The monitors under test are built
    /// apart from it.
    fn runtime(n: usize, spin_iters: u32) -> Runtime {
        Runtime::new(RuntimeConfig::builder().max_threads(n).monitor_spin_iters(spin_iters).build())
    }

    /// Step a [`crate::Wait`] until thread `t` of `rt` has published BLOCKED,
    /// and return its block epoch.
    fn await_blocked(rt: &Runtime, t: ThreadId) -> u64 {
        let mut wait = crate::Wait::new("the contender to park on the monitor");
        loop {
            if let crate::control::ThreadStatus::Blocked { epoch } = rt.control(t).status() {
                return epoch;
            }
            let _ = wait.step();
        }
    }

    #[test]
    fn uncontended_acquire_release() {
        let m = Monitor::new();
        let rt = runtime(1, 0);
        let t = ThreadId(0);
        let info = m.acquire(&rt, t, &NoHooks);
        assert!(!info.blocked);
        assert_eq!(info.prev_release, None);
        assert_eq!(m.holder(), Some(t));
        m.release(&rt, t, &NoHooks);
        assert_eq!(m.holder(), None);
        // The next acquire names the release it follows.
        assert_eq!(m.acquire(&rt, t, &NoHooks).prev_release, Some((t, 0)));
    }

    #[test]
    fn reentrant_acquire_counts_recursion() {
        let m = Monitor::new();
        let rt = runtime(1, 0);
        let t = ThreadId(0);
        for _ in 0..3 {
            let info = m.acquire(&rt, t, &NoHooks);
            assert!(!info.blocked, "a reentrant acquire never blocks");
        }
        for _ in 0..2 {
            m.release(&rt, t, &NoHooks);
            assert_eq!(m.holder(), Some(t), "still held after an inner release");
        }
        m.release(&rt, t, &NoHooks);
        assert_eq!(m.holder(), None);
    }

    #[test]
    #[should_panic(expected = "release of monitor not held")]
    fn release_without_hold_panics() {
        Monitor::new().release(&runtime(1, 0), ThreadId(0), &NoHooks);
    }

    #[test]
    fn contended_acquire_blocks_and_records_prev_release() {
        let m = Monitor::new();
        let rt = runtime(2, 0);
        let (t0, t1) = (ThreadId(0), ThreadId(1));

        m.acquire(&rt, t0, &NoHooks);
        rt.control(t0).bump_release_clock(); // pretend a PSRO bump happened earlier

        std::thread::scope(|s| {
            let h = s.spawn(|| m.acquire(&rt, t1, &NoHooks));
            // Give the contender time to park, then release.
            std::thread::sleep(Duration::from_millis(1));
            m.release(&rt, t0, &NoHooks);
            let info = h.join().unwrap();
            assert!(info.blocked);
            assert_eq!(info.prev_release, Some((t0, 1)));
            m.release(&rt, t1, &NoHooks);
        });
    }

    /// Schedule hooks that note whether a contended acquire reached its spin
    /// phase.
    #[derive(Debug, Default)]
    struct SpinSeen(AtomicBool);

    impl SchedHooks for SpinSeen {
        fn perturb(&self, _t: ThreadId, point: SchedPoint) {
            if point == SchedPoint::MonitorAcquireSpin {
                self.0.store(true, Ordering::Release);
            }
        }
    }

    #[test]
    fn only_an_acquire_that_waits_is_timed() {
        const HOLD: Duration = Duration::from_millis(1);
        let m = Monitor::new();
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        // On `spinning`, a contended acquire never parks.
        let seen = Arc::new(SpinSeen::default());
        let mut spinning = runtime(2, u32::MAX);
        spinning.set_sched_hooks(seen.clone());
        assert_eq!(m.acquire(&spinning, t0, &NoHooks).waited, None, "uncontended");
        assert_eq!(m.acquire(&spinning, t0, &NoHooks).waited, None, "reentrant");
        m.release(&spinning, t0, &NoHooks);

        // T0 still holds the monitor: T1 takes it while spinning.
        let info = std::thread::scope(|s| {
            let h = s.spawn(|| m.acquire(&spinning, t1, &NoHooks));
            let mut wait = crate::Wait::new("T1 to spin on the monitor");
            while !seen.0.load(Ordering::Acquire) {
                let _ = wait.step();
            }
            std::thread::sleep(HOLD);
            m.release(&spinning, t0, &NoHooks);
            h.join().unwrap()
        });
        assert!(!info.blocked, "taken in the spin phase");
        assert!(info.waited.is_some_and(|w| w >= HOLD), "{:?}", info.waited);

        // T1 holds it now: T0, on a runtime with no spin budget, parks.
        let parking = runtime(2, 0);
        let info = std::thread::scope(|s| {
            let h = s.spawn(|| m.acquire(&parking, t0, &NoHooks));
            await_blocked(&parking, t0);
            std::thread::sleep(HOLD);
            m.release(&parking, t1, &NoHooks);
            h.join().unwrap()
        });
        assert!(info.blocked);
        assert!(info.waited.is_some_and(|w| w >= HOLD), "{:?}", info.waited);
        m.release(&parking, t0, &NoHooks);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let m = Monitor::new();
        let rt = runtime(THREADS, 64);
        let counter = AtomicU64::new(0);

        std::thread::scope(|s| {
            for i in 0..THREADS {
                let (m, rt, counter) = (&m, &rt, &counter);
                s.spawn(move || {
                    let t = ThreadId(i as u16);
                    for _ in 0..ITERS {
                        m.acquire(rt, t, &NoHooks);
                        // Non-atomic-looking increment under the monitor: only
                        // correct if mutual exclusion holds.
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        m.release(rt, t, &NoHooks);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), (THREADS * ITERS) as u64);
    }

    #[test]
    fn wait_notify_roundtrip() {
        let m = Monitor::new();
        let rt = runtime(2, 0);
        let flag = AtomicU64::new(0);

        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t = ThreadId(0);
                m.acquire(&rt, t, &NoHooks);
                while flag.load(Ordering::Relaxed) == 0 {
                    m.wait(&rt, t, &NoHooks);
                }
                m.release(&rt, t, &NoHooks);
            });

            let t = ThreadId(1);
            // Let the waiter park first (best-effort).
            std::thread::sleep(Duration::from_millis(10));
            m.acquire(&rt, t, &NoHooks);
            flag.store(1, Ordering::Relaxed);
            m.notify_all();
            m.release(&rt, t, &NoHooks);
            waiter.join().unwrap();
        });
        assert_eq!(m.holder(), None);
    }

    /// Hooks, and schedule hooks, that write down every call thread `of`
    /// makes to either, in one order.
    #[derive(Debug)]
    struct Probe {
        of: ThreadId,
        log: parking_lot::Mutex<Vec<String>>,
    }

    impl Probe {
        fn note(&self, t: ThreadId, entry: String) {
            if t == self.of {
                self.log.lock().push(entry);
            }
        }
    }

    impl RtHooks for Probe {
        fn poll(&self, _t: ThreadId) {}
        fn before_block(&self, t: ThreadId) {
            self.note(t, "before_block".into());
        }
        fn on_blocked_publish(&self, t: ThreadId) {
            self.note(t, "on_blocked_publish".into());
        }
        fn after_unblock(&self, t: ThreadId, epoch_bumped: bool) {
            self.note(t, format!("after_unblock({epoch_bumped})"));
        }
        fn on_psro(&self, _t: ThreadId) {}
    }

    impl SchedHooks for Probe {
        fn perturb(&self, t: ThreadId, point: SchedPoint) {
            self.note(t, format!("{point:?}"));
        }
    }

    #[test]
    fn blocked_acquirer_can_be_implicitly_coordinated() {
        let m = Monitor::new();
        let (t0, t1) = (ThreadId(0), ThreadId(1));
        let probe = Arc::new(Probe { of: t1, log: Default::default() });
        let mut rt = runtime(2, 0);
        rt.set_sched_hooks(probe.clone());
        m.acquire(&rt, t0, &NoHooks);

        std::thread::scope(|s| {
            let h = s.spawn(|| m.acquire(&rt, t1, &*probe));

            // Wait until T1 publishes BLOCKED, then coordinate implicitly.
            let epoch = await_blocked(&rt, t1);
            assert!(rt.control(t1).try_implicit(epoch));

            m.release(&rt, t0, &NoHooks);
            let info = h.join().unwrap();
            assert!(info.blocked);
        });
        // The blocking safe point's hooks and schedule points, in protocol
        // order; the wake reports the implicit bump.
        assert_eq!(
            *probe.log.lock(),
            ["before_block", "on_blocked_publish", "MonitorPark", "after_unblock(true)", "MonitorUnpark"]
        );
    }
}
