//! The one waiting loop.
//!
//! Coordination in this system is built on bounded waiting: a requester
//! waits on response tokens while acting as a safe point, a contended
//! pessimistic transition waits until the remote thread flushes its lock
//! buffer, and a replayed sink waits on a source thread's clock. A protocol
//! bug in any of these would hang the process silently, so every waiting loop
//! in the workspace but three is a [`Wait`], built by [`Runtime::wait`]: it
//! backs off politely, reports every step to the runtime's schedule hooks as
//! [`SchedPoint::SpinBackoff`] (a waiting thread is a scheduling point), and
//! panics with a descriptive message if the watchdog budget passes.
//!
//! The three loops that are not a `Wait`, and why each stays:
//!
//! * a contended [`Runtime::monitor_acquire`]'s spin phase (`monitor.rs`):
//!   the runtime's `monitor_spin_iters` polls, each reported to the runtime
//!   as [`SchedPoint::MonitorAcquireSpin`] and every eighth one a yield, then
//!   a park; bounded by its count, not by the watchdog. Run as 127
//!   [`Wait::step`]s instead, whose rungs never yield before the park, it
//!   parked the waiters of the 8-thread profiles sooner on a 2-core host,
//!   and E2's implicit share of xalan6 and xalan9 rose from 5–10 % to
//!   41–47 % (ROADMAP item 3);
//! * `park_until` (`monitor.rs`), the condition-variable park behind a
//!   contended acquire and `Object.wait()`, which a `Wait` cannot cover: it
//!   applies the same watchdog budget itself;
//! * `drink_rs::RsEnforcer::region`'s restart backoff: after a rolled-back
//!   region, up to 16 rounds of a safe point and a yield, bounded by its
//!   count. It goes when bounded region restarts replace it (ROADMAP item
//!   18).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::control::Waker;
use crate::ids::ThreadId;
use crate::runtime::Runtime;
use crate::SchedPoint;

/// Watchdog budget when `DRINK_SPIN_BUDGET_MS` is unset. Generous enough for
/// heavily oversubscribed CI machines.
const DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// Consecutive no-progress steps before a coordination wait escalates from
/// yielding to parking on its thread's [`Waker`]: by then the responder has
/// demonstrably not been one quantum away.
const PARK_AFTER_STEPS: u32 = 192;
/// First park interval; doubles per park up to [`PARK_MAX`]. Short enough
/// that a lost wakeup (tolerated by [`Waker::park`]'s bounded wait) costs
/// microseconds, long enough to actually free the core.
const PARK_INITIAL: Duration = Duration::from_micros(50);
/// Park interval ceiling: bounds both lost-wakeup latency and deadline
/// overshoot.
const PARK_MAX: Duration = Duration::from_millis(1);

/// The hard watchdog budget of every [`Wait`] and every monitor park:
/// `DRINK_SPIN_BUDGET_MS` if set, else 60 s; zero disables the watchdog.
/// Parsed once per process. CI boxes set the variable so that protocol hangs
/// fail in seconds instead of minutes.
pub(crate) fn budget() -> Duration {
    static CACHE: OnceLock<Duration> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("DRINK_SPIN_BUDGET_MS")
            .ok()
            .and_then(|s| parse_budget_ms(&s))
            .unwrap_or(DEFAULT_BUDGET)
    })
}

/// Parse a `DRINK_SPIN_BUDGET_MS` value. Split out for testability (the env
/// lookup itself is cached process-wide).
fn parse_budget_ms(s: &str) -> Option<Duration> {
    s.trim().parse::<u64>().ok().map(Duration::from_millis)
}

/// A coordination wait's recoverable deadline passed (DESIGN.md §13): the
/// caller abandons the wait and falls back to the pessimistic protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expired;

/// A backoff ladder with a watchdog, one per waiting episode.
///
/// Each [`Wait::step`] climbs one rung:
///
/// 1. steps 1–15: a single `spin_loop` hint — the sub-microsecond waits that
///    dominate;
/// 2. steps 16–127: batches of hints that double every 16 steps (capped at
///    64), still with **no clock read and no syscall** — this window covers a
///    peer finishing its current safe-point response, which takes hundreds
///    of nanoseconds, not a scheduling quantum (an earlier loop that read the
///    clock and yielded on every step past 16 made that churn the dominant
///    cost of pure-optimistic tracking at 8 threads);
/// 3. step 128 on: yield to the OS scheduler each step — the protocols here
///    wait on *other threads'* progress, so a waiter that never yielded would
///    starve exactly the thread being waited for on oversubscribed machines.
///    The clock is read every 32nd step only, to arm and check the watchdog;
/// 4. coordination waits only ([`Wait::coordination`]): after
///    `PARK_AFTER_STEPS` (192) steps without [`Wait::progressed`], each step
///    first parks on the thread's [`Waker`], 50 µs doubling to 1 ms.
///
/// The escalation to yielding happens even with the watchdog disabled (zero
/// budget), which then never reads the clock.
pub struct Wait<'rt> {
    what: &'static str,
    /// The hard watchdog budget ([`budget`]); zero disables the watchdog.
    budget: Duration,
    /// The runtime and thread every step reports to; `None` for a bare
    /// [`Wait::new`].
    on: Option<(&'rt Runtime, ThreadId)>,
    /// Set on coordination waits: the waker their park phase parks on.
    waker: Option<&'rt Waker>,
    /// A coordination wait's recoverable deadline, which replaces the
    /// watchdog.
    expires_at: Option<Instant>,
    steps: u32,
    /// Steps since the last [`Wait::progressed`].
    idle: u32,
    /// The next park's interval.
    interval: Duration,
    /// When the watchdog was armed, at the first yielding step.
    started: Option<Instant>,
    /// The wait parked at least once: the watchdog's panic says so, telling
    /// a wedged protocol from a slow host.
    parked: bool,
}

impl<'rt> Wait<'rt> {
    /// A wait that reports to no runtime, for runtime-free tests of the
    /// substrate. Everything else waits through [`Runtime::wait`].
    pub fn new(what: &'static str) -> Self {
        Wait {
            what,
            budget: budget(),
            on: None,
            waker: None,
            expires_at: None,
            steps: 0,
            idle: 0,
            interval: PARK_INITIAL,
            started: None,
            parked: false,
        }
    }

    /// [`Runtime::wait`]'s constructor.
    pub(crate) fn on(rt: &'rt Runtime, t: ThreadId, what: &'static str) -> Self {
        Wait { on: Some((rt, t)), ..Wait::new(what) }
    }

    /// Make this a coordination wait (§2.2): once idle it parks on its
    /// thread's [`Waker`], which both a completed response token and a
    /// request sent *to* this thread notify, so a parked requester keeps
    /// acting as a safe point. On a runtime with a `coord_deadline`, a step
    /// past that deadline returns [`Expired`] and the watchdog is never armed.
    /// A bare [`Wait::new`] has no thread to park and no deadline.
    pub fn coordination(mut self) -> Self {
        if let Some((rt, t)) = self.on {
            self.waker = Some(&**rt.control(t).waker());
            self.expires_at = rt.coord_deadline().map(|d| Instant::now() + d);
        }
        self
    }

    /// Something the wait was for completed (a fan-out peer answered): back
    /// off from parking to yielding again.
    pub fn progressed(&mut self) {
        self.idle = 0;
        self.interval = PARK_INITIAL;
    }

    /// One backoff step (see [`Wait`] for the ladder). `Err` only from a
    /// coordination wait whose deadline passed; any other wait ignores the
    /// result, and panics instead once the watchdog budget is exhausted,
    /// which in this workspace always means a protocol bug (or an impossibly
    /// overloaded machine). Never inlined: its clock reads, yields and parks
    /// stay out of the frame of the access that waits.
    #[inline(never)]
    pub fn step(&mut self) -> Result<(), Expired> {
        self.steps += 1;
        self.idle += 1;
        if let Some((rt, t)) = self.on {
            rt.sched_point(t, SchedPoint::SpinBackoff);
        }
        if self.steps < 16 {
            core::hint::spin_loop();
            return Ok(());
        }
        if self.steps < 128 {
            // 2, 2, …, 4, …, 64 hints per step.
            let batch = 1u32 << (((self.steps - 16) / 16 + 1).min(6));
            for _ in 0..batch {
                core::hint::spin_loop();
            }
            return Ok(());
        }
        if let Some(waker) = self.waker.filter(|_| self.idle > PARK_AFTER_STEPS) {
            // Token completions and incoming requests notify the waker; the
            // bounded interval is the lost-wakeup backstop.
            let mut interval = self.interval;
            if let Some(at) = self.expires_at {
                let left = at.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(Expired);
                }
                interval = interval.min(left);
            }
            self.parked = true;
            waker.park(interval);
            self.interval = (self.interval * 2).min(PARK_MAX);
        }
        if self.steps % 32 == 0 {
            match self.expires_at {
                Some(at) if Instant::now() >= at => return Err(Expired),
                Some(_) => {}
                None if self.budget.is_zero() => {}
                None => {
                    let now = Instant::now();
                    let started = *self.started.get_or_insert(now);
                    if now - started >= self.budget {
                        self.expire();
                    }
                }
            }
        }
        std::thread::yield_now();
        Ok(())
    }

    /// The watchdog panic, with enough forensics to tell a protocol hang
    /// from an overloaded host: backoff steps taken, elapsed wall time vs the
    /// budget, and whether the wait ever parked.
    #[cold]
    fn expire(&self) -> ! {
        let elapsed = self.started.map(|s| s.elapsed()).unwrap_or_default();
        panic!(
            "spin watchdog expired after {:?} (budget {:?}, {} backoff steps, park phase {}) \
             while waiting for: {}",
            elapsed,
            self.budget,
            self.steps,
            if self.parked { "reached" } else { "not reached" },
            self.what
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RuntimeConfig, SchedHooks};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// Run `f` on the one thread of a fresh runtime whose coordination
    /// deadline is `deadline` (zero: none).
    fn with_runtime<R>(deadline: Duration, f: impl FnOnce(&Runtime, ThreadId) -> R) -> R {
        let rt = Runtime::new(RuntimeConfig::builder().max_threads(1).coord_deadline(deadline).build());
        let t = rt.register_thread();
        f(&rt, t)
    }

    #[test]
    fn short_spins_complete() {
        let mut w = Wait::new("test wait");
        for _ in 0..100 {
            assert_eq!(w.step(), Ok(()));
        }
        assert_eq!(w.steps, 100);
    }

    #[test]
    #[should_panic(expected = "spin watchdog expired")]
    fn watchdog_fires_on_expiry() {
        let mut w = Wait { budget: Duration::from_millis(20), ..Wait::new("doomed wait") };
        loop {
            let _ = w.step();
        }
    }

    #[test]
    fn zero_budget_disables_watchdog_without_arming_a_deadline() {
        let mut w = Wait { budget: Duration::ZERO, ..Wait::new("unbounded wait") };
        for _ in 0..5_000 {
            let _ = w.step();
        }
        assert_eq!(w.steps, 5_000);
        assert!(w.started.is_none(), "zero budget must never touch the clock");
    }

    #[test]
    fn hint_phases_never_touch_the_clock_or_the_scheduler() {
        // 127 steps stay inside phases (1)+(2): no watchdog is armed, so no
        // `Instant::now()` was ever read. This pins the fix for the
        // opt_access_t8 pathology — short coordination waits must be pure
        // spin hints.
        let mut w = Wait::new("short wait");
        for _ in 0..127 {
            let _ = w.step();
        }
        assert!(w.started.is_none(), "hint phases must not read the clock");
        let _ = w.step();
        assert!(w.started.is_some(), "the first yielding step arms the watchdog");
    }

    #[test]
    fn deadline_expiry_returns_err_without_panicking() {
        with_runtime(Duration::from_millis(10), |rt, t| {
            let mut w = rt.wait(t, "recoverable wait").coordination();
            let mut steps = 0u32;
            while w.step().is_ok() {
                steps += 1;
                assert!(steps < 50_000_000, "the deadline never expired");
            }
            assert!(steps >= 127, "expiry can only happen past the hint phases");
            assert!(w.started.is_none(), "a deadline replaces the watchdog");
        });
    }

    #[test]
    fn watchdog_panic_reports_steps_budget_and_park_phase() {
        let result = std::panic::catch_unwind(|| {
            with_runtime(Duration::ZERO, |rt, t| {
                let mut w = rt.wait(t, "forensic wait").coordination();
                w.budget = Duration::from_millis(10);
                loop {
                    let _ = w.step();
                }
            })
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("budget 10ms"), "budget missing: {msg}");
        assert!(msg.contains("backoff steps"), "step count missing: {msg}");
        assert!(msg.contains("park phase reached"), "park flag missing: {msg}");
        assert!(msg.contains("forensic wait"), "what missing: {msg}");
    }

    #[test]
    fn park_phase_flag_defaults_off_and_latches() {
        with_runtime(Duration::ZERO, |rt, t| {
            let mut plain = rt.wait(t, "never parks");
            let mut coord = rt.wait(t, "parks").coordination();
            for _ in 0..=PARK_AFTER_STEPS {
                let _ = plain.step();
                let _ = coord.step();
            }
            assert!(!plain.parked, "only coordination waits park");
            assert!(coord.parked);
            coord.progressed();
            let _ = coord.step();
            assert!(coord.parked, "the flag latches across progress");
        });
    }

    #[test]
    fn budget_env_values_parse_to_millis() {
        assert_eq!(parse_budget_ms("250"), Some(Duration::from_millis(250)));
        assert_eq!(parse_budget_ms(" 1000 "), Some(Duration::from_secs(1)));
        assert_eq!(parse_budget_ms("0"), Some(Duration::ZERO));
        assert_eq!(parse_budget_ms("nope"), None);
        assert_eq!(parse_budget_ms(""), None);
    }

    #[test]
    fn sched_layer_sees_every_backoff_step() {
        #[derive(Debug, Default)]
        struct Counter(AtomicU32);
        impl SchedHooks for Counter {
            fn perturb(&self, t: ThreadId, point: SchedPoint) {
                assert_eq!((t, point), (ThreadId(0), SchedPoint::SpinBackoff));
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let counter = Arc::new(Counter::default());
        let mut rt = Runtime::new(RuntimeConfig::builder().max_threads(1).build());
        rt.set_sched_hooks(counter.clone());
        let t = rt.register_thread();
        // A plain wait's hint steps, and a coordination wait's into its
        // park phase.
        let mut w = rt.wait(t, "counted wait");
        for _ in 0..40 {
            let _ = w.step();
        }
        let mut w = rt.wait(t, "counted coordination").coordination();
        for _ in 0..=PARK_AFTER_STEPS {
            let _ = w.step();
        }
        assert!(w.parked);
        assert_eq!(counter.0.load(Ordering::Relaxed), 40 + PARK_AFTER_STEPS + 1);
    }
}
