//! Watchdog-equipped spin loop helper.
//!
//! Coordination in this system is built on bounded spinning: a requester spins
//! on a response token while acting as a safe point, a contended pessimistic
//! transition spins until the remote thread flushes its lock buffer, and a
//! replayed sink spins on a source thread's clock. A protocol bug in any of
//! these would hang the process silently, so every spin loop in the workspace
//! goes through [`Spin`], which backs off politely and panics with a
//! descriptive message if a configurable deadline passes.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::ids::ThreadId;
use crate::{SchedHooks, SchedPoint};

/// Default watchdog budget used when neither the runtime config nor the
/// `DRINK_SPIN_BUDGET_MS` env var overrides it. Generous enough for heavily
/// oversubscribed CI machines.
pub const DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// `DRINK_SPIN_BUDGET_MS`, parsed once. CI boxes set it to tighten the 60 s
/// default so protocol hangs fail in seconds instead of minutes; it overrides
/// *every* spinner's budget, including explicitly configured ones (a value of
/// `0` disables every watchdog).
fn env_budget() -> Option<Duration> {
    static CACHE: OnceLock<Option<Duration>> = OnceLock::new();
    *CACHE.get_or_init(|| parse_budget_ms(std::env::var("DRINK_SPIN_BUDGET_MS").ok()?.as_str()))
}

/// Parse a `DRINK_SPIN_BUDGET_MS` value. Split out for testability (the env
/// lookup itself is cached process-wide).
fn parse_budget_ms(s: &str) -> Option<Duration> {
    s.trim().parse::<u64>().ok().map(Duration::from_millis)
}

/// Watchdog budget for condvar *parks* (the one wait a [`Spin`] can't
/// cover): `DRINK_SPIN_BUDGET_MS` if set, else `configured`; `None` when the
/// effective budget is zero (watchdog disabled). A parked thread whose
/// wake-up depends on a peer that died mid-protocol would otherwise hang the
/// process silently — the checking harness relies on this to turn injected
/// protocol bugs into bounded, reportable failures.
pub fn park_budget(configured: Duration) -> Option<Duration> {
    park_budget_with(configured, None)
}

/// [`park_budget`] with a per-wait override: a caller that knows its wait's
/// expected bound (a coordination deadline, a bounded handoff) passes it as
/// `per_wait` and it beats the global `configured` default. The
/// `DRINK_SPIN_BUDGET_MS` env var still beats both — it is the CI-wide hang
/// bound and must be able to tighten *every* wait in the process at once.
pub fn park_budget_with(configured: Duration, per_wait: Option<Duration>) -> Option<Duration> {
    let b = env_budget().unwrap_or(per_wait.unwrap_or(configured));
    (!b.is_zero()).then_some(b)
}

/// Outcome of one [`Spin::checked_spin`] step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinOutcome {
    /// Budget not (yet) exhausted; keep waiting.
    Progress,
    /// The budget expired. The caller recovers (coordination deadlines fall
    /// back to the pessimistic protocol); only [`Spin::spin`] panics.
    Expired,
}

/// Exponential-backoff spinner with a deadline watchdog.
///
/// The first few iterations use `core::hint::spin_loop`, then the spinner
/// starts yielding to the OS scheduler; this keeps latency low for the
/// short waits that dominate (a remote thread reaching its next safe point)
/// without burning a core during long replay waits. The escalation to
/// `yield_now` happens even with the watchdog disabled (zero budget): the
/// protocols in this workspace wait on *other threads'* progress, so a
/// watchdog-free spinner that stayed in `spin_loop` would starve exactly the
/// thread being waited for on oversubscribed machines.
pub struct Spin<'h> {
    what: &'static str,
    deadline: Option<Instant>,
    budget: Duration,
    iters: u32,
    started: Option<Instant>,
    /// Set by [`Spin::note_park`]: the wait escalated past spinning to a
    /// condvar park at least once. Reported by the watchdog panic so a hang
    /// report says which phase of the backoff ladder the thread died in.
    parked: bool,
    sched: Option<(&'h dyn SchedHooks, ThreadId)>,
}

impl<'h> Spin<'h> {
    /// Default watchdog budget (see [`DEFAULT_BUDGET`]).
    pub const DEFAULT_BUDGET: Duration = DEFAULT_BUDGET;

    /// A spinner for the wait described by `what` (used in the panic message).
    pub fn new(what: &'static str) -> Self {
        Spin::with_budget(what, DEFAULT_BUDGET)
    }

    /// A spinner with an explicit watchdog budget. A zero budget disables the
    /// watchdog entirely (spins forever, yielding to the OS after the
    /// `spin_loop` phase). `DRINK_SPIN_BUDGET_MS`, if set, overrides `budget`.
    pub fn with_budget(what: &'static str, budget: Duration) -> Self {
        Spin::budgeted(what, env_budget().unwrap_or(budget))
    }

    /// A spinner with an exact budget that `DRINK_SPIN_BUDGET_MS` does *not*
    /// override. This is for **recoverable** deadlines (coordination waits
    /// resolved by [`Spin::checked_spin`]): the env var is the CI-wide bound
    /// on protocol-bug *hangs*, and a recoverable deadline that expires
    /// cleanly is not a hang — stretching a 50 ms coordination deadline to a
    /// 10 s CI budget would defeat the degradation path it exists to trigger.
    pub fn with_exact_budget(what: &'static str, budget: Duration) -> Self {
        Spin::budgeted(what, budget)
    }

    fn budgeted(what: &'static str, budget: Duration) -> Self {
        Spin {
            what,
            deadline: None,
            budget,
            iters: 0,
            started: None,
            parked: false,
            sched: None,
        }
    }

    /// Attach a schedule-perturbation layer: every backoff step reports a
    /// [`SchedPoint::SpinBackoff`] for thread `t`.
    pub fn with_sched(mut self, sched: &'h dyn SchedHooks, t: ThreadId) -> Self {
        self.sched = Some((sched, t));
        self
    }

    /// One backoff step. Panics if the watchdog budget is exhausted, which in
    /// this workspace always indicates a coordination-protocol bug (or an
    /// impossibly overloaded machine).
    ///
    /// Three phases. (1) Iterations 1–15: a single `spin_loop` hint — the
    /// sub-microsecond waits that dominate. (2) Iterations 16–127: batches
    /// of `spin_loop` hints that double every 16 iterations (capped at 64),
    /// still with **no clock read and no syscall** — this window covers a
    /// peer finishing its current safe-point response, which takes hundreds
    /// of nanoseconds, not a scheduling quantum. An earlier version of this
    /// loop called `Instant::now()` *and* `yield_now()` on every iteration
    /// past 16; under 8-thread RdSh fan-outs (where every waiter sits right
    /// in this window) that clock/syscall churn was the dominant cost of
    /// pure-optimistic tracking at 8 threads. (3) Iteration 128
    /// on: yield to the OS scheduler each step — the protocols here wait on
    /// *other threads'* progress, so a long spinner that never yielded would
    /// starve exactly the thread being waited for on oversubscribed machines
    /// — arming the watchdog deadline once and re-reading the clock only
    /// every 32nd step.
    #[inline]
    pub fn spin(&mut self) {
        if self.checked_spin() == SpinOutcome::Expired {
            self.expire();
        }
    }

    /// [`Spin::spin`]'s backoff step, but budget expiry returns
    /// [`SpinOutcome::Expired`] instead of panicking. Coordination waits with
    /// a configured deadline use this and fall back to the pessimistic
    /// protocol on expiry; the hard-panic [`Spin::spin`] stays for waits
    /// where expiry can only mean a protocol bug (replay waits, lock-buffer
    /// flush waits). After an expiry the spinner keeps reporting `Expired`
    /// on (every 32nd) subsequent step — callers are expected to stop. Never
    /// inlined: its clock reads and yields stay out of the frame of the
    /// access that lost a CAS.
    #[inline(never)]
    pub fn checked_spin(&mut self) -> SpinOutcome {
        self.iters += 1;
        if let Some((sched, t)) = self.sched {
            sched.perturb(t, SchedPoint::SpinBackoff);
        }
        if self.iters < 16 {
            core::hint::spin_loop();
            return SpinOutcome::Progress;
        }
        if self.iters < 128 {
            // Batched-hint phase: 2, 2, …, 4, …, 64 hints per step.
            let batch = 1u32 << (((self.iters - 16) / 16 + 1).min(6));
            for _ in 0..batch {
                core::hint::spin_loop();
            }
            return SpinOutcome::Progress;
        }
        if self.budget.is_zero() {
            // Watchdog disabled: never read the clock, but still escalate
            // from spin_loop to yielding so the waited-for thread can run.
            std::thread::yield_now();
            return SpinOutcome::Progress;
        }
        // Arm the watchdog on the first long-wait step; afterwards the
        // deadline is only re-checked every 32nd step (a yield costs ~1 µs,
        // so the check granularity is tens of microseconds — invisible next
        // to any sane budget).
        let deadline = match self.deadline {
            Some(d) => d,
            None => {
                let now = Instant::now();
                self.started = Some(now);
                let d = now + self.budget;
                self.deadline = Some(d);
                d
            }
        };
        if self.iters % 32 == 0 && Instant::now() >= deadline {
            return SpinOutcome::Expired;
        }
        std::thread::yield_now();
        SpinOutcome::Progress
    }

    /// The watchdog panic, with enough forensics to tell a protocol hang
    /// from an overloaded host: backoff steps taken, elapsed wall time vs
    /// the configured budget, and whether the wait ever escalated to a
    /// condvar park.
    #[cold]
    fn expire(&self) -> ! {
        let elapsed = self
            .started
            .map(|s| Instant::now() - s)
            .unwrap_or_default();
        panic!(
            "spin watchdog expired after {:?} (budget {:?}, {} backoff steps, park phase {}) \
             while waiting for: {}",
            elapsed,
            self.budget,
            self.iters,
            if self.parked { "reached" } else { "not reached" },
            self.what
        );
    }

    /// Record that the wait escalated to a condvar park (the adaptive
    /// backoff ladder's last rung). Only affects the watchdog's forensics.
    pub fn note_park(&mut self) {
        self.parked = true;
    }

    /// Has the wait escalated to a condvar park at least once?
    pub fn park_phase_reached(&self) -> bool {
        self.parked
    }

    /// Number of backoff steps taken so far.
    pub fn iterations(&self) -> u32 {
        self.iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_spins_complete() {
        let mut s = Spin::new("test wait");
        for _ in 0..100 {
            s.spin();
        }
        assert_eq!(s.iterations(), 100);
    }

    #[test]
    #[should_panic(expected = "spin watchdog expired")]
    fn watchdog_fires_on_expiry() {
        let mut s = Spin::with_budget("doomed wait", Duration::from_millis(20));
        loop {
            s.spin();
        }
    }

    #[test]
    fn zero_budget_disables_watchdog_without_arming_a_deadline() {
        let mut s = Spin::with_budget("unbounded wait", Duration::ZERO);
        for _ in 0..5_000 {
            s.spin();
        }
        assert!(s.iterations() >= 5_000);
        assert!(
            s.deadline.is_none() && s.started.is_none(),
            "zero budget must never touch the clock"
        );
    }

    #[test]
    fn hint_phases_never_touch_the_clock_or_the_scheduler() {
        // 100 iterations stay inside phases (1)+(2): no deadline is armed,
        // so no `Instant::now()` was ever read. This pins the fix for the
        // opt_access_t8 pathology — short coordination waits must be pure
        // spin hints.
        let mut s = Spin::new("short wait");
        for _ in 0..100 {
            s.spin();
        }
        assert_eq!(s.iterations(), 100);
        assert!(
            s.deadline.is_none() && s.started.is_none(),
            "hint phases must not read the clock"
        );
    }

    #[test]
    fn checked_spin_reports_expiry_instead_of_panicking() {
        let mut s = Spin::with_exact_budget("recoverable wait", Duration::from_millis(10));
        let mut steps = 0u32;
        loop {
            steps += 1;
            if s.checked_spin() == SpinOutcome::Expired {
                break;
            }
            assert!(steps < 50_000_000, "watchdog never expired");
        }
        assert!(steps >= 128, "expiry can only happen in the yield phase");
        // The spinner is still usable for forensics after expiry.
        assert_eq!(s.iterations(), steps);
    }

    #[test]
    fn watchdog_panic_reports_steps_budget_and_park_phase() {
        let result = std::panic::catch_unwind(|| {
            let mut s = Spin::with_exact_budget("forensic wait", Duration::from_millis(10));
            s.note_park();
            loop {
                s.spin();
            }
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("budget 10ms"), "budget missing: {msg}");
        assert!(msg.contains("backoff steps"), "step count missing: {msg}");
        assert!(msg.contains("park phase reached"), "park flag missing: {msg}");
        assert!(msg.contains("forensic wait"), "what missing: {msg}");
    }

    #[test]
    fn park_phase_flag_defaults_off_and_latches() {
        let mut s = Spin::new("park flag");
        assert!(!s.park_phase_reached());
        s.note_park();
        assert!(s.park_phase_reached());
    }

    #[test]
    fn per_wait_override_beats_configured_default() {
        // No DRINK_SPIN_BUDGET_MS in the test environment, so the per-wait
        // override is the effective budget; zero still disables the watchdog.
        assert_eq!(
            park_budget_with(Duration::from_secs(60), Some(Duration::from_millis(5))),
            Some(Duration::from_millis(5))
        );
        assert_eq!(
            park_budget_with(Duration::from_secs(60), None),
            Some(Duration::from_secs(60))
        );
        assert_eq!(park_budget_with(Duration::ZERO, Some(Duration::ZERO)), None);
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
        use std::sync::atomic::{AtomicU32, Ordering};

        #[derive(Debug, Default)]
        struct Counter(AtomicU32);
        impl SchedHooks for Counter {
            fn perturb(&self, _t: ThreadId, point: SchedPoint) {
                assert_eq!(point, SchedPoint::SpinBackoff);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let counter = Counter::default();
        let mut s = Spin::new("counted wait").with_sched(&counter, ThreadId(3));
        for _ in 0..40 {
            s.spin();
        }
        assert_eq!(counter.0.load(Ordering::Relaxed), 40);
    }
}
