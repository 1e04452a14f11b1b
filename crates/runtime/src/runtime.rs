//! The runtime registry: threads, heap, monitors, global counters.

use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::time::Duration;

use std::sync::Arc;

use crate::control::ThreadControl;
use crate::heap::Heap;
use crate::ids::{MonitorId, ObjId, ThreadId};
use crate::monitor::{AcquireInfo, Monitor};
use crate::pad::CachePadded;
use crate::spin::Wait;
use crate::stats::{Event, GlobalStats, LatencyKind};
use crate::trace::TraceRings;
use crate::{RtHooks, SchedHooks, SchedPoint};

/// Sizing and tuning knobs for one [`Runtime`] instance.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Maximum number of mutator threads that may register.
    pub max_threads: usize,
    /// Number of tracked objects in the heap.
    pub heap_objects: usize,
    /// Number of program monitors.
    pub monitors: usize,
    /// Iterations a contended monitor acquire spins (polling safe points as
    /// a RUNNING thread, like a JVM thin lock) before parking. Affects how
    /// often coordination against lock waiters is explicit vs. implicit.
    pub monitor_spin_iters: u32,
    /// Recoverable deadline for coordination waits (explicit roundtrips and
    /// fan-outs). Zero (the default) disables it: coordination waits are
    /// then bounded only by the hard-panic watchdog (`DRINK_SPIN_BUDGET_MS`,
    /// else 60 s). Non-zero turns an expired coordination wait into a clean
    /// `CoordDeadlineExceeded` fallback — the requester abandons the
    /// roundtrip, demotes the object to the pessimistic protocol, and
    /// retries — instead of a process panic. The env var does not stretch
    /// it: the watchdog bounds hangs, and a deadline that expires cleanly is
    /// not a hang.
    pub coord_deadline: Duration,
    /// Per-thread trace ring capacity (events), the one switch for tracing.
    /// `0` (the default) builds no rings, and every trace site reduces to one
    /// branch. Non-zero gives the runtime [`TraceRings`] that hold the last
    /// `trace_capacity` [`Event`]s of each thread.
    pub trace_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_threads: 64,
            heap_objects: 1024,
            monitors: 16,
            monitor_spin_iters: 300,
            coord_deadline: Duration::ZERO,
            trace_capacity: 0,
        }
    }
}

impl RuntimeConfig {
    /// Start building a config from the defaults. The builder is the one
    /// supported construction path; every knob has a typed setter, so adding
    /// a field never breaks call sites the way struct literals did.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder { config: RuntimeConfig::default() }
    }
}

/// Builder for [`RuntimeConfig`]; see [`RuntimeConfig::builder`].
#[derive(Clone, Debug)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Maximum number of mutator threads that may register.
    pub fn max_threads(mut self, n: usize) -> Self {
        self.config.max_threads = n;
        self
    }

    /// Number of tracked objects in the heap.
    pub fn heap_objects(mut self, n: usize) -> Self {
        self.config.heap_objects = n;
        self
    }

    /// Number of program monitors.
    pub fn monitors(mut self, n: usize) -> Self {
        self.config.monitors = n;
        self
    }

    /// Iterations a contended monitor acquire spins before parking.
    pub fn monitor_spin_iters(mut self, iters: u32) -> Self {
        self.config.monitor_spin_iters = iters;
        self
    }

    /// Recoverable deadline for coordination waits; zero disables it (the
    /// default — only the hard-panic watchdog bounds coordination then).
    pub fn coord_deadline(mut self, deadline: Duration) -> Self {
        self.config.coord_deadline = deadline;
        self
    }

    /// Per-thread trace ring capacity; non-zero enables tracing.
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.config.trace_capacity = events;
        self
    }

    /// Finish, yielding the config.
    pub fn build(self) -> RuntimeConfig {
        self.config
    }
}

/// Largest RdSh counter value [`Runtime::next_rdsh_count`] hands out: the
/// state word's epoch field is 32 bits wide, so one `Runtime` supports 2³² − 2
/// RdSh creations.
pub const MAX_RDSH_COUNT: u64 = u32::MAX as u64;

/// One execution environment: a thread registry, a tracked heap, a monitor
/// table, the global RdSh counter, and aggregate statistics.
///
/// A `Runtime` is created per measured run and shared across mutators by
/// reference (workload drivers use scoped threads).
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    /// One control block per possible mutator, indexed by dense thread id.
    /// `ThreadControl` is 128-byte aligned, so no two threads' blocks share
    /// a cache line.
    controls: Box<[ThreadControl]>,
    /// Threads registered so far (the next dense id to hand out).
    next_tid: AtomicU16,
    monitors: Box<[Monitor]>,
    heap: Heap,
    /// The paper's monotonically increasing global counter `gRdShCount`
    /// (Table 1 footnote): upgrading transitions to RdSh take their counter
    /// value `c` from here. Padded: every RdSh creation writes it, and on a
    /// line shared with `heap` each such write would cost every thread's next
    /// access a miss.
    g_rdsh_count: CachePadded<AtomicU64>,
    stats: GlobalStats,
    /// Optional schedule-perturbation layer (crate `drink-check`). `None` in
    /// production runs; every perturbation site reduces to one branch.
    sched: Option<Arc<dyn SchedHooks>>,
    /// The event-trace rings ([`crate::trace`]), present iff the config's
    /// `trace_capacity` is non-zero. `None` keeps every trace site a single
    /// never-taken branch.
    rings: Option<TraceRings>,
}

impl Runtime {
    /// Build a runtime per `config`.
    pub fn new(config: RuntimeConfig) -> Self {
        assert!(config.max_threads <= ThreadId::MAX, "too many threads");
        let rings = (config.trace_capacity > 0)
            .then(|| TraceRings::new(config.max_threads, config.trace_capacity));
        Runtime {
            controls: (0..config.max_threads).map(|_| ThreadControl::new()).collect(),
            next_tid: AtomicU16::new(0),
            monitors: (0..config.monitors).map(|_| Monitor::new()).collect(),
            heap: Heap::new(config.heap_objects),
            // Start at 1 so that counter value 0 can mean "no RdSh epoch".
            g_rdsh_count: CachePadded::new(AtomicU64::new(1)),
            stats: GlobalStats::new(config.max_threads),
            sched: None,
            rings,
            config,
        }
    }

    /// Register a schedule-perturbation layer. Must be called before the
    /// runtime is shared (it takes `&mut self`); the harness does this right
    /// after construction, before wrapping the runtime in an `Arc`.
    pub fn set_sched_hooks(&mut self, sched: Arc<dyn SchedHooks>) {
        self.sched = Some(sched);
    }

    /// Whether a schedule-perturbation layer is registered.
    #[inline(always)]
    pub fn perturbing(&self) -> bool {
        self.sched.is_some()
    }

    /// Whether this runtime has trace rings (tracing on).
    #[inline(always)]
    pub fn tracing_enabled(&self) -> bool {
        self.rings.is_some()
    }

    /// Record event `e` for thread `t`, which must be the calling thread.
    /// Without rings this is one pointer test; with them it is a call that
    /// makes three relaxed stores and a release store, never an allocation.
    /// An engine that counts `e` as well records it with
    /// `EngineCommon::note`.
    #[inline(always)]
    pub fn trace(&self, t: ThreadId, e: Event, arg: u64) {
        if let Some(rings) = &self.rings {
            rings.record(t, e, arg);
        }
    }

    /// The trace rings, or `None` when tracing is off.
    pub fn trace_rings(&self) -> Option<&TraceRings> {
        self.rings.as_ref()
    }

    /// Report that thread `t` reached schedule-relevant point `point`,
    /// letting the registered [`SchedHooks`] layer (if any) delay it.
    #[inline]
    pub fn sched_point(&self, t: ThreadId, point: SchedPoint) {
        if let Some(sched) = &self.sched {
            sched.perturb(t, point);
        }
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Register the calling thread as a mutator; ids are dense and assigned
    /// in registration order. Panics if `max_threads` is exceeded.
    ///
    /// `Release` so that everything the registering thread published before
    /// registering (e.g. state it pre-seeded for its peers) is visible to any
    /// thread whose [`Runtime::registered_threads`] `Acquire` load observes
    /// the new count: a fan-out snapshot takes the count, then reads each
    /// peer's control block.
    pub fn register_thread(&self) -> ThreadId {
        let raw = self.next_tid.fetch_add(1, Ordering::Release);
        assert!(
            (raw as usize) < self.controls.len(),
            "thread registry full ({} max)",
            self.controls.len()
        );
        ThreadId(raw)
    }

    /// Number of threads registered so far (`Acquire`; pairs with the
    /// `Release` registration bump in [`Runtime::register_thread`]).
    pub fn registered_threads(&self) -> usize {
        (self.next_tid.load(Ordering::Acquire) as usize).min(self.controls.len())
    }

    /// Control block of thread `t`.
    #[inline(always)]
    pub fn control(&self, t: ThreadId) -> &ThreadControl {
        &self.controls[t.index()]
    }

    /// All registered control blocks in dense id order (coordination with
    /// "every other thread" for RdSh conflicts iterates registered threads
    /// only).
    pub fn controls(&self) -> &[ThreadControl] {
        &self.controls[..self.registered_threads()]
    }

    /// The tracked heap.
    #[inline(always)]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The object with id `o` (shorthand for `heap().obj(o)`).
    #[inline(always)]
    pub fn obj(&self, o: ObjId) -> &crate::heap::ObjHeader {
        self.heap.obj(o)
    }

    /// The monitor with id `m`.
    #[inline(always)]
    pub fn monitor(&self, m: MonitorId) -> &Monitor {
        match self.monitors.get(m.index()) {
            Some(monitor) => monitor,
            None => crate::ids::out_of_range("MonitorId", m.index(), self.monitors.len()),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &GlobalStats {
        &self.stats
    }

    /// Claim the next RdSh counter value (the paper's `gRdShCount`).
    /// AcqRel: the RMW chain on this counter is what orders RdSh epoch
    /// creations, which Octet's fence transitions (and the recorder's epoch
    /// chain) rely on.
    ///
    /// Panics once the counter would pass [`MAX_RDSH_COUNT`]: a truncated
    /// epoch aliases an old one, after which fence transitions are skipped
    /// and validated reads (DESIGN.md §12) accept a stale state word.
    #[inline]
    pub fn next_rdsh_count(&self) -> u64 {
        let c = self.g_rdsh_count.fetch_add(1, Ordering::AcqRel) + 1;
        assert!(
            c <= MAX_RDSH_COUNT,
            "gRdShCount exhausted: a Runtime supports at most {MAX_RDSH_COUNT} RdSh epochs"
        );
        c
    }

    /// Current RdSh counter value without claiming.
    pub fn current_rdsh_count(&self) -> u64 {
        self.g_rdsh_count.load(Ordering::Relaxed)
    }

    // --- Monitors: the one monitor API ---

    /// Acquire monitor `m` for thread `t`: uncontended, take it; contended,
    /// spin `monitor_spin_iters` times polling `hooks`, then park at a
    /// blocking safe point. Feeds the event trace, and the acquire-latency
    /// histogram with the time an acquire that found `m` held by another
    /// thread spent spinning and parking ([`AcquireInfo::waited`]), into
    /// `t`'s own `MonitorAcquire` shard. An uncontended or reentrant acquire records no sample and
    /// reads no clock, under every engine, `NoTracking` too (DESIGN.md §8
    /// has the figure).
    pub fn monitor_acquire<H: RtHooks>(&self, m: MonitorId, t: ThreadId, hooks: &H) -> AcquireInfo {
        let info = self.monitor(m).acquire(self, t, hooks);
        if let Some(waited) = info.waited {
            self.stats
                .record_latency(t, LatencyKind::MonitorAcquire, waited.as_nanos() as u64);
        }
        self.trace(t, info.event(), m.index() as u64);
        info
    }

    /// Release monitor `m`, a PSRO: `hooks.on_psro` runs before the release
    /// becomes visible. Panics if `t` does not hold `m`.
    pub fn monitor_release<H: RtHooks>(&self, m: MonitorId, t: ThreadId, hooks: &H) {
        self.trace(t, Event::MonitorRelease, m.index() as u64);
        self.monitor(m).release(self, t, hooks)
    }

    /// `Object.wait()` on monitor `m`: release it (a PSRO), park at a
    /// blocking safe point until notified, then reacquire it. Spurious
    /// wakeups are possible. The reacquire is traced as a blocked acquire,
    /// which is how engines count it.
    pub fn monitor_wait<H: RtHooks>(&self, m: MonitorId, t: ThreadId, hooks: &H) -> AcquireInfo {
        self.trace(t, Event::MonitorWait, m.index() as u64);
        let info = self.monitor(m).wait(self, t, hooks);
        self.trace(t, Event::MonitorAcquireBlocked, m.index() as u64);
        info
    }

    /// Notify all waiters of monitor `m`, attributing the notify to thread
    /// `t` so a perturbation layer can delay it inside the notify window
    /// (the classic lost-wakeup race is notify-before-park).
    pub fn monitor_notify_all_from(&self, m: MonitorId, t: ThreadId) {
        self.sched_point(t, SchedPoint::MonitorNotify);
        self.monitor(m).notify_all()
    }

    /// Run an arbitrary blocking operation (thread join, I/O stand-in, timed
    /// sleep) as a blocking safe point: flush → publish BLOCKED → respond to
    /// raced requests → run `f` → return to RUNNING. Returns `f`'s result and
    /// whether implicit coordination occurred while blocked.
    pub fn blocking<H: RtHooks, R>(&self, t: ThreadId, hooks: &H, f: impl FnOnce() -> R) -> (R, bool) {
        crate::monitor::blocking_safe_point(self, t, hooks, SchedPoint::BlockedPublish, f)
    }

    /// A [`Wait`] of thread `t` on another thread, `what` naming it in the
    /// watchdog's panic: every step reports [`SchedPoint::SpinBackoff`] to
    /// this runtime's schedule hooks. [`Wait::coordination`] turns it into a
    /// coordination wait, bounded by [`Runtime::coord_deadline`] if one is
    /// configured.
    pub fn wait(&self, t: ThreadId, what: &'static str) -> Wait<'_> {
        Wait::on(self, t, what)
    }

    /// The configured coordination deadline, or `None` when disabled.
    #[inline]
    pub fn coord_deadline(&self) -> Option<Duration> {
        (!self.config.coord_deadline.is_zero()).then_some(self.config.coord_deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoHooks;

    fn cfg(max_threads: usize, heap_objects: usize, monitors: usize) -> RuntimeConfig {
        RuntimeConfig::builder()
            .max_threads(max_threads)
            .heap_objects(heap_objects)
            .monitors(monitors)
            .build()
    }

    #[test]
    fn registration_is_dense() {
        let rt = Runtime::new(cfg(4, 8, 2));
        let (a, b) = (rt.register_thread(), rt.register_thread());
        assert_eq!((a, b), (ThreadId(0), ThreadId(1)));
        assert_eq!(rt.registered_threads(), 2);
        // `controls()` yields exactly the registered blocks, in id order, and
        // each is the block `control(t)` resolves to.
        let iterated: Vec<*const ThreadControl> =
            rt.controls().iter().map(|c| c as *const _).collect();
        assert_eq!(iterated, vec![rt.control(a) as *const _, rt.control(b) as *const _]);
        assert_ne!(iterated[0], iterated[1]);
        // Every monitor id resolves to its own monitor.
        let monitor = |m| rt.monitor(MonitorId(m)) as *const Monitor;
        assert_ne!(monitor(0), monitor(1));
    }

    #[test]
    #[should_panic(expected = "thread registry full")]
    fn registry_overflow_panics() {
        let rt = Runtime::new(cfg(1, 1, 1));
        rt.register_thread();
        rt.register_thread();
    }

    #[test]
    fn builder_sets_every_knob_and_sized_alias_matches() {
        let built = RuntimeConfig::builder()
            .max_threads(5)
            .heap_objects(77)
            .monitors(3)
            .monitor_spin_iters(9)
            .coord_deadline(Duration::from_millis(45))
            .trace_capacity(64)
            .build();
        assert_eq!(built.max_threads, 5);
        assert_eq!(built.heap_objects, 77);
        assert_eq!(built.monitors, 3);
        assert_eq!(built.monitor_spin_iters, 9);
        assert_eq!(built.coord_deadline, Duration::from_millis(45));
        assert_eq!(built.trace_capacity, 64);

        let defaults = RuntimeConfig::builder().max_threads(5).heap_objects(77).monitors(3).build();
        assert_eq!(defaults.trace_capacity, 0, "tracing off unless asked for");
        assert_eq!(defaults.coord_deadline, Duration::ZERO, "deadline off by default");
    }

    #[test]
    fn coord_deadline_accessor_treats_zero_as_disabled() {
        let off = Runtime::new(RuntimeConfig::default());
        assert_eq!(off.coord_deadline(), None);
        let on = Runtime::new(
            RuntimeConfig::builder().coord_deadline(Duration::from_millis(30)).build(),
        );
        assert_eq!(on.coord_deadline(), Some(Duration::from_millis(30)));
    }

    #[test]
    fn tracing_off_by_default_and_on_via_builder() {
        let off = Runtime::new(RuntimeConfig::default());
        assert!(!off.tracing_enabled());
        assert!(off.trace_rings().is_none());
        // Off-path trace is a no-op, not a panic.
        off.trace(ThreadId(0), Event::Read, 1);

        let on = Runtime::new(RuntimeConfig::builder().max_threads(2).trace_capacity(16).build());
        assert!(on.tracing_enabled());
        let t = on.register_thread();
        on.trace(t, Event::Write, 42);
        let rings = on.trace_rings().unwrap();
        assert_eq!(rings.ring(t).unwrap().capacity(), 16);
        let snap = rings.snapshot();
        assert_eq!(snap.threads.len(), 2);
        assert_eq!(snap.threads[t.index()].events.len(), 1);
        assert_eq!(snap.threads[t.index()].events[0].kind, Event::Write);
        assert_eq!(snap.threads[t.index()].events[0].arg, 42);
    }

    /// `holder` takes `m`; `waiter`, on another OS thread, tries to take it.
    /// Once `waiter` has parked (BLOCKED), `holder` keeps `m` for `hold`
    /// more and releases it. Returns `waiter`'s acquire, which leaves it
    /// holding `m`. Needs `monitor_spin_iters(0)`, so the waiter parks at
    /// once.
    fn acquire_behind_a_hold(
        rt: &Runtime,
        m: MonitorId,
        holder: ThreadId,
        waiter: ThreadId,
        hold: Duration,
    ) -> AcquireInfo {
        rt.monitor_acquire(m, holder, &NoHooks);
        std::thread::scope(|s| {
            let h = s.spawn(|| rt.monitor_acquire(m, waiter, &NoHooks));
            let mut wait = Wait::new("the waiter to park");
            while !matches!(rt.control(waiter).status(), crate::control::ThreadStatus::Blocked { .. }) {
                let _ = wait.step();
            }
            std::thread::sleep(hold);
            rt.monitor_release(m, holder, &NoHooks);
            h.join().unwrap()
        })
    }

    const HOLD: Duration = Duration::from_millis(2);

    #[test]
    fn monitor_acquire_records_latency_and_trace() {
        let rt = Runtime::new(
            RuntimeConfig::builder()
                .max_threads(2)
                .monitors(1)
                .monitor_spin_iters(0)
                .trace_capacity(16)
                .build(),
        );
        let (t, holder) = (rt.register_thread(), rt.register_thread());
        let m = MonitorId(0);
        let samples = || *rt.stats().report().latency(LatencyKind::MonitorAcquire);

        // Uncontended, then reentrant: traced as fast, never timed.
        rt.monitor_acquire(m, t, &NoHooks);
        rt.monitor_acquire(m, t, &NoHooks);
        assert_eq!(samples().count(), 0, "an acquire that does not wait records no sample");
        rt.monitor_release(m, t, &NoHooks);
        rt.monitor_release(m, t, &NoHooks);

        // Held by another thread: one sample, no shorter than the hold.
        let info = acquire_behind_a_hold(&rt, m, holder, t, HOLD);
        assert!(info.blocked);
        rt.monitor_release(m, t, &NoHooks);
        assert_eq!(samples().count(), 1);
        assert!(samples().max() >= HOLD.as_nanos() as u64, "{} ns", samples().max());

        let events: Vec<Event> = rt.trace_rings().unwrap().snapshot().threads[t.index()]
            .events
            .iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            events,
            vec![
                Event::MonitorAcquireFast,
                Event::MonitorAcquireFast,
                Event::MonitorRelease,
                Event::MonitorRelease,
                Event::MonitorAcquireBlocked,
                Event::MonitorRelease,
            ]
        );
    }

    #[test]
    fn acquires_on_two_threads_all_reach_the_report() {
        // The two threads take turns waiting on each other, so each one's
        // shard holds half of the samples and each holder's acquire none.
        const ROUNDS: u64 = 4;
        let rt = Runtime::new(
            RuntimeConfig::builder().max_threads(2).monitors(1).monitor_spin_iters(0).build(),
        );
        let (a, b) = (rt.register_thread(), rt.register_thread());
        let m = MonitorId(0);
        for r in 0..ROUNDS {
            let (holder, waiter) = if r % 2 == 0 { (a, b) } else { (b, a) };
            let info = acquire_behind_a_hold(&rt, m, holder, waiter, HOLD);
            assert!(info.waited.is_some_and(|w| w >= HOLD), "{:?}", info.waited);
            rt.monitor_release(m, waiter, &NoHooks);
        }
        let snap = *rt.stats().report().latency(LatencyKind::MonitorAcquire);
        assert_eq!(snap.count(), ROUNDS);
        assert!(snap.max() >= HOLD.as_nanos() as u64);
    }

    #[test]
    fn rdsh_counter_is_monotonic_and_starts_past_zero() {
        let rt = Runtime::new(RuntimeConfig::default());
        let a = rt.next_rdsh_count();
        let b = rt.next_rdsh_count();
        assert!(a >= 2, "0 is reserved for 'no epoch', counter starts at 1");
        assert!(b > a);
        assert_eq!(rt.current_rdsh_count(), b);
    }

    #[test]
    #[should_panic(expected = "gRdShCount exhausted")]
    fn rdsh_counter_refuses_to_pass_the_epoch_field() {
        let rt = Runtime::new(RuntimeConfig::default());
        rt.g_rdsh_count.store(MAX_RDSH_COUNT - 1, Ordering::SeqCst);
        assert_eq!(rt.next_rdsh_count(), MAX_RDSH_COUNT, "the last epoch is usable");
        rt.next_rdsh_count();
    }

    #[test]
    fn blocking_helper_roundtrips_status() {
        let rt = Runtime::new(RuntimeConfig::default());
        let t = rt.register_thread();
        let (val, bumped) = rt.blocking(t, &NoHooks, || 42);
        assert_eq!(val, 42);
        assert!(!bumped);
        assert!(matches!(
            rt.control(t).status(),
            crate::control::ThreadStatus::Running { .. }
        ));
    }

    #[test]
    fn monitor_wrappers_work() {
        let rt = Runtime::new(cfg(2, 2, 2));
        let t = rt.register_thread();
        let info = rt.monitor_acquire(MonitorId(0), t, &NoHooks);
        assert!(!info.blocked);
        rt.monitor_release(MonitorId(0), t, &NoHooks);
        assert_eq!(rt.monitor(MonitorId(0)).holder(), None);
    }
}
