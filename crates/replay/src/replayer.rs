//! The deterministic replayer (§4).
//!
//! [`ReplayEngine`] implements `Tracker`, so workloads replay through the
//! exact driver code that recorded them. No states are tracked during
//! replay; each thread walks its deterministic operation sequence and, at
//! every operation:
//!
//! 1. applies the **clock bumps** the log pins before this operation,
//! 2. performs the **sink waits** pinned at this operation (parking until
//!    each source thread's replay clock reaches the recorded value; the
//!    source's bump wakes the sink),
//! 3. executes the access.
//!
//! Program synchronization is **elided** by default — monitor operations
//! perform only their pinned bumps/waits, never touching the monitor. The
//! recorded sync edges (release → acquire) plus the dependence edges fully
//! order the critical sections, which is why the paper's replayer can even
//! *outperform* the baseline for lock-dominated programs (§7.6, pjbb2005).
//! Passing `elide_sync = false` re-executes the real monitor operations,
//! for the ablation of that claim.
//!
//! Replay clocks reuse [`drink_runtime::ThreadControl`]'s release clock.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drink_core::engine::Tracker;
use drink_core::tstate::OwnedByThread;
use drink_runtime::{Event, MonitorId, NoHooks, ObjId, Runtime, ThreadId};

use crate::log::RecordingLog;
use crate::recorder::{pack, unpack};

#[derive(Default)]
struct ReplayLocal {
    /// Deterministic op position (same counting rule as the engines).
    op: u64,
    /// Cursor into the thread's pre-wait source entries.
    pre_idx: usize,
    /// Cursor into the thread's post-wait source entries.
    post_idx: usize,
    /// Cursor into the thread's sink entries.
    sink_idx: usize,
    stats: drink_runtime::LocalStats,
}

/// A log-driven replay engine.
pub struct ReplayEngine {
    rt: Arc<Runtime>,
    log: RecordingLog,
    per_thread: Box<[OwnedByThread<ReplayLocal>]>,
    /// Per thread: the packed `(source, clock)` its sink is parked on, or
    /// 0, so that a source wakes only the sinks its bumps satisfy.
    awaiting: Box<[AtomicU64]>,
    elide_sync: bool,
}

impl ReplayEngine {
    /// Replay `log` on `rt` with program synchronization elided.
    pub fn new(rt: Arc<Runtime>, log: RecordingLog) -> Self {
        ReplayEngine::with_options(rt, log, true)
    }

    /// Replay with explicit control over synchronization elision.
    pub fn with_options(rt: Arc<Runtime>, log: RecordingLog, elide_sync: bool) -> Self {
        log.validate().expect("recording log is malformed");
        let n = rt.config().max_threads;
        assert!(log.threads.len() <= n, "log has more threads than the runtime");
        ReplayEngine {
            rt,
            log,
            per_thread: (0..n).map(|_| OwnedByThread::new(ReplayLocal::default())).collect(),
            awaiting: (0..n).map(|_| AtomicU64::new(0)).collect(),
            elide_sync,
        }
    }

    /// Apply everything pinned at the current position, in three phases (see
    /// the `log` module docs for why the order matters):
    ///
    /// 1. **pre-wait bumps** — yield-point bumps a thread performed while
    ///    (or before) waiting; applying them first keeps mutual mid-operation
    ///    coordination deadlock-free;
    /// 2. **sink waits**;
    /// 3. **post-wait bumps** — transition bumps, which transitively stand
    ///    for this operation's own sources and so must not become visible
    ///    before the waits are satisfied.
    fn sync_at_position(&self, t: ThreadId, local: &mut ReplayLocal) {
        let tl = &self.log.threads[t.index()];
        // 1. Pre-wait bumps pinned at or before the current op.
        self.apply_bumps(t, &tl.sources_pre, &mut local.pre_idx, local.op);
        // 2. Waits pinned at the current op.
        while let Some(entry) = tl.sinks.get(local.sink_idx).filter(|e| e.op <= local.op) {
            for &(src, clock) in &entry.waits {
                if self.rt.control(src).release_clock() < clock {
                    local.stats.bump(Event::ReplayWait);
                    self.await_clock(t, src, clock);
                }
            }
            local.sink_idx += 1;
        }
        // 3. Post-wait (transition) bumps pinned at or before the current op.
        self.apply_bumps(t, &tl.sources_post, &mut local.post_idx, local.op);
    }

    /// Park `t` on its waker until `src`'s replay clock reaches `clock`.
    /// Every such hand-off costs a wake-up, but a sink that spun first would
    /// take the core from the source on a host with fewer cores than
    /// threads. The park is bounded, so a lost wake-up costs one interval;
    /// the [`drink_runtime::Wait`] keeps the watchdog.
    fn await_clock(&self, t: ThreadId, src: ThreadId, clock: u64) {
        let ctl = self.rt.control(src);
        self.awaiting[t.index()].store(pack(src, clock), Ordering::Relaxed);
        // Pairs with `apply_bumps`' fence: either the source sees this entry
        // or the check below sees its bump.
        fence(Ordering::SeqCst);
        let mut wait = self.rt.wait(t, "replay source clock");
        while ctl.release_clock() < clock {
            self.rt.control(t).waker().park(Duration::from_micros(500));
            let _ = wait.step();
        }
        self.awaiting[t.index()].store(0, Ordering::Relaxed);
    }

    /// Apply `t`'s bumps in `stream` from `*idx` on that are pinned at or
    /// before `upto`, advancing `*idx` past them, and wake the sinks they
    /// satisfy: one load per thread when none is parked.
    fn apply_bumps(&self, t: ThreadId, stream: &[(u64, u32)], idx: &mut usize, upto: u64) {
        let start = *idx;
        while let Some(&(_, n)) = stream.get(*idx).filter(|&&(op, _)| op <= upto) {
            for _ in 0..n {
                self.rt.control(t).bump_release_clock();
            }
            *idx += 1;
        }
        if *idx > start {
            fence(Ordering::SeqCst);
            let clock = self.rt.control(t).release_clock();
            for (awaiting, ctl) in self.awaiting.iter().zip(self.rt.controls()) {
                let entry = unpack(awaiting.load(Ordering::Relaxed));
                if entry.is_some_and(|(src, c)| src == t && c <= clock) {
                    ctl.waker().notify();
                }
            }
        }
    }
}

impl Tracker for ReplayEngine {
    fn rt(&self) -> &Arc<Runtime> {
        &self.rt
    }

    fn name(&self) -> &'static str {
        if self.elide_sync { "replay" } else { "replay+sync" }
    }

    fn attach(&self) -> ThreadId {
        let t = self.rt.register_thread();
        assert!(t.index() < self.log.threads.len(), "more replay threads than recorded threads");
        self.per_thread[t.index()].reset_owner();
        // SAFETY: we are the thread that just claimed this slot.
        unsafe {
            *self.per_thread[t.index()].get() = ReplayLocal::default();
        }
        t
    }

    fn detach(&self, t: ThreadId) {
        // SAFETY: Tracker contract — called from the attached thread.
        let local = unsafe { self.per_thread[t.index()].get() };
        // Apply trailing bumps (sources pinned at the final position, e.g.
        // the recorded run's detach flush).
        let tl = &self.log.threads[t.index()];
        self.apply_bumps(t, &tl.sources_pre, &mut local.pre_idx, u64::MAX);
        self.apply_bumps(t, &tl.sources_post, &mut local.post_idx, u64::MAX);
        assert_eq!(
            local.sink_idx,
            tl.sinks.len(),
            "replay of {t} ended with unconsumed sink entries — op streams diverged"
        );
        local.stats.merge_into(self.rt.stats());
    }

    #[inline]
    fn read(&self, t: ThreadId, o: ObjId) -> u64 {
        // SAFETY: attached thread.
        let local = unsafe { self.per_thread[t.index()].get() };
        self.sync_at_position(t, local);
        let v = self.rt.obj(o).data_read();
        local.stats.bump(Event::Read);
        local.op += 1;
        v
    }

    #[inline]
    fn write(&self, t: ThreadId, o: ObjId, v: u64) {
        // SAFETY: attached thread.
        let local = unsafe { self.per_thread[t.index()].get() };
        self.sync_at_position(t, local);
        self.rt.obj(o).data_write(v);
        local.stats.bump(Event::Write);
        local.op += 1;
    }

    fn alloc_init(&self, _o: ObjId, _owner: ThreadId) {}

    #[inline]
    fn safepoint(&self, _t: ThreadId) {}

    fn lock(&self, t: ThreadId, m: MonitorId) {
        // SAFETY: attached thread.
        let local = unsafe { self.per_thread[t.index()].get() };
        self.sync_at_position(t, local);
        if !self.elide_sync {
            let info = self.rt.monitor_acquire(m, t, &NoHooks);
            local.stats.bump(info.event());
        }
        local.op += 1;
    }

    fn unlock(&self, t: ThreadId, m: MonitorId) {
        // SAFETY: attached thread.
        let local = unsafe { self.per_thread[t.index()].get() };
        self.sync_at_position(t, local);
        if !self.elide_sync {
            self.rt.monitor_release(m, t, &NoHooks);
        }
        local.op += 1;
    }

    fn wait(&self, t: ThreadId, m: MonitorId) {
        // Monitor waits are replayed as their recorded edges; the park/wake
        // is pure synchronization and is elided like lock/unlock.
        let local = unsafe { self.per_thread[t.index()].get() };
        self.sync_at_position(t, local);
        if !self.elide_sync {
            // A real wait would need its notify replayed too; recorded edges
            // already order us after the notifier, so a re-acquire suffices.
            let info = self.rt.monitor_acquire(m, t, &NoHooks);
            local.stats.bump(info.event());
            self.rt.monitor_release(m, t, &NoHooks);
        }
        local.op += 1;
    }

    fn notify_all(&self, _t: ThreadId, _m: MonitorId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{RecordingLog, SinkEntry};
    use drink_runtime::RuntimeConfig;

    #[test]
    #[should_panic(expected = "malformed")]
    fn malformed_log_is_rejected() {
        let mut log = RecordingLog::with_threads(2, "x");
        log.threads[1].sinks.push(SinkEntry {
            op: 0,
            waits: vec![(ThreadId(0), 5)], // T0 never bumps
        });
        let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
        let _ = ReplayEngine::new(rt, log);
    }

    #[test]
    fn replay_enforces_recorded_order() {
        // T1's first write must wait for T0's bump at its op 1.
        let mut log = RecordingLog::with_threads(2, "x");
        log.threads[0].push_bump(1);
        log.threads[1].push_wait(0, ThreadId(0), 1);

        let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
        let e = ReplayEngine::new(rt, log);
        let o = ObjId(0);

        std::thread::scope(|s| {
            for _ in 0..2 {
                let er = &e;
                s.spawn(move || {
                    // Roles are decided by the attached id, so the test does
                    // not depend on which OS thread registers first.
                    let t = er.attach();
                    if t == ThreadId(0) {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        er.write(t, o, 1); // op 0: no pins
                        er.write(t, o, 10); // op 1: bump BEFORE executing → releases T1
                    } else {
                        // Waits until T0's clock reaches 1, then writes 2.
                        er.write(t, o, 2);
                    }
                    er.detach(t);
                });
            }
        });
        // T1's write happened after T0's op-1 bump; both writes to o raced
        // but the recorded edge means T1 observed T0's op-0 write. The final
        // value is whichever of {2, 10} lost the race — both orders keep the
        // edge satisfied; the hard guarantee is the wait actually spun:
        assert!(e.rt().stats().get(Event::ReplayWait) >= 1);
    }

    #[test]
    fn detach_applies_trailing_bumps() {
        let mut log = RecordingLog::with_threads(2, "x");
        log.threads[0].push_bump(0); // pinned at op 0, but T0 executes no ops
        log.threads[1].push_wait(0, ThreadId(0), 1);

        let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
        let e = ReplayEngine::new(rt, log);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let er = &e;
                s.spawn(move || {
                    let t = er.attach();
                    if t == ThreadId(0) {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        er.detach(t); // trailing bump applied here
                    } else {
                        er.read(t, ObjId(0));
                        er.detach(t);
                    }
                });
            }
        });
    }
}
