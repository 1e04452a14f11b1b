//! The untracked baseline: stands in for the paper's "unmodified Jikes RVM".
//!
//! Accesses go straight to the data word; monitors run with no hooks. Every
//! overhead in Figure 7/8/9 is measured relative to this engine running the
//! identical workload.

use std::sync::Arc;

use drink_runtime::{MonitorId, NoHooks, ObjId, Runtime, ThreadId};

use crate::engine::Tracker;

/// No instrumentation at all.
pub struct NoTracking {
    rt: Arc<Runtime>,
}

impl NoTracking {
    /// Baseline engine over `rt`.
    pub fn new(rt: Arc<Runtime>) -> Self {
        NoTracking { rt }
    }
}

impl Tracker for NoTracking {
    fn rt(&self) -> &Arc<Runtime> {
        &self.rt
    }

    fn name(&self) -> &'static str {
        "baseline"
    }

    fn attach(&self) -> ThreadId {
        self.rt.register_thread()
    }

    fn detach(&self, _t: ThreadId) {}

    #[inline(always)]
    fn read(&self, _t: ThreadId, o: ObjId) -> u64 {
        self.rt.obj(o).data_read()
    }

    #[inline(always)]
    fn write(&self, _t: ThreadId, o: ObjId, v: u64) {
        self.rt.obj(o).data_write(v);
    }

    fn alloc_init(&self, _o: ObjId, _owner: ThreadId) {}

    #[inline(always)]
    fn safepoint(&self, _t: ThreadId) {}

    fn lock(&self, t: ThreadId, m: MonitorId) {
        self.rt.monitor_acquire(m, t, &NoHooks);
    }

    fn unlock(&self, t: ThreadId, m: MonitorId) {
        self.rt.monitor_release(m, t, &NoHooks);
    }

    fn wait(&self, t: ThreadId, m: MonitorId) {
        self.rt.monitor_wait(m, t, &NoHooks);
    }

    fn notify_all(&self, t: ThreadId, m: MonitorId) {
        self.rt.monitor_notify_all_from(m, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use drink_runtime::{RuntimeConfig, SchedHooks, SchedPoint, ThreadStatus};

    #[test]
    fn baseline_reads_writes_data_directly() {
        let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
        let e = NoTracking::new(rt);
        let t = e.attach();
        e.write(t, ObjId(1), 7);
        assert_eq!(e.read(t, ObjId(1)), 7);
        assert_eq!(e.read(t, ObjId(0)), 0);
        e.detach(t);
    }

    #[test]
    fn baseline_monitors_exclude() {
        let rt = Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build()));
        let e = NoTracking::new(rt);
        let t = e.attach();
        e.lock(t, MonitorId(0));
        assert_eq!(e.rt().monitor(MonitorId(0)).holder(), Some(t));
        e.unlock(t, MonitorId(0));
        assert_eq!(e.rt().monitor(MonitorId(0)).holder(), None);
    }

    /// Schedule hooks that write down every point reported to them.
    #[derive(Debug, Default)]
    struct Points(std::sync::Mutex<Vec<SchedPoint>>);

    impl SchedHooks for Points {
        fn perturb(&self, _t: ThreadId, point: SchedPoint) {
            self.0.lock().unwrap().push(point);
        }
    }

    /// The baseline runs its monitors with no hooks, yet a contended
    /// acquire's park and the holder's release still reach the schedule
    /// hooks registered on the runtime.
    #[test]
    fn baseline_monitor_windows_reach_the_schedule_hooks() {
        let points = Arc::new(Points::default());
        let mut rt = Runtime::new(
            RuntimeConfig::builder().max_threads(2).heap_objects(1).monitors(1).monitor_spin_iters(0).build(),
        );
        rt.set_sched_hooks(points.clone());
        let e = EngineKind::Baseline.build(Arc::new(rt));
        let m = MonitorId(0);
        let holder = e.attach();
        e.lock(holder, m);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let t = e.attach();
                e.lock(t, m);
                e.unlock(t, m);
            });
            let mut wait = e.rt().wait(holder, "the contender to park");
            while !matches!(e.rt().control(ThreadId(1)).status(), ThreadStatus::Blocked { .. }) {
                let _ = wait.step();
            }
            e.unlock(holder, m);
            h.join().unwrap();
        });
        let count = |p| points.0.lock().unwrap().iter().filter(|&&q| q == p).count();
        assert_eq!(count(SchedPoint::MonitorPark), 1);
        assert_eq!(count(SchedPoint::MonitorUnpark), 1);
        assert_eq!(count(SchedPoint::MonitorRelease), 2);
    }
}
