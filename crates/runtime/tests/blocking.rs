//! Substrate-level blocking and coordination behaviours that unit tests in
//! the individual modules don't reach: the generic blocking helper, monitor
//! wait/notify herds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use drink_runtime::{
    MonitorId, NoHooks, Runtime, RuntimeConfig, ThreadStatus,
};

#[test]
fn blocking_helper_reports_implicit_coordination() {
    let rt = Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build());
    let t0 = rt.register_thread();
    let t1 = rt.register_thread();

    std::thread::scope(|s| {
        let rtr = &rt;
        let h = s.spawn(move || {
            // T0 blocks "on I/O" until its epoch gets bumped.
            let ((), bumped) = rtr.blocking(t0, &NoHooks, || {
                let mut wait = rtr.wait(t0, "epoch bump");
                loop {
                    if let ThreadStatus::Blocked { epoch } = rtr.control(t0).status() {
                        if epoch > 0 {
                            return;
                        }
                    }
                    let _ = wait.step();
                }
            });
            assert!(bumped, "wake must report the implicit bump");
        });

        // T1 coordinates implicitly once T0 publishes BLOCKED.
        let mut wait = rt.wait(t1, "T0 to block");
        let epoch = loop {
            if let ThreadStatus::Blocked { epoch } = rt.control(t0).status() {
                break epoch;
            }
            let _ = wait.step();
        };
        assert!(rt.control(t0).try_implicit(epoch));
        h.join().unwrap();
    });
}

#[test]
fn notify_all_wakes_a_herd_of_waiters() {
    const WAITERS: usize = 5;
    let rt = Runtime::new(RuntimeConfig::builder()
        .max_threads(WAITERS + 1)
        .heap_objects(4)
        .monitors(1)
        .build());
    let m = MonitorId(0);
    let flag = AtomicU64::new(0);
    let woke = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..WAITERS {
            let rtr = &rt;
            let flag = &flag;
            let woke = &woke;
            s.spawn(move || {
                let t = rtr.register_thread();
                rtr.monitor_acquire(m, t, &NoHooks);
                while flag.load(Ordering::Relaxed) == 0 {
                    rtr.monitor_wait(m, t, &NoHooks);
                }
                rtr.monitor_release(m, t, &NoHooks);
                woke.fetch_add(1, Ordering::Relaxed);
            });
        }

        let t = rt.register_thread();
        // Let the herd settle into the wait set.
        std::thread::sleep(Duration::from_millis(30));
        rt.monitor_acquire(m, t, &NoHooks);
        flag.store(1, Ordering::Relaxed);
        rt.monitor_notify_all_from(m, t);
        rt.monitor_release(m, t, &NoHooks);
    });
    assert_eq!(woke.load(Ordering::Relaxed), WAITERS as u64);
    assert_eq!(rt.monitor(m).holder(), None);
}

#[test]
fn monitor_spin_iters_zero_parks_immediately() {
    // With a zero spin budget, a contended acquire must still succeed (it
    // parks right away and is woken by the release).
    let mut cfg = RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build();
    cfg.monitor_spin_iters = 0;
    let rt = Runtime::new(cfg);
    let m = MonitorId(0);
    let t0 = rt.register_thread();
    rt.monitor_acquire(m, t0, &NoHooks);

    std::thread::scope(|s| {
        let rtr = &rt;
        let h = s.spawn(move || {
            let t1 = rtr.register_thread();
            let info = rtr.monitor_acquire(m, t1, &NoHooks);
            assert!(info.blocked, "zero spin budget must park");
            rtr.monitor_release(m, t1, &NoHooks);
        });
        std::thread::sleep(Duration::from_millis(10));
        rt.monitor_release(m, t0, &NoHooks);
        h.join().unwrap();
    });
}

#[test]
fn reentrant_wait_preserves_recursion_depth() {
    let rt = Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(4)
        .monitors(1)
        .build());
    let m = MonitorId(0);
    let flag = AtomicU64::new(0);

    std::thread::scope(|s| {
        let rtr = &rt;
        let flag_r = &flag;
        let h = s.spawn(move || {
            let t = rtr.register_thread();
            rtr.monitor_acquire(m, t, &NoHooks);
            rtr.monitor_acquire(m, t, &NoHooks); // depth 2
            while flag_r.load(Ordering::Relaxed) == 0 {
                rtr.monitor_wait(m, t, &NoHooks);
            }
            // Still held at depth 2: two releases required.
            rtr.monitor_release(m, t, &NoHooks);
            assert_eq!(rtr.monitor(m).holder(), Some(t));
            rtr.monitor_release(m, t, &NoHooks);
        });

        let t = rt.register_thread();
        std::thread::sleep(Duration::from_millis(20));
        rt.monitor_acquire(m, t, &NoHooks);
        flag.store(1, Ordering::Relaxed);
        rt.monitor_notify_all_from(m, t);
        rt.monitor_release(m, t, &NoHooks);
        h.join().unwrap();
    });
    assert_eq!(rt.monitor(m).holder(), None);
}
