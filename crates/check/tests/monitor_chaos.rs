//! Lost-wakeup regression test for monitor wait/notify under perturbation.
//!
//! N waiters consume tickets that M notifiers produce, with a [`ChaosSched`]
//! injecting yields/sleeps inside the exact windows where a lost wakeup
//! would hide: between the waiter's monitor release and its park
//! (`MonitorWaitPark`), and between the notifier's ticket publication and
//! its `notifyAll` (`MonitorNotify`). The monitor's wait-generation
//! protocol must guarantee that a notify issued after a waiter released the
//! monitor but before it parked is still observed — if it is ever lost,
//! the waiters hang and a watchdog aborts the test with a diagnosis instead
//! of wedging the suite.
//!
//! No tracking engine runs here: the threads pass `NoHooks`, and the monitor
//! reports its windows to the runtime's chaos layer itself.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drink_check::ChaosSched;
use drink_runtime::{MonitorId, NoHooks, Runtime, RuntimeConfig};

/// Abort (with a diagnosis) if the run wedges: a lost wakeup manifests as
/// waiters parked forever, which would otherwise hang the whole suite.
fn with_watchdog(done: Arc<AtomicBool>, what: &'static str) -> impl Drop {
    struct Disarm(Arc<AtomicBool>);
    impl Drop for Disarm {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let flag = done.clone();
    std::thread::spawn(move || {
        for _ in 0..600 {
            std::thread::sleep(Duration::from_millis(100));
            if flag.load(Ordering::SeqCst) {
                return;
            }
        }
        eprintln!("monitor_chaos: {what}: waiters still parked after 60s — lost wakeup");
        std::process::abort();
    });
    Disarm(done)
}

fn run_ticket_exchange(seed: u64, waiters: usize, notifiers: usize, tickets_each: u64) {
    let threads = waiters + notifiers + 1; // +1: the shutdown "closer" thread
    let mut cfg = RuntimeConfig::builder()
        .max_threads(threads)
        .heap_objects(1)
        .monitors(1)
        .build();
    cfg.monitor_spin_iters = 4; // park early: the parking windows are the test
    let mut rt = Runtime::new(cfg);
    rt.set_sched_hooks(Arc::new(ChaosSched::new(seed, threads)));
    let rt = Arc::new(rt);

    let m = MonitorId(0);
    let target = notifiers as u64 * tickets_each;
    // Guarded by the monitor; atomics only so the struct is Sync.
    let tickets = AtomicU64::new(0);
    let consumed = AtomicU64::new(0);
    let producing_done = AtomicBool::new(false);

    let finished = Arc::new(AtomicBool::new(false));
    let _watchdog = with_watchdog(finished.clone(), "ticket exchange");

    std::thread::scope(|s| {
        for _ in 0..waiters {
            let rt = &rt;
            let (tickets, consumed, producing_done) = (&tickets, &consumed, &producing_done);
            s.spawn(move || {
                let t = rt.register_thread();
                loop {
                    rt.monitor_acquire(m, t, &NoHooks);
                    while tickets.load(Ordering::Relaxed) == 0
                        && !producing_done.load(Ordering::Relaxed)
                    {
                        rt.monitor_wait(m, t, &NoHooks);
                    }
                    let got = tickets.load(Ordering::Relaxed) > 0;
                    if got {
                        tickets.fetch_sub(1, Ordering::Relaxed);
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                    let drained =
                        producing_done.load(Ordering::Relaxed) && tickets.load(Ordering::Relaxed) == 0;
                    rt.monitor_release(m, t, &NoHooks);
                    if drained {
                        return;
                    }
                }
            });
        }

        let producers: Vec<_> = (0..notifiers)
            .map(|_| {
                let rt = &rt;
                let tickets = &tickets;
                s.spawn(move || {
                    let t = rt.register_thread();
                    for _ in 0..tickets_each {
                        rt.monitor_acquire(m, t, &NoHooks);
                        tickets.fetch_add(1, Ordering::Relaxed);
                        // Notify while holding, as Java does; the chaos layer
                        // perturbs inside notify and before the wait-park.
                        rt.monitor_notify_all_from(m, t);
                        rt.monitor_release(m, t, &NoHooks);
                    }
                })
            })
            .collect();

        for p in producers {
            p.join().unwrap();
        }
        // All tickets published. Announce shutdown from a registered thread
        // *while holding the monitor* — a waiter's condition check and its
        // park are atomic with respect to the monitor, so notifying under it
        // is what makes the handshake race-free (notifying outside it can
        // land between a waiter's check and its park, which the wait
        // protocol is not required to survive).
        s.spawn(|| {
            let t = rt.register_thread();
            rt.monitor_acquire(m, t, &NoHooks);
            producing_done.store(true, Ordering::Relaxed);
            rt.monitor_notify_all_from(m, t);
            rt.monitor_release(m, t, &NoHooks);
        });
    });

    assert_eq!(
        consumed.load(Ordering::Relaxed),
        target,
        "seed {seed:#x}: every produced ticket must be consumed exactly once"
    );
    assert_eq!(tickets.load(Ordering::Relaxed), 0);
}

#[test]
fn no_lost_wakeups_across_chaos_seeds() {
    for seed in [0x11u64, 0x22, 0x33, 0xABCDE] {
        run_ticket_exchange(seed, 3, 2, 40);
    }
}

#[test]
fn single_notifier_many_waiters() {
    run_ticket_exchange(0x77, 6, 1, 60);
}
