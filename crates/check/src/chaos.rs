//! The chaos scheduler: a deterministic schedule-perturbation layer.
//!
//! Registered on a [`Runtime`](drink_runtime::Runtime) via
//! `set_sched_hooks`, [`ChaosSched`] is consulted by every thread at every
//! [`SchedPoint`] — safe-point polls, spin backoff steps, monitor
//! acquire/park/release/wait/notify windows, and both sides of explicit
//! coordination. At each point it draws a [`Decision`] from a per-thread
//! splitmix64 stream and delays the calling thread accordingly (or not).
//!
//! The point of the exercise is *coverage of interleavings*, not load: a
//! stock OS scheduler runs each thread in long quanta, so the narrow race
//! windows the tracking protocols defend (request enqueue vs. BLOCKED
//! publish, flush vs. park, notify vs. wait-park) are essentially never
//! exercised. Injecting yields, preemption bursts and microsecond sleeps at
//! exactly those windows forces the orderings out of hiding.
//!
//! ## Determinism contract
//!
//! One `u64` seed fully determines every *decision stream*: thread `t`
//! always draws the same i-th decision for a given seed. The interleaving
//! of threads is still up to the OS, so a failure is not bit-reproducible
//! in general — but the decision streams are, which in practice re-produces
//! protocol failures within a run or two (and deterministically for the
//! invariant class of failures, which fire on the first occurrence of a
//! perturbed pattern). Every decision is recorded into a per-thread trace
//! that a failure artifact carries; [`ChaosSched::replay`] re-applies a
//! recorded trace decision-for-decision, which is what trace shrinking
//! executes against.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use drink_runtime::{CachePadded, SchedHooks, SchedPoint, ThreadId};
use serde::{Deserialize, Serialize};

/// What a thread does at one schedule point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Proceed immediately (the common case; perturbing every point would
    /// serialize the program and *hide* races).
    Run,
    /// Yield the OS quantum once.
    Yield,
    /// Spin for the given number of `spin_loop` iterations (stretches the
    /// current window without descheduling).
    SpinOn(u16),
    /// Yield repeatedly — approximates being preempted for several quanta.
    PreemptBurst(u8),
    /// Sleep for the given number of microseconds (forces a real
    /// deschedule; the heavyweight option, drawn rarely).
    Sleep(u16),
}

impl Decision {
    /// Apply this decision on the calling thread.
    #[inline]
    pub fn apply(self) {
        match self {
            Decision::Run => {}
            Decision::Yield => std::thread::yield_now(),
            Decision::SpinOn(n) => {
                for _ in 0..n {
                    core::hint::spin_loop();
                }
            }
            Decision::PreemptBurst(n) => {
                for _ in 0..n {
                    std::thread::yield_now();
                }
            }
            Decision::Sleep(us) => std::thread::sleep(Duration::from_micros(us as u64)),
        }
    }
}

/// One recorded perturbation: where the thread was and what it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStep {
    /// The schedule point the thread reported.
    pub point: SchedPoint,
    /// The decision drawn (generate mode) or applied (replay mode).
    pub decision: Decision,
}

/// Per-thread trace length cap: beyond this the stream keeps perturbing but
/// stops recording (artifacts stay bounded). A replay past the end of a
/// capped script applies [`Decision::Run`].
const TRACE_CAP: usize = 100_000;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw one decision from a splitmix64 output. Distribution (out of 100):
/// 55 Run, 20 Yield, 13 SpinOn(8–72), 8 PreemptBurst(2–4), 4 Sleep(20–220µs).
fn draw(r: u64) -> Decision {
    let sel = r % 100;
    let payload = r >> 32;
    if sel < 55 {
        Decision::Run
    } else if sel < 75 {
        Decision::Yield
    } else if sel < 88 {
        Decision::SpinOn(8 + (payload % 65) as u16)
    } else if sel < 96 {
        Decision::PreemptBurst(2 + (payload % 3) as u8)
    } else {
        Decision::Sleep(20 + (payload % 201) as u16)
    }
}

#[derive(Debug)]
struct ThreadSlot {
    /// splitmix64 state (generate mode). Only thread `t` touches slot `t`,
    /// so a plain Mutex<u64> would do; the Mutex covers panicking threads.
    state: Mutex<u64>,
    /// Next script index (replay mode).
    cursor: AtomicUsize,
    /// Decisions taken so far (generate mode only).
    trace: Mutex<Vec<TraceStep>>,
}

impl ThreadSlot {
    fn new(seed: u64) -> Self {
        ThreadSlot {
            state: Mutex::new(seed),
            cursor: AtomicUsize::new(0),
            trace: Mutex::new(Vec::new()),
        }
    }
}

#[derive(Debug)]
enum Mode {
    /// Draw fresh decisions from the per-thread PRNG streams and record them.
    Generate,
    /// Re-apply previously recorded per-thread decision streams in order
    /// (points are carried for diagnosis but not matched — replay is
    /// per-thread best-effort, see the module docs). Exhausted streams
    /// decide [`Decision::Run`].
    Replay(Vec<Vec<TraceStep>>),
}

/// The seeded perturbation layer. See the module docs.
#[derive(Debug)]
pub struct ChaosSched {
    mode: Mode,
    slots: Vec<CachePadded<ThreadSlot>>,
}

impl ChaosSched {
    /// A generate-mode scheduler for up to `max_threads` threads, fully
    /// determined by `seed`.
    pub fn new(seed: u64, max_threads: usize) -> Self {
        let slots = (0..max_threads)
            .map(|i| {
                // Distinct, well-separated stream per thread.
                let mut s = seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
                // Warm the state so adjacent seeds don't share prefixes.
                let _ = splitmix64(&mut s);
                CachePadded::new(ThreadSlot::new(s))
            })
            .collect();
        ChaosSched {
            mode: Mode::Generate,
            slots,
        }
    }

    /// A replay-mode scheduler that re-applies `scripts[t]` for thread `t`.
    pub fn replay(scripts: Vec<Vec<TraceStep>>) -> Self {
        let slots = (0..scripts.len())
            .map(|_| CachePadded::new(ThreadSlot::new(0)))
            .collect();
        ChaosSched {
            mode: Mode::Replay(scripts),
            slots,
        }
    }

    /// Drain the per-thread traces recorded so far (generate mode; replay
    /// mode records nothing and returns empty traces).
    pub fn take_traces(&self) -> Vec<Vec<TraceStep>> {
        self.slots
            .iter()
            .map(|slot| std::mem::take(&mut *slot.trace.lock().unwrap()))
            .collect()
    }
}

impl SchedHooks for ChaosSched {
    fn perturb(&self, t: ThreadId, point: SchedPoint) {
        let Some(slot) = self.slots.get(t.index()) else {
            return; // thread beyond the configured matrix: leave unperturbed
        };
        let decision = match &self.mode {
            Mode::Generate => {
                let d = draw(splitmix64(&mut slot.state.lock().unwrap()));
                let mut trace = slot.trace.lock().unwrap();
                if trace.len() < TRACE_CAP {
                    trace.push(TraceStep { point, decision: d });
                }
                d
            }
            Mode::Replay(scripts) => {
                let i = slot.cursor.fetch_add(1, Ordering::Relaxed);
                scripts[t.index()]
                    .get(i)
                    .map(|s| s.decision)
                    .unwrap_or(Decision::Run)
            }
        };
        decision.apply();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(sched: &ChaosSched, t: ThreadId, points: &[SchedPoint]) -> Vec<TraceStep> {
        for &p in points {
            sched.perturb(t, p);
        }
        sched.take_traces()[t.index()].clone()
    }

    #[test]
    fn same_seed_same_decisions() {
        let points = [SchedPoint::SafepointPoll; 64];
        let a = stream(&ChaosSched::new(42, 2), ThreadId(0), &points);
        let b = stream(&ChaosSched::new(42, 2), ThreadId(0), &points);
        assert_eq!(a, b, "a seed must fully determine the decision stream");
        let c = stream(&ChaosSched::new(43, 2), ThreadId(0), &points);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn threads_get_distinct_streams() {
        let sched = ChaosSched::new(7, 2);
        let points = [SchedPoint::SpinBackoff; 64];
        for &p in &points {
            sched.perturb(ThreadId(0), p);
            sched.perturb(ThreadId(1), p);
        }
        let traces = sched.take_traces();
        assert_ne!(traces[0], traces[1]);
    }

    #[test]
    fn distribution_mixes_all_decision_kinds() {
        let mut state = 0xC0FFEEu64;
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            match draw(splitmix64(&mut state)) {
                Decision::Run => counts[0] += 1,
                Decision::Yield => counts[1] += 1,
                Decision::SpinOn(n) => {
                    assert!((8..=72).contains(&n));
                    counts[2] += 1;
                }
                Decision::PreemptBurst(n) => {
                    assert!((2..=4).contains(&n));
                    counts[3] += 1;
                }
                Decision::Sleep(us) => {
                    assert!((20..=220).contains(&us));
                    counts[4] += 1;
                }
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "all kinds drawn: {counts:?}");
        assert!(counts[0] > counts[1], "Run dominates: {counts:?}");
    }

    #[test]
    fn replay_reapplies_scripts_then_runs() {
        let script = vec![
            TraceStep {
                point: SchedPoint::MonitorPark,
                decision: Decision::Yield,
            },
            TraceStep {
                point: SchedPoint::MonitorPark,
                decision: Decision::SpinOn(9),
            },
        ];
        let sched = ChaosSched::replay(vec![script]);
        // Consuming more points than scripted must not panic (Run after end).
        for _ in 0..5 {
            sched.perturb(ThreadId(0), SchedPoint::MonitorPark);
        }
        assert!(sched.take_traces()[0].is_empty(), "replay records nothing");
    }

    #[test]
    fn out_of_range_threads_are_left_alone() {
        let sched = ChaosSched::new(1, 1);
        sched.perturb(ThreadId(9), SchedPoint::SafepointPoll); // no panic
    }
}
