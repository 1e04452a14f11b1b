//! Workload execution driver.
//!
//! Runs a [`WorkloadSpec`] against any tracking engine and collects the
//! measurements the evaluation needs: wall-clock time, the transition-count
//! report (Table 2), the final heap image (replay-determinism witness), and
//! the per-object conflict histogram (Figure 6).
//!
//! Every thread mixes the values it reads into a running accumulator and
//! derives the values it writes from it, so the final heap contents are a
//! fingerprint of the cross-thread dependence order — two runs that resolve
//! every dependence identically produce bit-identical heaps.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use drink_core::policy::AdaptivePolicy;
use drink_core::prelude::*;
use drink_runtime::{Runtime, RuntimeConfig, StatsReport, ThreadId};

// The engine-selection enum lives in `drink_core` (one parser, one
// constructor, the erased `AnyEngine` wrapper); re-exported here because the
// workload driver is where most downstream code historically imported it.
pub use drink_core::engine::EngineKind;

use crate::spec::{Op, WorkloadSpec};

/// Everything one workload run produces.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Engine configuration name.
    pub engine: &'static str,
    /// Workload name.
    pub workload: String,
    /// Wall-clock duration of the parallel phase.
    pub wall: Duration,
    /// Aggregate transition statistics.
    pub report: StatsReport,
    /// Final payloads of every object (determinism witness).
    pub heap: Vec<u64>,
    /// Per-object explicit-conflict counts (for the Figure 6 CDF); saturates
    /// at 65 535 per object.
    pub conflicts_per_object: Vec<u32>,
}

impl RunResult {
    /// Figure 6's cumulative distribution: for each `x`, the fraction of all
    /// accesses that were conflicting transitions numbered ≤ `x` on their
    /// object. An object whose final count is `k` contributed one conflict
    /// at each ordinal `1..=k`, so `cdf(x) = Σ_o min(k_o, x) / accesses`.
    pub fn conflict_cdf(&self, x: u32) -> f64 {
        let total = self.report.accesses();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .conflicts_per_object
            .iter()
            .map(|&k| k.min(x) as u64)
            .sum();
        sum as f64 / total as f64
    }
}

/// The runtime configuration a spec needs (callers that want to tweak the
/// config — or register [`drink_runtime::SchedHooks`] before sharing the
/// runtime — build on this instead of [`runtime_for`]).
pub fn runtime_config_for(spec: &WorkloadSpec) -> RuntimeConfig {
    let mut builder = RuntimeConfig::builder()
        .max_threads(spec.threads)
        .heap_objects(spec.heap_objects())
        .monitors(spec.monitors.max(1));
    if let Some(spin) = spec.monitor_spin {
        builder = builder.monitor_spin_iters(spin);
    }
    if let Some(ms) = spec.coord_deadline_ms {
        builder = builder.coord_deadline(Duration::from_millis(ms));
    }
    builder.build()
}

/// Build a runtime sized for `spec`.
pub fn runtime_for(spec: &WorkloadSpec) -> Arc<Runtime> {
    Arc::new(Runtime::new(runtime_config_for(spec)))
}

/// The deterministic local-computation kernel (an `Op::Work` unit).
#[inline]
pub fn local_work(n: u32) {
    let mut x = std::hint::black_box(0x243F_6A88_85A3_08D3u64);
    for i in 0..n {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i as u64);
    }
    std::hint::black_box(x);
}

/// A thread's accumulator before its first op.
#[inline(always)]
pub(crate) fn first_acc(t: ThreadId) -> u64 {
    u64::from(t.raw()) + 1
}

/// The accumulator after reading `v`.
#[inline(always)]
pub(crate) fn mix_read(acc: u64, v: u64) -> u64 {
    acc.rotate_left(7) ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15)
}

/// The accumulator before a write, which is also the value written.
#[inline(always)]
pub(crate) fn mix_write(acc: u64) -> u64 {
    acc.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Execute one thread's op sequence through a session. Returns the thread's
/// final accumulator (a determinism witness of the values it observed).
pub fn execute_ops<T: Tracker + ?Sized>(sess: &Session<'_, T>, ops: &[Op]) -> u64 {
    let mut acc = first_acc(sess.tid());
    for op in ops {
        match *op {
            Op::Read(o) => acc = mix_read(acc, sess.read(o)),
            Op::Write(o) => {
                acc = mix_write(acc);
                sess.write(o, acc);
            }
            Op::Lock(m) => sess.lock(m),
            Op::Unlock(m) => sess.unlock(m),
            Op::Work(n) => local_work(n),
            Op::Safepoint => sess.safepoint(),
            Op::Yield => std::thread::yield_now(),
        }
    }
    acc
}

/// Run `spec` on `engine`. The engine's runtime must be sized by
/// [`runtime_for`] (or larger).
pub fn run_workload<T: Tracker + ?Sized>(engine: &T, spec: &WorkloadSpec) -> RunResult {
    drive(engine, engine.name(), spec, execute_ops)
}

/// The one run scaffolding: check the spec, initialize the heap, expand the
/// op streams, attach one session per worker, start them together, and
/// collect the result under `name`. `body` runs one thread's op stream
/// through its session and returns its final accumulator:
/// [`execute_ops`] for an engine run, the region driver for an RS enforcer.
pub(crate) fn drive<T, F>(engine: &T, name: &'static str, spec: &WorkloadSpec, body: F) -> RunResult
where
    T: Tracker + ?Sized,
    F: Fn(&Session<'_, T>, &[Op]) -> u64 + Sync,
{
    // The one check of a spec, whether it came from a constructor, a struct
    // literal or JSON: before the op expansion can hit a modulo-by-zero or
    // an oversized hot set.
    if let Err(e) = spec.validate() {
        panic!("{e}");
    }
    let rt = engine.rt();
    assert!(rt.heap().len() >= spec.heap_objects(), "heap too small");
    assert!(rt.config().max_threads >= spec.threads, "too few thread slots");

    // Object allocation: every object starts owned by its allocating thread,
    // except the long-lived read-mostly region, which starts read-shared (see
    // `Tracker::alloc_init_read_shared`).
    for i in 0..spec.heap_objects() {
        let o = drink_runtime::ObjId(i as u32);
        if spec.is_read_shared(o) {
            engine.alloc_init_read_shared(o);
        } else {
            engine.alloc_init(o, spec.initial_owner(o));
        }
    }

    // Pre-expand op sequences outside the measured region. Each worker
    // executes the sequence belonging to its *attached* mutator id — thread
    // spawn order and attach order need not agree, and the op streams are
    // what own the per-thread object partitions (and what the replayer's
    // per-thread logs are keyed by).
    let all_ops: Vec<Vec<Op>> = (0..spec.threads).map(|t| spec.ops(t)).collect();
    let barrier = Barrier::new(spec.threads);

    let start = Instant::now();
    // A worker's panic leaves with its own payload, not the scope's "a scoped
    // thread panicked": whoever catches it learns what fired, without a
    // process-global panic hook that two concurrent runs would share.
    let panicked = std::thread::scope(|s| {
        let workers: Vec<_> = (0..spec.threads)
            .map(|_| {
                let (engine, barrier, all_ops, body) = (&engine, &barrier, &all_ops, &body);
                s.spawn(move || {
                    let sess = Session::attach(*engine);
                    let ops = &all_ops[sess.tid().index()];
                    barrier.wait();
                    body(&sess, ops);
                })
            })
            .collect();
        // Join every worker (one left to the scope would panic it), keep the
        // first payload.
        workers.into_iter().fold(None, |first, w| first.or(w.join().err()))
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    let wall = start.elapsed();

    let heap = rt.heap().snapshot_data();
    let conflicts_per_object = rt
        .heap()
        .iter()
        .map(|(_, h)| AdaptivePolicy::profile(h.profile()).num_conflicts)
        .collect();

    RunResult {
        engine: name,
        workload: spec.name.clone(),
        wall,
        report: rt.stats().report(),
        heap,
        conflicts_per_object,
    }
}

/// Construct a fresh runtime + engine of the given kind and run `spec` on it.
pub fn run_kind(kind: EngineKind, spec: &WorkloadSpec) -> RunResult {
    run_kind_on(kind, runtime_for(spec), spec)
}

/// Run `spec` under `kind` on a caller-provided runtime (which must be sized
/// by [`runtime_config_for`] or larger; the chaos harness uses this to
/// register schedule hooks before the runtime is shared).
///
/// Engine construction and naming live entirely behind the erased
/// [`EngineKind::build`] path — this function has no per-engine arms. (The
/// adaptive kind reports as `"adaptive"` because [`drink_core::AnyEngine`]
/// carries the kind-aware name, not because anything is patched up here.)
pub fn run_kind_on(kind: EngineKind, rt: Arc<Runtime>, spec: &WorkloadSpec) -> RunResult {
    run_workload(&kind.build(rt), spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{racy_inc, sync_inc};
    use drink_runtime::{Event, ObjId};
    use std::sync::atomic::Ordering;

    /// `spec` under each of Figure 7's configurations, labelled: three kinds,
    /// and the Ideal estimate, which no kind names.
    fn figure7_runs(spec: &WorkloadSpec) -> Vec<(&'static str, RunResult)> {
        let kinds = [EngineKind::Pessimistic, EngineKind::Optimistic, EngineKind::Hybrid];
        let mut runs: Vec<_> = kinds.map(|k| (k.name(), run_kind(k, spec))).into();
        let ideal = HybridEngine::with_config(runtime_for(spec), IdealModel, HybridConfig::optimistic());
        runs.push(("ideal", run_workload(&ideal, spec)));
        runs
    }

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec { steps_per_thread: 2_000, ..WorkloadSpec::default() }
    }

    #[test]
    fn adaptive_kind_completes_phase_shifted_chaos_with_deadline_on() {
        // chaos_adapt turns on a 150 ms recoverable coordination deadline;
        // the adaptive kind must finish (no watchdog panic) and count the
        // same accesses as the reference hybrid run.
        let spec = crate::spec::chaos_adapt(3);
        let a = run_kind(EngineKind::Adaptive, &spec);
        let h = run_kind(EngineKind::Hybrid, &spec);
        assert_eq!(a.engine, "adaptive");
        assert_eq!(a.report.accesses(), h.report.accesses());
    }

    #[test]
    fn baseline_and_tracked_runs_count_identical_accesses() {
        let spec = small_spec();
        let opt = run_kind(EngineKind::Optimistic, &spec);
        let hyb = run_kind(EngineKind::Hybrid, &spec);
        let pess = run_kind(EngineKind::Pessimistic, &spec);
        assert_eq!(opt.report.accesses(), hyb.report.accesses());
        assert_eq!(opt.report.accesses(), pess.report.accesses());
        assert!(opt.report.accesses() > 0);
    }

    #[test]
    fn single_threaded_runs_are_heap_deterministic_across_engines() {
        // With one thread there are no cross-thread dependences: every engine
        // must produce the identical final heap.
        let spec = WorkloadSpec { threads: 1, steps_per_thread: 3_000, ..WorkloadSpec::default() };
        let base = run_kind(EngineKind::Baseline, &spec);
        for (name, r) in figure7_runs(&spec) {
            assert_eq!(r.heap, base.heap, "{name} diverged from baseline");
        }
    }

    #[test]
    fn sync_inc_counts_exactly_under_every_sound_engine() {
        let spec = sync_inc(4, 1_500);
        for kind in [
            EngineKind::Baseline,
            EngineKind::Pessimistic,
            EngineKind::Optimistic,
            EngineKind::Hybrid,
        ] {
            let r = run_kind(kind, &spec);
            assert!(r.heap[0] > 0);
            // The counter value itself is a PRNG-mixed accumulator (not a
            // plain count), so instead verify every access happened and the
            // run completed with the lock serializing the read+write pairs:
            assert_eq!(
                r.report.accesses(),
                if kind == EngineKind::Baseline { 0 } else { 4 * 1_500 * 2 },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn racy_inc_completes_under_every_engine() {
        let spec = racy_inc(4, 1_000);
        for (name, r) in figure7_runs(&spec) {
            assert_eq!(r.workload, "racyInc", "{name}");
            assert!(r.wall > Duration::ZERO, "{name}");
        }
    }

    #[test]
    fn conflict_cdf_is_monotone_and_bounded() {
        let spec = WorkloadSpec { racy_frac: 0.05, steps_per_thread: 4_000, ..WorkloadSpec::default() };
        let r = run_kind(EngineKind::Optimistic, &spec);
        let mut prev = 0.0;
        for x in [1, 2, 4, 8, 16, 64, 1024, u32::MAX] {
            let y = r.conflict_cdf(x);
            assert!(y >= prev, "CDF must be monotone");
            assert!(y <= 1.0);
            prev = y;
        }
        // The max-x CDF equals the overall explicit-conflict rate (modulo
        // per-object saturation, which these sizes never hit).
        let rate = r.report.explicit_conflict_rate();
        assert!((r.conflict_cdf(u32::MAX) - rate).abs() < 1e-9);
    }

    #[test]
    fn hybrid_reduces_explicit_conflicts_on_hot_racy_workload() {
        // The core claim of the paper, at workload scale: hybrid tracking
        // converts repeated conflicts on hot objects into pessimistic
        // transitions.
        let spec = WorkloadSpec {
            name: "hot-racy".into(),
            racy_frac: 0.30,
            hot_objects: 4,
            local_work: 6,
            steps_per_thread: 8_000,
            ..WorkloadSpec::default()
        };
        // The comparison is against Octet (∞ cutoff; no deadline is
        // configured, so nothing ever turns pessimistic).
        let opt = run_kind(EngineKind::Optimistic, &spec);
        let hyb = run_kind(EngineKind::Hybrid, &spec);
        let opt_confl = opt.report.opt_conflicting();
        let hyb_confl = hyb.report.opt_conflicting();
        assert!(
            hyb_confl * 2 < opt_confl,
            "hybrid should cut conflicting transitions by well over half: opt={opt_confl} hyb={hyb_confl}"
        );
        assert!(hyb.report.opt_to_pess() >= 1);
        assert!(hyb.report.pess_uncontended() > 0);
    }

    #[test]
    fn drf_workload_has_no_contended_transitions() {
        let spec = WorkloadSpec {
            name: "drf".into(),
            racy_frac: 0.0,
            shared_read_frac: 0.0,
            locked_frac: 0.10,
            steps_per_thread: 5_000,
            ..WorkloadSpec::default()
        };
        let hyb = run_kind(EngineKind::Hybrid, &spec);
        assert_eq!(
            hyb.report.get(Event::PessContended),
            0,
            "object-level DRF must imply contention-free deferred unlocking"
        );
    }

    /// Pessimistic tracking is `Cutoff_confl = 0`: every object is born
    /// pessimistic — the read-shared region included — and every lock goes
    /// back at the end of its access, so however the threads race, no access
    /// meets an optimistic state to conflict on, none waits on a lock that
    /// only a request could release, and the policy never samples.
    #[test]
    fn pessimistic_never_coordinates_and_never_profiles() {
        let racy = WorkloadSpec { threads: 4, ..crate::spec::chaos_read_mostly(0x5EED) };
        let mut config = runtime_config_for(&racy);
        config.trace_capacity = 1 << 16;
        let engine = EngineKind::Pessimistic.build(Arc::new(Runtime::new(config)));
        let rt = engine.rt();
        let profiles = || -> Vec<u64> {
            rt.heap().iter().map(|(_, h)| h.profile().load(Ordering::Relaxed)).collect()
        };
        let born = profiles();
        // The spec's racy slice writes the hot set; every thread then writes
        // the whole read-shared region too, racing the others' reads and
        // writes of it.
        let read_shared: Vec<ObjId> = (0..racy.heap_objects())
            .map(|i| ObjId(i as u32))
            .filter(|&o| racy.is_read_shared(o))
            .collect();
        let run = drive(&engine, "pessimistic", &racy, |sess, ops| {
            let acc = execute_ops(sess, ops);
            for &o in &read_shared {
                sess.write(o, acc);
            }
            acc
        });

        let r = &run.report;
        for e in [
            Event::CoordinationRoundtrip,
            Event::CoordFanout,
            Event::OptConflictExplicit,
            Event::OptConflictImplicit,
            Event::OptToPess,
        ] {
            assert_eq!(r.get(e), 0, "{e:?}");
        }
        let rings = rt.trace_rings().expect("built with trace rings");
        let requests: usize = (0..racy.threads)
            .filter_map(|t| rings.ring(ThreadId(t as u16)))
            .flat_map(|ring| ring.snapshot())
            .filter(|rec| rec.kind == Event::CoordRequestSent)
            .count();
        assert_eq!(requests, 0, "a request was sent");
        assert_eq!(profiles(), born, "a profile word was written");
        assert!(r.pess_uncontended() > 0 && r.validated_reads() > 0);

        // On a race-free variant, what the run computes is Baseline's.
        let race_free = WorkloadSpec { locked_frac: 0.0, racy_frac: 0.0, ..racy };
        let base = run_kind(EngineKind::Baseline, &race_free);
        assert_eq!(run_kind(EngineKind::Pessimistic, &race_free).heap, base.heap);
    }

    #[test]
    fn read_mostly_shared_data_is_never_fanned_out() {
        // `chaosReadMostly` with no locks, races or work: 90% of steps read
        // the standing RdSh region. Seqlock-validated reads serve them, and
        // no read of data nobody writes coordinates with all peers.
        for threads in [2, 4] {
            let spec = WorkloadSpec {
                threads,
                steps_per_thread: 2_000,
                locked_frac: 0.0,
                racy_frac: 0.0,
                shared_read_frac: 0.9,
                local_work: 0,
                cs_work: 0,
                monitor_spin: None,
                ..crate::spec::chaos_read_mostly(0xD0_17EA)
            };
            let r = run_kind(EngineKind::Hybrid, &spec);
            assert_eq!(r.report.get(Event::CoordFanout), 0, "t={threads}");
            assert!(r.report.validated_reads() > 0, "t={threads}: no seqlock-validated reads");
        }
    }
}
