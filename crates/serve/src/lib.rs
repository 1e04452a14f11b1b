//! `drink-serve`: an open-loop KV/session-store macro-benchmark.
//!
//! The workload drivers behind the paper's experiments run tracked
//! operations in a closed loop: each thread issues the next access the moment the
//! previous one retires, so they report *capacity*. A service does not work
//! like that — requests arrive on their own clock, and when the store falls
//! behind, latency (not throughput) absorbs the damage. This crate drives
//! the tracking substrate the way a server would:
//!
//! * **open-loop Poisson arrivals** at a configured aggregate offered rate,
//!   split across `workers` worker sessions (DESIGN.md §14 explains why the
//!   gated latency metric is *sojourn* — arrival → completion — rather than
//!   service time);
//! * **Zipfian key popularity** (`s ∈ {0.9, 1.1, 1.3}` are the standard
//!   skews) derived from a simulated *user* population in the millions:
//!   each request belongs to a user, users are sharded onto workers by
//!   residue, and a user's key preference is a pure function of the user
//!   id — so the key stream is deterministic in `(seed, worker)`;
//! * a configurable read/write mix over a [`KvStore`] whose every shared
//!   access goes through `Session::read` / `Session::write` /
//!   `Session::synchronized`;
//! * engine selection **at runtime** through the erased
//!   [`EngineKind::build`] path: the store and this driver contain zero
//!   per-engine match arms.
//!
//! Latencies flow through the runtime's log₂ histogram plumbing
//! ([`LatencyKind::ServeService`] / [`LatencyKind::ServeSojourn`]), so serve
//! percentiles are derived the same way as every other percentile metric in
//! the suite.

pub mod gen;
pub mod store;

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use drink_core::engine::AnyEngine;
use drink_core::word::MAX_READ_LOCKS;
use drink_core::{EngineKind, Session, Tracker};
use drink_runtime::stats::LatencyKind;
use drink_runtime::{Runtime, RuntimeConfig, StatsReport};

pub use gen::{exp_interarrival_ns, LoadAccounting, SplitMix64, Zipf};
pub use store::{GetOutcome, KvStore};

/// Everything a serve run needs to know. Construct with
/// [`ServeConfig::default`] and override fields; [`run_serve`] and
/// [`run_serve_on`] call [`ServeConfig::validate`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Which tracking engine serves the store.
    pub engine: EngineKind,
    /// Worker sessions (mutator threads) the user population is mapped onto.
    pub workers: usize,
    /// Key-space size (tracked objects).
    pub keys: usize,
    /// Monitors guarding the PUT paths.
    pub monitors: usize,
    /// Simulated user population; users are sharded onto workers by
    /// `user % workers`.
    pub users: u64,
    /// Zipf exponent of key popularity.
    pub zipf_s: f64,
    /// Fraction of requests that are GETs (the rest are PUTs).
    pub read_frac: f64,
    /// Aggregate offered arrival rate, requests per second, split evenly
    /// across workers.
    pub offered_rate: f64,
    /// Requests per worker (the run length; fixed counts keep runs
    /// deterministic and comparable across engines).
    pub requests_per_worker: u64,
    /// Base RNG seed; worker `w` uses stream `seed ⊕ mix(w)`.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineKind::Hybrid,
            workers: 4,
            keys: 256,
            monitors: 16,
            users: 2_000_000,
            zipf_s: 1.1,
            read_frac: 0.9,
            offered_rate: 50_000.0,
            requests_per_worker: 1_000,
            seed: 0x5e4e,
        }
    }
}

impl ServeConfig {
    /// Reject geometries the run loop cannot execute.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("serve: workers must be >= 1".into());
        }
        // Every worker may read-lock the same key at once, and a state word
        // counts that many read locks and no more. One bound, whatever the
        // engine: a geometry is servable by all of them or by none.
        if self.workers as u64 > MAX_READ_LOCKS {
            return Err(format!(
                "serve: {} workers, but one key's state word counts at most {MAX_READ_LOCKS} concurrent readers",
                self.workers
            ));
        }
        if self.keys == 0 || self.monitors == 0 {
            return Err("serve: keys and monitors must be >= 1".into());
        }
        if self.users < self.workers as u64 {
            return Err("serve: user population smaller than worker count".into());
        }
        // A NaN exponent makes every CDF entry but the last NaN, and every
        // sample then lands on key 0.
        if !(self.zipf_s.is_finite() && self.zipf_s >= 0.0) {
            return Err(format!("serve: zipf_s {} must be finite and >= 0", self.zipf_s));
        }
        if !(0.0..=1.0).contains(&self.read_frac) {
            return Err(format!("serve: read_frac {} outside [0, 1]", self.read_frac));
        }
        // `NaN <= 0.0` is false: a NaN (or infinite) rate would run every
        // request 1 ns apart, a closed loop reported under that rate.
        if !(self.offered_rate.is_finite() && self.offered_rate > 0.0) {
            return Err(format!("serve: offered_rate {} must be positive and finite", self.offered_rate));
        }
        if self.requests_per_worker == 0 {
            return Err("serve: requests_per_worker must be >= 1".into());
        }
        Ok(())
    }

    /// The runtime geometry this config needs.
    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::builder()
            .max_threads(self.workers)
            .heap_objects(self.keys)
            .monitors(self.monitors)
            .build()
    }
}

/// Everything one serve run produces.
#[derive(Clone, Debug)]
pub struct ServeResult {
    /// Engine configuration name (kind-aware via [`AnyEngine`]).
    pub engine: &'static str,
    /// Worker-session count.
    pub workers: usize,
    /// Wall-clock duration of the serving phase.
    pub wall: Duration,
    /// Merged offered-load accounting across workers (quiesced: in-flight
    /// is zero once every worker drained).
    pub accounting: LoadAccounting,
    /// Completions per wall-clock second.
    pub throughput_rps: f64,
    /// The runtime's full stats snapshot, including the
    /// `latency.serve_service` / `latency.serve_sojourn` histograms.
    pub report: StatsReport,
    /// Completed PUTs per key, summed across workers.
    pub puts_per_key: Vec<u64>,
    /// Final raw payload of every key at quiescence.
    pub final_values: Vec<u64>,
    /// GETs that observed a value tagged for a different key (must be 0).
    pub tag_violations: u64,
}

impl ServeResult {
    /// Sojourn-time percentile in nanoseconds (log₂-bucket quantized).
    pub fn sojourn_pct(&self, p: f64) -> u64 {
        self.report.latency(LatencyKind::ServeSojourn).percentile(p)
    }

    /// Service-time percentile in nanoseconds.
    pub fn service_pct(&self, p: f64) -> u64 {
        self.report.latency(LatencyKind::ServeService).percentile(p)
    }

    /// The store-linearizability quiescent check: with all workers drained,
    /// every completed PUT must be visible — key `k`'s final sequence number
    /// equals the number of PUTs completed against it, its final value
    /// carries its own tag, and no GET ever observed a foreign tag.
    pub fn check_quiescent(&self) -> Result<(), String> {
        if !self.accounting.balanced() || self.accounting.in_flight != 0 {
            return Err(format!(
                "serve accounting unbalanced at quiescence: {:?}",
                self.accounting
            ));
        }
        if self.tag_violations > 0 {
            return Err(format!(
                "{} GET(s) observed a foreign-tagged value",
                self.tag_violations
            ));
        }
        for (k, (&puts, &raw)) in self.puts_per_key.iter().zip(&self.final_values).enumerate() {
            let (tag, seq) = KvStore::decode(raw);
            if puts == 0 {
                if raw != 0 {
                    return Err(format!("key {k}: never PUT but holds {raw:#x}"));
                }
                continue;
            }
            if tag != KvStore::tag(k) >> 32 {
                return Err(format!("key {k}: final value {raw:#x} carries a foreign tag"));
            }
            if u64::from(seq) != puts {
                return Err(format!(
                    "key {k}: lost update — {puts} PUT(s) completed but final seq is {seq}"
                ));
            }
        }
        Ok(())
    }
}

/// Per-worker tallies handed back from the serving threads.
struct WorkerOutcome {
    accounting: LoadAccounting,
    puts_per_key: Vec<u64>,
    tag_violations: u64,
}

/// Run the store on a caller-provided runtime (sized by
/// [`ServeConfig::runtime_config`] or larger — the chaos harness uses this
/// to register schedule hooks first). The engine is built from
/// `cfg.engine` through the erased constructor; nothing downstream of this
/// call dispatches on the kind.
pub fn run_serve_on(rt: Arc<Runtime>, cfg: &ServeConfig) -> ServeResult {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    assert!(rt.config().max_threads >= cfg.workers, "too few thread slots");
    assert!(rt.heap().len() >= cfg.keys, "heap smaller than key space");

    let engine: AnyEngine = cfg.engine.build(rt);
    let store = KvStore::new(cfg.keys, cfg.monitors);
    store.init(&engine);

    let zipf = Zipf::new(cfg.keys, cfg.zipf_s);
    let per_worker_rate = cfg.offered_rate / cfg.workers as f64;
    let users_per_worker = (cfg.users / cfg.workers as u64).max(1);
    let barrier = Barrier::new(cfg.workers);

    let start = Instant::now();
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let engine = &engine;
                let store = &store;
                let zipf = &zipf;
                let barrier = &barrier;
                s.spawn(move || {
                    serve_worker(
                        engine,
                        store,
                        zipf,
                        barrier,
                        w,
                        cfg,
                        per_worker_rate,
                        users_per_worker,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();

    let mut accounting = LoadAccounting::default();
    let mut puts_per_key = vec![0u64; cfg.keys];
    let mut tag_violations = 0u64;
    for o in &outcomes {
        accounting.merge(&o.accounting);
        tag_violations += o.tag_violations;
        for (sum, n) in puts_per_key.iter_mut().zip(&o.puts_per_key) {
            *sum += n;
        }
    }

    let rt = engine.rt();
    ServeResult {
        engine: engine.name(),
        workers: cfg.workers,
        wall,
        accounting,
        throughput_rps: accounting.completions as f64 / wall.as_secs_f64().max(1e-9),
        report: rt.stats().report(),
        puts_per_key,
        final_values: rt.heap().snapshot_data()[..cfg.keys].to_vec(),
        tag_violations,
    }
}

/// Construct a fresh runtime and run the store on it.
pub fn run_serve(cfg: &ServeConfig) -> ServeResult {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    run_serve_on(Arc::new(Runtime::new(cfg.runtime_config())), cfg)
}

/// One worker session's open loop. The arrival schedule is *virtual time*
/// relative to the post-barrier start instant: a worker that falls behind
/// does not slow arrivals down — the lag lands in sojourn time, which is
/// the point of open-loop measurement.
#[allow(clippy::too_many_arguments)]
fn serve_worker(
    engine: &AnyEngine,
    store: &KvStore,
    zipf: &Zipf,
    barrier: &Barrier,
    worker: usize,
    cfg: &ServeConfig,
    per_worker_rate: f64,
    users_per_worker: u64,
) -> WorkerOutcome {
    let sess = Session::attach(engine);
    let stats = engine.rt().stats();
    let tid = sess.tid();
    // Worker streams: one for the arrival clock, one for request content,
    // decorrelated from each other and from every other worker.
    let mut clock_rng = SplitMix64::new(cfg.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9));
    let mut req_rng = SplitMix64::new(cfg.seed.rotate_left(17) ^ (worker as u64));

    barrier.wait();
    let start = Instant::now();
    let mut arrival_ns: u64 = 0;
    let mut acct = LoadAccounting::default();
    let mut puts_per_key = vec![0u64; store.keys()];
    let mut tag_violations = 0u64;

    for _ in 0..cfg.requests_per_worker {
        arrival_ns += exp_interarrival_ns(&mut clock_rng, per_worker_rate);
        // Idle until the scheduled arrival. Safe-point while waiting: an
        // idle server thread still answers coordination requests.
        while (start.elapsed().as_nanos() as u64) < arrival_ns {
            sess.safepoint();
            std::hint::spin_loop();
        }
        acct.arrive();
        let service_start = Instant::now();

        // The requesting user: drawn from this worker's residue class of
        // the population, so `user % workers == worker` always holds. The
        // user's key preference is a pure hash of the user id pushed
        // through the Zipf CDF — a user hammers their own session key
        // distribution, and popular ranks are shared across many users.
        let user = worker as u64 + cfg.workers as u64 * (req_rng.next_u64() % users_per_worker);
        let u01 = SplitMix64::new(cfg.seed ^ user).next_f64();
        let key = zipf.sample_u01(u01);

        if req_rng.next_f64() < cfg.read_frac {
            if let GetOutcome::ForeignTag(_) = store.get(&sess, key) {
                tag_violations += 1;
            }
        } else {
            store.put(&sess, key);
            puts_per_key[key] += 1;
        }
        sess.safepoint();

        let done = start.elapsed().as_nanos() as u64;
        stats.record_latency(
            tid,
            LatencyKind::ServeService,
            service_start.elapsed().as_nanos() as u64,
        );
        stats.record_latency(tid, LatencyKind::ServeSojourn, done.saturating_sub(arrival_ns));
        acct.complete();
    }
    drop(sess); // detach: the final flush makes the worker's writes visible
    WorkerOutcome {
        accounting: acct,
        puts_per_key,
        tag_violations,
    }
}

/// The chaos-harness serve configuration: small key space, hot Zipf head,
/// write-heavy mix, and an offered rate high enough that the schedule is
/// always behind (workers never idle-wait), so runs are fast and the
/// interleaving is decided entirely by the chaos scheduler's perturbations.
pub fn chaos_serve(seed: u64) -> ServeConfig {
    ServeConfig {
        engine: EngineKind::Hybrid, // overridden per matrix cell
        workers: 4,
        keys: 32,
        monitors: 4,
        users: 1 << 20,
        zipf_s: 1.1,
        read_frac: 0.6,
        offered_rate: 1e9,
        requests_per_worker: 300,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(engine: EngineKind) -> ServeConfig {
        ServeConfig {
            engine,
            workers: 2,
            keys: 16,
            monitors: 4,
            users: 1 << 16,
            zipf_s: 1.1,
            read_frac: 0.5,
            offered_rate: 1e9, // saturated: no idle waits, fast test
            requests_per_worker: 200,
            seed: 0xABCD,
        }
    }

    #[test]
    fn every_engine_kind_serves_and_passes_the_quiescent_check() {
        for kind in EngineKind::ALL {
            let r = run_serve(&quick(kind));
            assert_eq!(r.accounting.completions, 400, "{kind:?}");
            assert!(r.throughput_rps > 0.0, "{kind:?}");
            r.check_quiescent()
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn adaptive_reports_its_kind_aware_name() {
        let r = run_serve(&quick(EngineKind::Adaptive));
        assert_eq!(r.engine, "adaptive");
    }

    #[test]
    fn put_totals_are_engine_independent() {
        // The request streams are pure functions of (seed, worker), so the
        // number of PUTs landing on each key must not depend on which
        // engine tracked them — the precondition for the chaos oracle's
        // cross-engine comparison.
        let base = run_serve(&quick(EngineKind::Baseline));
        for kind in [EngineKind::Pessimistic, EngineKind::Optimistic, EngineKind::Hybrid] {
            let r = run_serve(&quick(kind));
            assert_eq!(r.puts_per_key, base.puts_per_key, "{kind:?}");
            assert_eq!(r.final_values, base.final_values, "{kind:?}");
        }
    }

    #[test]
    fn latency_histograms_are_populated() {
        let r = run_serve(&quick(EngineKind::Hybrid));
        assert_eq!(
            r.report.latency(LatencyKind::ServeService).count(),
            r.accounting.completions
        );
        assert_eq!(
            r.report.latency(LatencyKind::ServeSojourn).count(),
            r.accounting.completions
        );
        // Sojourn dominates service: it contains it by construction.
        assert!(r.sojourn_pct(50.0) >= r.service_pct(50.0) / 2);
    }

    #[test]
    fn open_loop_paces_arrivals_when_capacity_exceeds_rate() {
        // At a modest offered rate the run must take at least the expected
        // schedule length — the generator really is open-loop, not
        // issue-as-fast-as-possible.
        let cfg = ServeConfig {
            offered_rate: 20_000.0,
            requests_per_worker: 50,
            workers: 2,
            ..quick(EngineKind::Baseline)
        };
        // 100 requests at 20k rps aggregate ≈ 5 ms of schedule.
        let r = run_serve(&cfg);
        assert!(
            r.wall >= Duration::from_millis(2),
            "run finished in {:?}: arrivals were not paced",
            r.wall
        );
        r.check_quiescent().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = ServeConfig { workers: 0, ..ServeConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = ServeConfig { read_frac: 1.5, ..ServeConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = ServeConfig { offered_rate: 0.0, ..ServeConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn offered_rates_that_are_not_positive_and_finite_are_rejected() {
        for rate in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = ServeConfig { offered_rate: rate, ..ServeConfig::default() }.validate().unwrap_err();
            assert!(err.contains(&format!("offered_rate {rate}")), "{err}");
        }
        // The Zipf exponent likewise; 0 is uniform and stays valid.
        for s in [f64::NAN, f64::INFINITY, -1.0] {
            let err = ServeConfig { zipf_s: s, ..ServeConfig::default() }.validate().unwrap_err();
            assert!(err.contains(&format!("zipf_s {s}")), "{err}");
        }
        assert_eq!(ServeConfig { zipf_s: 0.0, ..ServeConfig::default() }.validate(), Ok(()));
    }

    #[test]
    fn more_workers_than_a_state_word_counts_readers_are_rejected() {
        let mut cfg = ServeConfig { workers: 255, users: 1 << 20, ..ServeConfig::default() };
        assert_eq!(cfg.validate(), Ok(()));
        cfg.workers = 256;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("256 workers") && err.contains("at most 255"), "{err}");
    }
}
