//! The four workloads and their request streams.
//!
//! Every input the program sees is generated here from `--seed`, before any
//! timing: per worker a stream of requests and of Poisson inter-arrival gaps
//! at the workload's fixed open-loop rate. A phase replays a stream from its
//! start and cycles it, so the same seed offers the same requests to every
//! engine and every commit.

use std::time::Instant;

use drink_core::{AnyEngine, EngineKind, Session, Tracker};
use drink_runtime::{ObjId, RuntimeConfig, StatsReport};
use drink_serve::{
    exp_interarrival_ns, GetOutcome, KvStore, LoadAccounting, ServeResult, SplitMix64, Zipf,
};
use drink_workloads::driver::{execute_ops, runtime_config_for};
use drink_workloads::{by_name, Op, WorkloadSpec};

use crate::trace::{Layer, Tracer};

/// Worker threads per workload: one per core of the 2-core host the numbers
/// are taken on. Each worker is its own load generator.
pub const WORKERS: usize = 2;

/// An attached worker session on a runtime-selected engine.
pub type Sess<'e> = Session<'e, AnyEngine>;

/// How much work a run generates. `full` is what every reported number uses;
/// `quick` exists only so the self-check finishes in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Requests per worker stream (KV workloads).
    pub stream_len: usize,
    /// `steps_per_thread` of the pjbb2005 spec.
    pub txn_steps: usize,
    /// Requests per worker in the traced pass, KV workloads.
    pub traced_kv: usize,
    /// Requests per worker in the traced pass, `txn_pjbb2005`.
    pub traced_txn: usize,
    /// Calls per single-thread probe.
    pub probe_calls: u64,
    /// Hand-offs in the ping-pong probe.
    pub pingpong_handoffs: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        stream_len: 1 << 22,
        txn_steps: 3_000_000,
        traced_kv: 1 << 21,
        traced_txn: 1 << 18,
        probe_calls: 1 << 24,
        pingpong_handoffs: 20_000,
    };
    pub const QUICK: Scale = Scale {
        stream_len: 1 << 17,
        txn_steps: 100_000,
        traced_kv: 1 << 15,
        traced_txn: 1 << 11,
        probe_calls: 1 << 18,
        pingpong_handoffs: 1_000,
    };
}

/// The benchmark's workloads. Names are final: later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    KvHotRead,
    KvHotWrite,
    KvPartitioned,
    TxnPjbb2005,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::KvHotRead,
        WorkloadId::KvHotWrite,
        WorkloadId::KvPartitioned,
        WorkloadId::TxnPjbb2005,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::KvHotRead => "kv_hot_read",
            WorkloadId::KvHotWrite => "kv_hot_write",
            WorkloadId::KvPartitioned => "kv_partitioned",
            WorkloadId::TxnPjbb2005 => "txn_pjbb2005",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered rate of the open-loop phases, requests per second over both
    /// workers. Fixed per workload: the same for every engine and commit, and
    /// below every engine's measured capacity so no backlog grows.
    pub fn open_rate_rps(self) -> f64 {
        match self {
            WorkloadId::KvHotRead | WorkloadId::KvPartitioned => 2_000_000.0,
            WorkloadId::KvHotWrite => 800_000.0,
            WorkloadId::TxnPjbb2005 => 400_000.0,
        }
    }

    /// Decorrelates the workloads' streams under one seed.
    fn salt(self) -> u64 {
        (self as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
    }
}

/// One workload as the harness drives it: its streams, the store or program
/// they run against, and the oracle that checks the outcome.
pub trait Work: Sync {
    /// What a worker tallies for the oracle while it executes requests.
    type Tally: Send;

    /// Requests in worker `w`'s stream.
    fn requests(&self, w: usize) -> usize;
    /// Inter-arrival gaps of worker `w`'s open-loop schedule, one per request.
    fn gaps_ns(&self, w: usize) -> &[u32];
    /// A 64-bit digest of worker `w`'s stream (requests and gaps).
    fn stream_hash(&self, w: usize) -> u64;
    /// Requests per traced pass and worker.
    fn traced_requests(&self, scale: &Scale) -> usize;
    /// Closed-loop phases read the clock once per this many requests.
    fn clock_every(&self) -> usize;

    /// Geometry of the runtime a phase builds.
    fn runtime_config(&self, max_threads: usize) -> RuntimeConfig;
    /// Allocate the tracked objects, before any session attaches.
    fn init(&self, engine: &AnyEngine);
    fn new_tally(&self) -> Self::Tally;
    /// Work a worker does once, before the stream's warm-up.
    fn prewarm(&self, _sess: &Sess<'_>, _w: usize, _tally: &mut Self::Tally) {}
    /// Execute request `i` of worker `w`'s stream.
    fn exec<T: Tracer>(
        &self,
        sess: &Sess<'_>,
        w: usize,
        i: usize,
        tally: &mut Self::Tally,
        tr: &mut T,
    );
    /// The correctness oracle, run at quiescence (every session detached).
    fn check(
        &self,
        engine: &AnyEngine,
        report: &StatsReport,
        acct: LoadAccounting,
        tallies: &[Self::Tally],
    ) -> Result<(), String>;
}

fn fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn worker_rng(seed: u64, id: WorkloadId, w: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ id.salt() ^ (w as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

fn poisson_gaps(rng: &mut SplitMix64, rate_rps: f64, n: usize) -> Vec<u32> {
    let per_worker = rate_rps / WORKERS as f64;
    (0..n)
        .map(|_| exp_interarrival_ns(rng, per_worker).min(u64::from(u32::MAX)) as u32)
        .collect()
}

// ---------------------------------------------------------------------------
// KV workloads
// ---------------------------------------------------------------------------

/// Top bit of a KV request word: set for PUT, clear for GET. The low bits are
/// the key.
pub const PUT_BIT: u32 = 1 << 31;

/// Which keys a worker asks for.
#[derive(Clone, Copy, Debug)]
enum KeyChoice {
    /// One Zipf popularity ranking shared by both workers.
    Zipf(f64),
    /// Uniform over the worker's own contiguous slice of the key space.
    OwnPartition,
}

struct KvShape {
    keys: usize,
    monitors: usize,
    choice: KeyChoice,
    read_frac: f64,
}

fn kv_shape(id: WorkloadId) -> KvShape {
    match id {
        WorkloadId::KvHotRead => KvShape {
            keys: 256,
            monitors: 16,
            choice: KeyChoice::Zipf(1.1),
            read_frac: 0.95,
        },
        WorkloadId::KvHotWrite => KvShape {
            keys: 256,
            monitors: 16,
            choice: KeyChoice::Zipf(1.1),
            read_frac: 0.50,
        },
        // One monitor per key: `KvStore` guards key k with monitor
        // k % monitors, so any smaller table would make the two partitions
        // share monitors and reintroduce the cross-thread dependence this
        // workload exists to exclude.
        WorkloadId::KvPartitioned => KvShape {
            keys: 8192,
            monitors: 8192,
            choice: KeyChoice::OwnPartition,
            read_frac: 0.98,
        },
        WorkloadId::TxnPjbb2005 => unreachable!("not a KV workload"),
    }
}

/// A KV workload: the store geometry plus both workers' streams.
pub struct KvWork {
    store: KvStore,
    shape: KvShape,
    reqs: Vec<Vec<u32>>,
    gaps: Vec<Vec<u32>>,
}

impl KvWork {
    pub fn generate(id: WorkloadId, seed: u64, scale: &Scale) -> KvWork {
        let shape = kv_shape(id);
        let zipf = match shape.choice {
            KeyChoice::Zipf(s) => Some(Zipf::new(shape.keys, s)),
            KeyChoice::OwnPartition => None,
        };
        let per_worker = shape.keys / WORKERS;
        let streams: Vec<(Vec<u32>, Vec<u32>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let zipf = &zipf;
                    let shape = &shape;
                    s.spawn(move || {
                        let mut rng = worker_rng(seed, id, w);
                        let reqs = (0..scale.stream_len)
                            .map(|_| {
                                let key = match zipf {
                                    Some(z) => z.sample(&mut rng),
                                    None => {
                                        w * per_worker
                                            + (rng.next_u64() % per_worker as u64) as usize
                                    }
                                };
                                let put = rng.next_f64() >= shape.read_frac;
                                key as u32 | if put { PUT_BIT } else { 0 }
                            })
                            .collect();
                        let gaps = poisson_gaps(&mut rng, id.open_rate_rps(), scale.stream_len);
                        (reqs, gaps)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream generator panicked"))
                .collect()
        });
        let (reqs, gaps) = streams.into_iter().unzip();
        KvWork {
            store: KvStore::new(shape.keys, shape.monitors),
            shape,
            reqs,
            gaps,
        }
    }

    /// Worker `w`'s request words (`key | PUT_BIT`).
    #[cfg(test)]
    pub fn stream(&self, w: usize) -> &[u32] {
        &self.reqs[w]
    }

    #[cfg(test)]
    pub fn keys(&self) -> usize {
        self.shape.keys
    }
}

/// What a KV worker hands the quiescent oracle.
pub struct KvTally {
    puts_per_key: Vec<u64>,
    tag_violations: u64,
}

impl Work for KvWork {
    type Tally = KvTally;

    fn requests(&self, w: usize) -> usize {
        self.reqs[w].len()
    }

    fn gaps_ns(&self, w: usize) -> &[u32] {
        &self.gaps[w]
    }

    fn stream_hash(&self, w: usize) -> u64 {
        let h = self.reqs[w]
            .iter()
            .fold(0x6B76, |h, &r| fold(h, u64::from(r)));
        self.gaps[w].iter().fold(h, |h, &g| fold(h, u64::from(g)))
    }

    fn traced_requests(&self, scale: &Scale) -> usize {
        scale.traced_kv
    }

    fn clock_every(&self) -> usize {
        64
    }

    fn runtime_config(&self, max_threads: usize) -> RuntimeConfig {
        RuntimeConfig::builder()
            .max_threads(max_threads)
            .heap_objects(self.shape.keys)
            .monitors(self.shape.monitors)
            .build()
    }

    fn init(&self, engine: &AnyEngine) {
        self.store.init(engine);
    }

    fn new_tally(&self) -> KvTally {
        KvTally {
            puts_per_key: vec![0; self.shape.keys],
            tag_violations: 0,
        }
    }

    fn prewarm(&self, sess: &Sess<'_>, w: usize, tally: &mut KvTally) {
        // Partitioned workers PUT every key of their slice once, so the keys
        // leave the initial read-shared state before anything is measured.
        if !matches!(self.shape.choice, KeyChoice::OwnPartition) {
            return;
        }
        let per_worker = self.shape.keys / WORKERS;
        for key in w * per_worker..(w + 1) * per_worker {
            self.store.put(sess, key);
            tally.puts_per_key[key] += 1;
            sess.safepoint();
        }
    }

    #[inline(always)]
    fn exec<T: Tracer>(
        &self,
        sess: &Sess<'_>,
        w: usize,
        i: usize,
        tally: &mut KvTally,
        tr: &mut T,
    ) {
        let req = self.reqs[w][i];
        let key = (req & !PUT_BIT) as usize;
        if req & PUT_BIT != 0 {
            tr.span(Layer::StorePut, || self.store.put(sess, key));
            tally.puts_per_key[key] += 1;
        } else if let GetOutcome::ForeignTag(_) =
            tr.span(Layer::StoreGet, || self.store.get(sess, key))
        {
            tally.tag_violations += 1;
        }
        tr.span(Layer::Safepoint, || sess.safepoint());
    }

    /// The serve crate's own quiescent oracle over the harness's tallies: no
    /// lost update, no foreign tag, accounting balanced.
    fn check(
        &self,
        engine: &AnyEngine,
        report: &StatsReport,
        acct: LoadAccounting,
        tallies: &[KvTally],
    ) -> Result<(), String> {
        let mut puts_per_key = vec![0u64; self.shape.keys];
        for t in tallies {
            for (sum, n) in puts_per_key.iter_mut().zip(&t.puts_per_key) {
                *sum += n;
            }
        }
        ServeResult {
            engine: engine.name(),
            workers: WORKERS,
            wall: std::time::Duration::ZERO,
            accounting: acct,
            throughput_rps: 0.0,
            report: report.clone(),
            puts_per_key,
            final_values: engine.rt().heap().snapshot_data()[..self.shape.keys].to_vec(),
            tag_violations: tallies.iter().map(|t| t.tag_violations).sum(),
        }
        .check_quiescent()
    }
}

// ---------------------------------------------------------------------------
// txn_pjbb2005
// ---------------------------------------------------------------------------

/// A request is at least this many ops of the thread's op list.
pub const TXN_MIN_OPS: usize = 128;

/// Cut `ops` into requests of at least `min_ops` ops, only where no monitor
/// is held. Returns the cut offsets: request `r` is `ops[cuts[r]..cuts[r+1]]`.
pub fn cut_requests(ops: &[Op], min_ops: usize) -> Vec<u32> {
    let mut cuts = vec![0u32];
    let mut depth = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Lock(_) => depth += 1,
            Op::Unlock(_) => depth -= 1,
            _ => {}
        }
        let end = i + 1;
        if depth == 0 && end - *cuts.last().unwrap() as usize >= min_ops {
            cuts.push(end as u32);
        }
    }
    // The tail is shorter than `min_ops`: fold it into the last request.
    if *cuts.last().unwrap() as usize != ops.len() {
        if cuts.len() > 1 {
            cuts.pop();
        }
        cuts.push(ops.len() as u32);
    }
    cuts
}

fn op_word(op: Op) -> u64 {
    match op {
        Op::Read(o) => 1 << 32 | u64::from(o.0),
        Op::Write(o) => 2 << 32 | u64::from(o.0),
        Op::Lock(m) => 3 << 32 | u64::from(m.0),
        Op::Unlock(m) => 4 << 32 | u64::from(m.0),
        Op::Work(n) => 5 << 32 | u64::from(n),
        Op::Safepoint => 6 << 32,
        Op::Yield => 7 << 32,
    }
}

/// The paper's highest-conflict program as request-shaped work.
pub struct TxnWork {
    spec: WorkloadSpec,
    ops: Vec<Vec<Op>>,
    cuts: Vec<Vec<u32>>,
    /// Tracked accesses per request, for the access-count oracle.
    accesses: Vec<Vec<u32>>,
    gaps: Vec<Vec<u32>>,
}

impl TxnWork {
    pub fn generate(seed: u64, scale: &Scale) -> TxnWork {
        let id = WorkloadId::TxnPjbb2005;
        let mut spec = by_name("pjbb2005")
            .expect("the pjbb2005 profile exists")
            .spec;
        spec.threads = WORKERS;
        spec.steps_per_thread = scale.txn_steps;
        spec.seed = seed ^ id.salt();
        spec.validate()
            .expect("the rescaled pjbb2005 spec is valid");

        let per_worker: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let spec = &spec;
                    s.spawn(move || {
                        let ops = spec.ops(w);
                        let cuts = cut_requests(&ops, TXN_MIN_OPS);
                        let accesses = cuts
                            .windows(2)
                            .map(|c| {
                                WorkloadSpec::count_accesses(&ops[c[0] as usize..c[1] as usize])
                                    as u32
                            })
                            .collect::<Vec<u32>>();
                        let mut rng = worker_rng(seed, id, w);
                        let gaps = poisson_gaps(&mut rng, id.open_rate_rps(), accesses.len());
                        (ops, cuts, accesses, gaps)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream generator panicked"))
                .collect()
        });
        let mut work = TxnWork {
            spec,
            ops: vec![],
            cuts: vec![],
            accesses: vec![],
            gaps: vec![],
        };
        for (ops, cuts, accesses, gaps) in per_worker {
            work.ops.push(ops);
            work.cuts.push(cuts);
            work.accesses.push(accesses);
            work.gaps.push(gaps);
        }
        work
    }

    /// Worker `w`'s op list and request cut offsets.
    #[cfg(test)]
    pub fn stream(&self, w: usize) -> (&[Op], &[u32]) {
        (&self.ops[w], &self.cuts[w])
    }
}

/// What a txn worker hands the oracle.
pub struct TxnTally {
    /// Tracked accesses in the requests this worker executed.
    accesses: u64,
    /// Sink for `execute_ops`' accumulator, so the reads are not dead code.
    witness: u64,
}

impl Work for TxnWork {
    type Tally = TxnTally;

    fn requests(&self, w: usize) -> usize {
        self.accesses[w].len()
    }

    fn gaps_ns(&self, w: usize) -> &[u32] {
        &self.gaps[w]
    }

    fn stream_hash(&self, w: usize) -> u64 {
        let h = self.ops[w]
            .iter()
            .fold(0x7478, |h, &op| fold(h, op_word(op)));
        let h = self.cuts[w].iter().fold(h, |h, &c| fold(h, u64::from(c)));
        self.gaps[w].iter().fold(h, |h, &g| fold(h, u64::from(g)))
    }

    fn traced_requests(&self, scale: &Scale) -> usize {
        scale.traced_txn
    }

    fn clock_every(&self) -> usize {
        4
    }

    fn runtime_config(&self, max_threads: usize) -> RuntimeConfig {
        let mut config = runtime_config_for(&self.spec);
        config.max_threads = max_threads;
        config
    }

    fn init(&self, engine: &AnyEngine) {
        for i in 0..self.spec.heap_objects() {
            let o = ObjId(i as u32);
            if self.spec.is_read_shared(o) {
                engine.alloc_init_read_shared(o);
            } else {
                engine.alloc_init(o, self.spec.initial_owner(o));
            }
        }
    }

    fn new_tally(&self) -> TxnTally {
        TxnTally {
            accesses: 0,
            witness: 0,
        }
    }

    #[inline(always)]
    fn exec<T: Tracer>(
        &self,
        sess: &Sess<'_>,
        w: usize,
        i: usize,
        tally: &mut TxnTally,
        tr: &mut T,
    ) {
        let (lo, hi) = (self.cuts[w][i] as usize, self.cuts[w][i + 1] as usize);
        tally.witness ^= tr.span(Layer::DriverExec, || {
            execute_ops(sess, &self.ops[w][lo..hi])
        });
        tally.accesses += u64::from(self.accesses[w][i]);
        tr.span(Layer::Safepoint, || sess.safepoint());
    }

    /// Every op of every executed request reached the engine: the tracked
    /// accesses the runtime counted equal the ones the harness handed out.
    /// (The cross-engine equality of the traced pass follows from it.)
    fn check(
        &self,
        engine: &AnyEngine,
        report: &StatsReport,
        acct: LoadAccounting,
        tallies: &[TxnTally],
    ) -> Result<(), String> {
        std::hint::black_box(tallies.iter().fold(0, |x, t| x ^ t.witness));
        if !acct.balanced() || acct.in_flight != 0 {
            return Err(format!(
                "request accounting unbalanced at quiescence: {acct:?}"
            ));
        }
        let expected: u64 = tallies.iter().map(|t| t.accesses).sum();
        if engine.kind() != EngineKind::Baseline && report.accesses() != expected {
            return Err(format!(
                "{}: runtime counted {} tracked accesses, the executed requests hold {expected}",
                engine.name(),
                report.accesses()
            ));
        }
        Ok(())
    }
}

/// Generate a workload's streams `repeats` times and keep one copy. Returns
/// the per-repeat wall times: set-up time is reported as their median, and
/// the repeats double as a determinism check (every repeat must hash alike).
pub fn generate_timed<W: Work>(repeats: usize, generate: impl Fn() -> W) -> (W, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut kept: Option<W> = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let work = generate();
        times.push(t.elapsed().as_secs_f64());
        if let Some(first) = &kept {
            for w in 0..WORKERS {
                assert_eq!(
                    first.stream_hash(w),
                    work.stream_hash(w),
                    "stream generation is not deterministic in the seed"
                );
            }
        } else {
            kept = Some(work);
        }
    }
    (kept.expect("at least one repeat"), times)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale {
        stream_len: 1 << 12,
        txn_steps: 20_000,
        ..Scale::QUICK
    };

    fn hashes<W: Work>(work: &W) -> Vec<u64> {
        (0..WORKERS).map(|w| work.stream_hash(w)).collect()
    }

    #[test]
    fn same_seed_same_streams_and_another_seed_differs() {
        for id in [
            WorkloadId::KvHotRead,
            WorkloadId::KvHotWrite,
            WorkloadId::KvPartitioned,
        ] {
            let a = hashes(&KvWork::generate(id, 7, &SMALL));
            assert_eq!(a, hashes(&KvWork::generate(id, 7, &SMALL)), "{id:?}");
            assert_ne!(a, hashes(&KvWork::generate(id, 8, &SMALL)), "{id:?}");
            assert_ne!(a[0], a[1], "{id:?}: the workers' streams are distinct");
        }
        let a = hashes(&TxnWork::generate(7, &SMALL));
        assert_eq!(a, hashes(&TxnWork::generate(7, &SMALL)));
        assert_ne!(a, hashes(&TxnWork::generate(8, &SMALL)));
        // One seed, different workloads: different streams.
        assert_ne!(
            hashes(&KvWork::generate(WorkloadId::KvHotRead, 7, &SMALL)),
            hashes(&KvWork::generate(WorkloadId::KvHotWrite, 7, &SMALL))
        );
    }

    #[test]
    fn partitioned_streams_never_cross_partitions() {
        let work = KvWork::generate(WorkloadId::KvPartitioned, 0xD21C, &SMALL);
        let per_worker = work.keys() / WORKERS;
        for w in 0..WORKERS {
            let mut seen = vec![false; per_worker];
            for &req in work.stream(w) {
                let key = (req & !PUT_BIT) as usize;
                assert!(
                    (w * per_worker..(w + 1) * per_worker).contains(&key),
                    "worker {w} asked for key {key}"
                );
                seen[key - w * per_worker] = true;
            }
            assert!(
                seen.iter().filter(|&&s| s).count() > per_worker / 2,
                "uniform over the slice"
            );
        }
    }

    #[test]
    fn kv_mixes_match_their_read_fractions() {
        for (id, read_frac) in [
            (WorkloadId::KvHotRead, 0.95),
            (WorkloadId::KvHotWrite, 0.50),
        ] {
            let work = KvWork::generate(id, 3, &SMALL);
            let puts = work.stream(0).iter().filter(|&&r| r & PUT_BIT != 0).count();
            let share = puts as f64 / work.stream(0).len() as f64;
            assert!(
                (share - (1.0 - read_frac)).abs() < 0.03,
                "{id:?}: PUT share {share}"
            );
        }
    }

    #[test]
    fn txn_requests_cut_at_lock_depth_zero_and_cover_the_ops_once() {
        let work = TxnWork::generate(0xD21C, &SMALL);
        for w in 0..WORKERS {
            let (ops, cuts) = work.stream(w);
            assert_eq!(cuts[0], 0);
            assert_eq!(
                *cuts.last().unwrap() as usize,
                ops.len(),
                "cuts cover the whole list"
            );
            assert!(
                cuts.windows(2).all(|c| c[0] < c[1]),
                "cuts are strictly increasing"
            );
            assert!(cuts
                .windows(2)
                .all(|c| (c[1] - c[0]) as usize >= TXN_MIN_OPS));
            let mut depth = 0i64;
            let mut next_cut = 1;
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Lock(_) => depth += 1,
                    Op::Unlock(_) => depth -= 1,
                    _ => {}
                }
                if i + 1 == cuts[next_cut] as usize {
                    assert_eq!(
                        depth, 0,
                        "worker {w}: request {next_cut} ends inside a monitor"
                    );
                    next_cut += 1;
                }
            }
            assert_eq!(next_cut, cuts.len());
            assert_eq!(work.requests(w), cuts.len() - 1);
            assert_eq!(work.gaps_ns(w).len(), work.requests(w));
        }
    }

    #[test]
    fn cut_requests_folds_a_short_tail_into_the_last_request() {
        let ops = vec![Op::Work(1); 300];
        assert_eq!(cut_requests(&ops, 128), vec![0, 128, 300]);
        assert_eq!(cut_requests(&ops[..100], 128), vec![0, 100]);
        assert_eq!(cut_requests(&ops[..256], 128), vec![0, 128, 256]);
    }
}
