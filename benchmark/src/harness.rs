//! Phase execution. A phase builds one fresh runtime + engine + store per
//! engine under test, attaches two workers to each, warms each up, and then
//! measures the engines **in turn, in short slices, round after round**.
//!
//! The slices are why the numbers hold still. This host slows down for a
//! second or three at a time; a trial of one engine measured in one piece
//! either meets such a spell or does not, and the median of three such trials
//! is lost when two of them do. Cut into short slices dealt round-robin, a
//! slow spell costs every engine the same few slices, and the median over an
//! engine's slices ignores them.
//!
//! Two rules keep the harness from hanging the program it measures. A worker
//! that holds an attached session never blocks outside the runtime: once
//! attached, workers meet at a [`Gate`] — an atomic counter polled together
//! with `Session::safepoint()` — because a peer may need a coordination reply
//! at any moment (an OS barrier there deadlocks). And every phase runs under
//! a watchdog: if the workers do not report back in time the process says
//! which phase stalled and exits non-zero.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};

use drink_core::{AnyEngine, EngineKind, Session, Tracker};
use drink_runtime::stats::LATENCY_BUCKETS;
use drink_runtime::{Event, LatencyKind, Runtime, StatsReport};
use drink_serve::LoadAccounting;

use crate::stats::percentile;
use crate::streams::{Sess, Work, WORKERS};
use crate::trace::{NoTrace, Span, SpanRecorder, Tracer};

/// Grace a phase gets beyond its own measured length before it counts as
/// stalled.
pub const WATCHDOG: Duration = Duration::from_secs(60);

/// Share of a stream replayed as warm-up before an engine is measured.
const WARMUP_DIVISOR: usize = 10;

/// The latency phase times one request in this many, chosen by stream index.
const LATENCY_SAMPLE_EVERY: usize = 8;

/// Sojourn limit of `bench.queue.over_limit_share`.
const SOJOURN_LIMIT_NS: u32 = 100_000;

/// Run `f(w)` on [`WORKERS`] threads and collect the results in worker
/// order. If they have not all reported within `budget`, print what stalled
/// and exit: a stuck worker is spinning inside the runtime and cannot be
/// cancelled, so there is nothing to unwind to.
pub fn run_workers<R: Send>(what: &str, budget: Duration, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let tx = tx.clone();
            let f = &f;
            s.spawn(move || {
                let r = f(w);
                // The receiver only goes away by exiting the process.
                let _ = tx.send((w, r));
            });
        }
        drop(tx);
        let deadline = Instant::now() + budget;
        let mut out: Vec<Option<R>> = (0..WORKERS).map(|_| None).collect();
        for _ in 0..WORKERS {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((w, r)) => out[w] = Some(r),
                Err(e) => {
                    let why = match e {
                        mpsc::RecvTimeoutError::Timeout => "watchdog expired",
                        mpsc::RecvTimeoutError::Disconnected => "a worker panicked",
                    };
                    eprintln!("benchmark: STALLED: {what}: {why} after {budget:?}");
                    std::process::exit(3);
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every worker reported"))
            .collect()
    })
}

/// A meeting point for workers: arrive, then poll until all have. One gate
/// serves a whole phase; the count only grows.
struct Gate {
    arrived: AtomicUsize,
}

/// One worker's pass through the phase's [`Gate`]: it counts its own
/// arrivals.
struct GatePass<'g> {
    gate: &'g Gate,
    meetings: usize,
}

impl GatePass<'_> {
    /// Arrive and wait, calling `poll` between looks, until every worker has
    /// arrived as often as this one.
    fn meet(&mut self, poll: impl Fn()) {
        self.meetings += 1;
        // SeqCst: the gate orders whole slices, it is nowhere near a hot path.
        self.gate.arrived.fetch_add(1, Ordering::SeqCst);
        while self.gate.arrived.load(Ordering::SeqCst) < self.meetings * WORKERS {
            poll();
            std::hint::spin_loop();
        }
    }
}

/// The measured loop a phase runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Closed loop, back-to-back, timed per slice: requests per second.
    Capacity,
    /// Closed loop with one request in eight timed individually.
    Latency,
    /// Open loop at the workload's fixed rate; requests timed from their due
    /// time.
    Open,
    /// Closed loop over a fixed request count with the span recorder on, in
    /// one piece (one engine per phase).
    Traced(usize),
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Capacity => "capacity",
            Mode::Latency => "latency",
            Mode::Open => "open",
            Mode::Traced(_) => "traced",
        }
    }
}

/// How a phase deals out its measured time: every engine gets `rounds`
/// slices of `slice` each.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub mode: Mode,
    pub slice: Duration,
    pub rounds: usize,
}

impl Plan {
    /// The traced pass: `requests` per worker, one engine, one piece.
    pub fn traced(requests: usize) -> Plan {
        Plan {
            mode: Mode::Traced(requests),
            slice: Duration::ZERO,
            rounds: 1,
        }
    }
}

/// Percentiles of one slice's samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quantiles {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
}

impl Quantiles {
    fn of(samples: &mut [u32]) -> Quantiles {
        Quantiles {
            count: samples.len(),
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            p999: percentile(samples, 99.9),
        }
    }
}

/// What one worker measured in one slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    pub requests: u64,
    pub wall_ns: u64,
    /// Latency: service time of the sampled requests. Open: sojourn time
    /// (completion − due) of every request.
    pub times: Quantiles,
    /// Open: median of start − due (queueing, generator lag included).
    pub wait_p50: f64,
    /// Open: p99 of start − due over the requests that found the worker idle
    /// — how late the generator itself ran.
    pub lag_p99: f64,
    /// Open: requests whose sojourn exceeded [`SOJOURN_LIMIT_NS`].
    pub over_limit: u64,
    /// Open: time spent waiting for the next request to fall due.
    pub idle_ns: u64,
}

/// The runtime's event counts and coordination-roundtrip histogram at one
/// instant, in a form that can be differenced (`StatsReport` cannot).
#[derive(Clone, Debug)]
pub struct Counters {
    events: [u64; Event::COUNT],
    /// Log₂ buckets of `LatencyKind::CoordRoundtrip`.
    pub roundtrip: [u64; LATENCY_BUCKETS],
}

impl Counters {
    fn of(report: &StatsReport) -> Counters {
        Counters {
            events: Event::ALL.map(|e| report.get(e)),
            roundtrip: report.latency(LatencyKind::CoordRoundtrip).buckets,
        }
    }

    fn since(mut self, before: &Counters) -> Counters {
        for (a, b) in self.events.iter_mut().zip(&before.events) {
            *a -= b;
        }
        for (a, b) in self.roundtrip.iter_mut().zip(&before.roundtrip) {
            *a -= b;
        }
        self
    }

    pub fn get(&self, e: Event) -> u64 {
        self.events[e as usize]
    }

    /// Tracked reads + writes.
    pub fn accesses(&self) -> u64 {
        self.get(Event::Read) + self.get(Event::Write)
    }
}

/// What a phase measured for one engine.
pub struct EngineOut {
    pub kind: EngineKind,
    /// `slices[round][worker]`.
    pub slices: Vec<Vec<Slice>>,
    /// Traced: each worker's spans.
    pub spans: Vec<Vec<Span>>,
    /// Requests attempted over warm-up and slices, and how many completed.
    pub acct: LoadAccounting,
    /// Runtime counters: of the traced pass alone for [`Mode::Traced`], of
    /// the engine's whole life otherwise.
    pub counters: Counters,
    pub oracle: Result<(), String>,
}

impl EngineOut {
    /// One number per slice: `f` over the slice's per-worker measurements.
    pub fn per_slice(&self, f: impl Fn(&[Slice]) -> f64) -> Vec<f64> {
        self.slices.iter().map(|workers| f(workers)).collect()
    }

    /// One time per slice: the lower of the two workers' `f` (see
    /// [`slice_rps`] for why the better worker stands for the slice).
    pub fn per_slice_least(&self, f: impl Fn(&Slice) -> f64) -> Vec<f64> {
        self.per_slice(|workers| workers.iter().map(&f).fold(f64::INFINITY, f64::min))
    }

    /// Σ over slices of the slower worker's wall time, seconds.
    pub fn wall_s(&self) -> f64 {
        self.per_slice(slice_wall_s).iter().sum()
    }

    pub fn requests(&self) -> u64 {
        self.slices.iter().flatten().map(|s| s.requests).sum()
    }
}

/// The slower worker's wall time of one slice, seconds.
pub fn slice_wall_s(workers: &[Slice]) -> f64 {
    workers.iter().map(|s| s.wall_ns).max().unwrap_or(0) as f64 / 1e9
}

/// One slice's request rate: the faster worker's rate, times the workers.
///
/// On this host a neighbour often slows *one* vCPU for seconds to minutes.
/// Half of all worker-slices are then disturbed, which is exactly where a
/// median over them breaks down; but the workers are statistically identical
/// by construction (same stream distribution, same role), so within a slice
/// the better worker shows what the engine does on an undisturbed core, and
/// the median over slices then discards the spells that slow both.
pub fn slice_rps(workers: &[Slice]) -> f64 {
    let best = workers
        .iter()
        .map(|s| s.requests as f64 / s.wall_ns as f64)
        .fold(0.0, f64::max);
    best * 1e9 * workers.len() as f64
}

/// What one phase produced.
pub struct PhaseOut {
    /// In the order the engines were given.
    pub engines: Vec<EngineOut>,
    /// Everything the phase spent outside its slices: construction,
    /// allocation, warm-up, hand-offs, per-slice statistics, teardown, oracle.
    pub setup_s: f64,
}

/// One worker's state on one engine.
struct Lane<'a, W: Work> {
    work: &'a W,
    sess: Sess<'a>,
    w: usize,
    /// Position in the worker's cycled stream.
    at: usize,
    tally: W::Tally,
    acct: LoadAccounting,
}

/// Sample buffers a worker reuses from slice to slice. Written once up front
/// so no slice takes page faults filling them.
struct Scratch {
    times: Vec<u32>,
    waits: Vec<u32>,
    lags: Vec<u32>,
}

impl Scratch {
    fn new(capacity: usize) -> Scratch {
        let touched = || {
            let mut v = vec![u32::MAX; capacity];
            v.clear();
            v
        };
        Scratch {
            times: touched(),
            waits: touched(),
            lags: touched(),
        }
    }

    fn clear(&mut self) {
        self.times.clear();
        self.waits.clear();
        self.lags.clear();
    }
}

impl<W: Work> Lane<'_, W> {
    #[inline(always)]
    fn step<T: Tracer>(&mut self, tr: &mut T) {
        self.acct.arrive();
        self.work
            .exec(&self.sess, self.w, self.at, &mut self.tally, tr);
        self.acct.complete();
        self.at += 1;
        if self.at == self.work.requests(self.w) {
            self.at = 0;
        }
    }

    fn warm_up(&mut self) {
        self.work.prewarm(&self.sess, self.w, &mut self.tally);
        for _ in 0..self.work.requests(self.w) / WARMUP_DIVISOR {
            self.step(&mut NoTrace);
        }
    }

    fn capacity(&mut self, dur: Duration) -> Slice {
        let every = self.work.clock_every();
        let mut requests = 0;
        let start = Instant::now();
        loop {
            for _ in 0..every {
                self.step(&mut NoTrace);
            }
            requests += every as u64;
            if start.elapsed() >= dur {
                break;
            }
        }
        Slice {
            requests,
            wall_ns: start.elapsed().as_nanos() as u64,
            ..Slice::default()
        }
    }

    fn latency(&mut self, dur: Duration, scratch: &mut Scratch) -> Slice {
        let every = self.work.clock_every();
        let mut requests = 0;
        let start = Instant::now();
        loop {
            for _ in 0..every {
                if self.at.is_multiple_of(LATENCY_SAMPLE_EVERY)
                    && scratch.times.len() < scratch.times.capacity()
                {
                    let t = Instant::now();
                    self.step(&mut NoTrace);
                    scratch
                        .times
                        .push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                } else {
                    self.step(&mut NoTrace);
                }
            }
            requests += every as u64;
            if start.elapsed() >= dur {
                break;
            }
        }
        Slice {
            requests,
            wall_ns: start.elapsed().as_nanos() as u64,
            ..Slice::default()
        }
    }

    /// The schedule is virtual time from the slice's start: a worker that
    /// falls behind does not slow arrivals down, the lag lands in sojourn.
    /// The slice ends with the last request due inside `dur`.
    fn open(&mut self, dur: Duration, scratch: &mut Scratch) -> Slice {
        let work = self.work;
        let gaps = work.gaps_ns(self.w);
        let dur_ns = dur.as_nanos() as u64;
        let clamp = |ns: u64| ns.min(u64::from(u32::MAX)) as u32;
        let mut slice = Slice::default();

        let start = Instant::now();
        let mut now = 0u64;
        let mut due = 0u64;
        loop {
            due += u64::from(gaps[self.at]);
            if due >= dur_ns {
                break;
            }
            let idle = now < due;
            if idle {
                slice.idle_ns += due - now;
                // An idle worker still answers coordination requests.
                while now < due {
                    self.sess.safepoint();
                    std::hint::spin_loop();
                    now = start.elapsed().as_nanos() as u64;
                }
            }
            let started = now;
            self.step(&mut NoTrace);
            now = start.elapsed().as_nanos() as u64;
            scratch.times.push(clamp(now - due));
            scratch.waits.push(clamp(started - due));
            if idle {
                scratch.lags.push(clamp(started - due));
            }
            slice.requests += 1;
        }
        slice.wall_ns = now.max(1);
        slice
    }

    fn traced(&mut self, requests: usize, origin: Instant) -> (Slice, Vec<Span>) {
        // A request records three spans (request, get|put|exec, safepoint).
        let mut rec = SpanRecorder::new(origin, requests * 3);
        let start = Instant::now();
        for id in 0..requests {
            rec.begin_request(id as u32);
            self.step(&mut rec);
            rec.end_request();
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        (
            Slice {
                requests: requests as u64,
                wall_ns,
                ..Slice::default()
            },
            rec.into_spans(),
        )
    }
}

/// Turn one slice's samples into its statistics. Runs between slices, with
/// no request in flight anywhere.
fn digest(mode: Mode, slice: &mut Slice, scratch: &mut Scratch) {
    match mode {
        Mode::Latency => slice.times = Quantiles::of(&mut scratch.times),
        Mode::Open => {
            slice.over_limit = scratch
                .times
                .iter()
                .filter(|&&s| s > SOJOURN_LIMIT_NS)
                .count() as u64;
            slice.times = Quantiles::of(&mut scratch.times);
            slice.wait_p50 = percentile(&mut scratch.waits, 50.0);
            slice.lag_p99 = percentile(&mut scratch.lags, 99.0);
        }
        Mode::Capacity | Mode::Traced(_) => {}
    }
    scratch.clear();
}

/// One engine under test, and the attach order of its workers.
struct Bench {
    engine: AnyEngine,
    attached: AtomicUsize,
    /// Traced: the counters between warm-up and the traced pass.
    before_traced: Mutex<Option<Counters>>,
}

impl Bench {
    /// Attach as mutator `slot`, in slot order, so mutator id and stream
    /// index agree (the txn op lists own per-thread objects by mutator id).
    fn attach(&self, slot: usize) -> Sess<'_> {
        while self.attached.load(Ordering::SeqCst) != slot {
            std::hint::spin_loop();
        }
        let sess = Session::attach(&self.engine);
        assert_eq!(sess.tid().index(), slot, "attach order");
        self.attached.fetch_add(1, Ordering::SeqCst);
        sess
    }
}

/// What a worker hands back per engine.
struct LaneOut<T> {
    slices: Vec<Slice>,
    spans: Vec<Span>,
    tally: T,
    acct: LoadAccounting,
}

/// Run one phase of `plan` for `work` under each of `kinds`. `what` names it
/// in a stall report.
pub fn run_phase<W: Work>(work: &W, kinds: &[EngineKind], plan: Plan, what: &str) -> PhaseOut {
    let phase_start = Instant::now();
    let traced = matches!(plan.mode, Mode::Traced(_));
    assert!(
        !traced || (kinds.len() == 1 && plan.rounds == 1),
        "a traced pass is one engine in one piece"
    );
    // The traced pass attaches twice (see below); mutator ids are never reused.
    let max_threads = if traced { 2 * WORKERS } else { WORKERS };
    let benches: Vec<Bench> = kinds
        .iter()
        .map(|kind| {
            let engine = kind.build(std::sync::Arc::new(Runtime::new(
                work.runtime_config(max_threads),
            )));
            work.init(&engine);
            Bench {
                engine,
                attached: AtomicUsize::new(0),
                before_traced: Mutex::new(None),
            }
        })
        .collect();
    let os_barrier = Barrier::new(WORKERS);
    let gate = Gate {
        arrived: AtomicUsize::new(0),
    };
    // Room for one sample per 100 ns of slice: several times the fastest
    // engine's sampled rate.
    let scratch_capacity = match plan.mode {
        Mode::Latency | Mode::Open => plan.slice.as_nanos() as usize / 100 + 1024,
        Mode::Capacity | Mode::Traced(_) => 0,
    };
    let measured = plan.slice * (plan.rounds * kinds.len()) as u32;

    let outs: Vec<Vec<LaneOut<W::Tally>>> = run_workers(what, measured + WATCHDOG, |w| {
        let mut scratch = Scratch::new(scratch_capacity);
        // Nobody is attached yet: an OS barrier is safe here, and only here.
        os_barrier.wait();
        let mut gate = GatePass {
            gate: &gate,
            meetings: 0,
        };

        // Both workers are always on the same engine: warm each up together.
        let mut lanes: Vec<Lane<'_, W>> = Vec::with_capacity(benches.len());
        for bench in &benches {
            let mut lane = Lane {
                work,
                sess: bench.attach(w),
                w,
                at: 0,
                tally: work.new_tally(),
                acct: LoadAccounting::default(),
            };
            lane.warm_up();
            gate.meet(|| lane.sess.safepoint());
            lanes.push(lane);
        }

        if traced {
            // Counters reach the runtime's aggregate only when a session
            // detaches, so the traced pass runs in sessions of its own: detach
            // after warm-up, snapshot, attach again. The new mutators inherit
            // the warmed-up object states from detached (permanently blocked)
            // owners, which costs at most one implicit coordination per object.
            let bench = &benches[0];
            let Lane {
                work,
                sess,
                w,
                at,
                tally,
                acct,
            } = lanes.pop().expect("the traced engine");
            drop(sess);
            gate.meet(|| ());
            if w == 0 {
                *bench
                    .before_traced
                    .lock()
                    .expect("no worker panics holding this lock") =
                    Some(Counters::of(&bench.engine.rt().stats().report()));
            }
            gate.meet(|| ());
            lanes.push(Lane {
                work,
                sess: bench.attach(WORKERS + w),
                w,
                at,
                tally,
                acct,
            });
        }

        let mut slices: Vec<Vec<Slice>> = lanes
            .iter()
            .map(|_| Vec::with_capacity(plan.rounds))
            .collect();
        let mut spans: Vec<Vec<Span>> = lanes.iter().map(|_| Vec::new()).collect();
        for _ in 0..plan.rounds {
            for (e, lane) in lanes.iter_mut().enumerate() {
                gate.meet(|| lane.sess.safepoint());
                let mut slice = match plan.mode {
                    Mode::Capacity => lane.capacity(plan.slice),
                    Mode::Latency => lane.latency(plan.slice, &mut scratch),
                    Mode::Open => lane.open(plan.slice, &mut scratch),
                    Mode::Traced(requests) => {
                        let (slice, recorded) = lane.traced(requests, phase_start);
                        spans[e] = recorded;
                        slice
                    }
                };
                // The peer may still be inside a request that needs our reply.
                gate.meet(|| lane.sess.safepoint());
                digest(plan.mode, &mut slice, &mut scratch);
                slices[e].push(slice);
            }
        }
        // Nobody issues requests any more: detach.
        lanes
            .into_iter()
            .zip(slices)
            .zip(spans)
            .map(|((lane, slices), spans)| {
                let Lane {
                    sess, tally, acct, ..
                } = lane;
                drop(sess);
                LaneOut {
                    slices,
                    spans,
                    tally,
                    acct,
                }
            })
            .collect()
    });

    // Turn the per-worker results into one `EngineOut` per engine.
    let mut per_worker: Vec<_> = outs.into_iter().map(Vec::into_iter).collect();
    let engines: Vec<EngineOut> = benches
        .iter()
        .zip(kinds)
        .map(|(bench, &kind)| {
            let mut acct = LoadAccounting::default();
            let (mut slices_by_worker, mut spans, mut tallies) =
                (Vec::new(), Vec::new(), Vec::new());
            for lane in per_worker
                .iter_mut()
                .map(|it| it.next().expect("one lane per engine"))
            {
                acct.merge(&lane.acct);
                slices_by_worker.push(lane.slices);
                spans.push(lane.spans);
                tallies.push(lane.tally);
            }
            let whole = bench.engine.rt().stats().report();
            let oracle = work.check(&bench.engine, &whole, acct, &tallies);
            let counters = match bench
                .before_traced
                .lock()
                .expect("no worker panicked")
                .take()
            {
                Some(before) => Counters::of(&whole).since(&before),
                None => Counters::of(&whole),
            };
            let slices = (0..plan.rounds)
                .map(|r| slices_by_worker.iter().map(|s: &Vec<Slice>| s[r]).collect())
                .collect();
            EngineOut {
                kind,
                slices,
                spans,
                acct,
                counters,
                oracle,
            }
        })
        .collect();
    let slices_s: f64 = engines.iter().map(EngineOut::wall_s).sum();
    PhaseOut {
        engines,
        setup_s: phase_start.elapsed().as_secs_f64() - slices_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{KvWork, Scale, TxnWork, WorkloadId, PUT_BIT};

    const SMALL: Scale = Scale {
        stream_len: 1 << 12,
        txn_steps: 20_000,
        ..Scale::QUICK
    };
    const ALL: [EngineKind; 4] = [
        EngineKind::Baseline,
        EngineKind::Pessimistic,
        EngineKind::Hybrid,
        EngineKind::Adaptive,
    ];

    fn plan(mode: Mode) -> Plan {
        Plan {
            mode,
            slice: Duration::from_millis(10),
            rounds: 3,
        }
    }

    #[test]
    fn every_mode_completes_and_passes_the_oracle_on_both_kinds_of_work() {
        let kv = KvWork::generate(WorkloadId::KvHotWrite, 1, &SMALL);
        let txn = TxnWork::generate(1, &SMALL);
        for mode in [Mode::Capacity, Mode::Latency, Mode::Open] {
            for out in [
                run_phase(&kv, &ALL, plan(mode), "test kv"),
                run_phase(&txn, &ALL, plan(mode), "test txn"),
            ] {
                assert_eq!(out.engines.len(), ALL.len());
                for e in &out.engines {
                    e.oracle
                        .as_ref()
                        .unwrap_or_else(|err| panic!("{:?} {mode:?}: {err}", e.kind));
                    assert_eq!(e.slices.len(), 3);
                    assert!(e
                        .slices
                        .iter()
                        .all(|s| s.len() == WORKERS && s.iter().all(|w| w.requests > 0)));
                    assert_eq!(e.acct.arrivals, e.acct.completions);
                    assert!(e.acct.completions >= e.requests());
                    if mode != Mode::Capacity {
                        assert!(e
                            .slices
                            .iter()
                            .flatten()
                            .all(|s| s.times.count > 0 && s.times.p99 >= s.times.p50));
                    }
                }
            }
        }
        for kind in ALL {
            for out in [
                run_phase(&kv, &[kind], Plan::traced(500), "test kv"),
                run_phase(&txn, &[kind], Plan::traced(500), "test txn"),
            ] {
                out.engines[0]
                    .oracle
                    .as_ref()
                    .unwrap_or_else(|err| panic!("{kind:?} traced: {err}"));
                assert_eq!(out.engines[0].requests(), 2 * 500);
            }
        }
    }

    #[test]
    fn a_slice_is_read_from_its_better_worker() {
        let quantiles = |p99| Quantiles {
            count: 100,
            p50: p99 / 2.0,
            p99,
            p999: p99 * 2.0,
        };
        let fast = Slice {
            requests: 1_000,
            wall_ns: 1_000_000,
            times: quantiles(10.0),
            ..Slice::default()
        };
        let slow = Slice {
            requests: 650,
            wall_ns: 1_000_000,
            times: quantiles(30.0),
            ..Slice::default()
        };
        assert_eq!(
            slice_rps(&[fast, slow]),
            2.0 * 1e6,
            "the faster worker's rate, times two"
        );
        assert_eq!(slice_wall_s(&[fast, slow]), 1e-3);
        let engine = EngineOut {
            kind: EngineKind::Hybrid,
            slices: vec![vec![fast, slow], vec![slow, slow]],
            spans: vec![],
            acct: LoadAccounting::default(),
            counters: Counters {
                events: [0; Event::COUNT],
                roundtrip: [0; LATENCY_BUCKETS],
            },
            oracle: Ok(()),
        };
        assert_eq!(engine.per_slice_least(|s| s.times.p99), vec![10.0, 30.0]);
        assert_eq!(engine.per_slice(slice_rps), vec![2.0e6, 1.3e6]);
        assert_eq!(engine.requests(), 1_000 + 3 * 650);
    }

    #[test]
    fn the_traced_counters_cover_the_traced_pass_alone() {
        let kv = KvWork::generate(WorkloadId::KvHotRead, 2, &SMALL);
        let out = run_phase(&kv, &[EngineKind::Hybrid], Plan::traced(1_000), "test");
        let e = &out.engines[0];
        // One tracked access per GET, two per PUT; warm-up is excluded.
        let puts: u64 = (0..WORKERS)
            .map(|w| {
                let warm = kv.requests(w) / WARMUP_DIVISOR;
                kv.stream(w)[warm..warm + 1_000]
                    .iter()
                    .filter(|&&r| r & PUT_BIT != 0)
                    .count() as u64
            })
            .sum();
        assert_eq!(e.counters.accesses(), 2 * 1_000 + puts);
        assert_eq!(e.counters.get(Event::MonitorRelease), puts);
        assert!(e.spans.iter().all(|s| s.len() == 3 * 1_000));
    }

    #[test]
    fn the_open_loop_paces_arrivals_and_times_from_the_due_time() {
        let kv = KvWork::generate(WorkloadId::KvPartitioned, 3, &SMALL);
        let plan = Plan {
            mode: Mode::Open,
            slice: Duration::from_millis(50),
            rounds: 1,
        };
        let out = run_phase(&kv, &[EngineKind::Baseline], plan, "test");
        let e = &out.engines[0];
        e.oracle.as_ref().unwrap();
        // 2 M req/s for 50 ms is 100 000 requests, give or take Poisson noise.
        let n = e.requests() as f64;
        assert!((n - 100_000.0).abs() < 5_000.0, "offered {n} requests");
        for s in e.slices.iter().flatten() {
            assert_eq!(s.times.count as u64, s.requests);
            assert!(s.times.p50 >= s.wait_p50, "sojourn ≥ wait");
            assert!(s.idle_ns > 0 && s.idle_ns <= s.wall_ns);
        }
    }
}
