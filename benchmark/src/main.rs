//! `drink-benchmark`: the repo's one benchmark. See `benchmark/README.md`
//! for the workloads, the metrics and how they interact; `run.sh` builds and
//! invokes this binary.
//!
//! One invocation runs the selected workloads (`--workload`, default all) in
//! the selected modes (`--trace 0` end-to-end, `--trace 1` per-layer, default
//! both), prints every metric as `name value unit`, writes `result.json`, and
//! — when exactly one workload and mode were selected — ends with the
//! one-line JSON result the benchmark contract asks for.

mod harness;
mod probes;
mod stats;
mod streams;
mod trace;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use drink_core::EngineKind;
use drink_runtime::Event;
use serde::Value;

use harness::{run_phase, slice_rps, EngineOut, Mode, Plan};
use stats::{log2_percentile, median};
use streams::{generate_timed, KvWork, Scale, TxnWork, Work, WorkloadId, WORKERS};
use trace::{Layer, TraceAccount};

/// The engine configurations under test. `baseline` (no tracking) runs
/// first in every end-to-end phase: it is the substrate, and the reference the
/// tracked engines are read against. `opt` is left out: it builds the same
/// configuration as `adapt`.
const TRACKED: [EngineKind; 3] = [
    EngineKind::Pessimistic,
    EngineKind::Hybrid,
    EngineKind::Adaptive,
];
const ENGINES: [EngineKind; 4] = [
    EngineKind::Baseline,
    EngineKind::Pessimistic,
    EngineKind::Hybrid,
    EngineKind::Adaptive,
];

/// Measured time per engine and phase, in units of `--seconds / 28`: each of
/// the four engines gets 3 units of capacity, 1 of latency and 3 of open
/// loop. A unit is 6/7 s at the contract's `run_seconds` = 24.
const CAPACITY_UNITS: usize = 3;
const LATENCY_UNITS: usize = 1;
const OPEN_UNITS: usize = 3;
const UNITS_PER_RUN: usize = ENGINES.len() * (CAPACITY_UNITS + LATENCY_UNITS + OPEN_UNITS);

/// Every unit is dealt out in this many slices (86 ms each under the
/// contract); a metric is a median over its engine's slices.
const SLICES_PER_UNIT: usize = 10;

/// Stream generations per end-to-end run; set-up time counts their median.
const GENERATIONS: usize = 3;

const DEFAULT_SEED: u64 = 0xD21C;
const DEFAULT_SECONDS: f64 = 24.0;
/// `--quick`: 0.15 s units. The numbers are not for comparison.
const QUICK_SECONDS: f64 = 0.15 * UNITS_PER_RUN as f64;

/// A generator that starts requests which found it idle later than this is
/// the bottleneck of its own measurement.
const GENERATOR_BOUND_LAG_NS: f64 = 5_000.0;

/// Largest |Σ layer self times ÷ Σ request time − 1| a traced pass may show.
const SELF_TIME_TOLERANCE: f64 = 0.02;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// The per-slice values behind a median, for `compare.py`'s spread.
    slices: Vec<f64>,
}

/// One line of the per-phase log in `result.json`: one engine in one phase.
struct PhaseLog {
    engine: &'static str,
    phase: &'static str,
    slices: usize,
    /// Σ of the engine's slices.
    wall_s: f64,
    /// The phase's time outside its slices, split evenly over its engines.
    setup_s: f64,
    attempted: u64,
    completed: u64,
    oracle: Result<(), String>,
}

/// What one (workload, mode) run adds up to.
#[derive(Default)]
struct Run {
    metrics: Vec<Metric>,
    phases: Vec<PhaseLog>,
    flags: Vec<String>,
    /// Figures printed beside the metrics but not metrics themselves.
    notes: Vec<String>,
    /// The absolute medians behind the relative metrics: printed and stored,
    /// not declared in `BENCHMARK.json`.
    absolute: Vec<Metric>,
    /// Per traced engine: the layer account of its traced pass.
    layers: Vec<(&'static str, TraceAccount)>,
}

impl Run {
    fn push(&mut self, name: String, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            slices: Vec::new(),
        });
    }

    fn push_median(&mut self, name: String, slices: Vec<f64>, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: median(&slices),
            unit,
            slices,
        });
    }

    /// Run one phase — `units` of measured time per engine — and log it.
    fn phase<W: Work>(
        &mut self,
        id: WorkloadId,
        work: &W,
        kinds: &[EngineKind],
        mode: Mode,
        units: usize,
        unit: Duration,
    ) -> Vec<EngineOut> {
        let plan = match mode {
            Mode::Traced(requests) => Plan::traced(requests),
            _ => Plan {
                mode,
                slice: unit / SLICES_PER_UNIT as u32,
                rounds: units * SLICES_PER_UNIT,
            },
        };
        let what = format!(
            "{} {} [{}]",
            id.name(),
            mode.name(),
            kinds
                .iter()
                .map(|k| k.short_name())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let out = run_phase(work, kinds, plan, &what);
        for e in &out.engines {
            self.phases.push(PhaseLog {
                engine: e.kind.short_name(),
                phase: mode.name(),
                slices: e.slices.len(),
                wall_s: e.wall_s(),
                setup_s: out.setup_s / kinds.len() as f64,
                attempted: e.acct.arrivals,
                completed: e.acct.completions,
                oracle: e.oracle.clone(),
            });
        }
        out.engines
    }

    /// Fail the oracle of the phase logged last (for checks made on its
    /// output after it returned).
    fn fail_last_phase(&mut self, why: String) {
        let last = self.phases.last_mut().expect("a phase has run");
        if last.oracle.is_ok() {
            last.oracle = Err(why);
        }
    }

    fn correct(&self) -> bool {
        self.phases.iter().all(|p| p.oracle.is_ok())
    }

    fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Requests attempted but not completed, or belonging to a phase whose
    /// oracle failed. (A phase whose watchdog fires ends the process.)
    fn failed(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| {
                if p.oracle.is_ok() {
                    p.attempted - p.completed
                } else {
                    p.attempted
                }
            })
            .sum()
    }

    fn phase_setup_s(&self) -> f64 {
        self.phases.iter().map(|p| p.setup_s).sum()
    }
}

/// Push what one phase measured: every tracked engine's **per-round ratio to
/// the reference engine** (the first), median over rounds, as the metric
/// `relative_name.<e>`.
///
/// A whole-host slowdown moves every engine's slices of a round by the same
/// factor, so it cancels in the ratio; the absolute medians do not hold still
/// on a shared host and are kept only as notes (`absolute_name.<e>`).
fn push_relative(
    run: &mut Run,
    engines: &[EngineOut],
    per_slice: impl Fn(&EngineOut) -> Vec<f64>,
    absolute_name: &str,
    unit: &'static str,
    relative_name: &str,
) {
    let (reference, tracked) = engines
        .split_first()
        .expect("the reference engine runs first");
    let reference_slices = per_slice(reference);
    let absolute = |e: &EngineOut, slices: Vec<f64>| Metric {
        name: format!("{absolute_name}.{}", e.kind.short_name()),
        value: median(&slices),
        unit,
        slices,
    };
    for e in tracked {
        let slices = per_slice(e);
        let ratios = slices
            .iter()
            .zip(&reference_slices)
            .map(|(x, r)| x / r)
            .collect();
        run.push_median(
            format!("{relative_name}.{}", e.kind.short_name()),
            ratios,
            "ratio",
        );
        run.absolute.push(absolute(e, slices));
    }
    run.absolute.push(absolute(reference, reference_slices));
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn end_to_end<W: Work>(id: WorkloadId, work: &W, generation_s: f64, unit: Duration) -> Run {
    let mut run = Run::default();

    let capacity = run.phase(id, work, &ENGINES, Mode::Capacity, CAPACITY_UNITS, unit);
    push_relative(
        &mut run,
        &capacity,
        |e| e.per_slice(slice_rps),
        "capacity_rps",
        "1/s",
        "capacity_rel",
    );

    let latency = run.phase(id, work, &ENGINES, Mode::Latency, LATENCY_UNITS, unit);
    push_relative(
        &mut run,
        &latency,
        |e| e.per_slice_least(|s| s.times.p99),
        "svc_p99_ns",
        "ns",
        "svc_p99_rel",
    );
    for e in &latency {
        // Printed beside the p99, not metrics themselves.
        run.notes.push(format!(
            "svc.{}: {} samples, p50 {:.1} ns, p99.9 {:.1} ns (medians over slices)",
            e.kind.short_name(),
            e.slices
                .iter()
                .flatten()
                .map(|s| s.times.count)
                .sum::<usize>(),
            median(&e.per_slice_least(|s| s.times.p50)),
            median(&e.per_slice_least(|s| s.times.p999)),
        ));
    }

    let open = run.phase(id, work, &ENGINES, Mode::Open, OPEN_UNITS, unit);
    push_relative(
        &mut run,
        &open,
        |e| e.per_slice_least(|s| s.times.p50),
        "sojourn_p50_ns",
        "ns",
        "sojourn_p50_rel",
    );

    run.push("setup_s".into(), generation_s + run.phase_setup_s(), "s");
    run
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `--trace 1`: the per-layer metrics, from a traced pass per engine, an
/// open-loop phase and single-purpose probes. End-to-end metrics never come
/// from here.
fn per_layer<W: Work>(
    id: WorkloadId,
    work: &W,
    unit: Duration,
    scale: &Scale,
    out_dir: &Path,
) -> Run {
    let mut run = Run::default();

    // Untraced capacity in absolute terms — not bounded, because it moves
    // with the host — and the base of `bench.trace.overhead_share`.
    let capacity_rps: Vec<f64> = run
        .phase(id, work, &ENGINES, Mode::Capacity, 1, unit)
        .iter()
        .map(|e| median(&e.per_slice(slice_rps)))
        .collect();
    for (kind, &rps) in ENGINES.iter().zip(&capacity_rps) {
        run.push(
            format!("bench.capacity_rps.{}", kind.short_name()),
            rps,
            "1/s",
        );
    }

    let mut traced_accesses = Vec::new();
    for (kind, capacity_rps) in ENGINES.into_iter().zip(capacity_rps).skip(1) {
        let e = kind.short_name();
        let traced = run
            .phase(
                id,
                work,
                &[kind],
                Mode::Traced(work.traced_requests(scale)),
                1,
                unit,
            )
            .pop()
            .expect("the traced engine");
        let spans: Vec<_> = traced.spans.iter().map(Vec::as_slice).collect();
        let acc = trace::account(&spans);
        let gap = acc.self_time_gap();
        if gap.abs() > SELF_TIME_TOLERANCE {
            run.fail_last_phase(format!(
                "Σ layer self times miss Σ request time by {gap:+.4}"
            ));
        }
        // The program with nothing else to check its output against: every
        // engine executed the same tracked accesses over the same requests.
        traced_accesses.push(traced.counters.accesses());
        if traced_accesses[0] != traced.counters.accesses() {
            run.fail_last_phase(format!(
                "{e} executed {} tracked accesses over the same requests, {} executed {}",
                traced.counters.accesses(),
                TRACKED[0].short_name(),
                traced_accesses[0]
            ));
        }
        let trace_path = out_dir.join(format!("trace.{}.{e}.json", id.name()));
        std::fs::File::create(&trace_path)
            .and_then(|f| trace::write_chrome_trace(std::io::BufWriter::new(f), &spans))
            .unwrap_or_else(|err| fail(&format!("write {}: {err}", trace_path.display())));

        let traced_wall_s = traced.wall_s();
        let worker_wall_ns = (WORKERS as f64 * traced_wall_s * 1e9).max(1.0);
        let per_k = |count: u64| count as f64 * 1e3 / acc.requests.max(1) as f64;
        let c = &traced.counters;
        let k = |e: Event| per_k(c.get(e));
        let (get, put, exec) = (
            acc.layer(Layer::StoreGet),
            acc.layer(Layer::StorePut),
            acc.layer(Layer::DriverExec),
        );
        let seqlock_ok = c.get(Event::SeqlockValidated);
        let seqlock_all = seqlock_ok + c.get(Event::SeqlockRetry) + c.get(Event::SeqlockFallback);

        let traced_rps = traced.requests() as f64 / traced_wall_s;
        let rt_p = |p| log2_percentile(&c.roundtrip, p) as f64;
        let busy_ns = (get.total_ns + put.total_ns) as f64;
        #[rustfmt::skip]
        let mut table = vec![
            ("serve.store.get_p50_ns", get.p50_ns, "ns"),
            ("serve.store.get_p99_ns", get.p99_ns, "ns"),
            ("serve.store.put_p50_ns", put.p50_ns, "ns"),
            ("serve.store.put_p99_ns", put.p99_ns, "ns"),
            ("serve.store.busy_share", busy_ns / worker_wall_ns, "ratio"),
            ("workloads.driver.exec_p50_ns", exec.p50_ns, "ns"),
            ("workloads.driver.exec_p99_ns", exec.p99_ns, "ns"),
            ("core.engine.same_state_share", ratio(c.get(Event::OptSameState), c.accesses()), "ratio"),
            ("core.engine.pess_contended_per_k", k(Event::PessContended), "count"),
            ("core.engine.seqlock_ok_share", ratio(seqlock_ok, seqlock_all), "ratio"),
            ("core.engine.seqlock_fallback_per_k", k(Event::SeqlockFallback), "count"),
            // Explicit requests answered at responding safepoints, and conflicts
            // resolved against a blocked thread without a roundtrip.
            ("core.coord.explicit_per_k", k(Event::CoordBatchRequests), "count"),
            ("core.coord.implicit_per_k", k(Event::OptConflictImplicit), "count"),
            ("core.coord.fanout_per_k", k(Event::CoordFanout), "count"),
            ("core.coord.fanout_width", ratio(c.get(Event::CoordFanoutPeers), c.get(Event::CoordFanout)), "count"),
            // The runtime's own log₂ histogram: quantised to powers of two.
            ("core.coord.roundtrip_p50_ns", rt_p(50.0), "ns"),
            ("core.coord.roundtrip_p99_ns", rt_p(99.0), "ns"),
            ("core.coord.pingpong_ns", probes::pingpong_ns(kind, scale), "ns"),
            ("runtime.monitor.blocked_per_k", k(Event::MonitorAcquireBlocked), "count"),
            ("runtime.control.responded_per_k", k(Event::RespondedExplicit), "count"),
            ("runtime.spin.stall_share", acc.stall_ns as f64 / worker_wall_ns, "ratio"),
            ("runtime.spin.stalls_per_k", per_k(acc.stalls), "count"),
            ("bench.trace.overhead_share", 1.0 - traced_rps / capacity_rps, "ratio"),
        ];
        if kind != EngineKind::Pessimistic {
            table.extend([
                (
                    "core.adapt.demotions_per_k",
                    k(Event::AdaptDemotion),
                    "count",
                ),
                (
                    "core.adapt.promotions_per_k",
                    k(Event::AdaptPromotion),
                    "count",
                ),
                (
                    "core.policy.opt_to_pess_per_k",
                    k(Event::OptToPess),
                    "count",
                ),
                (
                    "core.policy.pess_to_opt_per_k",
                    k(Event::PessToOpt),
                    "count",
                ),
            ]);
        }
        for (name, value, unit) in table {
            run.push(format!("{name}.{e}"), value, unit);
        }
        run.layers.push((e, acc));
    }

    // The queue account: the open loop at the workload's fixed rate.
    for open in run.phase(id, work, &TRACKED, Mode::Open, 1, unit) {
        let e = open.kind.short_name();
        let total =
            |f: fn(&harness::Slice) -> u64| open.slices.iter().flatten().map(f).sum::<u64>();
        let over = total(|s| s.over_limit) + (open.acct.arrivals - open.acct.completions);
        let lag_p99 = median(&open.per_slice_least(|s| s.lag_p99));
        if lag_p99 > GENERATOR_BOUND_LAG_NS {
            run.flags
                .push(format!("{e}: generator-bound, lag p99 {lag_p99:.0} ns"));
        }
        let least = |f: fn(&harness::Slice) -> f64| median(&open.per_slice_least(f));
        #[rustfmt::skip]
        let table = [
            ("bench.queue.wait_p50_ns", least(|s| s.wait_p50), "ns"),
            ("bench.queue.sojourn_p99_ns", least(|s| s.times.p99), "ns"),
            ("bench.queue.over_limit_share", ratio(over, open.requests()), "ratio"),
            ("bench.loadgen.lag_p99_ns", lag_p99, "ns"),
            ("bench.loadgen.idle_share", ratio(total(|s| s.idle_ns), total(|s| s.wall_ns)), "ratio"),
        ];
        for (name, value, unit) in table {
            run.push(format!("{name}.{e}"), value, unit);
        }
    }

    for kind in ENGINES {
        let e = kind.short_name();
        let solo = probes::solo(kind, scale);
        let mut m = |name: &str, value: f64| run.push(format!("{name}.{e}"), value, "ns");
        m("core.session.read_same_state_ns", solo.read_same_state_ns);
        m("core.session.write_same_state_ns", solo.write_same_state_ns);
        m("runtime.monitor.uncontended_pair_ns", solo.monitor_pair_ns);
        if kind != EngineKind::Baseline {
            m("runtime.control.safepoint_poll_ns", solo.safepoint_poll_ns);
        }
    }
    run
}

/// Everything measured for one workload.
struct WorkloadResult {
    id: WorkloadId,
    stream_hashes: Vec<u64>,
    generation_s: Vec<f64>,
    end_to_end: Option<Run>,
    per_layer: Option<Run>,
}

impl WorkloadResult {
    /// The runs that were selected, under their `BENCHMARK.json` keys.
    fn runs(&self) -> impl Iterator<Item = (&'static str, &Run)> {
        [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ]
        .into_iter()
        .filter_map(|(key, run)| Some((key, run.as_ref()?)))
    }
}

struct Args {
    workload: Option<WorkloadId>,
    trace: Option<bool>,
    seed: u64,
    seconds: f64,
    quick: bool,
    out_dir: PathBuf,
    manifest: Option<PathBuf>,
}

fn run_workload<W: Work>(
    id: WorkloadId,
    args: &Args,
    scale: &Scale,
    generate: impl Fn() -> W,
) -> WorkloadResult {
    let want = |trace: bool| args.trace.is_none_or(|t| t == trace);
    let unit = Duration::from_secs_f64(args.seconds / UNITS_PER_RUN as f64);
    let (work, generation_s) = generate_timed(if want(false) { GENERATIONS } else { 1 }, generate);
    WorkloadResult {
        id,
        stream_hashes: (0..WORKERS).map(|w| work.stream_hash(w)).collect(),
        end_to_end: want(false).then(|| end_to_end(id, &work, median(&generation_s), unit)),
        per_layer: want(true).then(|| per_layer(id, &work, unit, scale, &args.out_dir)),
        generation_s,
    }
}

fn print_run(id: WorkloadId, kind: &str, run: &Run) {
    println!("## {} {kind}", id.name());
    for m in &run.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for (e, acc) in &run.layers {
        println!(
            "# layer account, {e}: {} requests, Σ self ÷ Σ request − 1 = {:+.5}",
            acc.requests,
            acc.self_time_gap()
        );
        println!(
            "#   {:<28} {:>10} {:>12} {:>12} {:>7}",
            "layer", "spans", "total_ms", "self_ms", "share"
        );
        let request_ns = acc.layer(Layer::Request).total_ns.max(1) as f64;
        for l in Layer::ALL {
            let a = acc.layer(l);
            println!(
                "#   {:<28} {:>10} {:>12.3} {:>12.3} {:>7.4}",
                l.name(),
                a.spans,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                a.self_ns as f64 / request_ns
            );
        }
    }
    for m in &run.absolute {
        println!("# absolute: {} {} {}", m.name, m.value, m.unit);
    }
    for n in &run.notes {
        println!("# {n}");
    }
    for f in &run.flags {
        println!("# flag: {f}");
    }
    println!(
        "# {} {kind}: attempted {} failed {} correct {}",
        id.name(),
        run.attempted(),
        run.failed(),
        run.correct()
    );
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// `{name: {value, unit[, slices]}}`.
fn metrics_json(metrics: &[Metric], with_slices: bool) -> Value {
    let entry = |m: &Metric| {
        let mut fields = vec![("value", Value::F64(m.value)), ("unit", text(m.unit))];
        if with_slices && !m.slices.is_empty() {
            let slices = m.slices.iter().map(|&t| Value::F64(t)).collect();
            fields.push(("slices", Value::Seq(slices)));
        }
        (m.name.clone(), obj(fields))
    };
    Value::Map(metrics.iter().map(entry).collect())
}

fn run_json(run: &Run) -> Value {
    let phases = run
        .phases
        .iter()
        .map(|p| {
            obj(vec![
                ("engine", text(p.engine)),
                ("phase", text(p.phase)),
                ("slices", Value::U64(p.slices as u64)),
                ("wall_s", Value::F64(p.wall_s)),
                ("setup_s", Value::F64(p.setup_s)),
                ("attempted", Value::U64(p.attempted)),
                ("completed", Value::U64(p.completed)),
                (
                    "oracle",
                    text(p.oracle.as_ref().err().map_or("ok", String::as_str)),
                ),
            ])
        })
        .collect();
    let layers = run
        .layers
        .iter()
        .map(|(e, acc)| {
            let table = Layer::ALL
                .iter()
                .map(|&l| {
                    let a = acc.layer(l);
                    let fields = vec![
                        ("spans", Value::U64(a.spans)),
                        ("total_ns", Value::U64(a.total_ns)),
                        ("self_ns", Value::U64(a.self_ns)),
                        ("p50_ns", Value::F64(a.p50_ns)),
                        ("p99_ns", Value::F64(a.p99_ns)),
                    ];
                    (l.name().to_string(), obj(fields))
                })
                .collect();
            let fields = vec![
                ("requests", Value::U64(acc.requests)),
                ("self_time_gap", Value::F64(acc.self_time_gap())),
                ("layers", Value::Map(table)),
            ];
            (e.to_string(), obj(fields))
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(run.correct())),
        ("attempted", Value::U64(run.attempted())),
        ("failed", Value::U64(run.failed())),
        (
            "failed_share",
            Value::F64(ratio(run.failed(), run.attempted())),
        ),
        ("metrics", metrics_json(&run.metrics, true)),
        ("absolute", metrics_json(&run.absolute, false)),
        ("flags", Value::Seq(run.flags.iter().map(text).collect())),
        ("layer_account", Value::Map(layers)),
        ("phases", Value::Seq(phases)),
    ])
}

/// The contract's result line for one (workload, mode) run.
fn result_line(run: &Run) -> String {
    let line = obj(vec![
        ("correct", Value::Bool(run.correct())),
        ("attempted", Value::U64(run.attempted())),
        ("failed", Value::U64(run.failed())),
        ("metrics", metrics_json(&run.metrics, false)),
    ]);
    serde_json::to_string(&line).expect("a Value always prints")
}

/// The names `BENCHMARK.json` declares under `key`.
fn declared(manifest: &Value, key: &str) -> BTreeSet<String> {
    let entries = manifest
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key));
    let Some((_, Value::Seq(items))) = entries else {
        fail(&format!("BENCHMARK.json has no `{key}` list"))
    };
    items
        .iter()
        .map(|item| {
            match item
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "name"))
            {
                Some((_, Value::Str(name))) => name.clone(),
                _ => fail(&format!("BENCHMARK.json: a `{key}` entry has no name")),
            }
        })
        .collect()
}

/// Emitted names against declared ones: none missing, none undeclared, all
/// of the permitted characters. Returns the complaints.
fn check_names(what: &str, emitted: BTreeSet<String>, declared: &BTreeSet<String>) -> Vec<String> {
    let mut bad = Vec::new();
    for name in emitted.difference(declared) {
        bad.push(format!(
            "{what} `{name}` is emitted but not declared in BENCHMARK.json"
        ));
    }
    for name in declared.difference(&emitted) {
        bad.push(format!(
            "{what} `{name}` is declared in BENCHMARK.json but not emitted"
        ));
    }
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    for name in emitted
        .iter()
        .filter(|n| n.is_empty() || !n.chars().all(ok))
    {
        bad.push(format!(
            "{what} `{name}` has characters outside [A-Za-z0-9_.-]"
        ));
    }
    bad
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        trace: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        manifest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                args.workload = Some(
                    WorkloadId::parse(&v)
                        .unwrap_or_else(|| fail(&format!("unknown workload `{v}`"))),
                );
            }
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    v => fail(&format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--seed" => {
                let v = value();
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed =
                    parsed.unwrap_or_else(|_| fail(&format!("--seed takes an integer, not `{v}`")));
            }
            "--seconds" => {
                let v = value();
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => s,
                    _ => fail(&format!("--seconds takes a length in (0, 600], not `{v}`")),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out_dir = PathBuf::from(value()),
            "--manifest" => args.manifest = Some(PathBuf::from(value())),
            _ => fail(&format!(
                "unknown argument `{flag}`\nusage: drink-benchmark [--workload NAME] [--trace 0|1] \
                 [--seed N] [--seconds S] [--quick] [--out DIR] [--manifest BENCHMARK.json]"
            )),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    args
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if WORKERS > nproc {
        fail(&format!("oversubscribed: {WORKERS} workers on {nproc} core(s); the numbers would be scheduler noise"));
    }
    std::fs::create_dir_all(&args.out_dir)
        .unwrap_or_else(|e| fail(&format!("create {}: {e}", args.out_dir.display())));
    let load_start = load_average();
    let scale = if args.quick {
        Scale::QUICK
    } else {
        Scale::FULL
    };

    let results: Vec<WorkloadResult> = WorkloadId::ALL
        .into_iter()
        .filter(|&id| args.workload.is_none_or(|w| w == id))
        .map(|id| {
            let r = match id {
                WorkloadId::TxnPjbb2005 => {
                    run_workload(id, &args, &scale, || TxnWork::generate(args.seed, &scale))
                }
                _ => run_workload(id, &args, &scale, || {
                    KvWork::generate(id, args.seed, &scale)
                }),
            };
            r.runs().for_each(|(key, run)| print_run(id, key, run));
            r
        })
        .collect();

    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    let mut workloads_json = Vec::new();
    for r in &results {
        let mut fields = vec![
            ("name", text(r.id.name())),
            ("open_rate_rps", Value::F64(r.id.open_rate_rps())),
            (
                "stream_hashes",
                Value::Seq(
                    r.stream_hashes
                        .iter()
                        .map(|h| text(format!("{h:016x}")))
                        .collect(),
                ),
            ),
            (
                "generation_s",
                Value::Seq(r.generation_s.iter().map(|&s| Value::F64(s)).collect()),
            ),
        ];
        fields.extend(r.runs().map(|(key, run)| (key, run_json(run))));
        workloads_json.push(obj(fields));
    }
    let result = obj(vec![
        ("schema", text("drink-benchmark/1")),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        (
            "provenance",
            obj(vec![
                ("nproc", Value::U64(nproc as u64)),
                ("workers", Value::U64(WORKERS as u64)),
                ("oversubscribed", Value::Bool(WORKERS > nproc)),
                ("commit", text(env("DRINK_BENCH_COMMIT"))),
                ("rustc", text(env("DRINK_BENCH_RUSTC"))),
                ("load1_start", Value::F64(load_start)),
                ("load1_end", Value::F64(load_average())),
            ]),
        ),
        ("workloads", Value::Seq(workloads_json)),
    ]);
    let result_path = args.out_dir.join("result.json");
    let printed = serde_json::to_string_pretty(&result).expect("a Value always prints") + "\n";
    std::fs::write(&result_path, printed)
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", result_path.display())));

    let mut complaints = Vec::new();
    if let Some(path) = &args.manifest {
        let manifest: Value = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| format!("{e:?}")))
            .unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())));
        if args.workload.is_none() {
            let emitted = results.iter().map(|r| r.id.name().to_string()).collect();
            complaints.extend(check_names(
                "workload",
                emitted,
                &declared(&manifest, "workloads"),
            ));
        }
        for r in &results {
            for (key, run) in r.runs() {
                let emitted = run.metrics.iter().map(|m| m.name.clone()).collect();
                complaints.extend(check_names(
                    &format!("{}: {key} metric", r.id.name()),
                    emitted,
                    &declared(&manifest, key),
                ));
            }
        }
    }
    for c in &complaints {
        eprintln!("benchmark: NAME CHECK: {c}");
    }

    let runs: Vec<&Run> = results
        .iter()
        .flat_map(|r| r.runs().map(|(_, run)| run))
        .collect();
    let correct = runs.iter().all(|r| r.correct());
    if let [run] = runs[..] {
        println!("{}", result_line(run));
    }
    if !correct || !complaints.is_empty() {
        std::process::exit(1);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    std::process::exit(2);
}
