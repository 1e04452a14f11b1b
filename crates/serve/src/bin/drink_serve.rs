//! `drink-serve`: CLI for the open-loop KV-store macro-benchmark.
//!
//! Two modes (capacity and latency per engine are measured by
//! `benchmark/run.sh`, not here):
//!
//! * **default (CLI)** — one run with the flags below, printing throughput
//!   and the service/sojourn percentile table;
//! * **`--smoke [out.json]`** — a short fixed-rate run asserting nonzero
//!   throughput, a clean quiescent store check, and a report
//!   export/parse round trip. Exit 0 clean, 1 check failure, 2 usage.
//!
//! ```bash
//! drink-serve [--engine KIND] [--threads N] [--rate RPS] [--requests N]
//!             [--zipf S] [--read-frac F] [--keys N] [--users N] [--seed N]
//! drink-serve --smoke [out.json]
//! ```

use drink_bench::report::Report;
use drink_core::EngineKind;
use drink_serve::{run_serve, ServeConfig, ServeResult};

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_or_usage<T: std::str::FromStr>(v: String, what: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("drink-serve: bad {what}: {v}");
        std::process::exit(2);
    })
}

fn config_from_args(args: &[String]) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    if let Some(name) = arg_after(args, "--engine") {
        cfg.engine = EngineKind::parse(&name).unwrap_or_else(|| {
            eprintln!(
                "drink-serve: unknown engine {name:?} (expected {})",
                EngineKind::CLI_NAMES
            );
            std::process::exit(2);
        });
    }
    if let Some(v) = arg_after(args, "--threads") {
        cfg.workers = parse_or_usage(v, "--threads");
    }
    if let Some(v) = arg_after(args, "--rate") {
        cfg.offered_rate = parse_or_usage(v, "--rate");
    }
    if let Some(v) = arg_after(args, "--requests") {
        cfg.requests_per_worker = parse_or_usage(v, "--requests");
    }
    if let Some(v) = arg_after(args, "--zipf") {
        cfg.zipf_s = parse_or_usage(v, "--zipf");
    }
    if let Some(v) = arg_after(args, "--read-frac") {
        cfg.read_frac = parse_or_usage(v, "--read-frac");
    }
    if let Some(v) = arg_after(args, "--keys") {
        cfg.keys = parse_or_usage(v, "--keys");
    }
    if let Some(v) = arg_after(args, "--users") {
        cfg.users = parse_or_usage(v, "--users");
    }
    if let Some(v) = arg_after(args, "--seed") {
        cfg.seed = parse_or_usage(v, "--seed");
    }
    if let Err(e) = cfg.validate() {
        eprintln!("drink-serve: {e}");
        std::process::exit(2);
    }
    cfg
}

fn print_result(r: &ServeResult) {
    println!(
        "{} × {} workers: {} completions in {:.1} ms — {:.0} req/s",
        r.engine,
        r.workers,
        r.accounting.completions,
        r.wall.as_secs_f64() * 1e3,
        r.throughput_rps
    );
    println!(
        "  service  p50={:>9} p90={:>9} p99={:>9} ns",
        r.service_pct(50.0),
        r.service_pct(90.0),
        r.service_pct(99.0)
    );
    println!(
        "  sojourn  p50={:>9} p90={:>9} p99={:>9} ns",
        r.sojourn_pct(50.0),
        r.sojourn_pct(90.0),
        r.sojourn_pct(99.0)
    );
}

fn smoke(out: &str) {
    // Short but genuinely rate-limited: the smoke leg also proves the
    // open-loop pacing path (idle-wait + safepoint) works end to end.
    let cfg = ServeConfig {
        engine: EngineKind::Hybrid,
        workers: 4,
        offered_rate: 40_000.0,
        requests_per_worker: 100,
        ..ServeConfig::default()
    };
    let r = run_serve(&cfg);
    print_result(&r);
    if r.accounting.completions == 0 || r.throughput_rps <= 0.0 {
        eprintln!("drink-serve: smoke produced no throughput");
        std::process::exit(1);
    }
    if let Err(e) = r.check_quiescent() {
        eprintln!("drink-serve: smoke store check failed: {e}");
        std::process::exit(1);
    }
    // Histogram → report → disk → parse round trip.
    let mut report = Report::new("drink-serve/smoke");
    report.push_throughput("serve_smoke_tput".into(), r.accounting.completions, r.throughput_rps, 4);
    report.push_threaded("serve_smoke_sojourn_p99".into(), r.accounting.completions, r.sojourn_pct(99.0) as f64, 4);
    report.write(out).unwrap_or_else(|e| {
        eprintln!("drink-serve: cannot write: {e}");
        std::process::exit(2);
    });
    let back = Report::load(out).unwrap_or_else(|e| {
        eprintln!("drink-serve: smoke report failed to re-load: {e}");
        std::process::exit(1);
    });
    if back != report {
        eprintln!("drink-serve: smoke report round trip diverged");
        std::process::exit(1);
    }
    println!("serve smoke OK ({} completions, report round trip clean)", r.accounting.completions);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        let out = args.get(1).cloned().unwrap_or_else(|| "SERVE_smoke.json".to_string());
        smoke(&out);
        return;
    }
    let cfg = config_from_args(&args);
    let r = run_serve(&cfg);
    print_result(&r);
    if let Err(e) = r.check_quiescent() {
        eprintln!("drink-serve: store check failed: {e}");
        std::process::exit(1);
    }
}
