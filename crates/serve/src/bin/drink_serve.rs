//! `drink-serve`: CLI for the open-loop KV-store macro-benchmark.
//!
//! Two modes (capacity and latency per engine are measured by
//! `benchmark/run.sh`, not here):
//!
//! * **default (CLI)** — one run with the flags below, printing throughput,
//!   the service/sojourn percentile table and what tracking cost per 1000
//!   requests: pessimistic transitions (`PessUncontended`), the conflicting
//!   ones among them (`PessOwnerChange`), validated reads
//!   (`SeqlockValidated`), RdSh epochs drawn from `gRdShCount` and version
//!   words published by writes' releases (`VersionPublished`);
//! * **`--smoke`** — a short fixed-rate run asserting nonzero throughput
//!   and a clean quiescent store check. It takes no other arguments.
//!
//! Exit 0 clean, 1 check failure, 2 usage (an unknown argument, a flag
//! without its value, or a rejected config).
//!
//! ```bash
//! drink-serve [--engine KIND] [--threads N] [--rate RPS] [--requests N]
//!             [--zipf S] [--read-frac F] [--keys N] [--users N] [--seed N]
//! drink-serve --smoke
//! ```

use std::fmt::Display;
use std::sync::Arc;

use drink_core::EngineKind;
use drink_runtime::{Event, Runtime};
use drink_serve::{run_serve_on, ServeConfig, ServeResult};

fn usage_error(msg: impl Display) -> ! {
    eprintln!("drink-serve: {msg}");
    std::process::exit(2);
}

fn parse_or_usage<T: std::str::FromStr>(v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| usage_error(format_args!("bad {what}: {v}")))
}

fn config_from_args(args: &[String]) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_error(format_args!("{flag} needs a value")));
        match flag.as_str() {
            "--engine" => {
                let name = value();
                cfg.engine = EngineKind::parse(name).unwrap_or_else(|| {
                    usage_error(format_args!(
                        "unknown engine {name:?} (expected {})",
                        EngineKind::CLI_NAMES
                    ))
                });
            }
            "--threads" => cfg.workers = parse_or_usage(value(), flag),
            "--rate" => cfg.offered_rate = parse_or_usage(value(), flag),
            "--requests" => cfg.requests_per_worker = parse_or_usage(value(), flag),
            "--zipf" => cfg.zipf_s = parse_or_usage(value(), flag),
            "--read-frac" => cfg.read_frac = parse_or_usage(value(), flag),
            "--keys" => cfg.keys = parse_or_usage(value(), flag),
            "--users" => cfg.users = parse_or_usage(value(), flag),
            "--seed" => cfg.seed = parse_or_usage(value(), flag),
            "--smoke" => usage_error("--smoke takes no other arguments"),
            _ => usage_error(format_args!("unknown argument {flag:?}")),
        }
    }
    if let Err(e) = cfg.validate() {
        usage_error(e);
    }
    cfg
}

/// One run on a runtime of its own, and the RdSh epochs it drew (the
/// counter starts at 1, the pre-run epoch).
fn serve(cfg: &ServeConfig) -> (ServeResult, u64) {
    let rt = Arc::new(Runtime::new(cfg.runtime_config()));
    let r = run_serve_on(Arc::clone(&rt), cfg);
    (r, rt.current_rdsh_count() - 1)
}

fn print_result(r: &ServeResult, epochs: u64) {
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
    let per_k = |n: u64| n as f64 * 1e3 / r.accounting.completions.max(1) as f64;
    println!(
        "  tracking per 1000 requests: PessUncontended={:.1} PessOwnerChange={:.1} SeqlockValidated={:.1} epochs={:.1} versions={:.1}",
        per_k(r.report.get(Event::PessUncontended)),
        per_k(r.report.get(Event::PessOwnerChange)),
        per_k(r.report.get(Event::SeqlockValidated)),
        per_k(epochs),
        per_k(r.report.get(Event::VersionPublished))
    );
}

fn smoke() {
    // Short but genuinely rate-limited: the smoke leg also proves the
    // open-loop pacing path (idle-wait + safepoint) works end to end.
    let cfg = ServeConfig {
        engine: EngineKind::Hybrid,
        workers: 4,
        offered_rate: 40_000.0,
        requests_per_worker: 100,
        ..ServeConfig::default()
    };
    let (r, epochs) = serve(&cfg);
    print_result(&r, epochs);
    if r.accounting.completions == 0 || r.throughput_rps <= 0.0 {
        eprintln!("drink-serve: smoke produced no throughput");
        std::process::exit(1);
    }
    if let Err(e) = r.check_quiescent() {
        eprintln!("drink-serve: smoke store check failed: {e}");
        std::process::exit(1);
    }
    println!("serve smoke OK ({} completions)", r.accounting.completions);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--smoke"] {
        smoke();
        return;
    }
    let cfg = config_from_args(&args);
    let (r, epochs) = serve(&cfg);
    print_result(&r, epochs);
    if let Err(e) = r.check_quiescent() {
        eprintln!("drink-serve: store check failed: {e}");
        std::process::exit(1);
    }
}
