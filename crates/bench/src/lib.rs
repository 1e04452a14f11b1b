//! # drink-bench: the evaluation harness
//!
//! One binary per table/figure of the paper's §7 (see `DESIGN.md`'s
//! experiment index, E1–E9), plus `fastpath_probes` for
//! `scripts/fastpath_asm.sh`. This library holds their shared measurement
//! and table-printing plumbing. Timed comparisons across commits are the
//! job of `benchmark/` (BENCHMARK.json), not of these binaries.
//!
//! ## Two overhead metrics
//!
//! The paper reports run-time overhead over an unmodified JVM on a 32-core
//! Xeon. Our substrate is a Rust runtime on whatever machine runs the bench
//! (CI boxes are often single-core), so the harness reports **two** numbers
//! per configuration:
//!
//! * **wall-clock overhead**: measured against the `NoTracking` engine
//!   running the identical workload;
//! * **model overhead**: measured transition counts priced by the paper's
//!   §2.2 cycle costs ([`drink_runtime::CostModel`]), relative to an assumed
//!   useful-work budget per access. This is platform-independent and carries
//!   the figures' *shape* (who wins, by what factor, where the crossovers
//!   are).

use std::time::Duration;

use drink_runtime::{CostModel, StatsReport};
use drink_workloads::{run_kind, EngineKind, RunResult, WorkloadSpec};

/// Default useful-work budget per access (cycles) for the model overhead.
/// With the paper's costs, always-optimistic same-state tracking then costs
/// 47/200 ≈ 24% — near the paper's 28% average for optimistic tracking.
pub const DEFAULT_WORK_PER_ACCESS: f64 = 200.0;

/// Command-line scale factor: `--scale 0.1` shrinks every workload. The
/// first positional float after `--scale` is used; defaults to 1.0.
pub fn scale_from_args() -> f64 {
    arg_after("--scale").unwrap_or(1.0)
}

/// `--trials N` (default `default`): how many runs per configuration. The
/// paper uses the median of 20 trials; the harness default trades precision
/// for turnaround.
pub fn trials_from_args(default: usize) -> usize {
    arg_after("--trials").map(|v: f64| v as usize).unwrap_or(default).max(1)
}

fn arg_after<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Scale a spec's step count.
pub fn scaled_spec(spec: &WorkloadSpec, scale: f64) -> WorkloadSpec {
    let mut s = spec.clone();
    s.steps_per_thread = ((s.steps_per_thread as f64 * scale) as usize).max(100);
    s
}

/// Median-of-`n` wall times plus the stats of the last run.
pub fn run_trials(kind: EngineKind, spec: &WorkloadSpec, trials: usize) -> (Duration, RunResult) {
    let (median, _spread, last) = run_trials_spread(kind, spec, trials);
    (median, last)
}

/// Median wall time, half-width of the central 95% spread (the paper reports
/// medians with 95% confidence intervals around the mean; with small trial
/// counts we report min–max spread), and the last run's full result.
pub fn run_trials_spread(
    kind: EngineKind,
    spec: &WorkloadSpec,
    trials: usize,
) -> (Duration, Duration, RunResult) {
    trials_spread(trials, || run_kind(kind, spec))
}

/// [`run_trials_spread`] over any way of producing a run (an engine
/// configuration no [`EngineKind`] names).
pub fn trials_spread(
    trials: usize,
    mut run: impl FnMut() -> RunResult,
) -> (Duration, Duration, RunResult) {
    assert!(trials >= 1);
    let mut walls = Vec::with_capacity(trials);
    let mut last = None;
    for _ in 0..trials {
        let r = run();
        walls.push(r.wall);
        last = Some(r);
    }
    walls.sort();
    let median = walls[walls.len() / 2];
    let spread = (*walls.last().unwrap() - walls[0]) / 2;
    (median, spread, last.unwrap())
}

/// Percentage overhead of `wall` over `base`.
pub fn overhead_pct(wall: Duration, base: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (wall.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

/// Model overhead (percent) from a stats report.
pub fn model_overhead_pct(report: &StatsReport, work_per_access: f64) -> f64 {
    CostModel::paper().model_overhead(report, work_per_access) * 100.0
}

/// Geometric mean of `(100 + overhead)` values, expressed back as overhead —
/// the paper's "geomean overhead" convention. Accepts negative overheads.
pub fn geomean_overhead(overheads_pct: &[f64]) -> f64 {
    if overheads_pct.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = overheads_pct
        .iter()
        .map(|&o| ((100.0 + o).max(1.0) / 100.0).ln())
        .sum();
    ((log_sum / overheads_pct.len() as f64).exp() - 1.0) * 100.0
}

/// Format a count in the paper's Table 2 style: `1.2×10¹⁰` → `1.2e10`.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    if x.abs() < 1000.0 {
        if x.fract() == 0.0 {
            return format!("{}", x as i64);
        }
        return format!("{x:.1}");
    }
    let exp = x.abs().log10().floor() as i32;
    let mant = x / 10f64.powi(exp);
    format!("{mant:.1}e{exp}")
}

/// Print a row of right-aligned cells under a fixed layout.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Standard header printed by every harness binary.
pub fn banner(experiment: &str, paper_artifact: &str) {
    println!("================================================================");
    println!("{experiment} — regenerates {paper_artifact}");
    println!(
        "host: {} core(s); scale: {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        scale_from_args()
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats_like_the_paper() {
        assert_eq!(sci(1.2e10), "1.2e10");
        assert_eq!(sci(130_000.0), "1.3e5");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(42.0), "42");
        assert_eq!(sci(0.5), "0.5");
    }

    #[test]
    fn geomean_matches_hand_computation() {
        // overheads 10% and 44%: geomean factor = sqrt(1.1 * 1.44) ≈ 1.2586.
        let g = geomean_overhead(&[10.0, 44.0]);
        assert!((g - 25.86).abs() < 0.1, "{g}");
        assert_eq!(geomean_overhead(&[]), 0.0);
    }

    #[test]
    fn overhead_pct_basics() {
        assert!(
            (overhead_pct(Duration::from_millis(150), Duration::from_millis(100)) - 50.0).abs()
                < 1e-9
        );
        assert_eq!(overhead_pct(Duration::from_millis(5), Duration::ZERO), 0.0);
    }

    #[test]
    fn scaled_spec_clamps_to_minimum() {
        let s = WorkloadSpec::default();
        assert_eq!(scaled_spec(&s, 0.000001).steps_per_thread, 100);
    }
}
