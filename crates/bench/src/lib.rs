//! # drink-bench: the evaluation runner
//!
//! One binary, `drink-bench <experiment>`, regenerates every table and
//! figure of the paper's §7 (DESIGN.md's experiment index, E1–E10); a second,
//! `fastpath_probes`, holds the functions `scripts/fastpath_asm.sh`
//! disassembles. Timed comparisons across commits are the job of
//! `benchmark/` (BENCHMARK.json), not of this runner.
//!
//! An experiment is one row of [`EXPERIMENTS`]: a function from the run's
//! [`Ctx`] to a [`Table`]. Most are a spec list × a [`Config`] list × a
//! closure turning each spec's [`Samples`] into cells. [`measure`] is the one
//! trial loop and [`Table::render`] the one printer.
//!
//! ## Two overhead metrics
//!
//! The paper's overheads are over an unmodified JVM on a 32-core Xeon; ours
//! are over the `NoTracking` engine on whatever machine runs the bench. So
//! the tables report **wall-clock** overhead and a **model** overhead: the
//! measured transition counts priced at the paper's §2.2 cycle costs
//! ([`drink_runtime::CostModel`]) against a useful-work budget per access —
//! platform-independent, and carrying the figures' *shape* (who wins, by
//! what factor, where the crossovers are).

use std::time::Duration;

use drink_core::prelude::{HybridConfig, HybridEngine, IdealModel, Support};
use drink_runtime::CostModel;
use drink_workloads::{run_kind, run_workload, runtime_for, EngineKind, RunResult, WorkloadSpec};

mod cost;
mod experiments;

pub use experiments::EXPERIMENTS;

/// Default useful-work budget per access (cycles) for the model overhead.
/// With the paper's costs, always-optimistic same-state tracking then costs
/// 47/200 ≈ 24% — near the paper's 28% average for optimistic tracking.
pub const DEFAULT_WORK_PER_ACCESS: f64 = 200.0;

/// The runner's two shared flags.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// `--scale F`: multiplies every workload's length (1.0 is full size).
    pub scale: f64,
    /// `--trials N`: runs per configuration, in place of each experiment's
    /// own default. The paper uses the median of 20.
    pub trials: Option<usize>,
}

impl Ctx {
    fn trials(&self, default: usize) -> usize {
        self.trials.unwrap_or(default).max(1)
    }
}

/// One experiment of DESIGN.md §4's index.
pub struct Experiment {
    /// `E1` … `E10`.
    pub id: &'static str,
    /// Its name on the command line and the stem of its result file.
    pub name: &'static str,
    /// The paper artifact it regenerates.
    pub artifact: &'static str,
    pub run: fn(&Ctx) -> Table,
}

/// The experiment an id (any case) or a name selects.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id.eq_ignore_ascii_case(name) || e.name == name)
}

/// One measured configuration: a label, the runtime support it runs, and
/// how it runs a spec.
pub struct Config<'a> {
    pub label: String,
    /// The [`Support`] type the engine runs (`none` for the untracked
    /// baseline), or the driver that takes its place.
    pub support: &'static str,
    pub run: Box<dyn Fn(&WorkloadSpec) -> RunResult + 'a>,
}

impl Config<'_> {
    /// An [`EngineKind`] under its legend label.
    pub fn kind(kind: EngineKind) -> Config<'static> {
        Config {
            label: kind.label().into(),
            support: if kind == EngineKind::Baseline { "none" } else { "NullSupport" },
            run: Box::new(move |spec| run_kind(kind, spec)),
        }
    }

    /// The hybrid engine under `cfg`, on `support`.
    pub fn hybrid<S: Support + Copy>(label: impl Into<String>, support: S, cfg: HybridConfig) -> Config<'static> {
        Config {
            label: label.into(),
            support: std::any::type_name::<S>().rsplit("::").next().unwrap_or("?"),
            run: Box::new(move |spec| {
                run_workload(&HybridEngine::with_config(runtime_for(spec), support, cfg), spec)
            }),
        }
    }
}

/// Figure 7's configurations in its legend order, the baseline excluded:
/// three kinds, and the unsound "Ideal" estimate (§7.5), which no kind names —
/// the optimistic configuration on [`IdealModel`], whose conflicts coordinate
/// with no one.
pub fn figure7() -> [Config<'static>; 4] {
    [
        Config::kind(EngineKind::Pessimistic),
        Config::kind(EngineKind::Optimistic),
        Config::kind(EngineKind::Hybrid),
        Config::hybrid("Ideal", IdealModel, HybridConfig::optimistic()),
    ]
}

/// One configuration's runs of one spec: every wall time, and the last run.
pub struct Samples {
    pub walls: Vec<Duration>,
    pub last: RunResult,
}

impl Samples {
    pub fn median(&self) -> Duration {
        let mut walls = self.walls.clone();
        walls.sort();
        walls[walls.len() / 2]
    }

    pub fn min(&self) -> Duration {
        *self.walls.iter().min().expect("a sample has at least one run")
    }

    /// Median wall-clock overhead over `base`'s median, in percent.
    pub fn wall_pct(&self, base: &Samples) -> f64 {
        overhead_pct(self.median(), base.median())
    }

    /// Model overhead of the last run, in percent.
    pub fn model_pct(&self) -> f64 {
        CostModel::paper().model_overhead(&self.last.report, DEFAULT_WORK_PER_ACCESS) * 100.0
    }
}

/// The trial loop: `trials` rounds, each running every config on `spec` in
/// order, so that a noisy stretch of the host hits every config alike rather
/// than one config's whole sample. Returns the samples in `configs` order.
pub fn measure(spec: &WorkloadSpec, configs: &[Config], trials: usize) -> Vec<Samples> {
    let first = configs.iter().map(|c| (c.run)(spec));
    let mut samples: Vec<Samples> = first.map(|r| Samples { walls: vec![r.wall], last: r }).collect();
    for _ in 1..trials {
        for (s, c) in samples.iter_mut().zip(configs) {
            s.last = (c.run)(spec);
            s.walls.push(s.last.wall);
        }
    }
    samples
}

/// A line of a [`Table`].
pub enum Line {
    /// One program's or one configuration's cells, label first.
    Row(Vec<String>),
    /// The paper's values for the row above, printed under `[paper]`.
    Paper(Vec<String>),
    /// A line across rows (geomean, the paper's averages), label first.
    Total(Vec<String>),
    /// A section heading or a blank line.
    Text(String),
}

impl Line {
    /// The cells as printed, `[paper]` label included; none for text.
    fn cells(&self) -> Option<Vec<String>> {
        match self {
            Line::Row(c) | Line::Total(c) => Some(c.clone()),
            Line::Paper(c) => Some([vec!["  [paper]".to_string()], c.clone()].concat()),
            Line::Text(_) => None,
        }
    }
}

/// What an experiment prints.
#[derive(Default)]
pub struct Table {
    /// Lines above the header: what the cells mean.
    pub caption: Vec<String>,
    pub header: Vec<String>,
    pub lines: Vec<Line>,
    /// The shape the paper predicts, under the table.
    pub notes: &'static str,
    /// Computed checks: what held or did not.
    pub checks: Vec<(String, bool)>,
    /// The support each configuration ran on: support, then labels.
    pub runs_on: Vec<(&'static str, Vec<String>)>,
}

impl Table {
    /// An empty table under `header`, naming the support of each of `configs`.
    pub fn new(header: &[&str], configs: &[Config]) -> Table {
        let mut t = Table { header: header.iter().map(|h| h.to_string()).collect(), ..Table::default() };
        t.runs(configs);
        t
    }

    /// Records which support each of `configs` runs.
    pub fn runs(&mut self, configs: &[Config]) {
        for c in configs {
            match self.runs_on.iter_mut().find(|(s, _)| *s == c.support) {
                Some((_, labels)) if labels.contains(&c.label) => {}
                Some((_, labels)) => labels.push(c.label.clone()),
                None => self.runs_on.push((c.support, vec![c.label.clone()])),
            }
        }
    }

    /// Whether every computed check held.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The table as text: caption, supports, header and lines with each
    /// column right-aligned to its widest cell, then notes and checks.
    pub fn render(&self) -> String {
        let mut widths = vec![0; self.header.len()];
        for row in self.lines.iter().filter_map(Line::cells).chain([self.header.clone()]) {
            for (w, c) in widths.iter_mut().zip(&row) {
                *w = (*w).max(c.chars().count());
            }
        }
        let fmt = |row: &[String]| {
            let padded: Vec<String> = row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            padded.join("   ") + "\n"
        };
        let mut out: String = self.caption.iter().map(|c| format!("{c}\n")).collect();
        for (support, labels) in &self.runs_on {
            out += &format!("(support {support}: {})\n", labels.join(", "));
        }
        out += &fmt(&self.header);
        for line in &self.lines {
            match line {
                Line::Text(text) => out += &format!("{text}\n"),
                _ => out += &fmt(&line.cells().unwrap_or_default()),
            }
        }
        if !self.notes.is_empty() {
            out += &format!("\n{}\n", self.notes);
        }
        for (what, ok) in &self.checks {
            out += &format!("check: {what}: {}\n", if *ok { "ok" } else { "VIOLATED" });
        }
        out
    }
}

/// The header every experiment prints above its table.
pub fn banner(e: &Experiment, ctx: &Ctx) -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (os, arch, rule) = (std::env::consts::OS, std::env::consts::ARCH, "=".repeat(64));
    let host = format!("host: {cores} core(s), {os} {arch}; scale: {}", ctx.scale);
    format!("{rule}\n{} {} — regenerates {}\n{host}\n{rule}\n", e.id, e.name, e.artifact)
}

/// Percentage overhead of `wall` over `base`.
pub fn overhead_pct(wall: Duration, base: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (wall.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
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
}
