//! The chaos smoke matrix: the fixed-seed schedule-exploration run CI
//! executes (`scripts/check_gate.sh`).
//!
//! Default matrix: 3 tracking engines × 4 seeds × 4 perturbation-heavy
//! workloads (`chaosMix`, `chaosHandoff`, `chaosRdsh`, the 16-thread
//! `chaosWide`), plus — per seed — the differential oracle on the
//! schedule-independent `chaosDisjoint` spec, the seqlock read oracle on
//! `chaosReadMostly`, the degradation-ladder oracle on `chaosAdapt` (static
//! matrix + adaptive engine agree while the policy performs real demotions),
//! the serve-store oracle on `chaosServe` (every completed PUT visible at
//! quiescence, final key values identical across engines), the
//! record→replay oracle, and the region-serializability oracle. Every cell,
//! an oracle's included, runs through `drink_check::run_cell`. One seed
//! determines both the workload's op streams and the chaos decision
//! streams, so a failure is named by (workload, cell or oracle, seed) alone.
//!
//! On failure the artifact is written under the artifact directory
//! (default `target/chaos/`), shrunk first if a cell failed on its own, and
//! the exit status is nonzero.
//!
//! `--reproduce <artifact.json>` re-runs what a saved artifact names from
//! its seed — the cell, or the oracle: exit status 1 if the failure
//! reproduces (the expected outcome when chasing a real bug — and what the
//! gate's canary asserts), 0 if the run now passes, 2 if the artifact names
//! nothing this harness runs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use drink_check::{
    reproduce, serve_spec, shrink, Check, FailureArtifact, Oracle, Subject, MATRIX_ENGINES,
};
use drink_workloads::{
    chaos_adapt, chaos_disjoint, chaos_handoff, chaos_mix, chaos_rdsh, chaos_read_mostly,
    chaos_wide, WorkloadSpec,
};

const DEFAULT_SEEDS: [u64; 4] = [0x1, 0x2, 0xC0FFEE, 0xDECA_FBAD];
const SHRINK_ATTEMPTS: usize = 24;

struct Args {
    seeds: Vec<u64>,
    artifact_dir: PathBuf,
    reproduce: Option<PathBuf>,
    fail_fast: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: DEFAULT_SEEDS.to_vec(),
        artifact_dir: PathBuf::from("target/chaos"),
        reproduce: None,
        fail_fast: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a comma-separated list")?;
                args.seeds = v
                    .split(',')
                    .map(|s| {
                        let s = s.trim();
                        if let Some(hex) = s.strip_prefix("0x") {
                            u64::from_str_radix(hex, 16)
                        } else {
                            s.parse()
                        }
                        .map_err(|_| format!("bad seed `{s}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--artifact-dir" => {
                args.artifact_dir = PathBuf::from(it.next().ok_or("--artifact-dir needs a path")?);
            }
            "--reproduce" => {
                args.reproduce = Some(PathBuf::from(it.next().ok_or("--reproduce needs a file")?));
            }
            "--fail-fast" => args.fail_fast = true,
            "--help" | "-h" => {
                return Err(
                    "usage: chaos_smoke [--seeds a,b,..] [--artifact-dir DIR] [--fail-fast] [--reproduce FILE]"
                        .into(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Keep deliberate hangs bounded: if no watchdog budget is configured,
/// tighten it so a protocol deadlock fails the run instead of wedging CI.
/// Must run before any thread first waits (the budget is latched once per
/// process).
fn bound_watchdog() {
    if std::env::var_os("DRINK_SPIN_BUDGET_MS").is_none() {
        std::env::set_var("DRINK_SPIN_BUDGET_MS", "10000");
    }
}

fn main() -> ExitCode {
    bound_watchdog();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.reproduce {
        return reproduce_mode(path);
    }

    let mut failures = 0u32;
    for &seed in &args.seeds {
        for (check, spec) in checks(seed) {
            match check.run(&spec, seed) {
                Ok(()) => println!(
                    "PASS {:<13} {:<28} seed={seed:#x}",
                    spec.name,
                    check.label()
                ),
                Err(artifact) => {
                    failures += 1;
                    report_failure(*artifact, &args.artifact_dir);
                    if args.fail_fast {
                        eprintln!("chaos_smoke: stopping at first failure (--fail-fast)");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    if failures > 0 {
        eprintln!("chaos_smoke: {failures} failing check(s)");
        ExitCode::FAILURE
    } else {
        println!("chaos_smoke: matrix clean");
        ExitCode::SUCCESS
    }
}

/// One seed's checks, each with its spec: every matrix engine's cell on the
/// four chaos workloads, then the oracles.
fn checks(seed: u64) -> Vec<(Check, WorkloadSpec)> {
    let mut checks = Vec::new();
    for spec in [
        chaos_mix(seed),
        chaos_handoff(seed),
        chaos_rdsh(seed),
        chaos_wide(seed),
    ] {
        for kind in MATRIX_ENGINES {
            checks.push((Check::Cell(Subject::Engine(kind)), spec.clone()));
        }
    }
    // A bug only a deferring support can meet (the matrix engines release
    // every lock inside its access) is caught by the RS or the replay
    // oracle, whichever runs first under `--fail-fast`; either's artifact
    // carries event timelines (the replay oracle's, the failing
    // recording's).
    let oracles = [
        (Oracle::Differential, chaos_disjoint(seed)),
        (Oracle::SeqlockRead, chaos_read_mostly(seed)),
        (Oracle::Ladder, chaos_adapt(seed)),
        (Oracle::Serve, serve_spec(seed)),
        (Oracle::Rs, chaos_disjoint(seed)),
        (Oracle::Rs, chaos_mix(seed)),
        (Oracle::Replay, chaos_disjoint(seed)),
        (Oracle::Replay, chaos_mix(seed)),
    ];
    checks.extend(oracles.map(|(oracle, spec)| (Check::Oracle(oracle), spec)));
    checks
}

fn report_failure(artifact: FailureArtifact, dir: &Path) {
    eprintln!(
        "FAIL {:<13} {:<28} seed={:#x}: {}",
        artifact.spec.name, artifact.engine, artifact.seed, artifact.failure
    );
    let shrunk = shrink(&artifact, SHRINK_ATTEMPTS);
    eprintln!(
        "     shrunk traces {} -> {} decisions",
        artifact.trace_len(),
        shrunk.trace_len()
    );
    match shrunk.save(dir) {
        Ok(path) => eprintln!("     artifact: {}", path.display()),
        Err(e) => eprintln!("     could not save artifact: {e}"),
    }
}

fn reproduce_mode(path: &Path) -> ExitCode {
    let artifact = match FailureArtifact::load(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "reproducing {} / {} seed={:#x}\n  original failure: {}",
        artifact.spec.name, artifact.engine, artifact.seed, artifact.failure
    );
    match reproduce(&artifact) {
        Ok(Some(failure)) => {
            eprintln!("REPRODUCED: {failure}");
            ExitCode::FAILURE
        }
        Ok(None) => {
            println!("did not reproduce (run passed)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot reproduce: {e}");
            ExitCode::from(2)
        }
    }
}
