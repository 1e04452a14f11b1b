//! The chaos smoke matrix: the fixed-seed schedule-exploration run CI
//! executes (`scripts/check_gate.sh`).
//!
//! Default matrix: 3 tracking engines × 4 seeds × 4 perturbation-heavy
//! workloads (`chaosMix`, `chaosHandoff`, `chaosRdsh`, the 16-thread
//! `chaosWide`), plus — per seed — the differential oracle on the
//! schedule-independent `chaosDisjoint` spec, the seqlock read oracle on
//! `chaosReadMostly`, the degradation-ladder oracle on `chaosAdapt` (static
//! matrix + adaptive engine agree while the policy performs real demotions),
//! both of which run those specs' matrix cells themselves, the serve-store
//! oracle on `chaosServe` (every completed PUT visible at quiescence, final
//! key values identical across engines), the record→replay oracle, and the
//! region-serializability oracle. One seed determines both the workload's op streams and the chaos
//! decision streams, so a failing cell is named by (workload, engine, seed)
//! alone.
//!
//! On failure the cell's artifact is shrunk and written under the artifact
//! directory (default `target/chaos/`), and the exit status is nonzero.
//!
//! `--reproduce <artifact.json>` re-runs a saved artifact from its seed:
//! exit status 1 if the failure reproduces (the expected outcome when
//! chasing a real bug — and what the gate's canary asserts), 0 if the run
//! now passes.

use std::path::PathBuf;
use std::process::ExitCode;

use drink_check::{
    adapt_check, differential_check, read_mostly_check, replay_check, rs_check, run_cell,
    serve_check, shrink, FailureArtifact, MATRIX_ENGINES,
};
use drink_workloads::{
    chaos_adapt, chaos_disjoint, chaos_handoff, chaos_mix, chaos_rdsh, chaos_read_mostly,
    chaos_wide,
};

const DEFAULT_SEEDS: [u64; 4] = [0x1, 0x2, 0xC0FFEE, 0xDECAF_BAD];
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
    for seed in &args.seeds {
        let seed = *seed;
        for spec in [
            chaos_mix(seed),
            chaos_handoff(seed),
            chaos_rdsh(seed),
            chaos_wide(seed),
        ] {
            for kind in MATRIX_ENGINES {
                match run_cell(kind, &spec, seed) {
                    Ok(cell) => {
                        println!(
                            "PASS {:<13} {:<28} seed={seed:#x} ({} accesses, {} decisions)",
                            spec.name,
                            kind.label(),
                            cell.run.report.accesses(),
                            cell.traces.iter().map(Vec::len).sum::<usize>(),
                        );
                    }
                    Err(artifact) => {
                        failures += 1;
                        report_failure(artifact, &args.artifact_dir);
                        if args.fail_fast {
                            eprintln!("chaos_smoke: stopping at first failure (--fail-fast)");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
        failures += run_oracles(seed, &args.artifact_dir);
        if failures > 0 && args.fail_fast {
            eprintln!("chaos_smoke: stopping at first failure (--fail-fast)");
            return ExitCode::FAILURE;
        }
    }

    if failures > 0 {
        eprintln!("chaos_smoke: {failures} failing cell(s)");
        ExitCode::FAILURE
    } else {
        println!("chaos_smoke: matrix clean");
        ExitCode::SUCCESS
    }
}

/// The per-seed oracle suite (differential / replay / RS). Returns the
/// number of failures.
fn run_oracles(seed: u64, artifact_dir: &std::path::Path) -> u32 {
    let mut failures = 0;
    let disjoint = chaos_disjoint(seed);
    match differential_check(&disjoint, seed) {
        Ok(()) => println!("PASS {:<13} differential oracle          seed={seed:#x}", disjoint.name),
        Err(artifact) => {
            failures += 1;
            report_failure(artifact, artifact_dir);
        }
    }
    let read_mostly = chaos_read_mostly(seed);
    match read_mostly_check(&read_mostly, seed) {
        Ok(()) => println!("PASS {:<13} seqlock read oracle          seed={seed:#x}", read_mostly.name),
        Err(artifact) => {
            failures += 1;
            report_failure(artifact, artifact_dir);
        }
    }
    let adapt = chaos_adapt(seed);
    match adapt_check(&adapt, seed) {
        Ok(()) => println!("PASS {:<13} degradation-ladder oracle    seed={seed:#x}", adapt.name),
        Err(artifact) => {
            failures += 1;
            report_failure(artifact, artifact_dir);
        }
    }
    match serve_check(seed) {
        Ok(()) => println!("PASS {:<13} serve-store oracle           seed={seed:#x}", "chaosServe"),
        Err(artifact) => {
            failures += 1;
            report_failure(artifact, artifact_dir);
        }
    }
    for (what, result) in [
        ("replay oracle", replay_check(&disjoint)),
        ("replay oracle", replay_check(&chaos_mix(seed))),
        ("RS oracle", rs_check(&disjoint, seed)),
        ("RS oracle", rs_check(&chaos_mix(seed), seed)),
    ] {
        match result {
            Ok(()) => println!("PASS {what:<28} seed={seed:#x}"),
            Err(e) => {
                failures += 1;
                eprintln!("FAIL {what} seed={seed:#x}: {e}");
            }
        }
    }
    failures
}

fn report_failure(artifact: FailureArtifact, dir: &std::path::Path) {
    eprintln!(
        "FAIL {:<13} {:<28} seed={:#x}: {}",
        artifact.spec.name, artifact.engine, artifact.seed, artifact.failure
    );
    let before = artifact.trace_len();
    let shrunk = shrink(&artifact, SHRINK_ATTEMPTS);
    eprintln!(
        "     shrunk traces {before} -> {} decisions",
        shrunk.trace_len()
    );
    match shrunk.save(dir) {
        Ok(path) => eprintln!("     artifact: {}", path.display()),
        Err(e) => eprintln!("     could not save artifact: {e}"),
    }
}

fn reproduce_mode(path: &std::path::Path) -> ExitCode {
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
    match drink_check::reproduce(&artifact) {
        Err(failure) => {
            eprintln!("REPRODUCED: {failure}");
            ExitCode::FAILURE
        }
        Ok(_) => {
            println!("did not reproduce (run passed)");
            ExitCode::SUCCESS
        }
    }
}
