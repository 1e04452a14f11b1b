//! The 13 benchmark profiles of the paper's evaluation (§7.2), with the
//! paper's measured characteristics (Table 2 and §7.5/§7.6 text) attached
//! for side-by-side reporting.
//!
//! The knob values below were calibrated so that each workload's *measured*
//! explicit-conflict rate under optimistic tracking lands within roughly an
//! order of magnitude of the paper's (`paper.conflict_rate()`), and so the
//! qualitative clustering — {jython, luindex, lusearch, sunflow} ≈ zero
//! conflict, {eclipse, pmd, pjbb2000} low, {hsqldb} implicit-heavy,
//! {xalan6, xalan9} explicit-heavy, {avrora, pjbb2005} racy — is preserved.
//! `drink-bench E2` prints target vs. measured next to Figure 6.

use serde::{Deserialize, Serialize};

use crate::spec::WorkloadSpec;

/// The paper's published per-program numbers (Table 2; Figure 7/9 values
/// where the text states them explicitly).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PaperRef {
    /// Total accesses under optimistic tracking (Table 2, parenthesized
    /// same-state + conflicting, dominated by same-state).
    pub total_accesses: f64,
    /// Conflicting transitions under optimistic tracking alone.
    pub opt_conflicting: f64,
    /// Conflicting transitions remaining under hybrid tracking.
    pub hybrid_conflicting: f64,
    /// Pessimistic uncontended transitions under hybrid tracking.
    pub pess_uncontended: f64,
    /// Share of uncontended pessimistic transitions that were reentrant (%).
    pub reentrant_pct: f64,
    /// Pessimistic contended transitions under hybrid tracking.
    pub pess_contended: f64,
    /// Objects moved optimistic → pessimistic.
    pub opt_to_pess: f64,
    /// Objects moved pessimistic → optimistic.
    pub pess_to_opt: f64,
    /// Figure 7 run-time overhead (%) under optimistic tracking, where the
    /// paper's text states it.
    pub overhead_opt_pct: Option<f64>,
    /// Figure 7 run-time overhead (%) under hybrid tracking, where stated.
    pub overhead_hybrid_pct: Option<f64>,
}

impl PaperRef {
    /// The paper program's conflict rate (conflicting / total accesses).
    pub fn conflict_rate(&self) -> f64 {
        self.opt_conflicting / self.total_accesses
    }
}

/// A named workload plus its paper reference.
#[derive(Clone, Debug)]
pub struct Profile {
    /// The runnable spec.
    pub spec: WorkloadSpec,
    /// The paper's published numbers for the modeled program.
    pub paper: PaperRef,
}

fn base(name: &str, steps: usize) -> WorkloadSpec {
    WorkloadSpec {
        name: name.into(),
        threads: 8,
        steps_per_thread: steps,
        shared_objects: 512,
        hot_objects: 32,
        local_objects: 512,
        monitors: 16,
        locked_frac: 0.0,
        lock_affinity: 0.0,
        racy_frac: 0.0,
        shared_read_frac: 0.0,
        write_frac: 0.4,
        cs_len: 3,
        cs_work: 0,
        local_work: 10,
        safepoint_every: 4,
        seed: 0xD1CE,
        yield_every: 0,
        monitor_spin: None,
        coord_deadline_ms: None,
        phase_every: 0,
    }
}

/// All thirteen evaluation profiles, in Table 2 order.
pub fn all() -> Vec<Profile> {
    vec![
        // eclipse6: huge, lock-heavy IDE workload with strong thread
        // affinity; conflicts are rare relative to its 1.2×10¹⁰ accesses.
        Profile {
            spec: WorkloadSpec {
                locked_frac: 0.008,
                lock_affinity: 0.999,
                shared_read_frac: 0.03,
                ..base("eclipse6", 250_000)
            },
            paper: PaperRef {
                total_accesses: 1.2e10,
                opt_conflicting: 1.3e5,
                hybrid_conflicting: 1.3e5,
                pess_uncontended: 1.5e6,
                reentrant_pct: 32.0,
                pess_contended: 1.3e2,
                opt_to_pess: 1.2e2,
                pess_to_opt: 1.1e2,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // hsqldb6: database with coarse locking; most conflicts resolve
        // implicitly against threads parked on the hot lock, which is why
        // hybrid tracking barely helps it (§7.5).
        Profile {
            spec: WorkloadSpec {
                monitors: 2,
                hot_objects: 16,
                locked_frac: 0.0015,
                lock_affinity: 0.0,
                cs_len: 6,
                cs_work: 3_000,
                shared_read_frac: 0.02,
                monitor_spin: Some(4),
                ..base("hsqldb6", 60_000)
            },
            paper: PaperRef {
                total_accesses: 6.1e8,
                opt_conflicting: 9.2e5,
                hybrid_conflicting: 5.2e5,
                pess_uncontended: 4.7e6,
                reentrant_pct: 64.0,
                pess_contended: 9.0e2,
                opt_to_pess: 5.1e1,
                pess_to_opt: 0.5,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // lusearch6: embarrassingly parallel search; almost no sharing.
        Profile {
            spec: WorkloadSpec {
                locked_frac: 0.0005,
                lock_affinity: 0.995,
                shared_read_frac: 0.01,
                ..base("lusearch6", 160_000)
            },
            paper: PaperRef {
                total_accesses: 2.4e9,
                opt_conflicting: 4.4e3,
                hybrid_conflicting: 4.3e3,
                pess_uncontended: 2.6e2,
                reentrant_pct: 30.0,
                pess_contended: 0.0,
                opt_to_pess: 1.0,
                pess_to_opt: 0.0,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // xalan6: XSLT with a shared object pool handed between threads
        // under low-affinity locks: the flagship high-conflict,
        // explicit-coordination program (65% → 24% overhead, §7.5).
        Profile {
            spec: WorkloadSpec {
                monitors: 4,
                hot_objects: 64,
                locked_frac: 0.004,
                lock_affinity: 0.85,
                shared_read_frac: 0.05,
                local_work: 14,
                ..base("xalan6", 200_000)
            },
            paper: PaperRef {
                total_accesses: 1.1e10,
                opt_conflicting: 1.8e7,
                hybrid_conflicting: 3.9e5,
                pess_uncontended: 2.1e8,
                reentrant_pct: 52.0,
                pess_contended: 1.5e1,
                opt_to_pess: 5.4e2,
                pess_to_opt: 1.0e2,
                overhead_opt_pct: Some(65.0),
                overhead_hybrid_pct: Some(24.0),
            },
        },
        // avrora9: sensor-network simulator with true and object-level-only
        // data races — the contended-transition outlier of Table 2.
        Profile {
            spec: WorkloadSpec {
                hot_objects: 24,
                locked_frac: 0.001,
                lock_affinity: 0.5,
                racy_frac: 0.0008,
                shared_read_frac: 0.03,
                ..base("avrora9", 150_000)
            },
            paper: PaperRef {
                total_accesses: 6.0e9,
                opt_conflicting: 6.0e6,
                hybrid_conflicting: 2.7e6,
                pess_uncontended: 8.4e6,
                reentrant_pct: 17.0,
                pess_contended: 8.0e5,
                opt_to_pess: 1.0e5,
                pess_to_opt: 1.2e2,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // jython9: single-threaded-ish interpreter; effectively no sharing.
        Profile {
            spec: WorkloadSpec {
                locked_frac: 0.0,
                shared_read_frac: 0.002,
                write_frac: 0.5,
                ..base("jython9", 200_000)
            },
            paper: PaperRef {
                total_accesses: 5.1e9,
                opt_conflicting: 6.7e1,
                hybrid_conflicting: 7.3e1,
                pess_uncontended: 0.0,
                reentrant_pct: 0.0,
                pess_contended: 0.0,
                opt_to_pess: 0.0,
                pess_to_opt: 0.0,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // luindex9: indexing, almost entirely thread-local.
        Profile {
            spec: WorkloadSpec {
                locked_frac: 0.0,
                shared_read_frac: 0.004,
                ..base("luindex9", 80_000)
            },
            paper: PaperRef {
                total_accesses: 3.4e8,
                opt_conflicting: 3.7e2,
                hybrid_conflicting: 3.8e2,
                pess_uncontended: 0.0,
                reentrant_pct: 0.0,
                pess_contended: 0.0,
                opt_to_pess: 0.0,
                pess_to_opt: 0.0,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // lusearch9: like lusearch6 with a trace of cross-thread handoff.
        Profile {
            spec: WorkloadSpec {
                locked_frac: 0.0006,
                lock_affinity: 0.99,
                shared_read_frac: 0.01,
                ..base("lusearch9", 160_000)
            },
            paper: PaperRef {
                total_accesses: 2.3e9,
                opt_conflicting: 2.8e3,
                hybrid_conflicting: 2.3e3,
                pess_uncontended: 3.9e3,
                reentrant_pct: 44.0,
                pess_contended: 7.6e1,
                opt_to_pess: 1.1e1,
                pess_to_opt: 2.0,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // pmd9: source-code analyzer; moderate, lock-mediated sharing.
        Profile {
            spec: WorkloadSpec {
                locked_frac: 0.002,
                lock_affinity: 0.99,
                shared_read_frac: 0.08,
                ..base("pmd9", 100_000)
            },
            paper: PaperRef {
                total_accesses: 5.6e8,
                opt_conflicting: 4.2e4,
                hybrid_conflicting: 1.7e4,
                pess_uncontended: 1.9e5,
                reentrant_pct: 58.0,
                pess_contended: 2.1e3,
                opt_to_pess: 3.0e2,
                pess_to_opt: 5.4e1,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // sunflow9: ray tracer reading a shared scene graph — read-mostly
        // sharing, 92% of its (few) pessimistic transitions reentrant.
        Profile {
            spec: WorkloadSpec {
                locked_frac: 0.0002,
                lock_affinity: 0.995,
                shared_read_frac: 0.25,
                write_frac: 0.25,
                ..base("sunflow9", 250_000)
            },
            paper: PaperRef {
                total_accesses: 1.7e10,
                opt_conflicting: 6.1e3,
                hybrid_conflicting: 6.2e3,
                pess_uncontended: 5.9e3,
                reentrant_pct: 92.0,
                pess_contended: 3.0e1,
                opt_to_pess: 8.4,
                pess_to_opt: 3.6,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // xalan9: the 2009 xalan — same pooled-handoff shape as xalan6
        // (19% → 5% overhead, §7.5).
        Profile {
            spec: WorkloadSpec {
                monitors: 4,
                hot_objects: 64,
                locked_frac: 0.0035,
                lock_affinity: 0.83,
                shared_read_frac: 0.05,
                local_work: 14,
                ..base("xalan9", 200_000)
            },
            paper: PaperRef {
                total_accesses: 1.0e10,
                opt_conflicting: 1.7e7,
                hybrid_conflicting: 2.9e5,
                pess_uncontended: 1.9e8,
                reentrant_pct: 68.0,
                pess_contended: 3.0e1,
                opt_to_pess: 9.0e2,
                pess_to_opt: 1.4e2,
                overhead_opt_pct: Some(19.0),
                overhead_hybrid_pct: Some(5.0),
            },
        },
        // pjbb2000: transaction mix over shared warehouses under locks.
        Profile {
            spec: WorkloadSpec {
                locked_frac: 0.003,
                lock_affinity: 0.93,
                shared_read_frac: 0.05,
                ..base("pjbb2000", 100_000)
            },
            paper: PaperRef {
                total_accesses: 1.7e9,
                opt_conflicting: 9.5e5,
                hybrid_conflicting: 9.3e5,
                pess_uncontended: 2.4e6,
                reentrant_pct: 58.0,
                pess_contended: 1.3e2,
                opt_to_pess: 2.4e3,
                pess_to_opt: 1.1e3,
                overhead_opt_pct: None,
                overhead_hybrid_pct: None,
            },
        },
        // pjbb2005: the highest-conflict program, with true data races
        // causing contended transitions (110% → 49% overhead, §7.5).
        Profile {
            spec: WorkloadSpec {
                monitors: 8,
                hot_objects: 16,
                locked_frac: 0.005,
                lock_affinity: 0.70,
                racy_frac: 0.002,
                shared_read_frac: 0.03,
                local_work: 12,
                ..base("pjbb2005", 150_000)
            },
            paper: PaperRef {
                total_accesses: 6.6e9,
                opt_conflicting: 4.4e7,
                hybrid_conflicting: 8.4e5,
                pess_uncontended: 1.4e8,
                reentrant_pct: 32.0,
                pess_contended: 7.6e5,
                opt_to_pess: 3.2e3,
                pess_to_opt: 3.1e3,
                overhead_opt_pct: Some(110.0),
                overhead_hybrid_pct: Some(49.0),
            },
        },
    ]
}

/// Look a profile up by name.
pub fn by_name(name: &str) -> Option<Profile> {
    all().into_iter().find(|p| p.spec.name == name)
}

/// Scale every profile's step count by `factor` (quick smoke runs vs. full
/// measurement runs), to no fewer than 100 steps per thread.
pub fn scaled(factor: f64) -> Vec<Profile> {
    let mut v = all();
    for p in &mut v {
        p.spec.steps_per_thread = ((p.spec.steps_per_thread as f64 * factor) as usize).max(100);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_profile_spec_validates() {
        // The profile table is calibration data over `base()`, not over
        // `WorkloadSpec::default()`: every profile must pass `validate()`,
        // the check each run applies.
        for p in all() {
            p.spec
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", p.spec.name));
        }
    }

    #[test]
    fn thirteen_profiles_in_table_2_order() {
        let names: Vec<String> = all().into_iter().map(|p| p.spec.name).collect();
        assert_eq!(
            names,
            vec![
                "eclipse6",
                "hsqldb6",
                "lusearch6",
                "xalan6",
                "avrora9",
                "jython9",
                "luindex9",
                "lusearch9",
                "pmd9",
                "sunflow9",
                "xalan9",
                "pjbb2000",
                "pjbb2005"
            ]
        );
    }

    #[test]
    fn paper_refs_are_self_consistent() {
        for p in all() {
            let r = p.paper;
            assert!(r.total_accesses > 0.0);
            assert!(r.opt_conflicting >= 0.0);
            assert!(
                r.conflict_rate() < 0.01,
                "{}: no paper program conflicts on >1% of accesses",
                p.spec.name
            );
        }
    }

    #[test]
    fn high_conflict_programs_have_high_knobs() {
        // The calibration must at least order the extremes correctly.
        let rate = |name: &str| {
            let p = by_name(name).unwrap();
            p.spec.locked_frac * (1.0 - p.spec.lock_affinity) + p.spec.racy_frac
        };
        assert!(rate("xalan6") > 10.0 * rate("eclipse6"));
        assert!(rate("pjbb2005") > 10.0 * rate("lusearch9"));
        assert!(rate("jython9") == 0.0);
    }

    #[test]
    fn by_name_and_scaling() {
        assert!(by_name("xalan6").is_some());
        assert!(by_name("nope").is_none());
        for (factor, steps) in [(0.1, 25_000), (0.000001, 100)] {
            assert_eq!(scaled(factor)[0].spec.steps_per_thread, steps);
        }
    }

    #[test]
    fn specs_fit_their_runtimes() {
        for p in all() {
            assert!(p.spec.hot_objects <= p.spec.shared_objects, "{}", p.spec.name);
            assert!(p.spec.monitors >= 1);
            assert!(p.spec.threads <= 16);
        }
    }
}
