#[cfg(test)]
/// Tests of the [`Valve`](crate::policy::Valve) and of the policy's phase
/// steps under it: which steps each valve allows, and how soon one can follow
/// another. The valve itself lives in `policy.rs`; this test-only file keeps
/// the module path (`adapt::tests`) its tests' ids were recorded under.
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::policy::*;

    const CUTOFF: u32 = 4;
    const INERTIA: u32 = 8;

    /// Small thresholds, so that a few hundred random samples cross them
    /// several times in both directions.
    fn params() -> PolicyParams {
        PolicyParams {
            cutoff_confl: CUTOFF,
            k_confl: 4,
            inertia: INERTIA,
        }
    }

    fn policy(valve: Valve) -> AdaptivePolicy {
        AdaptivePolicy::with_valve(params(), valve)
    }

    fn phase(w: &AtomicU64) -> Phase {
        AdaptivePolicy::profile(w).phase
    }

    /// Non-conflicting pessimistic samples until one promotes; how many it
    /// took.
    fn clean_samples_to_promotion(p: &AdaptivePolicy, w: &AtomicU64) -> u64 {
        (1..).find(|_| p.on_pess_transition(w, false)).unwrap()
    }

    #[test]
    fn cooldown_gates_the_first_demotion() {
        let p = policy(Valve::Reopening);
        let w = AtomicU64::new(0);
        // CUTOFF − 1 explicit conflicts: not enough evidence yet.
        for i in 1..CUTOFF {
            assert!(!p.on_explicit_conflict(&w), "conflict #{i}");
            assert_eq!(phase(&w), Phase::OptInitial);
        }
        // The CUTOFF-th completes the window and demotes.
        assert!(p.on_explicit_conflict(&w));
        assert_eq!(phase(&w), Phase::Pess);
    }

    #[test]
    fn cheap_traffic_promotes_after_cooldown() {
        let p = policy(Valve::Reopening);
        let w = AtomicU64::new(0);
        assert!(p.force_pess(&w));
        // Non-conflicting pessimistic samples promote, but not before the
        // inertia has elapsed.
        assert_eq!(clean_samples_to_promotion(&p, &w), u64::from(INERTIA));
        assert_eq!(phase(&w), Phase::OptFinal);
        assert_eq!(AdaptivePolicy::profile(&w).promotions, 1);
    }

    #[test]
    fn conflicting_pess_traffic_keeps_demotion_sticky() {
        let p = policy(Valve::Reopening);
        let w = AtomicU64::new(0);
        assert!(p.force_pess(&w));
        // Ownership keeps bouncing: conflicting samples never satisfy (5),
        // however many arrive (the counters saturate, they do not wrap).
        for _ in 0..100_000 {
            assert!(!p.on_pess_transition(&w, true));
        }
        assert_eq!(phase(&w), Phase::Pess);
    }

    #[test]
    fn catastrophic_sample_demotes_without_cooldown() {
        // A deadline expiry needs no conflict count behind it — not on a
        // fresh object, and not on one that was promoted a sample ago...
        let p = policy(Valve::Reopening);
        let w = AtomicU64::new(0);
        assert!(p.force_pess(&w));
        clean_samples_to_promotion(&p, &w);
        assert_eq!(AdaptivePolicy::profile(&w).num_conflicts, 0);
        assert!(p.force_pess(&w), "re-opening valve: OptFinal → Pess");
        assert_eq!(phase(&w), Phase::Pess);

        // ...but it is a phase step, and a one-way valve refuses the second.
        let p = policy(Valve::OneWay);
        let w = AtomicU64::new(0);
        assert!(p.force_pess(&w));
        clean_samples_to_promotion(&p, &w);
        assert!(!p.force_pess(&w));
        assert_eq!(phase(&w), Phase::OptFinal);
    }

    #[test]
    fn force_demote_bypasses_cooldown_and_restarts_counters() {
        let p = policy(Valve::Reopening);
        let w = AtomicU64::new(0);
        assert!(!p.on_explicit_conflict(&w));
        assert!(p.force_pess(&w));
        assert_eq!(phase(&w), Phase::Pess);
        assert_eq!(AdaptivePolicy::profile(&w).num_conflicts, 0);
        // Idempotent: a second expiry reports false and restarts nothing.
        assert!(!p.on_pess_transition(&w, false));
        assert!(!p.force_pess(&w));
        assert_eq!(AdaptivePolicy::profile(&w).pess_non_confl, 1);
        // Promotion afterwards still needs the full inertia.
        assert_eq!(clean_samples_to_promotion(&p, &w), u64::from(INERTIA) - 1);
    }

    #[test]
    fn concurrent_demotion_elects_one_winner() {
        let p = policy(Valve::Reopening);
        let w = AtomicU64::new(0);
        let winners = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..8 {
                let (w, winners) = (&w, &winners);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        // Counted and forced demotions race for one step.
                        let won = if i % 2 == 0 { p.on_explicit_conflict(w) } else { p.force_pess(w) };
                        if won {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
        assert_eq!(phase(&w), Phase::Pess);
    }

    // --- Arbitrary sample sequences on one profile word ---

    /// One policy input.
    #[derive(Clone, Copy, Debug)]
    enum Sample {
        ExplicitConflict,
        Pess { conflicting: bool },
        DeadlineExpiry,
    }

    /// What the policy made of the sample at (1-based) index `at`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Step {
        Demoted { at: usize, forced: bool },
        Promoted { at: usize },
    }

    /// Feed `samples` to `p` on a fresh word, checking after every sample
    /// that the phase moved only by a step the valve allows and that every
    /// phase change restarted the counters. Returns the steps taken.
    fn replay(p: &AdaptivePolicy, samples: &[(u8, u8)]) -> Vec<Step> {
        let w = AtomicU64::new(0);
        let mut steps = Vec::new();
        for (i, &(kind, die)) in samples.iter().enumerate() {
            let at = i + 1;
            // One pessimistic sample in 16 conflicts: inequality (5) drifts
            // towards promotion, and is set back often enough to matter.
            let sample = match kind {
                0..=2 => Sample::ExplicitConflict,
                3..=6 => Sample::Pess { conflicting: die == 0 },
                _ => Sample::DeadlineExpiry,
            };
            let before = AdaptivePolicy::profile(&w);
            let step = match sample {
                Sample::ExplicitConflict => {
                    p.on_explicit_conflict(&w).then_some(Step::Demoted { at, forced: false })
                }
                Sample::DeadlineExpiry => {
                    let moved = p.force_pess(&w);
                    // Idempotent: the repeat moves nothing and restarts nothing.
                    let after = w.load(Ordering::Relaxed);
                    assert!(!p.force_pess(&w));
                    assert_eq!(w.load(Ordering::Relaxed), after);
                    moved.then_some(Step::Demoted { at, forced: true })
                }
                Sample::Pess { conflicting } => {
                    p.on_pess_transition(&w, conflicting).then_some(Step::Promoted { at })
                }
            };
            let after = AdaptivePolicy::profile(&w);
            match step {
                None => assert_eq!(before.phase, after.phase, "{sample:?} moved the phase silently"),
                Some(_) => {
                    assert!(
                        p.valve.allows(before.phase, after.phase),
                        "{:?} → {:?} under {:?}",
                        before.phase,
                        after.phase,
                        p.valve
                    );
                    assert_eq!(
                        (after.num_conflicts, after.pess_non_confl, after.pess_confl),
                        (0, 0, 0),
                        "counters survived {step:?}"
                    );
                    assert_eq!(
                        after.promotions,
                        before.promotions + u32::from(after.phase == Phase::OptFinal)
                    );
                }
            }
            steps.extend(step);
        }
        steps
    }

    mod oscillation {
        use super::*;
        use proptest::prelude::*;

        fn samples() -> impl Strategy<Value = Vec<(u8, u8)>> {
            proptest::collection::vec((0u8..8, 0u8..16), 0..768)
        }

        proptest! {
            #[test]
            fn oscillation_cannot_beat_the_cooldown(
                samples in samples(),
                reopening in any::<bool>(),
            ) {
                let valve = if reopening { Valve::Reopening } else { Valve::OneWay };
                let steps = replay(&policy(valve), &samples);
                // Steps alternate, starting with a demotion...
                for (i, step) in steps.iter().enumerate() {
                    prop_assert_eq!(matches!(step, Step::Demoted { .. }), i % 2 == 0, "{:?}", steps);
                }
                // ...a one-way valve takes at most one of each...
                if valve == Valve::OneWay {
                    prop_assert!(steps.len() <= 2, "{:?}", steps);
                }
                // ...and no step follows the previous one sooner than its
                // sample count: CUTOFF conflicts before a counted demotion,
                // INERTIA · 2^r clean transitions before the r-th promotion.
                let mut last = 0;
                let mut promotions = 0u32;
                for &step in &steps {
                    match step {
                        Step::Demoted { at, forced: false } => {
                            prop_assert!(at - last >= CUTOFF as usize, "{:?}", steps);
                            last = at;
                        }
                        Step::Demoted { at, forced: true } => last = at,
                        Step::Promoted { at } => {
                            let need = (INERTIA as usize) << promotions.min(MAX_INERTIA_DOUBLINGS);
                            prop_assert!(at - last >= need, "promotion #{}: {:?}", promotions, steps);
                            promotions += 1;
                            last = at;
                        }
                    }
                }
            }

            #[test]
            fn catastrophic_path_cannot_speed_up_promotion(
                samples in samples(),
                expiries in proptest::collection::vec(0usize..768, 0..32),
            ) {
                // Splice extra deadline expiries into the sequence: they may
                // add demotions, but every promotion still counts its full
                // inertia from the demotion before it.
                let mut samples = samples;
                for at in expiries {
                    let at = at.min(samples.len());
                    samples.insert(at, (7, 0));
                }
                let steps = replay(&policy(Valve::Reopening), &samples);
                let mut promotions = 0u32;
                for pair in steps.windows(2) {
                    if let (Step::Demoted { at: down, .. }, Step::Promoted { at: up }) = (pair[0], pair[1]) {
                        let need = (INERTIA as usize) << promotions.min(MAX_INERTIA_DOUBLINGS);
                        prop_assert!(up - down >= need, "promotion #{}: {:?}", promotions, steps);
                        promotions += 1;
                    }
                }
            }
        }
    }
}
