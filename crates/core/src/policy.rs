//! The profile-guided adaptive policy (§6).
//!
//! The cost–benefit model (§6.1) says an object should be optimistic iff
//!
//! ```text
//! N_nonConfl ≥ K_confl × N_confl          (3)
//! ```
//!
//! The online policy (§6.2) approximates this with per-object profiling kept
//! in the object's **profile word**:
//!
//! * every object starts in optimistic states (phase `OptInitial`);
//! * for optimistic objects, only conflicting transitions that used
//!   **explicit** coordination are counted (implicit coordination costs about
//!   as much as a pessimistic transition — footnote 7). Once
//!   `numConflicts ≥ Cutoff_confl` the object moves to pessimistic states
//!   (phase `Pess`);
//! * for pessimistic objects, *every* transition is categorized as
//!   conflicting or non-conflicting. Once
//!   `N_nonConfl ≥ K_confl × N_confl + Inertia` (5) the object moves back to
//!   optimistic states at its next unlock (phase `OptFinal`);
//! * "checks and balances": after returning to optimistic, the object must
//!   stay optimistic — the phase machine is a one-way valve
//!   `OptInitial → Pess → OptFinal`.
//!
//! As an extension the paper sketches in §7.5 (for the `racyInc` worst case),
//! the policy can optionally force a pessimistic object back to optimistic
//! when its accesses keep triggering *contended* transitions (i.e. the
//! object-level-data-race-freedom assumption of deferred unlocking is being
//! violated). This is off by default to match the paper's configuration.
//!
//! Profile word layout (LSB first):
//!
//! ```text
//! bits  0..=15  numConflicts        (optimistic explicit conflicts, saturating)
//! bits 16..=35  pessNonConfl        (saturating)
//! bits 36..=53  pessConfl           (saturating)
//! bits 54..=61  pessContended       (saturating; §7.5 extension)
//! bits 62..=63  phase               0 OptInitial, 1 Pess, 2 OptFinal
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Tuning parameters of the adaptive policy (§6.2, §7.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyParams {
    /// Conflicts before an optimistic object moves to pessimistic states.
    /// `u32::MAX` means never (the paper's "hybrid tracking w/ infinite
    /// cutoff" configuration).
    pub cutoff_confl: u32,
    /// The cost-ratio constant of inequality (5).
    pub k_confl: u32,
    /// Hysteresis of inequality (5): prevents returning to optimistic before
    /// significant profiling has occurred.
    pub inertia: u32,
    /// §7.5 extension, off (`u32::MAX`) by default: contended pessimistic
    /// transitions before the object is forced back to optimistic states.
    pub contended_cutoff: u32,
}

impl Default for PolicyParams {
    /// The paper's evaluated values: `Cutoff_confl = 4`, `K_confl = 200`,
    /// `Inertia = 100` (§7.3).
    fn default() -> Self {
        PolicyParams {
            cutoff_confl: 4,
            k_confl: 200,
            inertia: 100,
            contended_cutoff: u32::MAX,
        }
    }
}

impl PolicyParams {
    /// The "hybrid tracking w/ infinite cutoff" configuration of Figure 7:
    /// no object ever becomes pessimistic, measuring only the *costs* of
    /// hybrid tracking over optimistic tracking.
    pub fn infinite_cutoff() -> Self {
        PolicyParams {
            cutoff_confl: u32::MAX,
            ..PolicyParams::default()
        }
    }

    /// Enable the §7.5 anti-`racyInc` extension.
    pub fn with_contended_cutoff(mut self, n: u32) -> Self {
        self.contended_cutoff = n;
        self
    }
}

/// Lifecycle phase of one object under the adaptive policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Initial optimistic phase: counting explicit conflicts.
    OptInitial = 0,
    /// Pessimistic phase: categorizing every transition.
    Pess = 1,
    /// Final optimistic phase: profiling disabled, stays optimistic forever.
    OptFinal = 2,
}

const NC_SHIFT: u32 = 0;
const NC_MASK: u64 = 0xFFFF;
const PNON_SHIFT: u32 = 16;
const PNON_MASK: u64 = 0xF_FFFF;
const PCON_SHIFT: u32 = 36;
const PCON_MASK: u64 = 0x3_FFFF;
const PCONT_SHIFT: u32 = 54;
const PCONT_MASK: u64 = 0xFF;
const PHASE_SHIFT: u32 = 62;
const PHASE_MASK: u64 = 0b11;

/// Decoded profile-word fields (snapshot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Explicit optimistic conflicts observed in `OptInitial`.
    pub num_conflicts: u32,
    /// Non-conflicting pessimistic transitions observed in `Pess`.
    pub pess_non_confl: u32,
    /// Conflicting pessimistic transitions observed in `Pess`.
    pub pess_confl: u32,
    /// Contended pessimistic transitions observed in `Pess`.
    pub pess_contended: u32,
    /// Current phase.
    pub phase: Phase,
}

#[inline(always)]
fn decode(w: u64) -> Profile {
    Profile {
        num_conflicts: ((w >> NC_SHIFT) & NC_MASK) as u32,
        pess_non_confl: ((w >> PNON_SHIFT) & PNON_MASK) as u32,
        pess_confl: ((w >> PCON_SHIFT) & PCON_MASK) as u32,
        pess_contended: ((w >> PCONT_SHIFT) & PCONT_MASK) as u32,
        phase: match (w >> PHASE_SHIFT) & PHASE_MASK {
            0 => Phase::OptInitial,
            1 => Phase::Pess,
            _ => Phase::OptFinal,
        },
    }
}

#[inline(always)]
fn encode(p: Profile) -> u64 {
    ((p.num_conflicts as u64).min(NC_MASK) << NC_SHIFT)
        | ((p.pess_non_confl as u64).min(PNON_MASK) << PNON_SHIFT)
        | ((p.pess_confl as u64).min(PCON_MASK) << PCON_SHIFT)
        | ((p.pess_contended as u64).min(PCONT_MASK) << PCONT_SHIFT)
        | ((p.phase as u64) << PHASE_SHIFT)
}

/// The one-way valve (`check-invariants` builds): the only phase changes the
/// policy may ever publish are `OptInitial → Pess` and `Pess → OptFinal`.
#[cfg(feature = "check-invariants")]
#[inline]
fn assert_legal_phase_step(from: Phase, to: Phase) {
    let legal = from == to
        || matches!(
            (from, to),
            (Phase::OptInitial, Phase::Pess) | (Phase::Pess, Phase::OptFinal)
        );
    assert!(legal, "adaptive valve violated: {from:?} → {to:?}");
}

#[inline(always)]
fn sat_inc(v: u32, mask: u64) -> u32 {
    if (v as u64) < mask {
        v + 1
    } else {
        v
    }
}

/// The adaptive policy: a stateless decision procedure over per-object
/// profile words.
///
/// ```
/// use std::sync::atomic::AtomicU64;
/// use drink_core::policy::{AdaptivePolicy, PolicyParams, Phase};
///
/// let policy = AdaptivePolicy::new(PolicyParams::default()); // Cutoff = 4
/// let profile = AtomicU64::new(0); // a fresh object's profile word
///
/// // Three explicit conflicts: stay optimistic. The fourth crosses the
/// // cutoff and elects this caller to move the object to pessimistic states.
/// assert!(!policy.on_explicit_conflict(&profile));
/// assert!(!policy.on_explicit_conflict(&profile));
/// assert!(!policy.on_explicit_conflict(&profile));
/// assert!(policy.on_explicit_conflict(&profile));
/// assert_eq!(AdaptivePolicy::profile(&profile).phase, Phase::Pess);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptivePolicy {
    /// Parameters (the paper's defaults unless overridden).
    pub params: PolicyParams,
}

impl AdaptivePolicy {
    /// Policy with explicit parameters.
    pub fn new(params: PolicyParams) -> Self {
        AdaptivePolicy { params }
    }

    /// Decode an object's profile word (diagnostics, Figure 6 harness).
    pub fn profile(word: &AtomicU64) -> Profile {
        decode(word.load(Ordering::Relaxed))
    }

    /// Record an explicit optimistic conflicting transition on `word`.
    /// Returns true iff the policy decides the object should move to
    /// pessimistic states now (the caller performs the state change). At most
    /// one caller ever receives `true` for a given object (phase CAS).
    ///
    /// This is the paper's inequality (4): `numConflicts ≥ Cutoff_confl`.
    pub fn on_explicit_conflict(&self, word: &AtomicU64) -> bool {
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let mut p = decode(cur);
            if p.phase != Phase::OptInitial {
                // Pess (already moved) or OptFinal (one-way valve): stop
                // counting; never move to pessimistic again.
                return false;
            }
            p.num_conflicts = sat_inc(p.num_conflicts, NC_MASK);
            let go_pess =
                self.params.cutoff_confl != u32::MAX && p.num_conflicts >= self.params.cutoff_confl;
            if go_pess {
                p.phase = Phase::Pess;
            }
            #[cfg(feature = "check-invariants")]
            assert_legal_phase_step(decode(cur).phase, p.phase);
            match word.compare_exchange_weak(cur, encode(p), Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return go_pess,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a pessimistic transition on `word`. `conflicting` categorizes
    /// the transition per the cost–benefit model; `contended` marks
    /// transitions that fell back to coordination (§7.5 extension).
    ///
    /// Returns true iff the policy decides the object should return to
    /// optimistic states at its next unlock — the paper's inequality (5):
    /// `N_nonConfl ≥ K_confl × N_confl + Inertia`.
    pub fn on_pess_transition(&self, word: &AtomicU64, conflicting: bool, contended: bool) -> bool {
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let mut p = decode(cur);
            if p.phase != Phase::Pess {
                return p.phase == Phase::OptFinal;
            }
            if conflicting {
                p.pess_confl = sat_inc(p.pess_confl, PCON_MASK);
            } else {
                p.pess_non_confl = sat_inc(p.pess_non_confl, PNON_MASK);
            }
            if contended {
                p.pess_contended = sat_inc(p.pess_contended, PCONT_MASK);
            }
            let to_opt = p.pess_non_confl as u64
                >= (self.params.k_confl as u64) * (p.pess_confl as u64)
                    + self.params.inertia as u64
                || (self.params.contended_cutoff != u32::MAX
                    && p.pess_contended >= self.params.contended_cutoff);
            if to_opt {
                p.phase = Phase::OptFinal;
            }
            #[cfg(feature = "check-invariants")]
            assert_legal_phase_step(decode(cur).phase, p.phase);
            match word.compare_exchange_weak(cur, encode(p), Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return to_opt,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Should an unlock (lock-buffer flush) move this object to optimistic
    /// states? (Figure 10(c): `AdaptivePolicy.toOpt(o)`.)
    #[inline]
    pub fn unlock_to_optimistic(&self, word: &AtomicU64) -> bool {
        decode(word.load(Ordering::Relaxed)).phase == Phase::OptFinal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word() -> AtomicU64 {
        AtomicU64::new(0)
    }

    #[test]
    fn fresh_profile_is_opt_initial() {
        let w = word();
        let p = AdaptivePolicy::profile(&w);
        assert_eq!(p.phase, Phase::OptInitial);
        assert_eq!(p.num_conflicts, 0);
    }

    #[test]
    fn cutoff_moves_object_to_pess_exactly_once() {
        let policy = AdaptivePolicy::default(); // cutoff 4
        let w = word();
        assert!(!policy.on_explicit_conflict(&w)); // 1
        assert!(!policy.on_explicit_conflict(&w)); // 2
        assert!(!policy.on_explicit_conflict(&w)); // 3
        assert!(policy.on_explicit_conflict(&w)); // 4 → Pess
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::Pess);
        // Further conflicts (e.g. raced) never re-trigger.
        assert!(!policy.on_explicit_conflict(&w));
    }

    #[test]
    fn infinite_cutoff_never_goes_pess() {
        let policy = AdaptivePolicy::new(PolicyParams::infinite_cutoff());
        let w = word();
        for _ in 0..100_000 {
            assert!(!policy.on_explicit_conflict(&w));
        }
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptInitial);
        // Saturation: the counter stops at its mask rather than wrapping.
        assert_eq!(AdaptivePolicy::profile(&w).num_conflicts, 0xFFFF);
    }

    fn drive_to_pess(policy: &AdaptivePolicy, w: &AtomicU64) {
        while AdaptivePolicy::profile(w).phase != Phase::Pess {
            policy.on_explicit_conflict(w);
        }
    }

    #[test]
    fn inequality_5_returns_object_to_optimistic() {
        let policy = AdaptivePolicy::new(PolicyParams {
            cutoff_confl: 1,
            k_confl: 10,
            inertia: 5,
            contended_cutoff: u32::MAX,
        });
        let w = word();
        drive_to_pess(&policy, &w);
        // One conflicting transition: threshold = 10*1 + 5 = 15 non-conflicting.
        assert!(!policy.on_pess_transition(&w, true, false));
        for i in 1..15 {
            assert!(
                !policy.on_pess_transition(&w, false, false),
                "flipped early at non-confl #{i}"
            );
        }
        assert!(policy.on_pess_transition(&w, false, false)); // #15 → OptFinal
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
        assert!(policy.unlock_to_optimistic(&w));
    }

    #[test]
    fn one_way_valve_blocks_second_trip_to_pess() {
        let policy = AdaptivePolicy::new(PolicyParams {
            cutoff_confl: 1,
            k_confl: 1,
            inertia: 1,
            contended_cutoff: u32::MAX,
        });
        let w = word();
        drive_to_pess(&policy, &w);
        // inertia 1, no conflicts: first non-conflicting transition flips back.
        assert!(policy.on_pess_transition(&w, false, false));
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
        // Conflicts after OptFinal never send it back to Pess.
        for _ in 0..1_000 {
            assert!(!policy.on_explicit_conflict(&w));
        }
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
        // Pessimistic profiling in OptFinal keeps reporting "unlock to opt".
        assert!(policy.on_pess_transition(&w, false, false));
    }

    #[test]
    fn contended_cutoff_extension_flips_racy_objects_back() {
        let policy = AdaptivePolicy::new(PolicyParams::default().with_contended_cutoff(3));
        let w = word();
        drive_to_pess(&policy, &w);
        assert!(!policy.on_pess_transition(&w, true, true)); // contended 1
        assert!(!policy.on_pess_transition(&w, true, true)); // contended 2
        assert!(policy.on_pess_transition(&w, true, true)); // contended 3 → OptFinal
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
    }

    #[test]
    fn paper_defaults_flip_to_pess_on_fourth_conflict() {
        // Pins §7.3's `Cutoff_confl = 4` end-to-end at the default params.
        let policy = AdaptivePolicy::default();
        let w = word();
        for i in 1..=3 {
            assert!(!policy.on_explicit_conflict(&w), "flipped early at conflict #{i}");
            assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptInitial);
        }
        assert!(policy.on_explicit_conflict(&w), "4th conflict must flip");
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::Pess);
    }

    #[test]
    fn paper_defaults_flip_back_exactly_at_inequality_5() {
        // With defaults (K_confl = 200, Inertia = 100) and zero conflicting
        // pessimistic transitions, the threshold is exactly Inertia = 100.
        let policy = AdaptivePolicy::default();
        let w = word();
        drive_to_pess(&policy, &w);
        for i in 1..100 {
            assert!(
                !policy.on_pess_transition(&w, false, false),
                "flipped early at non-confl #{i} (threshold is 100)"
            );
        }
        assert!(policy.on_pess_transition(&w, false, false), "#100 must flip");
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);

        // With one conflicting transition first, the threshold moves to
        // 200 × 1 + 100 = 300.
        let w = word();
        drive_to_pess(&policy, &w);
        assert!(!policy.on_pess_transition(&w, true, false));
        for i in 1..300 {
            assert!(
                !policy.on_pess_transition(&w, false, false),
                "flipped early at non-confl #{i} (threshold is 300)"
            );
        }
        assert!(policy.on_pess_transition(&w, false, false), "#300 must flip");
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
    }

    #[test]
    fn paper_defaults_valve_never_reenters_pess() {
        let policy = AdaptivePolicy::default();
        let w = word();
        drive_to_pess(&policy, &w);
        for _ in 0..100 {
            policy.on_pess_transition(&w, false, false);
        }
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
        for _ in 0..1_000 {
            assert!(!policy.on_explicit_conflict(&w));
            assert!(policy.on_pess_transition(&w, true, true), "OptFinal keeps reporting to-opt");
        }
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
        assert!(policy.unlock_to_optimistic(&w));
    }

    #[test]
    fn default_params_match_section_7_3() {
        let p = PolicyParams::default();
        assert_eq!(p.cutoff_confl, 4);
        assert_eq!(p.k_confl, 200);
        assert_eq!(p.inertia, 100);
        assert_eq!(p.contended_cutoff, u32::MAX);
    }

    #[test]
    fn concurrent_conflicts_elect_exactly_one_pess_mover() {
        use std::sync::atomic::AtomicUsize;
        let policy = AdaptivePolicy::default();
        let w = std::sync::Arc::new(word());
        let winners = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let w = w.clone();
                let winners = winners.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        if policy.on_explicit_conflict(&w) {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn saturating_counters_never_wrap_into_other_fields() {
        let policy = AdaptivePolicy::new(PolicyParams {
            cutoff_confl: u32::MAX,
            k_confl: u32::MAX,
            inertia: u32::MAX,
            contended_cutoff: u32::MAX,
        });
        let w = word();
        // Drive to Pess manually to exercise pessimistic counters.
        w.store(encode(Profile {
            num_conflicts: 0,
            pess_non_confl: 0,
            pess_confl: 0,
            pess_contended: 0,
            phase: Phase::Pess,
        }), Ordering::Relaxed);
        for _ in 0..2_000_000 {
            policy.on_pess_transition(&w, false, false);
        }
        let p = AdaptivePolicy::profile(&w);
        assert_eq!(p.pess_non_confl as u64, PNON_MASK);
        assert_eq!(p.pess_confl, 0);
        assert_eq!(p.phase, Phase::Pess);
    }
}
