//! The profile-guided adaptive policy (§6).
//!
//! The cost–benefit model (§6.1) says an object should be optimistic iff
//!
//! ```text
//! N_nonConfl ≥ K_confl × N_confl          (3)
//! ```
//!
//! The online policy (§6.2) approximates this by *counting*, per object, in
//! the object's **profile word** — the only policy state there is:
//!
//! * every object starts in optimistic states (phase `OptInitial`);
//! * for optimistic objects, only conflicting transitions that used
//!   **explicit** coordination are counted (implicit coordination costs about
//!   as much as a pessimistic transition — footnote 7). Once
//!   `numConflicts ≥ Cutoff_confl` (4) the object moves to pessimistic states
//!   (phase `Pess`);
//! * for pessimistic objects, *every* transition is categorized as
//!   conflicting or non-conflicting. Once
//!   `N_nonConfl ≥ K_confl × N_confl + Inertia` (5) the object moves back to
//!   optimistic states at its next unlock (phase `OptFinal`);
//! * once inequality (5) can never hold again — its right-hand side has
//!   passed `pessNonConfl`'s saturation value — the object is **settled**
//!   (phase `Settled`): pessimistic for good, under either valve, and it
//!   takes no more samples. At `Cutoff_confl = 0` every object is settled
//!   from birth;
//! * every counter restarts at every phase change, so each inequality reads
//!   the samples since the object last changed sides;
//! * "checks and balances": which phase steps are legal is the
//!   [`Valve`]'s call — the paper's is one-way
//!   (`OptInitial → Pess → OptFinal`, then optimistic for good), the
//!   adaptive configuration's re-opens (see below). Each return to
//!   optimistic states doubles (up to [`MAX_INERTIA_DOUBLINGS`] times) the
//!   `Inertia` the object's next return must meet.
//!
//! One sample bypasses the counting: a coordination deadline that expires on
//! an object ([`AdaptivePolicy::force_pess`]) is direct evidence that its
//! roundtrips are not being answered, and enters `Pess` at once.
//!
//! The policy decides which protocol an object runs, never how long a lock
//! lives: that is the support's lock discipline
//! ([`Locking`](crate::support::Locking)).
//!
//! Profile word layout (LSB first):
//!
//! ```text
//! bits  0..=15  numConflicts        (explicit conflicts while optimistic, saturating)
//! bits 16..=35  pessNonConfl        (saturating)
//! bits 36..=49  pessConfl           (saturating)
//! bits 50..=53  promotions          (returns to optimistic so far, saturating)
//! bits 54..=61  unused
//! bits 62..=63  phase               0 OptInitial, 1 Pess, 2 OptFinal, 3 Settled
//! ```
//!
//! ## The valve (DESIGN.md §13)
//!
//! The paper's policy is a *one-way valve*: once an object's conflict count
//! crosses `Cutoff_confl` it goes pessimistic, and once inequality (5) sends
//! it back it stays optimistic forever. That is the right shape for the
//! paper's steady-state benchmarks, but it degrades badly when contention is
//! *phased*: an object that was sent back during a quiet spell and turns hot
//! again pays a coordination roundtrip per conflict for the rest of the run.
//!
//! The adaptive configuration is the same policy, over the same profile
//! word, with a valve that **re-opens**: an object in `OptFinal` keeps
//! counting explicit conflicts and returns to `Pess` when it collects
//! `Cutoff_confl` of them. Nothing else differs, and nothing is timed — the
//! evidence is counts, as in §6:
//!
//! * **demotion** needs `Cutoff_confl` explicit conflicts *since the object
//!   last turned optimistic* — inequality (4) over a counter that restarts
//!   at every phase change;
//! * **promotion** needs inequality (5) over the pessimistic transitions
//!   *since the object last turned pessimistic*, with `Inertia` doubled once
//!   per earlier promotion of that object (capped at
//!   [`MAX_INERTIA_DOUBLINGS`]). Those two sample counts are the policy's
//!   cooldown — no phase change can follow another sooner — and the doubling
//!   is what makes an oscillating object settle pessimistic instead of
//!   flapping;
//! * a **coordination-deadline expiry** is the one catastrophic sample: it
//!   enters `Pess` at once ([`AdaptivePolicy::force_pess`]), because waiting
//!   for `Cutoff_confl` conflicts of evidence means eating that many more
//!   expired deadlines. It is a phase step like any other, so the valve
//!   still has the last word (a one-way valve refuses it from `OptFinal`),
//!   and the promotion that follows needs its full inertia.
//!
//! Why no time constant survives: a roundtrip's *duration* depends on the
//! host (≈50 µs on the 1-core guest the old EWMA thresholds were tuned on,
//! ≈1 µs on a 2-core one), so a nanosecond threshold encodes the machine,
//! while the *ratio* inequality (5) prices — one roundtrip is worth hundreds
//! of pessimistic CASes — holds on both. And a per-roundtrip cost is blind
//! to how often the object conflicts, which is the only thing the
//! cost–benefit model asks.
//!
//! ## Memory ordering
//!
//! The phase only *steers* which of two independently-correct protocols an
//! access takes; it never guards data. A thread that reads a stale phase
//! takes the other protocol, which is equally sound, so every profile-word
//! access is Relaxed.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Tuning parameters of the adaptive policy (§6.2, §7.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyParams {
    /// Explicit conflicts before an optimistic object moves to pessimistic
    /// states. `u32::MAX` means never (the paper's "hybrid tracking w/
    /// infinite cutoff" configuration), 0 from birth (pessimistic tracking).
    pub cutoff_confl: u32,
    /// The cost-ratio constant of inequality (5).
    pub k_confl: u32,
    /// Hysteresis of inequality (5): prevents returning to optimistic before
    /// significant profiling has occurred.
    pub inertia: u32,
}

impl Default for PolicyParams {
    /// The paper's evaluated values: `Cutoff_confl = 4`, `K_confl = 200`,
    /// `Inertia = 100` (§7.3).
    fn default() -> Self {
        PolicyParams {
            cutoff_confl: 4,
            k_confl: 200,
            inertia: 100,
        }
    }
}

impl PolicyParams {
    /// `Cutoff_confl = ∞`: no count ever sends an object to pessimistic
    /// states. Optimistic tracking's policy
    /// ([`HybridConfig::optimistic`](crate::engine::hybrid::HybridConfig::optimistic)).
    pub fn infinite_cutoff() -> Self {
        PolicyParams {
            cutoff_confl: u32::MAX,
            ..PolicyParams::default()
        }
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
    /// Optimistic again after a stay in `Pess`: for good under the one-way
    /// valve, counting explicit conflicts anew under the re-opening one.
    OptFinal = 2,
    /// Pessimistic for good: entered from `Pess` at the sample after which
    /// inequality (5) can never hold again, and absorbing under either
    /// valve. A settled object takes no samples. Every object is settled
    /// from birth at `Cutoff_confl = 0`, whose profile words are never
    /// written.
    Settled = 3,
}

/// Which phase steps the adaptive policy may publish.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Valve {
    /// The paper's "checks and balances" (§6.2): `OptInitial → Pess` and
    /// `Pess → OptFinal`, after which the object stays optimistic (and
    /// `Pess → Settled`, after which it stays pessimistic).
    #[default]
    OneWay,
    /// Additionally `OptFinal → Pess`: an object that turns hot again is
    /// demoted again.
    Reopening,
}

impl Valve {
    /// May an object step `from → to` under this valve?
    #[inline]
    pub fn allows(self, from: Phase, to: Phase) -> bool {
        match (from, to) {
            (Phase::OptInitial, Phase::Pess) | (Phase::Pess, Phase::OptFinal | Phase::Settled) => true,
            (Phase::OptFinal, Phase::Pess) => self == Valve::Reopening,
            _ => false,
        }
    }
}

/// Returns to optimistic states after which an object's `Inertia` stops
/// doubling (×1024: with the paper's `Inertia = 100` that is 102 400
/// non-conflicting transitions, within `pessNonConfl`'s range of 2²⁰ − 1).
/// Conflicting samples can still weld the valve shut: once
/// `K_confl × pessConfl + Inertia × 2^min(promotions, 10)` exceeds that range
/// — with the paper's parameters, at the 5243rd conflicting sample of a stay
/// in `Pess` — inequality (5) can never hold again, and the object is
/// [`Phase::Settled`].
pub const MAX_INERTIA_DOUBLINGS: u32 = 10;

const NC_SHIFT: u32 = 0;
const NC_MASK: u64 = 0xFFFF;
const PNON_SHIFT: u32 = 16;
const PNON_MASK: u64 = 0xF_FFFF;
const PCON_SHIFT: u32 = 36;
const PCON_MASK: u64 = 0x3FFF;
const PROMO_SHIFT: u32 = 50;
const PROMO_MASK: u64 = 0xF;
const PHASE_SHIFT: u32 = 62;
const PHASE_MASK: u64 = 0b11;

/// Decoded profile-word fields (snapshot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Explicit optimistic conflicts since the object last turned optimistic.
    pub num_conflicts: u32,
    /// Non-conflicting pessimistic transitions since it last entered `Pess`.
    pub pess_non_confl: u32,
    /// Conflicting pessimistic transitions since it last entered `Pess`.
    pub pess_confl: u32,
    /// Times the object has returned from `Pess` to optimistic states.
    pub promotions: u32,
    /// Current phase.
    pub phase: Phase,
}

impl Profile {
    /// This profile after a step to `to`: every counter restarts, and a
    /// return to optimistic states is one more promotion.
    fn enter(self, to: Phase) -> Profile {
        Profile {
            num_conflicts: 0,
            pess_non_confl: 0,
            pess_confl: 0,
            promotions: self.promotions + u32::from(to == Phase::OptFinal),
            phase: to,
        }
    }
}

#[inline(always)]
fn decode(w: u64) -> Profile {
    Profile {
        num_conflicts: ((w >> NC_SHIFT) & NC_MASK) as u32,
        pess_non_confl: ((w >> PNON_SHIFT) & PNON_MASK) as u32,
        pess_confl: ((w >> PCON_SHIFT) & PCON_MASK) as u32,
        promotions: ((w >> PROMO_SHIFT) & PROMO_MASK) as u32,
        phase: match (w >> PHASE_SHIFT) & PHASE_MASK {
            0 => Phase::OptInitial,
            1 => Phase::Pess,
            2 => Phase::OptFinal,
            _ => Phase::Settled,
        },
    }
}

#[inline(always)]
fn encode(p: Profile) -> u64 {
    ((p.num_conflicts as u64).min(NC_MASK) << NC_SHIFT)
        | ((p.pess_non_confl as u64).min(PNON_MASK) << PNON_SHIFT)
        | ((p.pess_confl as u64).min(PCON_MASK) << PCON_SHIFT)
        | ((p.promotions as u64).min(PROMO_MASK) << PROMO_SHIFT)
        | ((p.phase as u64) << PHASE_SHIFT)
}

/// The valve (`check-invariants` builds): the only phase changes the policy
/// may ever publish are the ones its [`Valve`] allows — under the one-way
/// valve, `OptInitial → Pess`, `Pess → OptFinal` and `Pess → Settled`.
#[cfg(feature = "check-invariants")]
#[inline]
fn assert_legal_phase_step(valve: Valve, from: Phase, to: Phase) {
    assert!(
        from == to || valve.allows(from, to),
        "adaptive valve violated: {from:?} → {to:?} under {valve:?}"
    );
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
    /// Which phase steps are legal (the paper's one-way valve unless
    /// overridden).
    pub valve: Valve,
}

impl AdaptivePolicy {
    /// The paper's policy (one-way valve) with explicit parameters.
    pub fn new(params: PolicyParams) -> Self {
        AdaptivePolicy::with_valve(params, Valve::OneWay)
    }

    /// Policy with explicit parameters and valve.
    pub fn with_valve(params: PolicyParams, valve: Valve) -> Self {
        AdaptivePolicy { params, valve }
    }

    /// Decode an object's profile word (diagnostics, Figure 6 harness).
    pub fn profile(word: &AtomicU64) -> Profile {
        decode(word.load(Ordering::Relaxed))
    }

    /// The profile word `cur` as this policy reads it: at
    /// `Cutoff_confl = 0` every object is settled from birth, whatever its
    /// (never written) word says.
    #[inline(always)]
    fn read(&self, cur: u64) -> Profile {
        let mut p = decode(cur);
        if self.params.cutoff_confl == 0 {
            p.phase = Phase::Settled;
        }
        p
    }

    /// The phase of the object whose profile word is `word`.
    #[inline]
    pub fn phase(&self, word: &AtomicU64) -> Phase {
        self.read(word.load(Ordering::Relaxed)).phase
    }

    /// Publish `cur → next` on `word`; on a lost race, hand back the word to
    /// re-decide from. A sample that changes nothing — every counter it
    /// would bump has saturated, as a hot object's do within seconds — has
    /// nothing to publish and pays no CAS.
    #[inline]
    fn publish(&self, word: &AtomicU64, cur: u64, next: Profile) -> Result<(), u64> {
        #[cfg(feature = "check-invariants")]
        assert_legal_phase_step(self.valve, decode(cur).phase, next.phase);
        let next = encode(next);
        if next == cur {
            return Ok(());
        }
        word.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            .map(drop)
    }

    /// Record an explicit optimistic conflicting transition on `word`.
    /// Returns true iff this sample moved the object to `Pess` — the paper's
    /// inequality (4), `numConflicts ≥ Cutoff_confl`, over the conflicts
    /// since the object last turned optimistic. At most one caller receives
    /// `true` per stay in optimistic states (phase CAS).
    pub fn on_explicit_conflict(&self, word: &AtomicU64) -> bool {
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let mut p = self.read(cur);
            if !self.valve.allows(p.phase, Phase::Pess) {
                // Already `Pess` or settled, or the valve is shut: stop
                // counting.
                return false;
            }
            p.num_conflicts = sat_inc(p.num_conflicts, NC_MASK);
            let go_pess = p.num_conflicts >= self.params.cutoff_confl;
            if go_pess {
                p = p.enter(Phase::Pess);
            }
            match self.publish(word, cur, p) {
                Ok(()) => return go_pess,
                Err(actual) => cur = actual,
            }
        }
    }

    /// A coordination deadline expired on this object: move it to `Pess` now,
    /// whatever its conflict count, if the valve allows the step from where
    /// it stands. Returns true iff this call moved it (so a repeat is a
    /// no-op).
    pub fn force_pess(&self, word: &AtomicU64) -> bool {
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let p = self.read(cur);
            if !self.valve.allows(p.phase, Phase::Pess) {
                return false;
            }
            match self.publish(word, cur, p.enter(Phase::Pess)) {
                Ok(()) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a pessimistic transition on `word`. `conflicting` categorizes
    /// the transition per the cost–benefit model. Returns true iff this
    /// sample promoted the object: it left `Pess` just now and transfers to
    /// optimistic states at its next unlock.
    ///
    /// The object is promoted when the samples since it entered `Pess`
    /// satisfy the paper's inequality (5),
    /// `N_nonConfl ≥ K_confl × N_confl + Inertia`, with `Inertia` doubled
    /// once per earlier promotion (at most [`MAX_INERTIA_DOUBLINGS`] times).
    /// It is settled instead when the right-hand side has passed what
    /// `N_nonConfl` can count: `N_confl` never falls during a stay in
    /// `Pess`, so (5) can never hold again. Outside `Pess` nothing is
    /// counted.
    pub fn on_pess_transition(&self, word: &AtomicU64, conflicting: bool) -> bool {
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let mut p = self.read(cur);
            if p.phase != Phase::Pess {
                return false;
            }
            if conflicting {
                p.pess_confl = sat_inc(p.pess_confl, PCON_MASK);
            } else {
                p.pess_non_confl = sat_inc(p.pess_non_confl, PNON_MASK);
            }
            let inertia = (self.params.inertia as u64) << p.promotions.min(MAX_INERTIA_DOUBLINGS);
            let bar = (self.params.k_confl as u64) * (p.pess_confl as u64) + inertia;
            let promoted = p.pess_non_confl as u64 >= bar;
            if promoted {
                p = p.enter(Phase::OptFinal);
            } else if bar > PNON_MASK {
                p = p.enter(Phase::Settled);
            }
            match self.publish(word, cur, p) {
                Ok(()) => return promoted,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Is the object in a pessimistic phase, `Pess` or `Settled` — should a
    /// conflicting transition install a pessimistic state? (Figure 3's lower
    /// diamond.)
    #[inline]
    pub fn in_pess(&self, word: &AtomicU64) -> bool {
        matches!(self.phase(word), Phase::Pess | Phase::Settled)
    }

    /// Should an unlock (lock-buffer flush) move this object to optimistic
    /// states? (Figure 10(c): `AdaptivePolicy.toOpt(o)`.)
    #[inline]
    pub fn unlock_to_optimistic(&self, word: &AtomicU64) -> bool {
        self.phase(word) == Phase::OptFinal
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
        assert_eq!(p.promotions, 0);
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
        assert!(policy.in_pess(&w));
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

    /// One pessimistic sample; true iff it promoted the object.
    fn pess_sample(policy: &AdaptivePolicy, w: &AtomicU64, conflicting: bool) -> bool {
        policy.on_pess_transition(w, conflicting)
    }

    #[test]
    fn inequality_5_returns_object_to_optimistic() {
        let policy = AdaptivePolicy::new(PolicyParams {
            cutoff_confl: 1,
            k_confl: 10,
            inertia: 5,
        });
        let w = word();
        drive_to_pess(&policy, &w);
        // One conflicting transition: threshold = 10*1 + 5 = 15 non-conflicting.
        assert!(!pess_sample(&policy, &w, true));
        for i in 1..15 {
            assert!(!pess_sample(&policy, &w, false), "flipped early at non-confl #{i}");
        }
        assert!(pess_sample(&policy, &w, false)); // #15 → OptFinal
        let p = AdaptivePolicy::profile(&w);
        assert_eq!((p.phase, p.promotions), (Phase::OptFinal, 1));
        // Counters restart with the phase.
        assert_eq!((p.num_conflicts, p.pess_non_confl, p.pess_confl), (0, 0, 0));
        assert!(policy.unlock_to_optimistic(&w));
    }

    #[test]
    fn one_way_valve_blocks_second_trip_to_pess() {
        let policy = AdaptivePolicy::new(PolicyParams {
            cutoff_confl: 1,
            k_confl: 1,
            inertia: 1,
        });
        let w = word();
        drive_to_pess(&policy, &w);
        // inertia 1, no conflicts: first non-conflicting transition flips back.
        assert!(pess_sample(&policy, &w, false));
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
        // Neither conflicts nor an expired deadline send it back to Pess.
        for _ in 0..1_000 {
            assert!(!policy.on_explicit_conflict(&w));
        }
        assert!(!policy.force_pess(&w));
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
        // Pessimistic transitions in OptFinal decide nothing; the unlock
        // keeps sending the object to optimistic states.
        assert!(!policy.on_pess_transition(&w, false));
        assert!(policy.unlock_to_optimistic(&w));
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
                !pess_sample(&policy, &w, false),
                "flipped early at non-confl #{i} (threshold is 100)"
            );
        }
        assert!(pess_sample(&policy, &w, false), "#100 must flip");
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);

        // With one conflicting transition first, the threshold moves to
        // 200 × 1 + 100 = 300.
        let w = word();
        drive_to_pess(&policy, &w);
        assert!(!pess_sample(&policy, &w, true));
        for i in 1..300 {
            assert!(
                !pess_sample(&policy, &w, false),
                "flipped early at non-confl #{i} (threshold is 300)"
            );
        }
        assert!(pess_sample(&policy, &w, false), "#300 must flip");
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
    }

    #[test]
    fn paper_defaults_valve_never_reenters_pess() {
        let policy = AdaptivePolicy::default();
        let w = word();
        drive_to_pess(&policy, &w);
        for _ in 0..100 {
            policy.on_pess_transition(&w, false);
        }
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
        for _ in 0..1_000 {
            assert!(!policy.on_explicit_conflict(&w));
            assert!(!policy.on_pess_transition(&w, true));
            assert!(policy.unlock_to_optimistic(&w), "OptFinal keeps unlocking to optimistic");
        }
        assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::OptFinal);
    }

    #[test]
    fn default_params_match_section_7_3() {
        let p = PolicyParams::default();
        assert_eq!(p.cutoff_confl, 4);
        assert_eq!(p.k_confl, 200);
        assert_eq!(p.inertia, 100);
        assert_eq!(AdaptivePolicy::default().valve, Valve::OneWay);
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
    fn paper_defaults_settle_at_the_5243rd_conflicting_sample() {
        // 200 × 5242 + 100 = 1 048 500 ≤ 2²⁰ − 1 < 200 × 5243 + 100.
        let policy = AdaptivePolicy::default();
        let w = word();
        drive_to_pess(&policy, &w);
        for i in 1..5243 {
            assert!(!pess_sample(&policy, &w, true));
            assert_eq!(AdaptivePolicy::profile(&w).phase, Phase::Pess, "settled early at #{i}");
        }
        assert!(!pess_sample(&policy, &w, true), "settling is no promotion");
        let p = AdaptivePolicy::profile(&w);
        assert_eq!((p.phase, p.promotions, p.pess_confl), (Phase::Settled, 0, 0));
        assert!(policy.in_pess(&w));
        assert!(!policy.unlock_to_optimistic(&w));
    }

    #[test]
    fn settled_is_absorbing_under_either_valve() {
        for valve in [Valve::OneWay, Valve::Reopening] {
            let policy = AdaptivePolicy::with_valve(
                PolicyParams { cutoff_confl: 1, k_confl: 1 << 20, inertia: 1 },
                valve,
            );
            let w = word();
            drive_to_pess(&policy, &w);
            assert!(!pess_sample(&policy, &w, true));
            assert_eq!(policy.phase(&w), Phase::Settled, "{valve:?}");
            let settled = w.load(Ordering::Relaxed);
            for _ in 0..1_000 {
                assert!(!policy.on_explicit_conflict(&w));
                assert!(!policy.force_pess(&w), "force_pess is idempotent on Settled");
                assert!(!pess_sample(&policy, &w, false));
                assert!(!pess_sample(&policy, &w, true));
            }
            assert_eq!(w.load(Ordering::Relaxed), settled, "{valve:?}: a settled profile is never written");
            assert!(policy.in_pess(&w) && !policy.unlock_to_optimistic(&w));
        }
    }

    #[test]
    fn cutoff_zero_objects_are_settled_from_birth() {
        let policy = AdaptivePolicy::new(PolicyParams { cutoff_confl: 0, ..PolicyParams::default() });
        let w = word();
        assert_eq!(policy.phase(&w), Phase::Settled);
        assert!(policy.in_pess(&w) && !policy.unlock_to_optimistic(&w));
        assert!(!policy.on_explicit_conflict(&w));
        assert!(!policy.force_pess(&w));
        assert!(!pess_sample(&policy, &w, false));
        assert!(!pess_sample(&policy, &w, true));
        assert_eq!(w.load(Ordering::Relaxed), 0, "its profile word is never written");
    }

    #[test]
    fn saturating_counters_never_wrap_into_other_fields() {
        // `K_confl = 0` and `Inertia × 2^10` just inside `pessNonConfl`'s
        // range: conflicting samples neither promote nor settle the object,
        // so they run its conflict count to saturation, with the promotion
        // count already at its mask.
        let policy = AdaptivePolicy::new(PolicyParams {
            cutoff_confl: u32::MAX,
            k_confl: 0,
            inertia: (PNON_MASK >> MAX_INERTIA_DOUBLINGS) as u32,
        });
        let w = word();
        let start = Profile {
            num_conflicts: 0,
            pess_non_confl: 0,
            pess_confl: 0,
            promotions: PROMO_MASK as u32,
            phase: Phase::Pess,
        };
        w.store(encode(start), Ordering::Relaxed);
        for _ in 0..2_000_000 {
            policy.on_pess_transition(&w, true);
        }
        let p = AdaptivePolicy::profile(&w);
        assert_eq!(p.pess_confl as u64, PCON_MASK);
        assert_eq!(p.pess_non_confl, 0);
        assert_eq!(p.promotions as u64, PROMO_MASK);
        assert_eq!(p.phase, Phase::Pess);
        // A non-conflicting count past its field saturates there: no sample
        // sequence can reach it in `Pess` any more, since the sample that
        // would is one that promotes.
        let over = decode(encode(Profile { pess_non_confl: u32::MAX, ..p }));
        assert_eq!(over, Profile { pess_non_confl: PNON_MASK as u32, ..p });
        // One more promotion keeps the saturated count and touches nothing else.
        assert_eq!(decode(encode(p.enter(Phase::OptFinal))).promotions as u64, PROMO_MASK);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A `K_confl` at which the 16th conflicting sample of a stay in `Pess`
    /// settles the object, so that random sequences reach `Settled` often.
    const K: u32 = 1 << 16;
    const INERTIA: u32 = 8;

    /// Inequality (5)'s right-hand side over `p`'s counters.
    fn bar(p: Profile) -> u64 {
        K as u64 * p.pess_confl as u64 + ((INERTIA as u64) << p.promotions.min(MAX_INERTIA_DOUBLINGS))
    }

    proptest! {
        /// Over arbitrary sample sequences, under either valve: an object
        /// enters `Settled` exactly at the sample after which inequality (5)
        /// can no longer hold, an object in `Pess` can still satisfy it, and
        /// no sample — a deadline expiry included, which is idempotent —
        /// moves a settled object or writes its profile word.
        #[test]
        fn settled_is_entered_exactly_when_inequality_5_becomes_unsatisfiable(
            samples in proptest::collection::vec((0u8..4, 0u8..4), 0..512),
            reopening in any::<bool>(),
        ) {
            let valve = if reopening { Valve::Reopening } else { Valve::OneWay };
            let policy = AdaptivePolicy::with_valve(PolicyParams { cutoff_confl: 2, k_confl: K, inertia: INERTIA }, valve);
            let w = AtomicU64::new(0);
            for (kind, die) in samples {
                let (raw, before) = (w.load(Ordering::Relaxed), AdaptivePolicy::profile(&w));
                let conflicting = die != 0;
                match kind {
                    0 => drop(policy.on_explicit_conflict(&w)),
                    1 => {
                        let moved = policy.force_pess(&w);
                        let after = w.load(Ordering::Relaxed);
                        prop_assert!(!policy.force_pess(&w));
                        prop_assert_eq!(w.load(Ordering::Relaxed), after);
                        prop_assert!(!(moved && before.phase == Phase::Settled));
                    }
                    _ => drop(policy.on_pess_transition(&w, conflicting)),
                }
                let after = AdaptivePolicy::profile(&w);
                if before.phase == Phase::Settled {
                    prop_assert_eq!(w.load(Ordering::Relaxed), raw, "a sample wrote a settled profile");
                    continue;
                }
                if after.phase == Phase::Settled {
                    // Only a pessimistic sample settles, the one that carried
                    // the right-hand side past what `pessNonConfl` counts.
                    prop_assert!(kind >= 2 && before.phase == Phase::Pess, "{:?} → {:?}", before, after);
                    let counted = Profile { pess_confl: before.pess_confl + u32::from(conflicting), ..before };
                    prop_assert!(bar(counted) > PNON_MASK, "settled while (5) could hold: {:?}", counted);
                    let sampled = before.pess_confl + before.pess_non_confl > 0;
                    prop_assert!(!sampled || bar(before) <= PNON_MASK, "settled late: {:?}", before);
                }
                if after.phase == Phase::Pess {
                    prop_assert!(bar(after) <= PNON_MASK, "(5) unsatisfiable in Pess: {:?}", after);
                }
            }
        }
    }
}
