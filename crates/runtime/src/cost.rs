//! The paper's cycle-cost model (§2.2).
//!
//! > "The average time in CPU cycles for pessimistic instrumentation is 150
//! > cycles ... Optimistic instrumentation's cost is only a few dozen cycles
//! > for non-communicating accesses (Same state), but conflicting transitions
//! > that use Explicit coordination cost 2–3 orders of magnitude more ...
//! > Implicit coordination ... is relatively close to the cost of a
//! > pessimistic access."
//!
//! | kind                    | cycles |
//! |-------------------------|--------|
//! | pessimistic             | 150    |
//! | optimistic same-state   | 47     |
//! | conflicting (explicit)  | 9 200  |
//! | conflicting (implicit)  | 360    |
//!
//! We use the model in two places. First, the adaptive policy's constant
//! `K_confl = (T_confl − T_pess) / (T_pess − T_nonConfl)` is derived from it
//! (§6.1); with the paper's numbers that is (9200−150)/(150−47) ≈ 88, though
//! the paper's evaluation uses K_confl = 200. Second, the bench harnesses
//! convert measured transition *counts* into a platform-independent overhead
//! estimate, so that the shape of Figure 7 can be reproduced even though our
//! substrate is not the authors' 32-core Xeon.

use serde::{Deserialize, Serialize};

use crate::stats::{Event, StatsReport};

/// Per-transition-kind costs in CPU cycles, defaulting to the paper's §2.2
/// measurements.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Pessimistic transition (CAS lock + unlock), any transition type.
    pub pessimistic: f64,
    /// Optimistic same-state transition (fast path, no synchronization).
    pub opt_same_state: f64,
    /// Optimistic upgrading transition (one CAS). The paper's cost–benefit
    /// model treats these as costing about as much as a pessimistic
    /// transition (§6.1, footnote 5).
    pub opt_upgrading: f64,
    /// Optimistic fence transition (memory fence, no CAS).
    pub opt_fence: f64,
    /// Conflicting transition using explicit (roundtrip) coordination.
    pub conflict_explicit: f64,
    /// Conflicting transition using implicit coordination.
    pub conflict_implicit: f64,
    /// Reentrant pessimistic transition: a load and a branch, no atomic op.
    pub pess_reentrant: f64,
    /// Contended pessimistic transition: falls back to coordination, so it
    /// costs about as much as an explicit optimistic conflict. (A wait for a
    /// release that sends no request is no contended transition.)
    pub pess_contended: f64,
    /// Per-object bookkeeping when the adaptive policy moves an object
    /// between pessimistic and optimistic states (a CAS plus profiling).
    pub policy_move: f64,
    /// Releasing one deferred pessimistic state at a flush (a CAS). A lock
    /// released at the end of the access that took it — on every support
    /// that does not defer, tracking alone included — is part of that
    /// access's `pessimistic` cost.
    pub state_unlock: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

impl CostModel {
    /// The §2.2 table, with the derived entries documented above.
    pub const fn paper() -> Self {
        CostModel {
            pessimistic: 150.0,
            opt_same_state: 47.0,
            opt_upgrading: 150.0,
            opt_fence: 100.0,
            conflict_explicit: 9_200.0,
            conflict_implicit: 360.0,
            pess_reentrant: 12.0,
            pess_contended: 9_200.0,
            policy_move: 200.0,
            state_unlock: 70.0,
        }
    }

    /// The paper's run-time constant `K_confl` (§6.1):
    /// `(T_confl − T_pess) / (T_pess − T_nonConfl)`.
    pub fn k_confl(&self) -> f64 {
        (self.conflict_explicit - self.pessimistic) / (self.pessimistic - self.opt_same_state)
    }

    /// Total instrumentation cycles implied by a stats snapshot.
    pub fn instrumentation_cycles(&self, r: &StatsReport) -> f64 {
        let g = |e: Event| r.get(e) as f64;
        g(Event::OptSameState) * self.opt_same_state
            + g(Event::OptUpgrading) * self.opt_upgrading
            + g(Event::OptFence) * self.opt_fence
            + g(Event::OptConflictExplicit) * self.conflict_explicit
            + g(Event::OptConflictImplicit) * self.conflict_implicit
            + g(Event::PessUncontended) * self.pessimistic
            + g(Event::PessReentrant) * self.pess_reentrant
            + g(Event::PessContended) * self.pess_contended
            + (g(Event::OptToPess) + g(Event::PessToOpt)) * self.policy_move
            + g(Event::StateUnlocked) * self.state_unlock
    }

    /// Model-estimated overhead (fraction, e.g. `0.28` = 28%) over an
    /// uninstrumented run, given the application's average useful work per
    /// access in cycles.
    ///
    /// The paper reports overhead relative to unmodified Jikes RVM; the
    /// equivalent here is instrumentation cycles relative to the cycles the
    /// program itself spends. `work_per_access` is the calibration knob; the
    /// bench harnesses use a value fit so optimistic tracking's average
    /// overhead lands near the paper's 28%.
    pub fn model_overhead(&self, r: &StatsReport, work_per_access: f64) -> f64 {
        let accesses = r.accesses() as f64;
        if accesses == 0.0 {
            return 0.0;
        }
        self.instrumentation_cycles(r) / (accesses * work_per_access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{GlobalStats, LocalStats};

    #[test]
    fn paper_costs_match_section_2_2() {
        let m = CostModel::paper();
        assert_eq!(m.pessimistic, 150.0);
        assert_eq!(m.opt_same_state, 47.0);
        assert_eq!(m.conflict_explicit, 9_200.0);
        assert_eq!(m.conflict_implicit, 360.0);
    }

    #[test]
    fn k_confl_is_roughly_88_for_paper_costs() {
        let k = CostModel::paper().k_confl();
        assert!((87.0..90.0).contains(&k), "K_confl = {k}");
    }

    #[test]
    fn cycles_weight_each_transition_kind() {
        let g = GlobalStats::new(1);
        let mut l = LocalStats::new();
        l.add(Event::OptSameState, 100);
        l.add(Event::OptConflictExplicit, 1);
        l.merge_into(&g);
        let m = CostModel::paper();
        let cycles = m.instrumentation_cycles(&g.report());
        assert_eq!(cycles, 100.0 * 47.0 + 9_200.0);
    }

    #[test]
    fn overhead_scales_with_work_per_access() {
        let g = GlobalStats::new(1);
        let mut l = LocalStats::new();
        l.add(Event::Read, 100);
        l.add(Event::OptSameState, 100);
        l.merge_into(&g);
        let r = g.report();
        let m = CostModel::paper();
        let at_100 = m.model_overhead(&r, 100.0);
        let at_200 = m.model_overhead(&r, 200.0);
        assert!((at_100 - 0.47).abs() < 1e-12);
        assert!((at_200 - 0.235).abs() < 1e-12);
    }

    #[test]
    fn zero_accesses_give_zero_overhead() {
        let r = GlobalStats::new(1).report();
        assert_eq!(CostModel::paper().model_overhead(&r, 100.0), 0.0);
    }
}
