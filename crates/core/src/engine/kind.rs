//! Runtime engine selection: one [`EngineKind`] enum, one CLI parser, one
//! constructor — and the object-safe erasure ([`AnyEngine`]) that lets a
//! binary hold "some tracking engine" without monomorphizing per kind.
//!
//! Before this module every binary carried its own copy of the
//! string-to-engine match (`contention`, `custom_workload`, `trace`) and the
//! workload driver duplicated a seven-arm constructor match. A server-shaped
//! consumer (`drink-serve`) cannot afford either: its store holds *one*
//! engine chosen at startup and must route every tracked access through it
//! with zero per-engine code. [`Tracker`] was already object-safe, so the
//! erasure is a thin box: [`EngineKind::build`] returns an [`AnyEngine`]
//! (a `Box<dyn Tracker>` plus the kind that built it), which itself
//! implements [`Tracker`] — so `Session<'_, AnyEngine>` works unchanged and
//! generic drivers accept erased engines without a separate code path.

use std::str::FromStr;
use std::sync::Arc;

use drink_runtime::{MonitorId, ObjId, Runtime, RuntimeConfig, ThreadId};

use crate::engine::hybrid::{HybridConfig, HybridEngine};
use crate::engine::ideal::IdealEngine;
use crate::engine::none::NoTracking;
use crate::engine::optimistic::OptimisticEngine;
use crate::engine::pessimistic::PessimisticEngine;
use crate::engine::Tracker;
use crate::support::NullSupport;

/// The type-erased tracker: [`Tracker`] is object-safe by design, so the
/// erased form is just the trait object.
pub type DynTracker = dyn Tracker;

/// The engine configurations of Figure 7, plus the adaptive one. The four
/// tracked kinds built on the hybrid engine are the 2 × 2 of two values —
/// `Cutoff_confl` (4 or ∞) and the valve (one-way or re-opening, see
/// [`crate::adapt`]):
///
/// | | one-way | re-opening |
/// |---|---|---|
/// | 4 | [`Hybrid`](EngineKind::Hybrid) | [`Adaptive`](EngineKind::Adaptive) |
/// | ∞ | [`HybridInfiniteCutoff`](EngineKind::HybridInfiniteCutoff) | [`Optimistic`](EngineKind::Optimistic) |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Unmodified runtime (overhead baseline).
    Baseline,
    /// Pessimistic tracking (§2.1).
    Pessimistic,
    /// Optimistic tracking (§2.2): pure Octet, unless a configured
    /// coordination deadline expires on an object.
    Optimistic,
    /// Hybrid tracking with the paper's default policy (§3/§6).
    Hybrid,
    /// Hybrid tracking with `Cutoff_confl = ∞` (costs-only configuration).
    HybridInfiniteCutoff,
    /// Hybrid tracking with the paper's policy and a valve that re-opens: an
    /// object the policy returned to optimistic states goes pessimistic again
    /// when it collects `Cutoff_confl` more explicit conflicts, and each
    /// return doubles the `Inertia` its next one must meet.
    Adaptive,
    /// The unsound "Ideal" upper-bound estimate (§7.5).
    Ideal,
}

impl EngineKind {
    /// All configurations, in Figure 7's legend order (baseline excluded).
    pub const FIGURE7: [EngineKind; 5] = [
        EngineKind::Pessimistic,
        EngineKind::Optimistic,
        EngineKind::HybridInfiniteCutoff,
        EngineKind::Hybrid,
        EngineKind::Ideal,
    ];

    /// Every kind, for parsers and exhaustive sweeps.
    pub const ALL: [EngineKind; 7] = [
        EngineKind::Baseline,
        EngineKind::Pessimistic,
        EngineKind::Optimistic,
        EngineKind::Hybrid,
        EngineKind::HybridInfiniteCutoff,
        EngineKind::Adaptive,
        EngineKind::Ideal,
    ];

    /// The CLI spellings [`EngineKind::parse`] accepts, for usage strings.
    pub const CLI_NAMES: &'static str =
        "baseline|pess[imistic]|opt[imistic]|hybrid|hybrid-inf|adapt[ive]|ideal";

    /// Display name matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Baseline => "Baseline",
            EngineKind::Pessimistic => "Pessimistic tracking",
            EngineKind::Optimistic => "Optimistic tracking",
            EngineKind::Hybrid => "Hybrid tracking",
            EngineKind::HybridInfiniteCutoff => "Hybrid tracking w/infinite cutoff",
            EngineKind::Adaptive => "Adaptive (online demotion)",
            EngineKind::Ideal => "Ideal",
        }
    }

    /// Canonical short name: stable row/table tags and the preferred CLI
    /// spelling. Round-trips through [`EngineKind::parse`].
    pub fn short_name(self) -> &'static str {
        match self {
            EngineKind::Baseline => "baseline",
            EngineKind::Pessimistic => "pess",
            EngineKind::Optimistic => "opt",
            EngineKind::Hybrid => "hybrid",
            EngineKind::HybridInfiniteCutoff => "hybrid-inf",
            EngineKind::Adaptive => "adapt",
            EngineKind::Ideal => "ideal",
        }
    }

    /// Parse a CLI engine name. This is the *only* string-to-engine mapping
    /// in the workspace; binaries must not grow private copies. Accepts the
    /// canonical short names plus the long spellings the older per-bin
    /// parsers took (`pessimistic`, `optimistic`, `adaptive`).
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "baseline" | "none" => Some(EngineKind::Baseline),
            "pess" | "pessimistic" => Some(EngineKind::Pessimistic),
            "opt" | "optimistic" => Some(EngineKind::Optimistic),
            "hybrid" => Some(EngineKind::Hybrid),
            "hybrid-inf" | "hybrid-infinite" => Some(EngineKind::HybridInfiniteCutoff),
            "adapt" | "adaptive" => Some(EngineKind::Adaptive),
            "ideal" => Some(EngineKind::Ideal),
            _ => None,
        }
    }

    /// Construct the engine behind an object-safe box. The one constructor
    /// match in the workspace; everything downstream goes through the erased
    /// interface.
    pub fn build_boxed(self, rt: Arc<Runtime>) -> Box<DynTracker> {
        match self {
            EngineKind::Baseline => Box::new(NoTracking::new(rt)),
            EngineKind::Pessimistic => Box::new(PessimisticEngine::new(rt)),
            EngineKind::Optimistic => Box::new(OptimisticEngine::new(rt)),
            EngineKind::Hybrid => Box::new(HybridEngine::new(rt)),
            EngineKind::HybridInfiniteCutoff => Box::new(HybridEngine::with_config(
                rt,
                NullSupport,
                HybridConfig::infinite_cutoff(),
            )),
            EngineKind::Adaptive => Box::new(HybridEngine::with_config(
                rt,
                NullSupport,
                HybridConfig::adaptive(),
            )),
            EngineKind::Ideal => Box::new(IdealEngine::new(rt)),
        }
    }

    /// Build this kind on a caller-provided runtime, erased. The runtime may
    /// carry pre-registered hooks (the chaos harness) or a caller-tuned
    /// config; it must be sized for the workload that will run.
    pub fn build(self, rt: Arc<Runtime>) -> AnyEngine {
        AnyEngine { kind: self, inner: self.build_boxed(rt) }
    }

    /// Build this kind on a fresh runtime constructed from `config`.
    pub fn build_config(self, config: RuntimeConfig) -> AnyEngine {
        self.build(Arc::new(Runtime::new(config)))
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::parse(s)
            .ok_or_else(|| format!("unknown engine `{s}` (expected {})", EngineKind::CLI_NAMES))
    }
}

/// A tracking engine selected at runtime: `Box<dyn Tracker>` plus the
/// [`EngineKind`] that built it. Implements [`Tracker`] by delegation, so
/// every generic consumer (`Session`, the workload driver, the serve store)
/// accepts it unchanged — the virtual call per operation is the entire cost
/// of erasure.
pub struct AnyEngine {
    kind: EngineKind,
    inner: Box<DynTracker>,
}

impl AnyEngine {
    /// Wrap an already-built engine under its kind tag.
    pub fn from_boxed(kind: EngineKind, inner: Box<DynTracker>) -> Self {
        AnyEngine { kind, inner }
    }

    /// Which configuration built this engine.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }
}

impl std::fmt::Debug for AnyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnyEngine").field("kind", &self.kind).finish_non_exhaustive()
    }
}

impl Tracker for AnyEngine {
    #[inline]
    fn rt(&self) -> &Arc<Runtime> {
        self.inner.rt()
    }

    /// The configuration name under which results report. The adaptive kind
    /// shares the hybrid engine's machinery but must report under its own
    /// label so bench tables and chaos matrices can gate it separately
    /// (previously patched up by the workload driver post-run).
    fn name(&self) -> &'static str {
        match self.kind {
            EngineKind::Adaptive => "adaptive",
            _ => self.inner.name(),
        }
    }

    #[inline]
    fn attach(&self) -> ThreadId {
        self.inner.attach()
    }

    #[inline]
    fn detach(&self, t: ThreadId) {
        self.inner.detach(t)
    }

    #[inline]
    fn read(&self, t: ThreadId, o: ObjId) -> u64 {
        self.inner.read(t, o)
    }

    #[inline]
    fn write(&self, t: ThreadId, o: ObjId, v: u64) {
        self.inner.write(t, o, v)
    }

    #[inline]
    fn try_write(&self, t: ThreadId, o: ObjId, v: u64) -> Option<u64> {
        self.inner.try_write(t, o, v)
    }

    #[inline]
    fn alloc_init(&self, o: ObjId, owner: ThreadId) {
        self.inner.alloc_init(o, owner)
    }

    #[inline]
    fn alloc_init_read_shared(&self, o: ObjId) {
        self.inner.alloc_init_read_shared(o)
    }

    #[inline]
    fn safepoint(&self, t: ThreadId) {
        self.inner.safepoint(t)
    }

    #[inline]
    fn lock(&self, t: ThreadId, m: MonitorId) {
        self.inner.lock(t, m)
    }

    #[inline]
    fn unlock(&self, t: ThreadId, m: MonitorId) {
        self.inner.unlock(t, m)
    }

    #[inline]
    fn wait(&self, t: ThreadId, m: MonitorId) {
        self.inner.wait(t, m)
    }

    #[inline]
    fn notify_all(&self, t: ThreadId, m: MonitorId) {
        self.inner.notify_all(t, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn tiny_rt() -> Arc<Runtime> {
        Arc::new(Runtime::new(
            RuntimeConfig::builder().max_threads(2).heap_objects(8).monitors(2).build(),
        ))
    }

    #[test]
    fn every_kind_builds_and_serves_a_session() {
        for kind in EngineKind::ALL {
            let engine = kind.build(tiny_rt());
            assert_eq!(engine.kind(), kind);
            let s = Session::attach(&engine);
            s.alloc(ObjId(0));
            s.write(ObjId(0), 41);
            assert_eq!(s.read(ObjId(0)), 41);
            s.synchronized(MonitorId(0), |s| s.write(ObjId(0), 42));
            s.safepoint();
            drop(s);
            if kind != EngineKind::Baseline {
                assert!(engine.rt().stats().report().accesses() >= 3, "{kind:?}");
            }
        }
    }

    #[test]
    fn sessions_work_against_the_bare_trait_object() {
        // `Session<dyn Tracker>`: the erasure needs no wrapper at all when
        // the caller already holds a box.
        let boxed: Box<DynTracker> = EngineKind::Hybrid.build_boxed(tiny_rt());
        let s: Session<'_, DynTracker> = Session::attach(&*boxed);
        s.alloc(ObjId(1));
        s.write(ObjId(1), 7);
        assert_eq!(s.read(ObjId(1)), 7);
    }

    #[test]
    fn adaptive_reports_its_own_name() {
        assert_eq!(EngineKind::Adaptive.build(tiny_rt()).name(), "adaptive");
        assert_eq!(EngineKind::Hybrid.build(tiny_rt()).name(), "hybrid");
        assert_eq!(EngineKind::HybridInfiniteCutoff.build(tiny_rt()).name(), "hybrid");
    }

    #[test]
    fn parse_roundtrips_short_names_and_accepts_long_forms() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.short_name()), Some(kind));
        }
        assert_eq!(EngineKind::parse("pessimistic"), Some(EngineKind::Pessimistic));
        assert_eq!(EngineKind::parse("optimistic"), Some(EngineKind::Optimistic));
        assert_eq!(EngineKind::parse("adaptive"), Some(EngineKind::Adaptive));
        assert_eq!(EngineKind::parse("nonsense"), None);
        assert!("nope".parse::<EngineKind>().unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = EngineKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), EngineKind::ALL.len());
    }
}
