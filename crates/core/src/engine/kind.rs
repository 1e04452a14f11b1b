//! Runtime engine selection: one [`EngineKind`] enum over one table of
//! configurations, one CLI parser, one constructor — and the erasure
//! ([`AnyEngine`]) that lets a binary hold "some tracking engine" without
//! monomorphizing per kind.
//!
//! A server-shaped consumer (`drink-serve`) holds *one* engine chosen at
//! startup and must route every tracked access through it with zero
//! per-engine code. [`EngineKind::build`] returns an [`AnyEngine`] — an enum
//! over the two engine types a kind builds, plus the kind that built it —
//! which itself implements [`Tracker`], so `Session<'_, AnyEngine>` works
//! unchanged. An enum and not a box: Figure 10(a)'s same-state check is
//! inlined at every access, which a pointer forbids. [`Tracker`] stays
//! object-safe, and [`EngineKind::build_boxed`] is the concrete engine behind
//! a plain box — what the enum's delegation is tested against.

use std::str::FromStr;
use std::sync::Arc;

use drink_runtime::{MonitorId, ObjId, Runtime, RuntimeConfig, ThreadId};

use crate::engine::hybrid::{HybridConfig, HybridEngine};
use crate::engine::none::NoTracking;
use crate::engine::Tracker;
use crate::support::{NullSupport, Support};

/// The engine configurations a program selects at run time: the baseline,
/// and four of the hybrid engine on `NullSupport`. Those four are set by two
/// values — `Cutoff_confl` (0, 4 or ∞) and the [`Valve`](crate::policy::Valve)
/// (one-way or re-opening) — and at 0 by write-locked self-reads
/// ([`HybridConfig::pessimistic`]). How long a lock lives is none of these:
/// it is the support's discipline ([`Locking`](crate::support::Locking)), so
/// each kind unlocks eagerly on `NullSupport` and defers on the recorder and
/// the RS enforcer:
///
/// | | one-way | re-opening |
/// |---|---|---|
/// | 0 | [`Pessimistic`](EngineKind::Pessimistic) | — |
/// | 4 | [`Hybrid`](EngineKind::Hybrid) | [`Adaptive`](EngineKind::Adaptive) |
/// | ∞ | — | [`Optimistic`](EngineKind::Optimistic) |
///
/// At `Cutoff_confl = 0` no object ever meets its policy (every object is
/// born pessimistic), so the valve does not matter there.
///
/// Figure 7's "Hybrid tracking w/ infinite cutoff" is `Optimistic` here: with
/// `Cutoff_confl = ∞` the valve only matters after a coordination deadline
/// expires, so the one-way ∞ cell would measure the same protocol again.
/// Figure 7's unsound "Ideal" (§7.5) is no kind: it is `Optimistic`'s
/// configuration on [`IdealModel`](crate::support::IdealModel), which only
/// the Figure 7 runner builds.
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
    /// Hybrid tracking with the paper's policy and a valve that re-opens: an
    /// object the policy returned to optimistic states goes pessimistic again
    /// when it collects `Cutoff_confl` more explicit conflicts, and each
    /// return doubles the `Inertia` its next one must meet.
    Adaptive,
}

/// One row of [`KINDS`]: everything that distinguishes a kind.
struct KindRow {
    kind: EngineKind,
    /// Canonical short name: table tags, metric suffixes, preferred CLI
    /// spelling.
    short: &'static str,
    /// Other CLI spellings [`EngineKind::parse`] accepts.
    aliases: &'static [&'static str],
    /// Display name matching the paper's legend.
    label: &'static str,
    /// The name results report under ([`Tracker::name`] of the built engine).
    name: &'static str,
    /// What the kind builds (see the [module table](crate::engine)):
    /// [`HybridEngine`] under the configuration the constructor returns, or
    /// `None` for [`NoTracking`].
    config: Option<fn() -> HybridConfig>,
}

/// The engine table, in [`EngineKind`]'s declaration order (checked below).
#[rustfmt::skip]
const KINDS: [KindRow; 5] = {
    use {EngineKind as K, HybridConfig as H};
    const fn row(
        kind: K, short: &'static str, aliases: &'static [&'static str],
        label: &'static str, name: &'static str, config: Option<fn() -> HybridConfig>,
    ) -> KindRow {
        KindRow { kind, short, aliases, label, name, config }
    }
    [
        row(K::Baseline, "baseline", &["none"], "Baseline", "baseline", None),
        row(K::Pessimistic, "pess", &["pessimistic"], "Pessimistic tracking", "pessimistic", Some(H::pessimistic)),
        row(K::Optimistic, "opt", &["optimistic"], "Optimistic tracking", "optimistic", Some(H::optimistic)),
        row(K::Hybrid, "hybrid", &[], "Hybrid tracking", "hybrid", Some(H::default)),
        row(K::Adaptive, "adapt", &["adaptive"], "Adaptive (online demotion)", "adaptive", Some(H::adaptive)),
    ]
};

// `EngineKind::row` indexes the table by discriminant.
const _: () = {
    assert!(KINDS.len() == EngineKind::Adaptive as usize + 1, "a kind has no row");
    let mut i = 0;
    while i < KINDS.len() {
        assert!(KINDS[i].kind as usize == i, "KINDS is not in EngineKind's declaration order");
        i += 1;
    }
};

impl EngineKind {
    /// Every kind, for parsers and exhaustive sweeps.
    pub const ALL: [EngineKind; KINDS.len()] = {
        let mut all = [EngineKind::Baseline; KINDS.len()];
        let mut i = 0;
        while i < KINDS.len() {
            all[i] = KINDS[i].kind;
            i += 1;
        }
        all
    };

    /// The CLI spellings [`EngineKind::parse`] accepts, for usage strings
    /// (`a[b]` stands for both `a` and `ab`).
    pub const CLI_NAMES: &'static str =
        "baseline|none|pess[imistic]|opt[imistic]|hybrid|adapt[ive]";

    fn row(self) -> &'static KindRow {
        &KINDS[self as usize]
    }

    /// Display name matching the paper's legend.
    pub fn label(self) -> &'static str {
        self.row().label
    }

    /// Canonical short name: stable row/table tags and the preferred CLI
    /// spelling. Round-trips through [`EngineKind::parse`].
    pub fn short_name(self) -> &'static str {
        self.row().short
    }

    /// The name results report under: [`Tracker::name`] of the built engine,
    /// and the configuration name of a runtime support built on this kind.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The [`HybridEngine`] configuration this kind is, or `None` for the
    /// baseline, which no runtime support may be built on.
    pub fn hybrid_config(self) -> Option<HybridConfig> {
        self.row().config.map(|cfg| cfg())
    }

    /// The hybrid engine in this kind's configuration, owning runtime support
    /// `support` (the recorder, the RS enforcer), which
    /// [`HybridEngine::into_support`] hands back. The one place a kind is
    /// refused for a support: panics, naming the kind, if
    /// [`EngineKind::hybrid_config`] has none for it.
    pub fn with_support<S: Support>(self, rt: Arc<Runtime>, support: S) -> HybridEngine<S> {
        let Some(cfg) = self.hybrid_config() else {
            panic!("runtime support runs on the hybrid engine, which {self:?} does not configure");
        };
        HybridEngine::with_config(rt, support, cfg)
    }

    /// Parse a CLI engine name. This is the *only* string-to-engine mapping
    /// in the workspace; binaries must not grow private copies. Accepts the
    /// canonical short names plus each kind's long spellings.
    pub fn parse(s: &str) -> Option<EngineKind> {
        KINDS.iter().find(|r| r.short == s || r.aliases.contains(&s)).map(|r| r.kind)
    }

    /// Construct the engine behind an object-safe box: the concrete engine
    /// type, with no [`AnyEngine`] in between (the tests compare the two).
    pub fn build_boxed(self, rt: Arc<Runtime>) -> Box<dyn Tracker> {
        match self.hybrid_config() {
            None => Box::new(NoTracking::new(rt)),
            Some(cfg) => Box::new(HybridEngine::with_config(rt, NullSupport, cfg)),
        }
    }

    /// Build this kind on a caller-provided runtime, erased: everything
    /// downstream goes through [`AnyEngine`]. The runtime may carry
    /// pre-registered hooks (the chaos harness) or a caller-tuned config; it
    /// must be sized for the workload that will run.
    pub fn build(self, rt: Arc<Runtime>) -> AnyEngine {
        let inner = match self.hybrid_config() {
            None => Inner::NoTracking(NoTracking::new(rt)),
            Some(cfg) => Inner::Hybrid(HybridEngine::with_config(rt, NullSupport, cfg)),
        };
        AnyEngine { kind: self, inner }
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

/// A tracking engine selected at runtime: the baseline or the hybrid engine
/// on `NullSupport`, by value, plus the [`EngineKind`]
/// that built it. Implements [`Tracker`] by delegation, so every generic
/// consumer (`Session`, the workload driver, the serve store) accepts it
/// unchanged. The cost of erasure is a branch on the
/// variant: `read` / `write` / `safepoint` inline the engine's own leaf.
pub struct AnyEngine {
    kind: EngineKind,
    inner: Inner,
}

enum Inner {
    NoTracking(NoTracking),
    Hybrid(HybridEngine<NullSupport>),
}

impl AnyEngine {
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

/// [`Tracker`] methods that hand their arguments to the engine inside.
macro_rules! delegate {
    ($($(#[$attr:meta])* fn $name:ident(&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)*) => {$(
        $(#[$attr])*
        fn $name(&self $(, $arg: $ty)*) $(-> $ret)? {
            match &self.inner {
                Inner::NoTracking(e) => e.$name($($arg),*),
                Inner::Hybrid(e) => e.$name($($arg),*),
            }
        }
    )*};
}

impl Tracker for AnyEngine {
    /// The name this kind's results report under: its own, so that the
    /// kinds sharing the hybrid engine's machinery stay distinguishable in
    /// bench tables and chaos matrices.
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    delegate! {
        fn rt(&self) -> &Arc<Runtime>;
        fn attach(&self) -> ThreadId;
        fn detach(&self, t: ThreadId);
        #[inline(always)]
        fn read(&self, t: ThreadId, o: ObjId) -> u64;
        #[inline(always)]
        fn write(&self, t: ThreadId, o: ObjId, v: u64);
        fn alloc_init(&self, o: ObjId, owner: ThreadId);
        fn alloc_init_read_shared(&self, o: ObjId);
        #[inline(always)]
        fn safepoint(&self, t: ThreadId);
        fn lock(&self, t: ThreadId, m: MonitorId);
        fn unlock(&self, t: ThreadId, m: MonitorId);
        fn wait(&self, t: ThreadId, m: MonitorId);
        fn notify_all(&self, t: ThreadId, m: MonitorId);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use drink_runtime::Event;
    use std::sync::atomic::Ordering;

    fn tiny_rt() -> Arc<Runtime> {
        Arc::new(Runtime::new(
            RuntimeConfig::builder().max_threads(2).heap_objects(8).monitors(2).build(),
        ))
    }

    /// One single-thread script over every [`Tracker`] operation a session
    /// drives. Returns every event count, every payload and every state word
    /// it leaves behind.
    fn script<T: Tracker + ?Sized>(engine: &T) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let s = Session::attach(engine);
        s.alloc(ObjId(0));
        s.write(ObjId(0), 41);
        assert_eq!(s.read(ObjId(0)), 41);
        s.synchronized(MonitorId(0), |s| s.write(ObjId(0), s.read(ObjId(0)) + 1));
        engine.alloc_init_read_shared(ObjId(1));
        assert_eq!(s.read(ObjId(1)), 0);
        s.write(ObjId(2), 9);
        s.safepoint();
        drop(s);
        let heap = engine.rt().heap();
        let report = engine.rt().stats().report();
        (
            Event::ALL.iter().map(|&e| report.get(e)).collect(),
            heap.snapshot_data(),
            heap.iter().map(|(_, o)| o.state().load(Ordering::SeqCst)).collect(),
        )
    }

    /// Erasure parity: the enum's delegation leaves what the concrete engine
    /// behind a bare `Box<dyn Tracker>` leaves, for every kind.
    #[test]
    fn every_kind_builds_and_serves_a_session() {
        for kind in EngineKind::ALL {
            let engine = kind.build(tiny_rt());
            assert_eq!(engine.kind(), kind);
            let by_enum = script(&engine);
            let by_box = script::<dyn Tracker>(&*kind.build_boxed(tiny_rt()));
            assert_eq!(by_enum, by_box, "{kind:?}");
            let accesses = engine.rt().stats().report().accesses();
            assert_eq!(accesses, if kind == EngineKind::Baseline { 0 } else { 6 }, "{kind:?}");
            assert_eq!(by_enum.1[..3], [42, 0, 9], "{kind:?}");
        }
    }

    #[test]
    fn sessions_work_against_the_bare_trait_object() {
        // `Session<dyn Tracker>`: the erasure needs no wrapper at all when
        // the caller already holds a box.
        let boxed: Box<dyn Tracker> = EngineKind::Hybrid.build_boxed(tiny_rt());
        let s: Session<'_, dyn Tracker> = Session::attach(&*boxed);
        s.alloc(ObjId(1));
        s.write(ObjId(1), 7);
        assert_eq!(s.read(ObjId(1)), 7);
    }

    /// Every kind but the baseline is a hybrid configuration, so any of them
    /// can carry runtime support.
    #[test]
    fn every_kind_but_baseline_has_a_hybrid_config() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.hybrid_config().is_some(), kind != EngineKind::Baseline, "{kind:?}");
        }
    }

    #[test]
    fn adaptive_reports_its_own_name() {
        // Every kind reports under its own row's name, the four that share
        // the hybrid engine included...
        for row in &KINDS {
            assert_eq!(row.kind.build(tiny_rt()).name(), row.name, "{:?}", row.kind);
        }
        // ...and the names `benchmark/` keys its results on stay put.
        assert_eq!(EngineKind::Baseline.build(tiny_rt()).name(), "baseline");
        assert_eq!(EngineKind::Pessimistic.build(tiny_rt()).name(), "pessimistic");
        assert_eq!(EngineKind::Hybrid.build(tiny_rt()).name(), "hybrid");
        assert_eq!(EngineKind::Adaptive.build(tiny_rt()).name(), "adaptive");
    }

    #[test]
    fn parse_roundtrips_short_names_and_accepts_long_forms() {
        for row in &KINDS {
            assert_eq!(EngineKind::parse(row.kind.short_name()), Some(row.kind));
            for alias in row.aliases {
                assert_eq!(EngineKind::parse(alias), Some(row.kind), "{alias}");
            }
        }
        assert_eq!(EngineKind::ALL.len(), KINDS.len());
        assert_eq!(EngineKind::parse("nonsense"), None);
        assert_eq!(EngineKind::parse("ideal"), None, "Figure 7's Ideal is no kind");
        assert!("nope".parse::<EngineKind>().unwrap_err().contains("unknown engine"));
    }

    /// `CLI_NAMES` cannot be derived from the table in const context, so it
    /// is pinned to it here: it lists every spelling `parse` accepts, and
    /// nothing else.
    #[test]
    fn cli_names_lists_every_spelling() {
        let mut listed = Vec::new();
        for alt in EngineKind::CLI_NAMES.split('|') {
            match alt.split_once('[') {
                None => listed.push(alt.to_string()),
                Some((stem, rest)) => {
                    listed.push(stem.to_string());
                    listed.push(format!("{stem}{}", rest.trim_end_matches(']')));
                }
            }
        }
        let mut accepted: Vec<String> = KINDS
            .iter()
            .flat_map(|r| std::iter::once(&r.short).chain(r.aliases))
            .map(|s| s.to_string())
            .collect();
        listed.sort();
        accepted.sort();
        assert_eq!(listed, accepted);
    }

    #[test]
    fn labels_are_unique() {
        for field in [|r: &KindRow| r.label, |r: &KindRow| r.name, |r: &KindRow| r.short] {
            let mut values: Vec<&str> = KINDS.iter().map(field).collect();
            values.sort();
            values.dedup();
            assert_eq!(values.len(), KINDS.len());
        }
    }
}
