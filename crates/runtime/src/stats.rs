//! Execution statistics shared by every tracking engine.
//!
//! The paper's evaluation is driven almost entirely by *state-transition
//! counts* (Table 2) and by the per-transition-kind *cycle costs* (§2.2).
//! Every engine therefore increments a [`LocalStats`] counter for each event;
//! local counters are plain (uncontended) `u64`s merged into a [`GlobalStats`]
//! when a mutator detaches, so counting never perturbs the measured protocols
//! with extra cache traffic.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Every event in the substrate and the tracking engines: what the counters
/// count and what the trace rings ([`crate::trace`]) record, under one name.
///
/// The first block mirrors the transition taxonomy of Table 1/Table 3; the
/// second block counts coordination and runtime-support events. The paper's
/// Table 2 columns are derived from these counters by
/// [`StatsReport`].
///
/// A runtime built with trace rings records each event where it is counted,
/// so a ring and the counters agree. The record's argument is the object id
/// for an event about one object, the monitor id for a monitor event, and
/// otherwise what the variant's doc names. Four variants are only
/// traced, never counted: [`Event::CoordRequestSent`],
/// [`Event::CoordPeerImplicit`], [`Event::CoordFanoutPeerDone`] and
/// [`Event::MonitorWait`]. Eight are only counted: the fast paths'
/// `OptSameState`, `PessReentrant` and `SafepointPoll`, the per-transition
/// `PessOwnerChange` and `StateUnlocked`, `CoordBatchRequests` and
/// `CoordFanoutPeers` (the sums of the traced arguments of
/// `RespondedExplicit` and `CoordFanout`), and the replayer's `ReplayWait`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum Event {
    // --- Optimistic transitions (Table 1 / bottom half of Table 3) ---
    /// Same-state optimistic transition: the synchronization-free fast path.
    OptSameState,
    /// Upgrading transition (RdEx→WrEx by owner, RdEx→RdSh): one CAS.
    OptUpgrading,
    /// Fence transition: first read of a RdSh object with a stale
    /// per-thread rdShCount; a memory fence, no CAS.
    OptFence,
    /// Conflicting optimistic transition resolved with explicit (roundtrip)
    /// coordination.
    OptConflictExplicit,
    /// Conflicting optimistic transition resolved implicitly against a
    /// blocked thread.
    OptConflictImplicit,

    // --- Pessimistic transitions (top half of Table 3) ---
    /// Uncontended pessimistic transition that required a CAS.
    PessUncontended,
    /// Reentrant pessimistic transition: no state change, no atomic op
    /// (already read/write-locked appropriately by this thread).
    PessReentrant,
    /// Contended pessimistic transition: conflicted with a locked state and
    /// fell back to coordination.
    PessContended,
    /// Pessimistic transition whose previous state was last held by a
    /// *different* thread (§7.5 reports 26% of racyInc's pessimistic accesses
    /// "lock a state with a different thread than the previous access" —
    /// the remote-cache-miss proxy).
    PessOwnerChange,

    // --- Hybrid-model state moves (the diamonds of Figure 3) ---
    /// An object moved from optimistic to pessimistic states.
    OptToPess,
    /// An object moved from pessimistic back to optimistic states.
    PessToOpt,
    /// The policy's valve held an object pessimistic at an unlock that left
    /// it fully unlocked, instead of releasing it to optimistic states.
    ValveKeptPess,

    // --- Deferred unlocking ---
    /// A lock-buffer flush (at a PSRO or responding safe point); traced with
    /// the number of buffered locks flushed.
    LockBufferFlush,
    /// An individual object state unlocked during a flush.
    StateUnlocked,

    // --- Coordination mechanics ---
    /// This thread answered a batch of explicit coordination requests with
    /// one release-clock bump: at a responding safe point, right after
    /// publishing BLOCKED, or at detach. Traced with the batch size.
    RespondedExplicit,
    /// This thread was coordinated with implicitly while blocked (counted on
    /// wake-up; several implicit coordinations may collapse into one epoch
    /// observation). Traced with argument 0.
    ImplicitObservedOnWake,
    /// A coordination this thread initiated resolved: one `coordinate` call
    /// that completed, whether its peers answered explicitly, were resolved
    /// implicitly, or both, and whether it targeted one peer or fanned out.
    /// (A call its deadline cut short is a [`Event::CoordDeadlineExceeded`]
    /// instead.) [`LatencyKind::CoordRoundtrip`] times a narrower set: the
    /// single-peer calls that the peer answered explicitly.
    CoordinationRoundtrip,
    /// Total explicit requests answered across responding safe points. Each
    /// responding safe point drains its whole inbox and answers the batch
    /// with *one* release-clock bump, so
    /// `CoordBatchRequests / RespondedExplicit` is the mean batch occupancy
    /// (the coalescing rate Table-2-style reports can show).
    CoordBatchRequests,
    /// Coordination fan-outs completed (one all-others `coordinate` call: the
    /// conservative RdSh protocol that coordinates with every live peer).
    /// Traced with the number of peers it covered.
    CoordFanout,
    /// Total peers covered by fan-outs; `CoordFanoutPeers / CoordFanout` is
    /// the mean fan-out width.
    CoordFanoutPeers,
    /// Traced only: an explicit request was enqueued to a running peer (arg
    /// = the peer's thread id). The peer's answer is its
    /// [`Event::RespondedExplicit`].
    CoordRequestSent,
    /// Traced only: a single-peer coordination resolved its peer implicitly,
    /// because it was blocked or detached (arg = the peer's thread id).
    CoordPeerImplicit,
    /// Traced only: one peer of a fan-out resolved in its poll loop,
    /// explicitly or implicitly (arg = the peer's thread id).
    CoordFanoutPeerDone,

    // --- Program-level events ---
    /// Tracked read access.
    Read,
    /// Tracked write access.
    Write,
    /// Monitor acquired without blocking.
    MonitorAcquireFast,
    /// Monitor acquire had to block, or a monitor wait reacquired.
    MonitorAcquireBlocked,
    /// Monitor released (a PSRO).
    MonitorRelease,
    /// Traced only: a monitor wait began (released, then parks; the
    /// reacquire is a [`Event::MonitorAcquireBlocked`]).
    MonitorWait,
    /// Safe point poll executed.
    SafepointPoll,

    // --- Runtime support ---
    /// Replayer: a sink had to spin-wait for its source clock.
    ReplayWait,
    /// RS enforcer: a region started (or restarted) execution. Traced with
    /// the attempt number (0 for the first).
    RegionExec,
    /// RS enforcer: a region was rolled back and restarted. Traced with the
    /// number of the attempt that rolled back.
    RegionRestart,

    // --- Seqlock read path (DESIGN.md §12) ---
    /// A read served by validation alone — the state word it re-loaded after
    /// the payload was the one it started from: no state transition, no
    /// lock, no fence-count update, no fan-out.
    SeqlockValidated,
    /// A seqlock read attempt whose revalidation failed (somebody installed
    /// a new state word inside the read window); the read retried from the
    /// new word, or took the ordinary read path if that word rules
    /// validation out.
    SeqlockRetry,
    /// A seqlock read that exhausted its retries and fell back to the
    /// engine's ordinary read path (the transition its state prescribes).
    SeqlockFallback,

    // --- Degradation ladder (DESIGN.md §13) ---
    /// A coordination wait hit the configured `coord_deadline` and the
    /// requester abandoned the roundtrip, falling back to the pessimistic
    /// protocol for that object instead of spinning on.
    CoordDeadlineExceeded,
    /// Under the adaptive policy's re-opening valve, an object's phase
    /// changed into `Pess` (it collected `Cutoff_confl` explicit conflicts
    /// since it last turned optimistic, or a coordination deadline expired
    /// on it).
    AdaptDemotion,
    /// Under the re-opening valve, an object's phase changed out of `Pess`
    /// (its transitions since it turned pessimistic satisfied inequality (5)).
    AdaptPromotion,
}

impl Event {
    /// Number of event kinds (length of the counter arrays).
    pub const COUNT: usize = Event::AdaptPromotion as usize + 1;

    /// Compile-time proof backing the unchecked indexing in
    /// [`LocalStats::bump`]: discriminants are the dense range `0..COUNT`.
    const EVENT_DISCRIMINANTS_DENSE: () = {
        let mut i = 0;
        while i < Event::COUNT {
            assert!((Event::ALL[i] as usize) == i, "Event discriminants must be dense 0..COUNT");
            i += 1;
        }
    };

    /// All events, in counter-index order.
    pub const ALL: [Event; Event::COUNT] = [
        Event::OptSameState,
        Event::OptUpgrading,
        Event::OptFence,
        Event::OptConflictExplicit,
        Event::OptConflictImplicit,
        Event::PessUncontended,
        Event::PessReentrant,
        Event::PessContended,
        Event::PessOwnerChange,
        Event::OptToPess,
        Event::PessToOpt,
        Event::ValveKeptPess,
        Event::LockBufferFlush,
        Event::StateUnlocked,
        Event::RespondedExplicit,
        Event::ImplicitObservedOnWake,
        Event::CoordinationRoundtrip,
        Event::CoordBatchRequests,
        Event::CoordFanout,
        Event::CoordFanoutPeers,
        Event::CoordRequestSent,
        Event::CoordPeerImplicit,
        Event::CoordFanoutPeerDone,
        Event::Read,
        Event::Write,
        Event::MonitorAcquireFast,
        Event::MonitorAcquireBlocked,
        Event::MonitorRelease,
        Event::MonitorWait,
        Event::SafepointPoll,
        Event::ReplayWait,
        Event::RegionExec,
        Event::RegionRestart,
        Event::SeqlockValidated,
        Event::SeqlockRetry,
        Event::SeqlockFallback,
        Event::CoordDeadlineExceeded,
        Event::AdaptDemotion,
        Event::AdaptPromotion,
    ];

    /// The event whose discriminant is `i`: how a trace ring slot, which
    /// stores an event as its discriminant, decodes it.
    pub(crate) fn from_index(i: u64) -> Option<Event> {
        Event::ALL.get(i as usize).copied()
    }

    /// Stable human-readable name (used by the bench harnesses' reports and
    /// the trace exports).
    pub fn name(self) -> &'static str {
        match self {
            Event::OptSameState => "opt.same_state",
            Event::OptUpgrading => "opt.upgrading",
            Event::OptFence => "opt.fence",
            Event::OptConflictExplicit => "opt.conflict_explicit",
            Event::OptConflictImplicit => "opt.conflict_implicit",
            Event::PessUncontended => "pess.uncontended",
            Event::PessReentrant => "pess.reentrant",
            Event::PessContended => "pess.contended",
            Event::PessOwnerChange => "pess.owner_change",
            Event::OptToPess => "hybrid.opt_to_pess",
            Event::PessToOpt => "hybrid.pess_to_opt",
            Event::ValveKeptPess => "hybrid.valve_kept_pess",
            Event::LockBufferFlush => "hybrid.lock_buffer_flush",
            Event::StateUnlocked => "hybrid.state_unlocked",
            Event::RespondedExplicit => "coord.responded_explicit",
            Event::ImplicitObservedOnWake => "coord.implicit_observed",
            Event::CoordinationRoundtrip => "coord.roundtrip",
            Event::CoordBatchRequests => "coord.batch_requests",
            Event::CoordFanout => "coord.fanout",
            Event::CoordFanoutPeers => "coord.fanout_peers",
            Event::CoordRequestSent => "coord.request_sent",
            Event::CoordPeerImplicit => "coord.peer_implicit",
            Event::CoordFanoutPeerDone => "coord.fanout_peer_done",
            Event::Read => "access.read",
            Event::Write => "access.write",
            Event::MonitorAcquireFast => "monitor.acquire_fast",
            Event::MonitorAcquireBlocked => "monitor.acquire_blocked",
            Event::MonitorRelease => "monitor.release",
            Event::MonitorWait => "monitor.wait",
            Event::SafepointPoll => "safepoint.poll",
            Event::ReplayWait => "replayer.wait",
            Event::RegionExec => "rs.region_exec",
            Event::RegionRestart => "rs.region_restart",
            Event::SeqlockValidated => "seqlock.validated",
            Event::SeqlockRetry => "seqlock.retry",
            Event::SeqlockFallback => "seqlock.fallback",
            Event::CoordDeadlineExceeded => "coord.deadline_exceeded",
            Event::AdaptDemotion => "adapt.demotion",
            Event::AdaptPromotion => "adapt.promotion",
        }
    }
}

/// Per-thread event counters: plain integers, owned by one mutator, merged on
/// detach. Incrementing is a single add on thread-private memory, so the
/// measured protocols are unperturbed.
#[derive(Clone, Debug)]
pub struct LocalStats {
    counts: [u64; Event::COUNT],
}

impl Default for LocalStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        // Force evaluation of the discriminant-density proof that `bump`'s
        // unchecked indexing relies on.
        const { Event::EVENT_DISCRIMINANTS_DENSE };
        LocalStats {
            counts: [0; Event::COUNT],
        }
    }

    /// Count one occurrence of `e`.
    ///
    /// This sits on the read/write fast path of every engine, so it must
    /// compile to a single indexed add with no bounds check: `Event` is
    /// `repr(usize)` with dense discriminants `0..COUNT` (const-asserted
    /// below), so `e as usize` is always in range of the counter array.
    #[inline(always)]
    pub fn bump(&mut self, e: Event) {
        // Safety: every Event discriminant is < Event::COUNT (see the
        // EVENT_DISCRIMINANTS_DENSE const assertion).
        unsafe {
            *self.counts.get_unchecked_mut(e as usize) += 1;
        }
    }

    /// Count `n` occurrences of `e`.
    #[inline(always)]
    pub fn add(&mut self, e: Event, n: u64) {
        // Safety: as in `bump`.
        unsafe {
            *self.counts.get_unchecked_mut(e as usize) += n;
        }
    }

    /// Current count for `e`.
    #[inline]
    pub fn get(&self, e: Event) -> u64 {
        self.counts[e as usize]
    }

    /// Merge this thread's counters into the global aggregate.
    pub fn merge_into(&self, global: &GlobalStats) {
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                global.counts[i].fetch_add(c, Ordering::Relaxed);
            }
        }
    }
}

/// The latency distributions the runtime measures, alongside the counters.
/// Recording happens on slow paths only (an explicit roundtrip, a fan-out, a
/// monitor acquire), straight into [`GlobalStats`] — [`LocalStats`] carries
/// no histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum LatencyKind {
    /// One explicit coordination roundtrip: request enqueued → token
    /// completed by the remote's responding safe point.
    CoordRoundtrip,
    /// A whole RdSh fan-out: entry to last peer resolved.
    FanoutComplete,
    /// Monitor acquire, fast or blocked.
    MonitorAcquire,
    /// Validation retries a seqlock read needed before it succeeded or fell
    /// back (recorded as a *count*, not nanoseconds — the log2 buckets work
    /// the same way; only contested reads record, so the zero-retry common
    /// case stays histogram-free).
    SeqlockRetries,
    /// Service time of one request in the open-loop serve macro-bench
    /// (`drink-serve`): dequeue → completion, the store work alone.
    ServeService,
    /// Sojourn time of one serve request: *arrival* → completion, so queueing
    /// delay is included. Under open-loop load this — not service time — is
    /// what a client of the store experiences (DESIGN.md §14).
    ServeSojourn,
}

impl LatencyKind {
    /// Number of kinds; also the length of [`LatencyKind::ALL`].
    pub const COUNT: usize = 6;

    /// Every kind, in discriminant order.
    pub const ALL: [LatencyKind; LatencyKind::COUNT] = [
        LatencyKind::CoordRoundtrip,
        LatencyKind::FanoutComplete,
        LatencyKind::MonitorAcquire,
        LatencyKind::SeqlockRetries,
        LatencyKind::ServeService,
        LatencyKind::ServeSojourn,
    ];

    /// Short dotted name, matching the [`Event`] convention.
    pub fn name(self) -> &'static str {
        match self {
            LatencyKind::CoordRoundtrip => "latency.coord_roundtrip",
            LatencyKind::FanoutComplete => "latency.fanout_complete",
            LatencyKind::MonitorAcquire => "latency.monitor_acquire",
            LatencyKind::SeqlockRetries => "latency.seqlock_retries",
            LatencyKind::ServeService => "latency.serve_service",
            LatencyKind::ServeSojourn => "latency.serve_sojourn",
        }
    }
}

/// Number of log2 buckets per histogram: bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds, with bucket 31 absorbing everything ≥ 2³¹ ns (~2.1 s — far
/// beyond any sane roundtrip; the spin watchdog fires first).
pub const LATENCY_BUCKETS: usize = 32;

/// Shared-write HDR-style histogram: log2 buckets plus an exact maximum.
/// All operations are relaxed atomics — totals are exact, cross-bucket
/// ordering is not needed.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    max_ns: AtomicU64,
}

/// Bucket index for a nanosecond value: `floor(log2(ns))`, with 0 ns mapped
/// to bucket 0 and everything past the top clamped to the last bucket.
pub fn latency_bucket(ns: u64) -> usize {
    ((63 - (ns | 1).leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, ns: u64) {
        self.buckets[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copy the current state into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets, max_ns: self.max_ns.load(Ordering::Relaxed) }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Immutable, serializable snapshot of one [`LatencyHistogram`], with the
/// percentile arithmetic. A percentile is reported as its bucket's inclusive
/// upper bound (`2^(i+1) - 1` ns), clamped to the exact observed maximum —
/// so a reported pXX never understates the true pXX and overstates it by
/// less than 2× (the log2 bucket width).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub buckets: [u64; LATENCY_BUCKETS],
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `p`-th percentile (`0 < p <= 100`) in nanoseconds, 0 if empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let upper = if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Exact observed maximum in nanoseconds.
    pub fn max(&self) -> u64 {
        self.max_ns
    }
}

/// Process-wide aggregate of all mutators' counters.
#[derive(Debug)]
pub struct GlobalStats {
    counts: [AtomicU64; Event::COUNT],
    hists: [LatencyHistogram; LatencyKind::COUNT],
}

impl Default for GlobalStats {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalStats {
    /// Fresh zeroed aggregate.
    pub fn new() -> Self {
        GlobalStats {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: Default::default(),
        }
    }

    /// Current aggregate count for `e`.
    pub fn get(&self, e: Event) -> u64 {
        self.counts[e as usize].load(Ordering::Relaxed)
    }

    /// Record one latency sample (slow paths only; see [`LatencyKind`]).
    pub fn record_latency(&self, kind: LatencyKind, ns: u64) {
        self.hists[kind as usize].record(ns);
    }

    /// The live histogram for `kind`.
    pub fn latency(&self, kind: LatencyKind) -> &LatencyHistogram {
        &self.hists[kind as usize]
    }

    /// Snapshot every counter and histogram into a serializable report.
    pub fn report(&self) -> StatsReport {
        let mut counts = [0u64; Event::COUNT];
        for (i, c) in self.counts.iter().enumerate() {
            counts[i] = c.load(Ordering::Relaxed);
        }
        let mut hists = [HistogramSnapshot::default(); LatencyKind::COUNT];
        for (i, h) in self.hists.iter().enumerate() {
            hists[i] = h.snapshot();
        }
        StatsReport { counts, hists }
    }

    /// Reset all counters and histograms to zero (between benchmark phases).
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
    }
}

/// An immutable snapshot of [`GlobalStats`]: raw counts and latency
/// histograms, and the paper's columns and ratios over them. Every ratio is
/// 0 when its denominator is.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct StatsReport {
    counts: [u64; Event::COUNT],
    hists: [HistogramSnapshot; LatencyKind::COUNT],
}

impl StatsReport {
    /// Count for one event kind.
    pub fn get(&self, e: Event) -> u64 {
        self.counts[e as usize]
    }

    /// Latency distribution snapshot for `kind`.
    pub fn latency(&self, kind: LatencyKind) -> &HistogramSnapshot {
        &self.hists[kind as usize]
    }

    /// Total tracked accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.get(Event::Read) + self.get(Event::Write)
    }

    /// Table 2, "Optimistic / Same state".
    pub fn opt_same_state(&self) -> u64 {
        self.get(Event::OptSameState)
    }

    /// Table 2, "Optimistic / Conflicting" (explicit + implicit).
    pub fn opt_conflicting(&self) -> u64 {
        self.get(Event::OptConflictExplicit) + self.get(Event::OptConflictImplicit)
    }

    /// Table 2, "Pessimistic / Uncontended" (CAS + reentrant).
    pub fn pess_uncontended(&self) -> u64 {
        self.get(Event::PessUncontended) + self.get(Event::PessReentrant)
    }

    /// Table 2, "%Reentrant": share of uncontended pessimistic transitions
    /// that were reentrant (no atomic operation).
    pub fn pess_reentrant_pct(&self) -> f64 {
        100.0 * ratio(self.get(Event::PessReentrant), self.pess_uncontended())
    }

    /// Table 2, "Pessimistic / Contended".
    pub fn pess_contended(&self) -> u64 {
        self.get(Event::PessContended)
    }

    /// Table 2, "Opt. to Pess.".
    pub fn opt_to_pess(&self) -> u64 {
        self.get(Event::OptToPess)
    }

    /// Table 2, "Pess. to Opt.".
    pub fn pess_to_opt(&self) -> u64 {
        self.get(Event::PessToOpt)
    }

    /// Conflict rate: conflicting optimistic transitions (explicit only, as
    /// in Figure 6) over all accesses.
    pub fn explicit_conflict_rate(&self) -> f64 {
        ratio(self.get(Event::OptConflictExplicit), self.accesses())
    }

    /// Mean number of explicit requests answered per responding safe point
    /// (≥ 1 whenever any response happened). A value above 1 means
    /// responder-side batching coalesced requests: N tokens were answered by
    /// one release-clock bump instead of N.
    pub fn batch_occupancy(&self) -> f64 {
        ratio(self.get(Event::CoordBatchRequests), self.get(Event::RespondedExplicit))
    }

    /// Mean number of peers per coordination fan-out (the conservative RdSh
    /// protocol's width).
    pub fn fanout_width(&self) -> f64 {
        ratio(self.get(Event::CoordFanoutPeers), self.get(Event::CoordFanout))
    }

    /// Reads served by seqlock validation alone — no transition, no lock
    /// (DESIGN.md §12). The chaos oracles assert this is non-zero on
    /// read-mostly specs.
    pub fn validated_reads(&self) -> u64 {
        self.get(Event::SeqlockValidated)
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_all_is_in_discriminant_order() {
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(*e as usize, i, "ALL out of order at {i}: {e:?}");
        }
    }

    #[test]
    fn event_names_are_unique() {
        let mut names: Vec<_> = Event::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Event::COUNT);
    }

    #[test]
    fn events_round_trip_through_a_ring() {
        let ring = crate::trace::TraceRing::new(Event::COUNT + 1);
        for (i, e) in Event::ALL.iter().enumerate() {
            ring.record(i as u64, *e, i as u64);
        }
        let decoded: Vec<Event> = ring.snapshot().iter().map(|r| r.kind).collect();
        assert_eq!(decoded, Event::ALL);
        assert_eq!(Event::from_index(Event::COUNT as u64), None, "past the last event");
    }

    #[test]
    fn local_merge_accumulates() {
        let global = GlobalStats::new();
        let mut a = LocalStats::new();
        let mut b = LocalStats::new();
        a.bump(Event::Read);
        a.add(Event::OptSameState, 10);
        b.add(Event::Read, 2);
        b.bump(Event::PessContended);
        a.merge_into(&global);
        b.merge_into(&global);
        let r = global.report();
        assert_eq!(r.get(Event::Read), 3);
        assert_eq!(r.get(Event::OptSameState), 10);
        assert_eq!(r.get(Event::PessContended), 1);
        assert_eq!(r.get(Event::Write), 0);
    }

    #[test]
    fn report_derives_table2_columns() {
        let global = GlobalStats::new();
        let mut l = LocalStats::new();
        l.add(Event::Read, 60);
        l.add(Event::Write, 40);
        l.add(Event::PessUncontended, 30);
        l.add(Event::PessReentrant, 10);
        l.add(Event::OptConflictExplicit, 5);
        l.add(Event::OptConflictImplicit, 2);
        l.merge_into(&global);
        let r = global.report();
        assert_eq!(r.accesses(), 100);
        assert_eq!(r.pess_uncontended(), 40);
        assert!((r.pess_reentrant_pct() - 25.0).abs() < 1e-9);
        assert_eq!(r.opt_conflicting(), 7);
        assert!((r.explicit_conflict_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn report_derives_coordination_batch_columns() {
        let global = GlobalStats::new();
        let mut l = LocalStats::new();
        // 4 responding safe points answered 10 requests total.
        l.add(Event::RespondedExplicit, 4);
        l.add(Event::CoordBatchRequests, 10);
        // 3 fan-outs covered 21 peers (8-thread runtime).
        l.add(Event::CoordFanout, 3);
        l.add(Event::CoordFanoutPeers, 21);
        l.merge_into(&global);
        let r = global.report();
        assert!((r.batch_occupancy() - 2.5).abs() < 1e-12);
        assert!((r.fanout_width() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_counters() {
        let global = GlobalStats::new();
        let mut l = LocalStats::new();
        l.bump(Event::RegionRestart);
        l.merge_into(&global);
        assert_eq!(global.get(Event::RegionRestart), 1);
        global.reset();
        assert_eq!(global.get(Event::RegionRestart), 0);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let r = GlobalStats::new().report();
        assert_eq!(r.pess_reentrant_pct(), 0.0);
        assert_eq!(r.explicit_conflict_rate(), 0.0);
        assert_eq!(r.batch_occupancy(), 0.0);
        assert_eq!(r.fanout_width(), 0.0);
    }

    // --- latency histograms ---

    /// splitmix64 — seeded randomized cases stand in for proptest (no such
    /// dependency in this workspace).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Sorted-vec reference percentile with the same nearest-rank convention
    /// as `HistogramSnapshot::percentile`.
    fn reference_percentile(sorted: &[u64], p: f64) -> u64 {
        assert!(!sorted.is_empty());
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(4), 2);
        assert_eq!(latency_bucket(1023), 9);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket((1 << 31) - 1), 30);
        assert_eq!(latency_bucket(1 << 31), 31);
        assert_eq!(latency_bucket(1 << 40), 31, "overflow clamps to top bucket");
    }

    #[test]
    fn histogram_percentiles_match_sorted_vec_reference_proptest() {
        let mut rng = 0x1157_0001u64;
        for case in 0..100 {
            let hist = LatencyHistogram::default();
            let n = (splitmix64(&mut rng) % 500 + 1) as usize;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Mix of magnitudes: spread samples over ~2^0..2^30 ns.
                let shift = splitmix64(&mut rng) % 31;
                let v = splitmix64(&mut rng) % (1u64 << shift).max(2);
                hist.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            let snap = hist.snapshot();
            assert_eq!(snap.count(), n as u64);
            assert_eq!(snap.max(), *samples.last().unwrap());
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                let got = snap.percentile(p);
                let want = reference_percentile(&samples, p);
                // The histogram reports the bucket upper bound (clamped to
                // the exact max): same log2 bucket as the reference value,
                // and never below it.
                assert_eq!(
                    latency_bucket(got),
                    latency_bucket(want),
                    "case {case} p{p}: got {got} want bucket of {want}"
                );
                assert!(got >= want, "case {case} p{p}: {got} < {want}");
                assert!(got <= snap.max(), "case {case} p{p}");
            }
        }
    }

    #[test]
    fn histogram_snapshot_serde_roundtrip() {
        let hist = LatencyHistogram::default();
        hist.record(7);
        hist.record(100);
        hist.record(1_000_000);
        let snap = hist.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.count(), 3);
        assert_eq!(back.max(), 1_000_000);
    }

    #[test]
    fn report_carries_histograms_and_reset_clears_them() {
        let g = GlobalStats::new();
        g.record_latency(LatencyKind::FanoutComplete, 512);
        g.record_latency(LatencyKind::FanoutComplete, 2048);
        let r = g.report();
        assert_eq!(r.latency(LatencyKind::FanoutComplete).count(), 2);
        assert_eq!(r.latency(LatencyKind::FanoutComplete).p50(), 1023);
        assert_eq!(r.latency(LatencyKind::FanoutComplete).max(), 2048);
        assert_eq!(r.latency(LatencyKind::CoordRoundtrip).count(), 0);
        g.reset();
        assert_eq!(g.report().latency(LatencyKind::FanoutComplete).count(), 0);
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.max(), 0);
    }

    #[test]
    fn latency_kind_names_follow_the_event_convention() {
        for (i, k) in LatencyKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
            assert!(k.name().starts_with("latency."));
        }
    }
}
