//! drink-trace: per-thread protocol event tracing.
//!
//! The stats layer ([`crate::stats`]) answers *how many* of each transition a
//! run performed; this module answers *which thread did what, in what order*.
//! Each registered thread owns a fixed-capacity ring of timestamped
//! [`TraceRecord`]s written lock-free by that thread alone and snapshotted by
//! anyone — a chaos failure embeds the last-N events per thread next to the
//! shrunken seed, and `drink-bench trace` exports a whole run as
//! `chrome://tracing`-loadable JSON.
//!
//! ## Hot-path contract
//!
//! Tracing is always compiled and toggled at runtime by installing (or not
//! installing) a [`TraceSink`] on the [`crate::Runtime`]. The off path is one
//! branch: `Runtime::trace` tests an `Option<Arc<dyn TraceSink>>` (a single
//! pointer load thanks to the null-pointer optimization) and falls through.
//! The on path performs no allocation: a [`TraceRing`] write is three relaxed
//! stores plus one release store of the cursor.
//!
//! ## Seqlock-lite ring
//!
//! Each ring has exactly one writer (its owning thread) and any number of
//! snapshot readers. The writer publishes a monotone record count with
//! `Release` after filling the slot; a reader loads the count (`Acquire`),
//! copies the window, re-loads the count, and discards any record whose
//! position the writer may have reached during the copy — including the one
//! slot an in-flight write may be tearing. Readers never block the writer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::ids::ThreadId;

/// One protocol event kind. Discriminants are dense (`Read = 0` …) so a ring
/// slot can store the kind as a `u64` and decode it through [`TraceKind::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum TraceKind {
    /// Tracked read (arg = object id).
    Read,
    /// Tracked write (arg = object id).
    Write,
    /// Optimistic same-thread state upgrade: WrEx→ or RdEx→RdSh CAS
    /// (arg = object id).
    OptUpgrade,
    /// RdSh read fence before a load of a read-shared object (arg = object).
    OptFence,
    /// Conflicting optimistic transition resolved by explicit coordination
    /// (arg = object id).
    ConflictExplicit,
    /// Conflicting optimistic transition resolved implicitly against a
    /// blocked/detached owner (arg = object id).
    ConflictImplicit,
    /// State word moved optimistic → pessimistic (arg = object id).
    OptToPess,
    /// Deferred unlock released a pessimistic state back to optimistic
    /// (arg = object id).
    PessToOpt,
    /// Policy valve held a flushed object pessimistic instead of releasing
    /// it to optimistic (arg = object id).
    ValveStayPess,
    /// Uncontended pessimistic lock acquisition (arg = object id).
    PessClaim,
    /// Contended pessimistic acquisition began spinning (arg = object id).
    PessContended,
    /// Lock buffer flushed at a PSRO or responding safe point
    /// (arg = number of buffered locks flushed).
    LockBufferFlush,
    /// Explicit coordination request enqueued to a running thread
    /// (arg = remote thread id).
    CoordRequest,
    /// Coordination resolved implicitly — remote blocked or detached
    /// (arg = remote thread id).
    CoordImplicit,
    /// This thread answered a batch of pending requests at a safe point
    /// (arg = batch size).
    CoordRespond,
    /// Fan-out phase 1 done: requests enqueued to all running peers
    /// (arg = number of pending explicit peers).
    FanoutEnqueue,
    /// One fan-out peer's roundtrip completed (arg = remote thread id).
    FanoutPeerDone,
    /// Whole fan-out completed (arg = number of sources collected).
    FanoutComplete,
    /// Monitor acquired without blocking (arg = monitor id).
    MonitorAcquireFast,
    /// Monitor acquired after blocking (arg = monitor id).
    MonitorAcquireBlocked,
    /// Monitor released (arg = monitor id).
    MonitorRelease,
    /// Monitor wait: released, parked, reacquired (arg = monitor id).
    MonitorWait,
    /// Coordination-free read: the state word revalidated (arg = object
    /// id).
    SeqlockRead,
    /// Seqlock read exhausted its retries and fell back to the coordinated
    /// read path (arg = object id).
    SeqlockFallback,
    /// A coordination wait hit its recoverable deadline and the requester
    /// fell back to the pessimistic protocol (arg = object id, or the remote
    /// thread id for objectless waits).
    CoordDeadline,
    /// Re-opening valve: an object's policy phase changed into `Pess`
    /// (arg = object id).
    AdaptDemote,
    /// Re-opening valve: an object's policy phase changed out of `Pess`
    /// (arg = object id).
    AdaptPromote,
}

impl TraceKind {
    /// Number of kinds; also the length of [`TraceKind::ALL`].
    pub const COUNT: usize = 27;

    /// Every kind, in discriminant order (`ALL[k as usize] == k`).
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::Read,
        TraceKind::Write,
        TraceKind::OptUpgrade,
        TraceKind::OptFence,
        TraceKind::ConflictExplicit,
        TraceKind::ConflictImplicit,
        TraceKind::OptToPess,
        TraceKind::PessToOpt,
        TraceKind::ValveStayPess,
        TraceKind::PessClaim,
        TraceKind::PessContended,
        TraceKind::LockBufferFlush,
        TraceKind::CoordRequest,
        TraceKind::CoordImplicit,
        TraceKind::CoordRespond,
        TraceKind::FanoutEnqueue,
        TraceKind::FanoutPeerDone,
        TraceKind::FanoutComplete,
        TraceKind::MonitorAcquireFast,
        TraceKind::MonitorAcquireBlocked,
        TraceKind::MonitorRelease,
        TraceKind::MonitorWait,
        TraceKind::SeqlockRead,
        TraceKind::SeqlockFallback,
        TraceKind::CoordDeadline,
        TraceKind::AdaptDemote,
        TraceKind::AdaptPromote,
    ];

    /// Short dotted name, matching the [`crate::stats::Event`] convention.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Read => "access.read",
            TraceKind::Write => "access.write",
            TraceKind::OptUpgrade => "opt.upgrade",
            TraceKind::OptFence => "opt.fence",
            TraceKind::ConflictExplicit => "conflict.explicit",
            TraceKind::ConflictImplicit => "conflict.implicit",
            TraceKind::OptToPess => "state.opt_to_pess",
            TraceKind::PessToOpt => "state.pess_to_opt",
            TraceKind::ValveStayPess => "state.valve_stay_pess",
            TraceKind::PessClaim => "pess.claim",
            TraceKind::PessContended => "pess.contended",
            TraceKind::LockBufferFlush => "pess.lock_buffer_flush",
            TraceKind::CoordRequest => "coord.request",
            TraceKind::CoordImplicit => "coord.implicit",
            TraceKind::CoordRespond => "coord.respond",
            TraceKind::FanoutEnqueue => "coord.fanout_enqueue",
            TraceKind::FanoutPeerDone => "coord.fanout_peer_done",
            TraceKind::FanoutComplete => "coord.fanout_complete",
            TraceKind::MonitorAcquireFast => "monitor.acquire_fast",
            TraceKind::MonitorAcquireBlocked => "monitor.acquire_blocked",
            TraceKind::MonitorRelease => "monitor.release",
            TraceKind::MonitorWait => "monitor.wait",
            TraceKind::SeqlockRead => "seqlock.read",
            TraceKind::SeqlockFallback => "seqlock.fallback",
            TraceKind::CoordDeadline => "coord.deadline",
            TraceKind::AdaptDemote => "adapt.demote",
            TraceKind::AdaptPromote => "adapt.promote",
        }
    }

    fn from_u64(raw: u64) -> Option<TraceKind> {
        TraceKind::ALL.get(raw as usize).copied()
    }
}

// Compile-time proof that the discriminants stay dense and `ALL` stays in
// discriminant order, so ring-slot decoding through `ALL` is exact.
const _: () = {
    let mut i = 0;
    while i < TraceKind::COUNT {
        assert!(TraceKind::ALL[i] as usize == i);
        i += 1;
    }
};

/// One traced event: nanoseconds since the sink's epoch, the kind, and a
/// kind-specific argument (object id, monitor id, peer thread, batch size).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    pub ts_ns: u64,
    pub kind: TraceKind,
    pub arg: u64,
}

/// One ring slot. Three independent atomics rather than one packed word:
/// the seqlock-lite cursor protocol already discards torn reads by position,
/// so the slot itself only needs data-race freedom, not atomic unity.
#[derive(Debug, Default)]
struct Slot {
    ts_ns: AtomicU64,
    kind: AtomicU64,
    arg: AtomicU64,
}

/// Fixed-capacity single-writer/any-reader event ring (see module docs for
/// the publication protocol). Capacity is rounded up to at least 2 so the
/// "writer may be tearing one slot" discard never empties a live ring.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Total records ever written; slot index is `cursor % capacity`.
    cursor: AtomicU64,
}

impl TraceRing {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        TraceRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (not capped at capacity).
    pub fn written(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Append one record. **Single-writer**: only the owning thread may call
    /// this. No allocation, no RMW — three relaxed stores + one release.
    #[inline]
    pub fn record(&self, ts_ns: u64, kind: TraceKind, arg: u64) {
        let cur = self.cursor.load(Ordering::Relaxed);
        let slot = &self.slots[(cur % self.slots.len() as u64) as usize];
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        self.cursor.store(cur + 1, Ordering::Release);
    }

    /// Copy out the most recent records, oldest first. Safe to call from any
    /// thread while the writer keeps writing; records the writer may have
    /// overwritten (or be mid-write on) during the copy are discarded, so
    /// every returned record is fully published and in order.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let cap = self.slots.len() as u64;
        let end = self.cursor.load(Ordering::Acquire);
        let start = end.saturating_sub(cap);
        let mut raw = Vec::with_capacity((end - start) as usize);
        for pos in start..end {
            let slot = &self.slots[(pos % cap) as usize];
            raw.push((
                slot.ts_ns.load(Ordering::Relaxed),
                slot.kind.load(Ordering::Relaxed),
                slot.arg.load(Ordering::Relaxed),
            ));
        }
        // Re-read the cursor: positions the writer passed during our copy are
        // overwritten, and position `end2` itself may be mid-write (its slot
        // holds position `end2 - cap`), so keep only positions strictly after
        // `end2 - cap`.
        let end2 = self.cursor.load(Ordering::Acquire);
        let keep_from = if end2 >= cap { end2 - cap + 1 } else { 0 };
        raw.into_iter()
            .enumerate()
            .filter(|(i, _)| start + *i as u64 >= keep_from)
            .filter_map(|(_, (ts_ns, kind, arg))| {
                TraceKind::from_u64(kind).map(|kind| TraceRecord { ts_ns, kind, arg })
            })
            .collect()
    }
}

/// The last-N events of one thread, as captured by a snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadTrace {
    /// Raw thread id ([`ThreadId::raw`]).
    pub tid: u16,
    /// Events oldest-first.
    pub events: Vec<TraceRecord>,
}

/// A point-in-time copy of every thread's ring, plus exporters.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSnapshot {
    pub threads: Vec<ThreadTrace>,
}

impl TraceSnapshot {
    /// Total events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Chrome trace event format (the JSON object form with a `traceEvents`
    /// array of instant events), loadable by `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        use serde::value::Value;
        let events: Vec<Value> = self
            .threads
            .iter()
            .flat_map(|t| {
                t.events.iter().map(move |e| {
                    Value::Map(vec![
                        ("name".to_string(), Value::Str(e.kind.name().to_string())),
                        ("ph".to_string(), Value::Str("i".to_string())),
                        ("s".to_string(), Value::Str("t".to_string())),
                        ("ts".to_string(), Value::F64(e.ts_ns as f64 / 1000.0)),
                        ("pid".to_string(), Value::U64(1)),
                        ("tid".to_string(), Value::U64(t.tid as u64)),
                        (
                            "args".to_string(),
                            Value::Map(vec![("arg".to_string(), Value::U64(e.arg))]),
                        ),
                    ])
                })
            })
            .collect();
        let doc = Value::Map(vec![("traceEvents".to_string(), Value::Seq(events))]);
        serde_json::to_string_pretty(&doc).expect("chrome trace serialization")
    }

    /// Compact per-thread text dump: one `+ts_us kind arg` line per event.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in &self.threads {
            let _ = writeln!(out, "thread {} ({} events)", t.tid, t.events.len());
            for e in &t.events {
                let _ = writeln!(
                    out,
                    "  +{:>12.3}us {:<24} {}",
                    e.ts_ns as f64 / 1000.0,
                    e.kind.name(),
                    e.arg
                );
            }
        }
        out
    }
}

/// Validate a Chrome-trace JSON document produced by
/// [`TraceSnapshot::to_chrome_json`] (or anything shaped like it): a map with
/// a `traceEvents` array whose entries all carry `name`/`ph`/`ts`/`pid`/`tid`.
/// Returns the event count. Used by the `drink-bench trace --check` gate step.
pub fn validate_chrome_json(text: &str) -> Result<usize, String> {
    use serde::value::Value;
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let Value::Map(fields) = &doc else {
        return Err("top level is not an object".to_string());
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?;
    let Value::Seq(events) = events else {
        return Err("traceEvents is not an array".to_string());
    };
    for (i, ev) in events.iter().enumerate() {
        let Value::Map(fields) = ev else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        for required in ["name", "ph", "ts", "pid", "tid"] {
            if !fields.iter().any(|(k, _)| k == required) {
                return Err(format!("traceEvents[{i}] missing {required:?}"));
            }
        }
    }
    Ok(events.len())
}

/// Destination for protocol events. `record` must be wait-free and
/// allocation-free: it runs inside engine fast paths.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    fn record(&self, t: ThreadId, kind: TraceKind, arg: u64);
    fn snapshot(&self) -> TraceSnapshot;
}

/// The standard sink: one [`TraceRing`] per possible thread, timestamps
/// measured from sink construction.
#[derive(Debug)]
pub struct RingTraceSink {
    rings: Box<[TraceRing]>,
    epoch: Instant,
}

impl RingTraceSink {
    /// A sink for up to `max_threads` threads, `capacity` events each.
    pub fn new(max_threads: usize, capacity: usize) -> Self {
        RingTraceSink {
            rings: (0..max_threads.max(1)).map(|_| TraceRing::new(capacity)).collect(),
            epoch: Instant::now(),
        }
    }

    pub fn ring(&self, t: ThreadId) -> Option<&TraceRing> {
        self.rings.get(t.index())
    }
}

impl TraceSink for RingTraceSink {
    #[inline]
    fn record(&self, t: ThreadId, kind: TraceKind, arg: u64) {
        if let Some(ring) = self.rings.get(t.index()) {
            ring.record(self.epoch.elapsed().as_nanos() as u64, kind, arg);
        }
    }

    fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            threads: self
                .rings
                .iter()
                .enumerate()
                .map(|(tid, ring)| ThreadTrace {
                    tid: tid as u16,
                    events: ring.snapshot(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Tiny deterministic PRNG (splitmix64) for the randomized tests below —
    /// no proptest dependency in this workspace, so each "proptest" is a
    /// seeded loop over random cases with the invariant asserted per case.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn ring_keeps_last_capacity_records_in_order() {
        let ring = TraceRing::new(8);
        for i in 0..100u64 {
            ring.record(i, TraceKind::Read, i);
        }
        let snap = ring.snapshot();
        // One slot is conservatively reserved for a potentially in-flight
        // write, so a full ring reports capacity - 1 records.
        assert_eq!(snap.len(), 7);
        let args: Vec<u64> = snap.iter().map(|r| r.arg).collect();
        assert_eq!(args, (93..100).collect::<Vec<u64>>());
        assert_eq!(ring.written(), 100);
    }

    #[test]
    fn ring_below_capacity_returns_everything() {
        let ring = TraceRing::new(64);
        for i in 0..10u64 {
            ring.record(i * 3, TraceKind::Write, 1000 + i);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 10);
        assert_eq!(snap[0], TraceRecord { ts_ns: 0, kind: TraceKind::Write, arg: 1000 });
        assert_eq!(snap[9].arg, 1009);
    }

    #[test]
    fn ring_wraparound_proptest_random_write_counts_and_capacities() {
        let mut rng = 0x5EED_0001u64;
        for _ in 0..200 {
            let cap = (splitmix64(&mut rng) % 63 + 2) as usize;
            let writes = splitmix64(&mut rng) % 300;
            let ring = TraceRing::new(cap);
            for i in 0..writes {
                ring.record(i, TraceKind::OptUpgrade, i);
            }
            let snap = ring.snapshot();
            // Window: everything if under capacity, else the last cap-1.
            let expect_len = if writes < cap as u64 {
                writes as usize
            } else {
                cap - 1
            };
            assert_eq!(snap.len(), expect_len, "cap={cap} writes={writes}");
            for (i, r) in snap.iter().enumerate() {
                assert_eq!(r.arg, writes - expect_len as u64 + i as u64);
            }
        }
    }

    #[test]
    fn concurrent_snapshots_see_consistent_published_records() {
        // Writer appends records whose ts/arg encode their position; readers
        // snapshot concurrently and every record they see must be coherent
        // (arg == ts) and strictly ordered. Catches torn slots escaping the
        // keep_from discard.
        let ring = Arc::new(TraceRing::new(32));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    ring.record(i, TraceKind::Read, i);
                    i += 1;
                }
                i
            })
        };
        // Count a snapshot only once the writer is running — on a busy host
        // it may not be scheduled before any fixed number of snapshots of
        // the still-empty ring has finished — and go on until it has wrapped
        // the ring and some records survived the discard.
        let mut checked = 0usize;
        let mut concurrent = 0usize;
        while concurrent < 2000 || ring.written() < ring.capacity() as u64 || checked == 0 {
            if ring.written() == 0 {
                std::thread::yield_now();
                continue;
            }
            concurrent += 1;
            let snap = ring.snapshot();
            for pair in snap.windows(2) {
                assert!(pair[0].arg < pair[1].arg, "out of order: {pair:?}");
            }
            for r in &snap {
                assert_eq!(r.ts_ns, r.arg, "torn record: {r:?}");
            }
            checked += snap.len();
        }
        stop.store(true, Ordering::Release);
        writer.join().unwrap();
    }

    #[test]
    fn sink_records_per_thread_and_snapshots() {
        let sink = RingTraceSink::new(3, 16);
        sink.record(ThreadId(0), TraceKind::Read, 7);
        sink.record(ThreadId(2), TraceKind::MonitorRelease, 1);
        sink.record(ThreadId(2), TraceKind::Write, 9);
        // Out-of-range thread ids are ignored, not a panic.
        sink.record(ThreadId(100), TraceKind::Write, 0);
        let snap = sink.snapshot();
        assert_eq!(snap.threads.len(), 3);
        assert_eq!(snap.threads[0].events.len(), 1);
        assert_eq!(snap.threads[1].events.len(), 0);
        assert_eq!(snap.threads[2].events.len(), 2);
        assert_eq!(snap.total_events(), 3);
        assert_eq!(snap.threads[2].events[1].kind, TraceKind::Write);
    }

    #[test]
    fn snapshot_serde_roundtrip_preserves_events() {
        let sink = RingTraceSink::new(2, 8);
        sink.record(ThreadId(1), TraceKind::ConflictExplicit, 42);
        let snap = sink.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TraceSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn chrome_export_is_valid_and_counts_events() {
        let sink = RingTraceSink::new(2, 8);
        sink.record(ThreadId(0), TraceKind::CoordRequest, 1);
        sink.record(ThreadId(1), TraceKind::CoordRespond, 1);
        let json = sink.snapshot().to_chrome_json();
        assert_eq!(validate_chrome_json(&json), Ok(2));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("coord.request"));
    }

    #[test]
    fn chrome_validation_rejects_malformed_documents() {
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("[]").is_err());
        assert!(validate_chrome_json("{\"traceEvents\": 3}").is_err());
        assert!(
            validate_chrome_json("{\"traceEvents\": [{\"name\": \"x\"}]}")
                .unwrap_err()
                .contains("missing"),
        );
        assert_eq!(validate_chrome_json("{\"traceEvents\": []}"), Ok(0));
    }

    #[test]
    fn text_dump_lists_threads_and_events() {
        let sink = RingTraceSink::new(2, 8);
        sink.record(ThreadId(0), TraceKind::PessClaim, 5);
        let text = sink.snapshot().to_text();
        assert!(text.contains("thread 0 (1 events)"));
        assert!(text.contains("pess.claim"));
        assert!(text.contains("thread 1 (0 events)"));
    }

    #[test]
    fn kind_names_are_unique_and_dense() {
        let mut names: Vec<&str> = TraceKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), TraceKind::COUNT);
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(TraceKind::from_u64(i as u64), Some(*k));
        }
        assert_eq!(TraceKind::from_u64(TraceKind::COUNT as u64), None);
    }
}
