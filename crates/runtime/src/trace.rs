//! drink-trace: per-thread protocol event tracing.
//!
//! The stats layer ([`crate::stats`]) answers *how many* of each transition a
//! run performed; this module answers *which thread did what, in what order*,
//! in the same vocabulary: a [`TraceRecord`]'s kind is an [`Event`]. Each
//! registered thread owns a fixed-capacity ring of timestamped records
//! written lock-free by that thread alone and snapshotted by anyone — a
//! chaos failure embeds the last-N events per thread next to the shrunken
//! seed, and `drink-bench trace` exports a whole run as
//! `chrome://tracing`-loadable JSON.
//!
//! ## Hot-path contract
//!
//! Tracing is always compiled. A [`crate::Runtime`] built with a non-zero
//! `trace_capacity` owns [`TraceRings`]; one built without has none, and
//! then `Runtime::trace` is one branch on an `Option` whose `None` is a null
//! pointer. The on path performs no allocation: a [`TraceRing`] write is
//! three relaxed stores plus one release store of the cursor.
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
use crate::stats::Event;

/// One traced event: nanoseconds since the rings were built, the event, and
/// its argument (object id, monitor id, peer thread, batch size: see
/// [`Event`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    pub ts_ns: u64,
    pub kind: Event,
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
    pub fn record(&self, ts_ns: u64, kind: Event, arg: u64) {
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
                Event::from_index(kind).map(|kind| TraceRecord { ts_ns, kind, arg })
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

/// A runtime's rings: one [`TraceRing`] per thread slot, timestamps measured
/// from construction. [`crate::Runtime::new`] builds them when the config's
/// `trace_capacity` is non-zero.
#[derive(Debug)]
pub struct TraceRings {
    rings: Box<[TraceRing]>,
    epoch: Instant,
}

impl TraceRings {
    /// Rings for up to `max_threads` threads, `capacity` events each.
    pub(crate) fn new(max_threads: usize, capacity: usize) -> Self {
        TraceRings {
            rings: (0..max_threads.max(1)).map(|_| TraceRing::new(capacity)).collect(),
            epoch: Instant::now(),
        }
    }

    /// Thread `t`'s ring.
    pub fn ring(&self, t: ThreadId) -> Option<&TraceRing> {
        self.rings.get(t.index())
    }

    /// Append `e` to thread `t`'s ring. **Single-writer**: only thread `t`
    /// may call this. A thread id past the slots is ignored. Out of line, so
    /// a trace site costs the off path a branch and the on path a call.
    #[inline(never)]
    pub(crate) fn record(&self, t: ThreadId, e: Event, arg: u64) {
        if let Some(ring) = self.rings.get(t.index()) {
            ring.record(self.epoch.elapsed().as_nanos() as u64, e, arg);
        }
    }

    /// Copy every thread's recent events (see [`TraceRing::snapshot`]).
    pub fn snapshot(&self) -> TraceSnapshot {
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
            ring.record(i, Event::Read, i);
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
            ring.record(i * 3, Event::Write, 1000 + i);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 10);
        assert_eq!(snap[0], TraceRecord { ts_ns: 0, kind: Event::Write, arg: 1000 });
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
                ring.record(i, Event::OptUpgrading, i);
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
                    ring.record(i, Event::Read, i);
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
        let rings = TraceRings::new(3, 16);
        rings.record(ThreadId(0), Event::Read, 7);
        rings.record(ThreadId(2), Event::MonitorRelease, 1);
        rings.record(ThreadId(2), Event::Write, 9);
        // Out-of-range thread ids are ignored, not a panic.
        rings.record(ThreadId(100), Event::Write, 0);
        let snap = rings.snapshot();
        assert_eq!(snap.threads.len(), 3);
        assert_eq!(snap.threads[0].events.len(), 1);
        assert_eq!(snap.threads[1].events.len(), 0);
        assert_eq!(snap.threads[2].events.len(), 2);
        assert_eq!(snap.total_events(), 3);
        assert_eq!(snap.threads[2].events[1].kind, Event::Write);
        assert_eq!(rings.ring(ThreadId(2)).map(TraceRing::written), Some(2));
    }

    #[test]
    fn snapshot_serde_roundtrip_preserves_events() {
        let rings = TraceRings::new(2, 8);
        rings.record(ThreadId(1), Event::OptConflictExplicit, 42);
        let snap = rings.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TraceSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn chrome_export_is_valid_and_counts_events() {
        let rings = TraceRings::new(2, 8);
        rings.record(ThreadId(0), Event::CoordRequestSent, 1);
        rings.record(ThreadId(1), Event::RespondedExplicit, 1);
        let json = rings.snapshot().to_chrome_json();
        assert_eq!(validate_chrome_json(&json), Ok(2));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("coord.request_sent"));
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
        let rings = TraceRings::new(2, 8);
        rings.record(ThreadId(0), Event::PessUncontended, 5);
        let text = rings.snapshot().to_text();
        assert!(text.contains("thread 0 (1 events)"));
        assert!(text.contains("pess.uncontended"));
        assert!(text.contains("thread 1 (0 events)"));
    }
}
