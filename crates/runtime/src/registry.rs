//! Sharded thread/monitor registry and the canonical shard mapping.
//!
//! The flat `Box<[ThreadControl]>` the runtime started with keeps every
//! control block in one allocation: fine at 8 threads, but past that the
//! substrate's own bookkeeping becomes a scalability liability — every
//! fan-out walks one long array, and the monitor table shares the same
//! single-allocation shape. This module shards both tables into
//! cache-line-independent shards ([`Registry`]) and exports the one shard
//! mapping ([`ShardMap`]) the rest of the system must agree on:
//!
//! * the registry maps **thread** ids to shards (round-robin striping, so
//!   dense registration fills shards evenly);
//! * the heap's per-object access-epoch table (DESIGN.md §14) is indexed by
//!   the same thread-shard mapping, which is what lets a coordination
//!   fan-out skip whole shards no thread of which ever touched the object;
//! * `drink-core`'s `DenseObjSet` reuses [`ShardMap`] for its
//!   **object**-indexed sharding, so footprint checks and skip decisions are
//!   computed from one mapping function, not two that can drift.
//!
//! Shard count comes from `RuntimeConfig::builder().shards()`; the default
//! is `next_pow2(max_threads / 8)` — one shard per 8 threads, i.e. existing
//! ≤8-thread configurations get exactly one shard and behave byte-for-byte
//! like the flat layout.

use std::sync::atomic::{AtomicU16, Ordering};

use crate::control::ThreadControl;
use crate::ids::{MonitorId, ThreadId};
use crate::monitor::Monitor;

/// The canonical dense-index → shard mapping. Shard counts are always
/// powers of two, so the mapping is a single mask: index `i` lives in shard
/// `i & (shards - 1)` (round-robin striping).
///
/// Everything that shards by a dense id — the registry (thread ids), the
/// heap's access-epoch table (thread ids) and `DenseObjSet` (object ids) —
/// goes through this one type, so "does the skip decision agree with the
/// footprint" is true by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    mask: usize,
    shift: u32,
}

impl ShardMap {
    /// A mapping with `shards` shards, rounded up to a power of two
    /// (minimum 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardMap { mask: shards - 1, shift: shards.trailing_zeros() }
    }

    /// The default mapping for `max_threads` mutators:
    /// `next_pow2(max_threads / 8)` shards — one shard per 8 threads, one
    /// shard total at or below 8.
    pub fn auto(max_threads: usize) -> Self {
        ShardMap::new((max_threads / 8).next_power_of_two())
    }

    /// Number of shards (a power of two, ≥ 1).
    #[inline(always)]
    pub fn shards(self) -> usize {
        self.mask + 1
    }

    /// The shard dense index `i` maps to.
    #[inline(always)]
    pub fn shard_of(self, i: usize) -> usize {
        i & self.mask
    }

    /// The slot of index `i` within its shard (`i / shards`; round-robin
    /// striping interleaves consecutive indices across shards).
    #[inline(always)]
    pub fn slot_of(self, i: usize) -> usize {
        i >> self.shift
    }

    /// How many of the dense indices `0..len` map to shard `s`.
    pub fn shard_len(self, len: usize, s: usize) -> usize {
        if s >= len {
            0
        } else {
            let shards = self.shards();
            (len - s + shards - 1) / shards
        }
    }
}

/// One registry shard: its slice of the thread-control table and its slice
/// of the monitor table, each in their own allocation so shards never share
/// cache lines (each `ThreadControl` is additionally 128-byte aligned).
#[derive(Debug)]
struct RegistryShard {
    controls: Box<[ThreadControl]>,
    monitors: Box<[Monitor]>,
}

/// The sharded mutator-thread and monitor registry.
///
/// Ids stay dense and are assigned in registration order exactly as before;
/// only the *storage* is sharded. Lookup is two indexings
/// (`shards[id & mask].controls[id >> shift]`) instead of one, which the
/// safe-point poll does not pay: it reads the control block an engine
/// resolved at attach (DESIGN.md §8).
#[derive(Debug)]
pub struct Registry {
    shards: Box<[RegistryShard]>,
    map: ShardMap,
    max_threads: usize,
    n_monitors: usize,
    next_tid: AtomicU16,
}

impl Registry {
    /// Build a registry for up to `max_threads` mutators and `monitors`
    /// program monitors, sharded per `map`.
    pub fn new(max_threads: usize, monitors: usize, map: ShardMap) -> Self {
        assert!(max_threads <= ThreadId::MAX, "too many threads");
        let shards = (0..map.shards())
            .map(|s| RegistryShard {
                controls: (0..map.shard_len(max_threads, s))
                    .map(|_| ThreadControl::new())
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
                monitors: (0..map.shard_len(monitors, s))
                    .map(|_| Monitor::new())
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Registry { shards, map, max_threads, n_monitors: monitors, next_tid: AtomicU16::new(0) }
    }

    /// The thread-shard mapping this registry (and the heap's access-epoch
    /// table) uses.
    #[inline(always)]
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// Register the calling thread; ids are dense and assigned in
    /// registration order. Panics if `max_threads` is exceeded.
    ///
    /// `Release` so that everything the registering thread published before
    /// registering (e.g. state it pre-seeded for its peers) is visible to
    /// any thread whose [`Registry::registered`] `Acquire` load observes the
    /// new count — fan-out snapshots slice the registry by that count and
    /// then read the peer's control state.
    pub fn register(&self) -> ThreadId {
        let raw = self.next_tid.fetch_add(1, Ordering::Release);
        assert!(
            (raw as usize) < self.max_threads,
            "thread registry full ({} max)",
            self.max_threads
        );
        ThreadId(raw)
    }

    /// Number of threads registered so far. `Acquire`: pairs with the
    /// `Release` registration bump (see [`Registry::register`]).
    #[inline]
    pub fn registered(&self) -> usize {
        (self.next_tid.load(Ordering::Acquire) as usize).min(self.max_threads)
    }

    /// Control block of thread `t`.
    #[inline(always)]
    pub fn control(&self, t: ThreadId) -> &ThreadControl {
        let i = t.index();
        &self.shards[self.map.shard_of(i)].controls[self.map.slot_of(i)]
    }

    /// The monitor with id `m`.
    #[inline(always)]
    pub fn monitor(&self, m: MonitorId) -> &Monitor {
        let i = m.index();
        if i >= self.n_monitors {
            crate::ids::out_of_range("MonitorId", i, self.n_monitors);
        }
        &self.shards[self.map.shard_of(i)].monitors[self.map.slot_of(i)]
    }

    /// Iterate the registered threads' control blocks in dense id order
    /// (`ThreadId(0)`, `ThreadId(1)`, …) — the same order the flat
    /// `Vec<ThreadControl>` model yields, which the registry proptest pins.
    pub fn controls(&self) -> impl Iterator<Item = &ThreadControl> + '_ {
        (0..self.registered()).map(move |i| self.control(ThreadId(i as u16)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shard_map_defaults_scale_with_threads() {
        for (threads, shards) in [(1, 1), (4, 1), (8, 1), (9, 1), (16, 2), (32, 4), (64, 8)] {
            assert_eq!(ShardMap::auto(threads).shards(), shards, "max_threads={threads}");
        }
    }

    #[test]
    fn shard_map_rounds_to_pow2_and_strides_round_robin() {
        let m = ShardMap::new(3);
        assert_eq!(m.shards(), 4);
        assert_eq!(m.shard_of(0), 0);
        assert_eq!(m.shard_of(5), 1);
        assert_eq!(m.shard_of(7), 3);
        assert_eq!(m.slot_of(0), 0);
        assert_eq!(m.slot_of(5), 1);
        // shard_len partitions any prefix exactly.
        for len in 0..40 {
            let total: usize = (0..m.shards()).map(|s| m.shard_len(len, s)).sum();
            assert_eq!(total, len, "len={len}");
        }
    }

    #[test]
    fn registration_is_dense_and_lookup_is_stable() {
        let r = Registry::new(16, 4, ShardMap::new(4));
        let a = r.register();
        let b = r.register();
        assert_eq!((a, b), (ThreadId(0), ThreadId(1)));
        assert_eq!(r.registered(), 2);
        // Different shards, distinct control blocks.
        assert_ne!(r.control(a) as *const _, r.control(b) as *const _);
        // Monitors resolve for every id.
        for m in 0..4 {
            let _ = r.monitor(MonitorId(m));
        }
    }

    #[test]
    #[should_panic(expected = "thread registry full")]
    fn registry_overflow_panics() {
        let r = Registry::new(1, 1, ShardMap::new(1));
        r.register();
        r.register();
    }

    #[test]
    fn monitors_are_distinct_across_and_within_shards() {
        let r = Registry::new(8, 6, ShardMap::new(2));
        let mut seen = std::collections::HashSet::new();
        for m in 0..6u32 {
            assert!(seen.insert(r.monitor(MonitorId(m)) as *const Monitor as usize));
        }
    }

    proptest! {
        /// Satellite: sharded registry iteration is permutation-equal to the
        /// flat `Vec<ThreadControl>` reference model — it yields exactly the
        /// registered blocks, in dense id order, and `control(t)` is
        /// identity-equal to the iterated block.
        #[test]
        fn registry_iteration_matches_flat_model(
            max in 1usize..40,
            shards in 1usize..16,
            frac in 0.0f64..1.0,
        ) {
            let registered = ((max as f64 * frac) as usize).min(max);
            let r = Registry::new(max, 2, ShardMap::new(shards));
            for i in 0..registered {
                prop_assert_eq!(r.register(), ThreadId(i as u16));
            }
            // Flat model: ids 0..registered, in order.
            let iterated: Vec<*const ThreadControl> =
                r.controls().map(|c| c as *const _).collect();
            prop_assert_eq!(iterated.len(), registered);
            let direct: Vec<*const ThreadControl> = (0..registered)
                .map(|i| r.control(ThreadId(i as u16)) as *const _)
                .collect();
            prop_assert_eq!(&iterated, &direct);
            // Permutation-equality: no duplicates (each id has its own block).
            let mut dedup = iterated.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), registered);
        }

        /// Round-robin striping keeps shard populations balanced: for any
        /// prefix of dense ids, per-shard counts differ by at most one.
        #[test]
        fn shard_populations_stay_balanced(len in 0usize..100, shards in 1usize..16) {
            let m = ShardMap::new(shards);
            let mut counts = vec![0usize; m.shards()];
            for i in 0..len {
                counts[m.shard_of(i)] += 1;
            }
            for (s, &c) in counts.iter().enumerate() {
                prop_assert_eq!(c, m.shard_len(len, s), "s={}", s);
            }
            let max = counts.iter().max().copied().unwrap_or(0);
            let min = counts.iter().min().copied().unwrap_or(0);
            prop_assert!(max - min <= 1);
        }
    }
}
