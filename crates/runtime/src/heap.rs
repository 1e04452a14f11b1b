//! The tracked-object heap.
//!
//! Jikes RVM adds "two 32-bit words to each (scalar and array) object and
//! static field: one for last-access state and another for the adaptive
//! policy's profile information" (§7.1). Our [`ObjHeader`] is the Rust
//! equivalent: a 64-bit **state word** (interpreted only by `drink-core`),
//! a 64-bit **profile word** (interpreted only by the adaptive policy), and a
//! 64-bit **data word** standing in for the object's payload.
//!
//! The data word is an atomic accessed with `Relaxed` ordering: the *program*
//! under test is allowed to race on it (that is the whole point of tracking),
//! and the tracking protocols — not the data accesses — are responsible for
//! establishing happens-before between conflicting accesses. Using a relaxed
//! atomic keeps racy programs well-defined in Rust while adding no fences,
//! exactly like a plain field access in Java.
//!
//! # Layout
//!
//! Headers are packed back to back, 32 bytes each, in one boxed slice. Two
//! neighboring objects share a cache line, so concurrent state-word CASes on
//! adjacent `ObjId`s false-share.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::ids::ObjId;
use crate::registry::ShardMap;

/// One tracked shared object: state word + profile word + payload.
///
/// `align(32)` makes the stride a power of two — [`Heap::obj`] indexes by
/// shift, not multiply — and half a cache line, so no header straddles one.
#[derive(Debug)]
#[repr(C, align(32))]
pub struct ObjHeader {
    state: AtomicU64,
    profile: AtomicU64,
    data: AtomicU64,
}

impl Default for ObjHeader {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjHeader {
    /// A fresh object with all three words zero. The zero state word is
    /// defined by `drink-core` to be "WrEx-optimistic, owned by thread 0";
    /// engines that need a different initial state re-initialize at
    /// allocation via [`ObjHeader::reset`].
    pub fn new() -> Self {
        ObjHeader {
            state: AtomicU64::new(0),
            profile: AtomicU64::new(0),
            data: AtomicU64::new(0),
        }
    }

    /// The last-access state word. All interpretation lives in `drink-core`.
    #[inline(always)]
    pub fn state(&self) -> &AtomicU64 {
        &self.state
    }

    /// The adaptive policy's profile word.
    #[inline(always)]
    pub fn profile(&self) -> &AtomicU64 {
        &self.profile
    }

    /// Program-level read of the payload (relaxed; races allowed).
    #[inline(always)]
    pub fn data_read(&self) -> u64 {
        self.data.load(Ordering::Relaxed)
    }

    /// Program-level write of the payload (relaxed; races allowed).
    #[inline(always)]
    pub fn data_write(&self, v: u64) {
        self.data.store(v, Ordering::Relaxed);
    }

    /// Reset all three words (object re-allocation between runs).
    pub fn reset(&self, state: u64) {
        self.state.store(state, Ordering::SeqCst);
        self.profile.store(0, Ordering::SeqCst);
        self.data.store(0, Ordering::SeqCst);
    }

    /// Relaxed variant of [`ObjHeader::reset`] for bulk loops; the caller
    /// publishes all of them with one trailing fence.
    fn reset_relaxed(&self, state: u64) {
        self.state.store(state, Ordering::Relaxed);
        self.profile.store(0, Ordering::Relaxed);
        self.data.store(0, Ordering::Relaxed);
    }
}

const _: () = assert!(std::mem::size_of::<ObjHeader>() == 32);

/// A fixed-size table of tracked objects.
///
/// Workloads size the heap up front; `ObjId`s are dense indices. (The paper's
/// programs allocate dynamically, but allocation itself is not part of any
/// measured protocol — each newly allocated object simply starts in
/// `WrExOpt(T)` for its allocating thread, which engines establish via
/// [`Heap::reset_all`] or per-object resets.)
#[derive(Debug)]
pub struct Heap {
    headers: Box<[ObjHeader]>,
    /// Per-(object × thread-shard) access-epoch table (DESIGN.md §14),
    /// row-major by object: `epochs[o * shards + s]` holds the heap
    /// generation at which some thread of registry shard `s` first accessed
    /// object `o`, or an older generation if none has. Empty when the
    /// runtime runs with a single thread shard — the skip machinery is then
    /// disabled wholesale and the tracked fast paths pay nothing.
    epochs: Box<[AtomicU64]>,
    /// Thread-shard mapping the epoch table is indexed by (must match the
    /// registry's).
    shard_map: ShardMap,
    /// Heap generation, bumped by [`Heap::reset_all`]. A stamp is live only
    /// if it equals the current generation, which is how a bulk reset
    /// invalidates every stamp without touching the table.
    epoch_gen: AtomicU64,
}

impl Heap {
    /// A heap of `n` zeroed objects. Single thread shard (no access-epoch
    /// table).
    pub fn new(n: usize) -> Self {
        Self::with_shards(n, ShardMap::new(1))
    }

    /// A heap of `n` zeroed objects with an access-epoch table indexed by
    /// `shard_map` (the runtime passes its registry's thread-shard mapping).
    pub fn with_shards(n: usize, shard_map: ShardMap) -> Self {
        let shards = shard_map.shards();
        let epochs = if shards > 1 {
            (0..n * shards).map(|_| AtomicU64::new(0)).collect::<Vec<_>>().into_boxed_slice()
        } else {
            Box::default()
        };
        Heap {
            headers: (0..n).map(|_| ObjHeader::new()).collect(),
            epochs,
            shard_map,
            epoch_gen: AtomicU64::new(1),
        }
    }

    // --- Access-epoch table (DESIGN.md §14) ---

    /// Number of thread shards the access-epoch table is indexed by (1 means
    /// the table is absent and every stamp/skip query is a no-op).
    #[inline(always)]
    pub fn thread_shards(&self) -> usize {
        self.shard_map.shards()
    }

    /// The thread-shard mapping of the epoch table (the registry's mapping).
    #[inline(always)]
    pub fn thread_shard_map(&self) -> ShardMap {
        self.shard_map
    }

    /// Current heap generation (bumped by [`Heap::reset_all`]).
    #[inline]
    pub fn epoch_generation(&self) -> u64 {
        self.epoch_gen.load(Ordering::Relaxed)
    }

    /// Stamp object `o`'s access epoch for thread shard `shard`: records
    /// "some thread of this shard has (begun to) access `o` in the current
    /// heap generation". Engines call this at every tracked access, before
    /// loading the state word; after the first stamp per (object, shard,
    /// generation) the call is one relaxed load and a predicted branch.
    ///
    /// Ordering: the first stamp is a `SeqCst` store followed by a `SeqCst`
    /// fence, so the stamp is ordered before the stamper's subsequent
    /// state-word load in the single total order. A fan-out requester reads
    /// the epoch with a `SeqCst` load ([`Heap::shard_stamped`]); if that
    /// load does not observe the stamp, the stamp — and hence every access
    /// the stamping thread performs — is ordered after the requester's
    /// snapshot, which is exactly the already-tolerated "peer had not
    /// touched the object at snapshot time" vacuous case (full argument:
    /// DESIGN.md §14).
    #[inline(always)]
    pub fn stamp_access(&self, o: ObjId, shard: usize) {
        if self.thread_shards() == 1 {
            return;
        }
        let gen = self.epoch_gen.load(Ordering::Relaxed);
        let slot = &self.epochs[o.index() * self.thread_shards() + shard];
        if slot.load(Ordering::Relaxed) == gen {
            return;
        }
        #[cfg(feature = "check-invariants")]
        if crate::injected_bug("skip-epoch-stamp") {
            return;
        }
        slot.store(gen, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Is shard `shard` stamped for object `o` in the current generation?
    /// `false` proves no thread of that shard has accessed `o` since the
    /// last [`Heap::reset_all`] (modulo the tolerated race documented at
    /// [`Heap::stamp_access`]); with a single thread shard this is always
    /// `false` and callers must not consult it for skip decisions.
    #[inline]
    pub fn shard_stamped(&self, o: ObjId, shard: usize) -> bool {
        if self.thread_shards() == 1 {
            return false;
        }
        self.epochs[o.index() * self.thread_shards() + shard].load(Ordering::SeqCst)
            == self.epoch_gen.load(Ordering::Relaxed)
    }

    /// Per-object bitmask of stamped thread shards (bit `s` set iff shard
    /// `s` is stamped in the current generation; shards beyond 64 are not
    /// representable and are omitted). The shard-skip oracle compares this
    /// against the stamps the workload's access pattern implies.
    pub fn stamp_snapshot(&self) -> Vec<u64> {
        let shards = self.thread_shards().min(64);
        (0..self.len())
            .map(|i| {
                let o = ObjId(i as u32);
                (0..shards).fold(0u64, |m, s| {
                    if self.shard_stamped(o, s) { m | (1 << s) } else { m }
                })
            })
            .collect()
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True if the heap holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// The object with id `o`. Panics on out-of-range ids (a workload bug,
    /// never a protocol condition).
    #[inline(always)]
    pub fn obj(&self, o: ObjId) -> &ObjHeader {
        match self.headers.get(o.index()) {
            Some(h) => h,
            None => crate::ids::out_of_range("ObjId", o.index(), self.len()),
        }
    }

    /// Iterate over `(ObjId, &ObjHeader)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &ObjHeader)> {
        self.headers.iter().enumerate().map(|(i, h)| (ObjId(i as u32), h))
    }

    /// Store `state` into every object's state word and clear profiles/data.
    ///
    /// The stores are Relaxed with one trailing SeqCst fence: bulk reset is
    /// a single-threaded setup step, and one fence publishes the whole heap
    /// at a fraction of the cost of 3·n SeqCst stores.
    ///
    /// Also bumps the heap generation, which invalidates every access-epoch
    /// stamp at once (a stamp is live only in the generation it was made;
    /// see DESIGN.md §14).
    pub fn reset_all(&self, state: u64) {
        for (_, o) in self.iter() {
            o.reset_relaxed(state);
        }
        self.epoch_gen.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Snapshot of every object's payload, for replay-determinism checks.
    pub fn snapshot_data(&self) -> Vec<u64> {
        self.iter().map(|(_, o)| o.data_read()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_indexing_and_len() {
        let h = Heap::new(8);
        assert_eq!(h.len(), 8);
        assert!(!h.is_empty());
        h.obj(ObjId(7)).data_write(99);
        assert_eq!(h.obj(ObjId(7)).data_read(), 99);
        assert_eq!(h.obj(ObjId(0)).data_read(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_obj_panics() {
        let h = Heap::new(2);
        h.obj(ObjId(2));
    }

    #[test]
    fn reset_all_clears_words() {
        let h = Heap::new(3);
        for (_, o) in h.iter() {
            o.data_write(5);
            o.state().store(123, Ordering::SeqCst);
            o.profile().store(9, Ordering::SeqCst);
        }
        h.reset_all(77);
        for (_, o) in h.iter() {
            assert_eq!(o.data_read(), 0);
            assert_eq!(o.state().load(Ordering::SeqCst), 77);
            assert_eq!(o.profile().load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn snapshot_reflects_data() {
        let h = Heap::new(4);
        h.obj(ObjId(1)).data_write(10);
        h.obj(ObjId(3)).data_write(30);
        assert_eq!(h.snapshot_data(), vec![0, 10, 0, 30]);
    }

    #[test]
    fn iter_yields_dense_ids() {
        let h = Heap::new(5);
        let ids: Vec<u32> = h.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn layout_strides() {
        assert_eq!(std::mem::size_of::<ObjHeader>(), 32);
        assert_eq!(std::mem::align_of::<ObjHeader>(), 32);
        let h = Heap::new(4);
        let addr = |i| h.obj(ObjId(i)) as *const ObjHeader as usize;
        assert_eq!(addr(1) - addr(0), 32);
        assert_eq!(addr(3) - addr(0), 96);
        // No header straddles a cache line.
        assert!((0..4).all(|i| addr(i) % 64 + 32 <= 64));
    }

    #[test]
    fn single_shard_heap_has_no_epoch_table() {
        let h = Heap::new(4);
        assert_eq!(h.thread_shards(), 1);
        // Stamps are no-ops and skip queries always answer "not stamped".
        h.stamp_access(ObjId(0), 0);
        assert!(!h.shard_stamped(ObjId(0), 0));
    }

    #[test]
    fn stamps_are_per_object_per_shard_and_reset_invalidates() {
        let h = Heap::with_shards(3, ShardMap::new(4));
        assert_eq!(h.thread_shards(), 4);
        assert!(!h.shard_stamped(ObjId(1), 2));
        h.stamp_access(ObjId(1), 2);
        assert!(h.shard_stamped(ObjId(1), 2));
        // Neither neighboring objects nor neighboring shards are stamped.
        assert!(!h.shard_stamped(ObjId(0), 2));
        assert!(!h.shard_stamped(ObjId(2), 2));
        assert!(!h.shard_stamped(ObjId(1), 1));
        assert!(!h.shard_stamped(ObjId(1), 3));
        assert_eq!(h.stamp_snapshot(), vec![0, 1 << 2, 0]);
        // Bulk reset invalidates every stamp without touching the table.
        let gen = h.epoch_generation();
        h.reset_all(0);
        assert_eq!(h.epoch_generation(), gen + 1);
        assert!(!h.shard_stamped(ObjId(1), 2));
        // Re-stamping in the new generation works.
        h.stamp_access(ObjId(1), 2);
        assert!(h.shard_stamped(ObjId(1), 2));
    }

    use proptest::prelude::*;

    proptest! {
        /// Satellite: epoch-stamp monotonicity. A shard once stamped for an
        /// object is never reported unstamped (i.e. never skipped) again
        /// until the next heap reset, regardless of interleaved stamps to
        /// other objects and shards.
        #[test]
        fn stamp_monotonic_until_reset(
            objs in 1usize..8,
            shards in 2usize..8,
            ops in proptest::collection::vec((0usize..8, 0usize..8, 0usize..10), 0..64),
        ) {
            let map = ShardMap::new(shards);
            let h = Heap::with_shards(objs, map);
            let mut live: std::collections::HashSet<(usize, usize)> = Default::default();
            for (o, s, roll) in ops {
                let (o, s) = (o % objs, s % map.shards());
                // Roll 0 (10% of steps): bulk reset; otherwise stamp.
                if roll == 0 {
                    h.reset_all(0);
                    live.clear();
                } else {
                    h.stamp_access(ObjId(o as u32), s);
                    live.insert((o, s));
                }
                // Every stamp made since the last reset is still visible;
                // everything else reads unstamped.
                for oo in 0..objs {
                    for ss in 0..map.shards() {
                        prop_assert_eq!(
                            h.shard_stamped(ObjId(oo as u32), ss),
                            live.contains(&(oo, ss)),
                            "o={} s={}", oo, ss
                        );
                    }
                }
            }
        }
    }
}
