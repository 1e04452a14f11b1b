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
}

impl Heap {
    /// A heap of `n` zeroed objects.
    pub fn new(n: usize) -> Self {
        Heap { headers: (0..n).map(|_| ObjHeader::new()).collect() }
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
    pub fn reset_all(&self, state: u64) {
        for (_, o) in self.iter() {
            o.reset_relaxed(state);
        }
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
}
