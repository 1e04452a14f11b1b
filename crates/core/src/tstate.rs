//! Per-thread tracking state: lock buffer, read set, rdShCount, statistics.
//!
//! Hybrid tracking keeps three pieces of thread-private state (§3.2,
//! Appendix B):
//!
//! * the **lock buffer**: every pessimistic object whose state this thread
//!   has locked, flushed (unlocked) at PSROs and responding safe points;
//! * the **read set** `T.rdSet`: objects this thread has read-locked, used to
//!   make repeated reads of `RdShRLock` objects reentrant (atomic-op-free);
//!   cleared whenever the lock buffer is flushed;
//! * `T.rdShCount`: Octet's per-thread high-water mark over the global RdSh
//!   counter, deciding whether a RdSh read needs a fence transition.
//!
//! All of this state is accessed **only by the owning thread** — flushing is
//! always performed by the owner (remote threads *request* a flush via
//! coordination; they never reach into another thread's buffers). The
//! [`OwnedByThread`] wrapper encodes that invariant: it is `Sync` so engines
//! can hold a slot per thread in a shared table, but access is checked (in
//! debug builds) to come from the thread that first claimed the slot.

use std::cell::UnsafeCell;
use std::ptr::NonNull;

use drink_runtime::{LocalStats, ObjId, ThreadControl, ThreadId};

use crate::word::{Kind, LockMode, StateWord};

/// A dense bitmap over `ObjId`s with an O(1) element count.
///
/// `ObjId`s are dense indices into a fixed-size heap, so per-thread object
/// sets (the read set, lock-buffer membership) don't need hashing: membership
/// is one shift+mask into a bitmap sized to the heap. Compared to the
/// `HashSet<u32>` it replaces, `contains` on the reentrancy fast path is a
/// single indexed load with no SipHash.
///
/// The set count is tracked so `is_empty`/`len` are O(1); clearing is done
/// by the owner removing exactly the ids it inserted (O(inserted), not
/// O(heap)).
#[derive(Debug, Default)]
pub struct DenseObjSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseObjSet {
    /// An empty set sized for ids `0..capacity_objects`. Inserting beyond
    /// the capacity grows the bitmap (ids are heap indices, so this only
    /// happens if a workload outgrows its declared heap).
    pub fn with_capacity(capacity_objects: usize) -> Self {
        DenseObjSet {
            words: vec![0; capacity_objects.div_ceil(64)],
            len: 0,
        }
    }

    #[inline(always)]
    fn split(id: u32) -> (usize, u64) {
        ((id as usize) >> 6, 1u64 << (id & 63))
    }

    /// O(1) membership test; ids beyond capacity are simply absent.
    #[inline(always)]
    pub fn contains(&self, id: u32) -> bool {
        let (w, bit) = Self::split(id);
        match self.words.get(w) {
            Some(word) => word & bit != 0,
            None => false,
        }
    }

    /// Insert `id`; returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, bit) = Self::split(id);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let word = &mut self.words[w];
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Remove `id`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, id: u32) -> bool {
        let (w, bit) = Self::split(id);
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Number of ids in the set (O(1)).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no ids are set (O(1)).
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is every id in `self` also in `other`? Word-wise `a & !b == 0`, so
    /// O(capacity/64) — cheap enough for `check-invariants` hot paths.
    pub fn is_subset_of(&self, other: &DenseObjSet) -> bool {
        if self.len > other.len {
            return false;
        }
        self.words.iter().enumerate().all(|(i, &a)| {
            a & !other.words.get(i).copied().unwrap_or(0) == 0
        })
    }
}

/// A cell that is shared between threads structurally but owned by exactly
/// one thread dynamically.
///
/// # Safety contract
///
/// Slot `t` in an engine's per-thread table may only be accessed from the OS
/// thread that attached as mutator `t`. Engines uphold this because every
/// access path (`Session` methods, `RtHooks` callbacks, coordination respond
/// loops) executes on the mutator thread itself; remote threads communicate
/// exclusively through `ThreadControl` and object state words.
///
/// Debug builds verify the contract by recording the first accessor's
/// `std::thread::ThreadId` and asserting on every subsequent access.
pub struct OwnedByThread<T> {
    inner: UnsafeCell<T>,
    #[cfg(debug_assertions)]
    owner: parking_lot::Mutex<Option<std::thread::ThreadId>>,
}

// SAFETY: access is confined to one thread per the contract above; `T: Send`
// makes moving the value's ownership to that thread sound.
unsafe impl<T: Send> Sync for OwnedByThread<T> {}

impl<T> OwnedByThread<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        OwnedByThread {
            inner: UnsafeCell::new(value),
            #[cfg(debug_assertions)]
            owner: parking_lot::Mutex::new(None),
        }
    }

    /// Access the value.
    ///
    /// # Safety
    ///
    /// The caller must be the owning mutator thread (see the type-level
    /// contract). The returned reference must not outlive the current
    /// mutator operation (callers never store it).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    pub unsafe fn get(&self) -> &mut T {
        #[cfg(debug_assertions)]
        {
            let me = std::thread::current().id();
            let mut owner = self.owner.lock();
            match *owner {
                None => *owner = Some(me),
                Some(o) => assert_eq!(
                    o, me,
                    "OwnedByThread accessed from a foreign thread — engine bug"
                ),
            }
        }
        // SAFETY: forwarded to the caller's obligation.
        unsafe { &mut *self.inner.get() }
    }

    /// Unwrap the value: owning the slot, the caller is the only thread
    /// that can reach it.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Reset the debug-mode owner (used when a slot is re-used by a new
    /// mutator in a subsequent run on the same engine).
    pub fn reset_owner(&self) {
        #[cfg(debug_assertions)]
        {
            *self.owner.lock() = None;
        }
    }
}

/// A mutator's control block, located once so that a poll need not.
struct ControlRef(NonNull<ThreadControl>);
// SAFETY: stands for a `&ThreadControl`, and `ThreadControl` is `Sync`.
unsafe impl Send for ControlRef {}

/// The thread-private state of one mutator under any tracking engine.
pub struct ThreadState {
    /// This mutator's id.
    pub tid: ThreadId,
    ctl: ControlRef,
    /// Octet's `T.rdShCount`: the largest RdSh counter value this thread has
    /// fenced against.
    pub rd_sh_count: u64,
    /// Pessimistic objects whose states this thread currently holds locked,
    /// in acquisition order (flush order matters to runtime support). A
    /// flush is the only way out: a lock released right after its access
    /// never enters the buffer, so nothing ever searches it.
    pub lock_buffer: Vec<ObjId>,
    /// Objects this thread has read-locked (`T.rdSet`), for reentrancy.
    /// A subset of `lock_buffer`.
    pub rd_set: DenseObjSet,
    /// Deterministic position counter: incremented once per program
    /// operation (access or synchronization op). Recorders pin happens-before
    /// sources and sinks to these positions.
    pub op_index: u64,
    /// Scratch buffer for happens-before sources, reused across transitions
    /// to keep the hot path allocation-free.
    pub src_scratch: Vec<(ThreadId, u64)>,
    /// Scratch for [`crate::coord::coordinate`]'s outstanding-peer set,
    /// reused across conflicts (like the lock buffer, it lives for the
    /// session) so a coordination never allocates per conflict.
    pub fanout_scratch: Vec<crate::coord::PendingPeer>,
    /// Scratch for the responder side: requests drained at a responding safe
    /// point land here (via `ThreadControl::drain_requests_into`) instead of
    /// a fresh `Vec` per response.
    pub req_scratch: Vec<drink_runtime::CoordRequest>,
    /// Scratch for the objects named by a drained request batch.
    pub obj_scratch: Vec<ObjId>,
    /// This thread's event counters, merged into the runtime's global stats
    /// when the mutator detaches.
    pub stats: LocalStats,
}

impl ThreadState {
    /// Fresh state for mutator `tid`, with object sets sized to the heap.
    ///
    /// # Safety
    ///
    /// `ctl` — `tid`'s control block — must outlive the returned state: an
    /// engine's states sit beside the `Arc<Runtime>` whose registry owns it.
    pub unsafe fn new(tid: ThreadId, heap_objects: usize, ctl: &ThreadControl) -> Self {
        ThreadState {
            tid,
            ctl: ControlRef(NonNull::from(ctl)),
            rd_sh_count: 0,
            lock_buffer: Vec::with_capacity(64),
            rd_set: DenseObjSet::with_capacity(heap_objects),
            op_index: 0,
            src_scratch: Vec::with_capacity(8),
            fanout_scratch: Vec::with_capacity(8),
            req_scratch: Vec::with_capacity(8),
            obj_scratch: Vec::with_capacity(8),
            stats: LocalStats::new(),
        }
    }

    /// `Runtime::control(tid)`, without the lookup.
    #[inline(always)]
    pub fn control(&self) -> &ThreadControl {
        // SAFETY: `new`'s caller keeps the block alive as long as `self`.
        unsafe { self.ctl.0.as_ref() }
    }

    /// Record that this thread took `lock` on `o`'s state and defers its
    /// release: a buffer entry and, for a read lock, a bit in the read set
    /// that makes repeated reads reentrant.
    #[inline(always)]
    pub fn push_lock(&mut self, o: ObjId, lock: LockMode) {
        self.lock_buffer.push(o);
        if lock == LockMode::Read {
            self.rd_set.insert(o.0);
        }
    }

    /// Does a read by this thread leave the state word `cur` as it is?
    /// Exclusive owner, or read-shared with a fresh rdShCount (Table 1's
    /// Same∗ row): loads and compares, no synchronization.
    #[inline(always)]
    pub fn read_is_same_state(&self, cur: u64) -> bool {
        let w = StateWord(cur);
        cur == StateWord::wr_ex_opt(self.tid).0
            || cur == StateWord::rd_ex_opt(self.tid).0
            || (w.kind() == Kind::RdSh && !w.is_pess() && self.rd_sh_count >= w.rdsh_count())
    }

    /// True if this thread holds no pessimistic locks (invariant at blocking
    /// safe points: the buffer is always flushed before blocking).
    pub fn holds_no_locks(&self) -> bool {
        self.lock_buffer.is_empty() && self.rd_set.is_empty()
    }

    /// What the lock bookkeeping must maintain at all times:
    /// `rd_set ⊆ lock_buffer`. Compiled into the flush by `check-invariants`.
    pub fn check_set_invariants(&self) {
        let mut buffered = DenseObjSet::default();
        for o in &self.lock_buffer {
            buffered.insert(o.0);
        }
        assert!(
            self.rd_set.is_subset_of(&buffered),
            "T{} rd_set ⊄ lock_buffer",
            self.tid.raw()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(tid: ThreadId, heap_objects: usize) -> ThreadState {
        // SAFETY: the leaked control block outlives every state.
        unsafe { ThreadState::new(tid, heap_objects, Box::leak(Box::default())) }
    }

    #[test]
    fn owned_by_thread_allows_owner_access() {
        let slot = OwnedByThread::new(5u32);
        unsafe {
            *slot.get() += 1;
            assert_eq!(*slot.get(), 6);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn owned_by_thread_detects_foreign_access() {
        let slot = std::sync::Arc::new(OwnedByThread::new(0u32));
        unsafe {
            slot.get();
        }
        let slot2 = slot.clone();
        let result = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                slot2.get();
            }))
        })
        .join()
        .unwrap();
        assert!(result.is_err(), "foreign access must panic in debug builds");
    }

    #[test]
    fn reset_owner_allows_reattachment() {
        let slot = std::sync::Arc::new(OwnedByThread::new(0u32));
        unsafe {
            slot.get();
        }
        slot.reset_owner();
        let slot2 = slot.clone();
        std::thread::spawn(move || unsafe {
            *slot2.get() = 9;
        })
        .join()
        .unwrap();
        slot.reset_owner();
        unsafe {
            assert_eq!(*slot.get(), 9);
        }
    }

    #[test]
    fn fresh_thread_state_holds_no_locks() {
        let ts = state(ThreadId(3), 64);
        assert!(ts.holds_no_locks());
        assert_eq!(ts.rd_sh_count, 0);
        assert_eq!(ts.op_index, 0);
    }

    #[test]
    fn dense_obj_set_basics() {
        let mut s = DenseObjSet::with_capacity(100);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(99));
        assert!(!s.insert(63), "double insert is not fresh");
        assert_eq!(s.len(), 4);
        assert!(s.contains(64) && s.contains(99));
        assert!(!s.contains(65));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
        for id in [0, 64, 99] {
            assert!(s.remove(id));
        }
        assert!(s.is_empty() && !s.contains(0));
    }

    #[test]
    fn dense_obj_set_grows_beyond_capacity() {
        let mut s = DenseObjSet::with_capacity(4);
        assert!(!s.contains(1000));
        assert!(s.insert(1000));
        assert!(s.contains(1000));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn subset_test_handles_unequal_capacities() {
        let mut small = DenseObjSet::with_capacity(4);
        let mut big = DenseObjSet::with_capacity(256);
        assert!(small.is_subset_of(&big), "empty ⊆ empty");
        small.insert(2);
        assert!(!small.is_subset_of(&big));
        big.insert(2);
        big.insert(200);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small), "id beyond small's capacity");
        small.insert(200);
        assert!(big.is_subset_of(&small), "grown past declared capacity");
    }

    #[test]
    fn set_invariants_hold_through_lock_lifecycle() {
        let mut ts = state(ThreadId(1), 32);
        ts.check_set_invariants();
        ts.push_lock(ObjId(3), LockMode::Write);
        ts.push_lock(ObjId(7), LockMode::Read);
        ts.push_lock(ObjId(7), LockMode::Read); // a duplicate entry, one read-set bit
        ts.check_set_invariants();
        // A flush empties both, entry by entry.
        for o in std::mem::take(&mut ts.lock_buffer) {
            ts.rd_set.remove(o.0);
        }
        ts.check_set_invariants();
        assert!(ts.holds_no_locks());
    }

    #[test]
    #[should_panic(expected = "rd_set ⊄ lock_buffer")]
    fn set_invariants_catch_rd_set_escape() {
        let mut ts = state(ThreadId(1), 32);
        ts.rd_set.insert(5);
        ts.check_set_invariants();
    }

    #[test]
    fn push_lock_keeps_buffer_and_read_set_in_sync() {
        let mut ts = state(ThreadId(0), 32);
        ts.push_lock(ObjId(3), LockMode::Write);
        ts.push_lock(ObjId(7), LockMode::Read);
        assert!(!ts.rd_set.contains(3) && ts.rd_set.contains(7));
        assert!(!ts.holds_no_locks());
        assert_eq!(ts.lock_buffer, vec![ObjId(3), ObjId(7)]);
    }
}
