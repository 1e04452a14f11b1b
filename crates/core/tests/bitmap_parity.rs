//! Parity between the dense-bitmap object sets and the seed's `HashSet`
//! bookkeeping.
//!
//! PR 1 replaced `ThreadState::rd_set: HashSet<u32>` (and the linear
//! `lock_buffer` membership scans) with [`DenseObjSet`], a per-thread bitmap.
//! The engines consult those sets only through `insert` / `remove` /
//! `contains` / `clear` / `is_empty`, so parity splits into two obligations,
//! each checked here:
//!
//! 1. **ADT parity** — `DenseObjSet` behaves identically to `HashSet<u32>`
//!    under arbitrary operation sequences (property test, including growth
//!    past the initial capacity).
//! 2. **Engine parity** — on a lock/unlock/reentrancy-heavy single-threaded
//!    schedule, the hybrid engine's Table 2 event counts match a reference
//!    model that re-implements the seed's `HashSet`-based bookkeeping and
//!    predicts every access's classification.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use drink_core::engine::hybrid::{HybridConfig, HybridEngine, SelfReadMode};
use drink_core::policy::PolicyParams;
use drink_core::prelude::*;
use drink_core::tstate::DenseObjSet;
use drink_core::word::{LockMode, StateWord};
use drink_runtime::{Event, ObjId, Runtime, RuntimeConfig};
use proptest::prelude::*;

// --- 1. ADT parity -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn dense_obj_set_matches_hashset(ops in proptest::collection::vec((0u32..96, 0u8..4), 0..200)) {
        // Deliberately small initial capacity so inserts beyond it exercise
        // the growth path (the engines size the set to the heap up front;
        // growth must still be correct, not just unreachable).
        let mut dense = DenseObjSet::with_capacity(16);
        let mut reference: HashSet<u32> = HashSet::new();
        for (id, op) in ops {
            match op {
                0 => prop_assert_eq!(dense.insert(id), reference.insert(id)),
                1 => prop_assert_eq!(dense.remove(id), reference.remove(&id)),
                2 => prop_assert_eq!(dense.contains(id), reference.contains(&id)),
                // A flush: the owner removes exactly the ids it inserted.
                _ => {
                    for id in reference.drain() {
                        prop_assert!(dense.remove(id));
                    }
                }
            }
            prop_assert_eq!(dense.len(), reference.len());
            prop_assert_eq!(dense.is_empty(), reference.is_empty());
        }
        for id in 0..96 {
            prop_assert_eq!(dense.contains(id), reference.contains(&id));
        }
    }
}

// --- 2. Engine parity ----------------------------------------------------

/// Reference model of the seed's per-thread bookkeeping: a `HashSet` read
/// set, a `HashSet` write-hold set, and the lock buffer length. It predicts,
/// for every access in the schedule, which Table 2 class the hybrid engine
/// must count, exactly as the seed's `HashSet`-based `ThreadState` did.
#[derive(Default)]
struct SeedModel {
    rd_set: HashSet<u32>,
    wr_held: HashSet<u32>,
    buffer_len: u64,
    // Predicted Table 2 counters.
    pess_uncontended: u64,
    pess_reentrant: u64,
    lock_buffer_flush: u64,
    state_unlocked: u64,
}

impl SeedModel {
    /// Predict a read of `o`. Objects in this schedule are always this
    /// thread's `WrExPess` family, so a read either acquires the read lock
    /// (uncontended, joins the buffer + read set) or is reentrant.
    fn read(&mut self, o: u32) {
        if self.rd_set.contains(&o) || self.wr_held.contains(&o) {
            self.pess_reentrant += 1;
        } else {
            self.pess_uncontended += 1;
            self.rd_set.insert(o);
            self.buffer_len += 1;
        }
    }

    /// Predict a write of `o`: reentrant under a write hold, an in-place
    /// upgrade under our own read lock (counted uncontended, leaves the
    /// read set, keeps its buffer entry), or a fresh write-lock acquisition.
    fn write(&mut self, o: u32) {
        if self.wr_held.contains(&o) {
            self.pess_reentrant += 1;
        } else if self.rd_set.remove(&o) {
            self.pess_uncontended += 1;
            self.wr_held.insert(o);
        } else {
            self.pess_uncontended += 1;
            self.wr_held.insert(o);
            self.buffer_len += 1;
        }
    }

    /// Predict a PSRO flush: one flush event if the buffer is non-empty,
    /// one unlock per buffer entry, and both sets drain.
    fn flush(&mut self) {
        if self.buffer_len > 0 {
            self.lock_buffer_flush += 1;
            self.state_unlocked += self.buffer_len;
        }
        self.buffer_len = 0;
        self.rd_set.clear();
        self.wr_held.clear();
    }
}

/// Policy that never migrates objects between models, so injected
/// pessimistic states stay pessimistic across flushes.
fn inert_policy() -> PolicyParams {
    PolicyParams {
        cutoff_confl: u32::MAX,
        k_confl: u32::MAX,
        inertia: u32::MAX,
    }
}

#[test]
fn bitmap_counts_match_hashset_reference_model() {
    const OBJECTS: u32 = 24;
    const ROUNDS: usize = 8;

    let e = HybridEngine::with_config(
        Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(2)
        .heap_objects(OBJECTS as usize)
        .monitors(1)
        .build())),
        // The reference model predicts which lock every read takes, so the
        // reads must take them: no validated reads (DESIGN.md §12).
        PaperModel,
        HybridConfig {
            policy: inert_policy(),
            self_read: SelfReadMode::WrExRLock,
            ..HybridConfig::default()
        },
    );
    let t = e.attach();

    // Every object starts as this thread's unlocked WrExPess.
    for o in 0..OBJECTS {
        e.rt()
            .obj(ObjId(o))
            .state()
            .store(StateWord::wr_ex_pess(t, LockMode::Unlocked).0, Ordering::SeqCst);
    }

    let mut model = SeedModel::default();

    // A lock/unlock/reentrancy-heavy schedule: every round re-acquires and
    // re-touches a skewed mix of objects (read-first, write-first,
    // read-upgrade-write, repeated reentrant hits), then flushes at a PSRO.
    // A cheap deterministic LCG drives the skew so rounds differ.
    let mut seed = 0x9e37_79b9u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) as u32
    };
    for round in 0..ROUNDS {
        let hits = 5 * OBJECTS as usize;
        for _ in 0..hits {
            let o = next() % OBJECTS;
            match next() % 5 {
                0 | 1 => {
                    let _ = e.read(t, ObjId(o));
                    model.read(o);
                }
                2 | 3 => {
                    e.write(t, ObjId(o), u64::from(o));
                    model.write(o);
                }
                _ => {
                    // Reentrancy burst: read, upgrade-write, reread.
                    let _ = e.read(t, ObjId(o));
                    model.read(o);
                    e.write(t, ObjId(o), u64::from(o));
                    model.write(o);
                    let _ = e.read(t, ObjId(o));
                    model.read(o);
                }
            }
        }
        // PSRO: monitor release flushes the lock buffer.
        e.lock(t, drink_runtime::MonitorId(0));
        e.unlock(t, drink_runtime::MonitorId(0));
        model.flush();
        assert!(round < ROUNDS); // schedule sanity
    }

    e.detach(t); // merges thread-local stats into the global report
    let r = e.rt().stats().report();

    assert_eq!(
        r.get(Event::PessUncontended),
        model.pess_uncontended,
        "uncontended acquisitions diverge from HashSet reference"
    );
    assert_eq!(
        r.get(Event::PessReentrant),
        model.pess_reentrant,
        "reentrant classifications diverge from HashSet reference"
    );
    assert_eq!(
        r.get(Event::LockBufferFlush),
        model.lock_buffer_flush,
        "flush count diverges from HashSet reference"
    );
    assert_eq!(
        r.get(Event::StateUnlocked),
        model.state_unlocked,
        "unlock count diverges from HashSet reference"
    );
    // The schedule is single-threaded over injected pessimistic states:
    // nothing may be classified contended or optimistic.
    assert_eq!(r.get(Event::PessContended), 0);
    assert_eq!(r.get(Event::OptSameState), 0);
    assert_eq!(r.get(Event::OptConflictExplicit), 0);

    // And the schedule really was reentrancy-heavy, or the test is vacuous.
    assert!(model.pess_reentrant > model.pess_uncontended);
}
