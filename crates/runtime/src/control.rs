//! Per-thread control state for the coordination protocol (§2.2, Figure 1).
//!
//! Each mutator thread owns a [`ThreadControl`] that other threads inspect
//! when they need to coordinate:
//!
//! * a **status word** encoding RUNNING/BLOCKED plus an *epoch*. A requester
//!   that finds the remote thread blocked coordinates **implicitly** by
//!   CASing the epoch forward; the remote thread observes the bump when it
//!   wakes. A requester that finds the thread running coordinates
//!   **explicitly** by enqueuing a request and spinning on a response token
//!   until the remote thread reaches a safe point;
//! * a **lock-free request queue** (Treiber-stack push, owner-side
//!   detach-and-reverse drain) with a `has_requests` flag so the safe point
//!   poll on the fast path is a single relaxed load and neither side ever
//!   blocks on a lock;
//! * a **release clock**, incremented at every program synchronization
//!   release operation and responding safe point. The hybrid dependence
//!   recorder (§4.2) reads remote threads' release clocks to name the source
//!   of a happens-before edge without communicating.
//!
//! The status word is the linchpin of instrumentation–access atomicity: a
//! thread publishes BLOCKED only at a blocking safe point (no access in
//! flight), so a successful implicit epoch CAS proves the remote thread
//! cannot be between its instrumentation and its access.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::ids::ThreadId;

/// Condvar-based parking slot for a thread waiting on coordination — the
/// last rung of the adaptive backoff ladder (DESIGN.md §13). One thread
/// parks (the coordination requester); any thread notifies (a responder
/// completing one of the requester's tokens, or a peer enqueuing a request
/// *to* the parked thread so it wakes to act as a safe point).
///
/// The fast path of `notify` is a single atomic load: when nobody is parked
/// (the overwhelmingly common case — responders complete tokens against
/// spinning requesters), no lock is touched. The classic lost-wakeup race
/// (notify between the parker's last poll and its `parked` publication) is
/// *tolerated*, not closed: every park is bounded by a timeout the caller
/// keeps small (≤ ~1 ms), so a lost notify costs one park interval, never a
/// hang. That is also why `park` never needs a watchdog of its own.
#[derive(Debug, Default)]
pub struct Waker {
    /// Is a thread inside (or committed to entering) `park`?
    parked: AtomicBool,
    /// Pending-notify flag, protecting the condvar wait against a notify
    /// that lands between `parked` publication and the actual wait.
    state: Mutex<bool>,
    cv: Condvar,
}

impl Waker {
    /// Wake the parked thread, if any. Lock-free (one load) when nobody is
    /// parked.
    pub fn notify(&self) {
        if self.parked.load(Ordering::SeqCst) {
            // Released before the notify, so the woken parker does not
            // block on it at once.
            *self.state.lock() = true;
            self.cv.notify_all();
        }
    }

    /// Park the calling thread for at most `timeout`, or until a notify
    /// arrives. Returns immediately if a notify raced ahead. Only one
    /// thread may park on a given `Waker` (it is a per-thread slot).
    pub fn park(&self, timeout: Duration) {
        self.parked.store(true, Ordering::SeqCst);
        {
            let mut pending = self.state.lock();
            if !*pending {
                self.cv.wait_for(&mut pending, timeout);
            }
            *pending = false;
        }
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// Decoded value of the status word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadStatus {
    /// The thread is executing mutator code; coordinate explicitly.
    Running {
        /// Epoch at the time of the load.
        epoch: u64,
    },
    /// The thread is parked at a blocking safe point; coordinate implicitly.
    Blocked {
        /// Epoch at the time of the load; pass to
        /// [`ThreadControl::try_implicit`].
        epoch: u64,
    },
}

const BLOCKED_BIT: u64 = 1;

#[inline(always)]
fn encode(blocked: bool, epoch: u64) -> u64 {
    (epoch << 1) | u64::from(blocked)
}

#[inline(always)]
fn decode(word: u64) -> ThreadStatus {
    let epoch = word >> 1;
    if word & BLOCKED_BIT != 0 {
        ThreadStatus::Blocked { epoch }
    } else {
        ThreadStatus::Running { epoch }
    }
}

/// Shared token a requester spins on while the remote thread reaches a safe
/// point.
///
/// The responder publishes its release clock alongside the completion flag so
/// that recorders can name the response as an edge source without a second
/// roundtrip.
#[derive(Debug, Default)]
pub struct ResponseToken {
    done: AtomicBool,
    responder_clock: AtomicU64,
    /// The requester's parking slot, set when the requester's backoff ladder
    /// may escalate to a condvar park: `complete` notifies it so a parked
    /// requester wakes immediately instead of sleeping out its interval.
    waker: Option<Arc<Waker>>,
}

impl ResponseToken {
    /// Fresh pending token.
    pub fn new() -> Arc<Self> {
        Arc::new(ResponseToken::default())
    }

    /// Fresh pending token carrying the requester's parking slot, so the
    /// responder's `complete` wakes a parked requester.
    pub fn with_waker(waker: Arc<Waker>) -> Arc<Self> {
        Arc::new(ResponseToken {
            waker: Some(waker),
            ..ResponseToken::default()
        })
    }

    /// Responder side: publish the response. `responder_clock` is the
    /// responder's release clock *after* its responding-safe-point bump.
    pub fn complete(&self, responder_clock: u64) {
        self.responder_clock
            .store(responder_clock, Ordering::Relaxed);
        self.done.store(true, Ordering::Release);
        if let Some(w) = &self.waker {
            w.notify();
        }
    }

    /// Requester side: has the responder finished?
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Requester side: the responder's clock at response time. Only
    /// meaningful once [`ResponseToken::is_done`] returned true.
    pub fn responder_clock(&self) -> u64 {
        self.responder_clock.load(Ordering::Relaxed)
    }
}

/// An explicit coordination request, delivered to the remote thread's queue.
#[derive(Clone, Debug)]
pub struct CoordRequest {
    /// The requesting thread.
    pub from: ThreadId,
    /// The object whose state the requester wants to change, if the request
    /// is about a specific object (conflicting/contended transitions). Lets
    /// speculation-based runtime support decide whether answering actually
    /// disturbs its in-flight region.
    pub obj: Option<crate::ids::ObjId>,
    /// Token the requester spins on.
    pub token: Arc<ResponseToken>,
}

/// Node of the lock-free request inbox. Allocated by the requester,
/// reclaimed by the draining owner (or by `Drop`).
struct InboxNode {
    req: CoordRequest,
    next: *mut InboxNode,
}

/// Cross-thread-visible control state of one mutator thread.
///
/// Cache-line-aligned (two lines, matching crossbeam's `CachePadded` on
/// x86_64, where adjacent-line prefetching makes 128 the effective
/// false-sharing granularity): neighboring threads' control blocks live in a
/// dense array in [`crate::runtime::Runtime`], and a requester spinning on
/// one thread's status word must not steal the line under another thread's
/// release-clock bumps.
///
/// # Request queue
///
/// The explicit-request inbox is a Treiber stack: requesters push with one
/// CAS, the owning thread detaches the whole list with one `swap` at a safe
/// point and reverses it to recover FIFO arrival order. No lock is ever
/// taken on either side.
#[derive(Debug)]
#[repr(align(128))]
pub struct ThreadControl {
    status: AtomicU64,
    has_requests: AtomicBool,
    detached: AtomicBool,
    inbox: AtomicPtr<InboxNode>,
    release_clock: AtomicU64,
    /// This thread's coordination parking slot (see [`Waker`]): it parks
    /// here when its fan-out backoff escalates past yielding, and peers
    /// enqueuing requests to it notify it so a parked thread still acts as
    /// a (slightly delayed) safe point.
    waker: Arc<Waker>,
}

impl Default for ThreadControl {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadControl {
    /// A control block in the RUNNING state with epoch 0 and clock 0.
    pub fn new() -> Self {
        ThreadControl {
            status: AtomicU64::new(encode(false, 0)),
            has_requests: AtomicBool::new(false),
            detached: AtomicBool::new(false),
            inbox: AtomicPtr::new(ptr::null_mut()),
            release_clock: AtomicU64::new(0),
            waker: Arc::new(Waker::default()),
        }
    }

    /// This thread's coordination parking slot. The owning thread parks on
    /// it; responders and requesters notify it through
    /// [`ResponseToken::with_waker`] / [`ThreadControl::enqueue_request`].
    #[inline]
    pub fn waker(&self) -> &Arc<Waker> {
        &self.waker
    }

    // --- Liveness ---

    /// Owning thread: mark this mutator permanently detached. Must be called
    /// *after* the final flush/clock bump and the BLOCKED publication, so
    /// that any thread observing the flag (SeqCst) also observes a release
    /// clock that dominates this thread's last access. Thread ids are never
    /// reused within a runtime, so the flag is monotonic.
    pub fn mark_detached(&self) {
        self.detached.store(true, Ordering::SeqCst);
    }

    /// Any thread: has this mutator detached for good? A detached peer can
    /// be dropped from coordination fan-outs without an epoch CAS: it is
    /// permanently blocked, never accesses again, and its release clock is
    /// final (modulo answering stale tokens, which only bumps it further).
    #[inline]
    pub fn is_detached(&self) -> bool {
        self.detached.load(Ordering::SeqCst)
    }

    // --- Status word ---

    /// Current status. SeqCst: status reads race with blocking publication
    /// and must totally order against request enqueues (see
    /// [`ThreadControl::enqueue_request`]).
    #[inline]
    pub fn status(&self) -> ThreadStatus {
        decode(self.status.load(Ordering::SeqCst))
    }

    /// Publish BLOCKED. Must only be called by the owning thread, at a
    /// blocking safe point, *after* it has reached a consistent state
    /// (lock buffer flushed). Returns the epoch at block time, to be passed
    /// to [`ThreadControl::return_to_running`].
    pub fn publish_blocked(&self) -> u64 {
        let word = self.status.load(Ordering::Relaxed);
        let ThreadStatus::Running { epoch } = decode(word) else {
            panic!("publish_blocked while already blocked");
        };
        self.status.store(encode(true, epoch), Ordering::SeqCst);
        epoch
    }

    /// Requester side: attempt implicit coordination against a thread
    /// observed blocked at `epoch`. Succeeds iff the thread is still blocked
    /// at that exact epoch; the epoch is advanced so the remote thread learns
    /// (on wake) that coordination happened. On failure the caller must
    /// re-read the status and retry the whole coordination protocol.
    pub fn try_implicit(&self, observed_epoch: u64) -> bool {
        self.status
            .compare_exchange(
                encode(true, observed_epoch),
                encode(true, observed_epoch + 1),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Owning thread: return to RUNNING after a blocking safe point.
    /// Returns true if any implicit coordination happened while blocked.
    pub fn return_to_running(&self, block_epoch: u64) -> bool {
        loop {
            let word = self.status.load(Ordering::SeqCst);
            let ThreadStatus::Blocked { epoch } = decode(word) else {
                panic!("return_to_running while not blocked");
            };
            // CAS rather than store: an implicit epoch bump may race with us.
            if self
                .status
                .compare_exchange(word, encode(false, epoch), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return epoch != block_epoch;
            }
        }
    }

    // --- Explicit request queue ---

    /// Requester side: enqueue an explicit request — one allocation plus one
    /// CAS, never a lock. The `has_requests` flag is set (SeqCst) after the
    /// push so the remote thread's cheap poll cannot miss it.
    ///
    /// Ordering: the push CAS is Release, so the node's contents (and
    /// everything the requester did before enqueuing) happen-before the
    /// owner's Acquire detach in [`ThreadControl::take_requests`]. The
    /// lost-wakeup race is closed by the *flag*, not the stack: flag-set
    /// (SeqCst, after push) vs. flag-clear (SeqCst, before detach) means a
    /// concurrently pushed request is either seen by the current drain or
    /// leaves the flag true for the next poll. A spuriously true flag over an
    /// already-drained stack only costs an empty detach.
    pub fn enqueue_request(&self, req: CoordRequest) {
        let node = Box::into_raw(Box::new(InboxNode {
            req,
            next: ptr::null_mut(),
        }));
        let mut head = self.inbox.load(Ordering::Relaxed);
        loop {
            // Safety: `node` is not yet published; we have exclusive access.
            unsafe { (*node).next = head };
            match self
                .inbox
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
        self.has_requests.store(true, Ordering::SeqCst);
        // Wake the owner if it parked mid-coordination: a parked requester
        // must still act as a safe point for *this* request (deadlock
        // freedom). One relaxed-ish load when nobody is parked.
        self.waker.notify();
    }

    /// Owning thread: single relaxed load, the entirety of the safe point
    /// poll fast path when no coordination is pending.
    #[inline(always)]
    pub fn has_pending_requests(&self) -> bool {
        self.has_requests.load(Ordering::Relaxed)
    }

    /// Owning thread: drain all pending requests without taking a lock —
    /// one `swap` detaches the whole stack, then the (thread-local) list is
    /// reversed to FIFO arrival order. Clears the flag before detaching, so
    /// a request enqueued concurrently is either drained now or re-flags for
    /// the next poll.
    pub fn take_requests(&self) -> Vec<CoordRequest> {
        let mut out = Vec::new();
        self.drain_requests_into(&mut out);
        out
    }

    /// [`ThreadControl::take_requests`] into a caller-provided buffer:
    /// appends the drained batch in FIFO arrival order without allocating,
    /// so responding safe points can reuse one scratch `Vec` per thread.
    pub fn drain_requests_into(&self, out: &mut Vec<CoordRequest>) {
        if !self.has_pending_requests() {
            return;
        }
        // Injected bug `late-has-requests-clear` (check-invariants builds
        // only): clearing the flag *after* the detach re-opens the lost-
        // wakeup race documented above — a request pushed between the swap
        // and the late clear is drained AND has its flag wiped, so the next
        // poll's fast path sees nothing even though the push already
        // happened-before a later enqueue the requester is spinning on.
        #[cfg(feature = "check-invariants")]
        let late_clear = crate::injected_bug("late-has-requests-clear");
        #[cfg(not(feature = "check-invariants"))]
        let late_clear = false;
        if !late_clear {
            self.has_requests.store(false, Ordering::SeqCst);
        }
        let mut head = self.inbox.swap(ptr::null_mut(), Ordering::Acquire);
        if late_clear {
            // Hold the race window open so the chaos harness can actually
            // land an enqueue inside it: a push arriving here is detached by
            // no one (we already swapped) and its flag is wiped below — the
            // request is stranded until some *later* enqueue re-flags.
            std::thread::sleep(std::time::Duration::from_micros(100));
            self.has_requests.store(false, Ordering::SeqCst);
        }
        let start = out.len();
        while !head.is_null() {
            // Safety: the swap made this list exclusively ours; nodes were
            // fully initialized before their Release publication.
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
            out.push(node.req);
        }
        out[start..].reverse();
    }

    /// Any thread, **at quiescence only** (all mutators joined): is there a
    /// request in the inbox that the fast-path flag does not announce?
    ///
    /// While mutators run this is transiently true during every enqueue
    /// (the node is pushed before the flag is set), so it is meaningless as
    /// a runtime assertion — but once no enqueue can be in flight, a
    /// stranded request means a drain wiped the flag over a live node (the
    /// lost-wakeup race [`ThreadControl::take_requests`] exists to prevent):
    /// no future poll would ever have answered it. The checking harness
    /// scans for this after every run.
    pub fn has_stranded_requests(&self) -> bool {
        !self.inbox.load(Ordering::SeqCst).is_null()
            && !self.has_requests.load(Ordering::SeqCst)
    }

    // --- Release clock ---

    /// Owning thread: bump the release clock (at a PSRO or responding safe
    /// point). Release ordering: everything the thread did before the bump
    /// happens-before any observer that acquires the new value.
    ///
    /// Single writer: only the thread this block belongs to ever bumps its
    /// clock — the engine's PSRO flush, request answering, blocking safe
    /// point and detach, and the recorder and replayer on that same thread —
    /// so no other store can land between the load and the store, and a
    /// plain release store replaces the locked RMW every PSRO would pay.
    pub fn bump_release_clock(&self) -> u64 {
        let clock = self.release_clock.load(Ordering::Relaxed) + 1;
        self.release_clock.store(clock, Ordering::Release);
        clock
    }

    /// Any thread: read the release clock (acquire).
    #[inline]
    pub fn release_clock(&self) -> u64 {
        self.release_clock.load(Ordering::Acquire)
    }
}

impl Drop for ThreadControl {
    fn drop(&mut self) {
        // Reclaim any requests that were never answered (e.g. a panicking
        // run tearing the runtime down mid-coordination).
        let mut head = *self.inbox.get_mut();
        while !head.is_null() {
            // Safety: &mut self means no concurrent pushers remain.
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn status_roundtrip() {
        let c = ThreadControl::new();
        assert_eq!(c.status(), ThreadStatus::Running { epoch: 0 });
        let e = c.publish_blocked();
        assert_eq!(e, 0);
        assert_eq!(c.status(), ThreadStatus::Blocked { epoch: 0 });
        assert!(!c.return_to_running(e));
        assert_eq!(c.status(), ThreadStatus::Running { epoch: 0 });
    }

    #[test]
    fn implicit_coordination_bumps_epoch_and_is_observed() {
        let c = ThreadControl::new();
        let e = c.publish_blocked();
        assert!(c.try_implicit(e));
        assert_eq!(c.status(), ThreadStatus::Blocked { epoch: e + 1 });
        // A second implicit attempt with the stale epoch fails...
        assert!(!c.try_implicit(e));
        // ...but succeeds with the fresh one.
        assert!(c.try_implicit(e + 1));
        assert!(c.return_to_running(e), "wake must observe the bumps");
    }

    #[test]
    fn implicit_fails_against_running_thread() {
        let c = ThreadControl::new();
        assert!(!c.try_implicit(0));
    }

    #[test]
    #[should_panic(expected = "publish_blocked while already blocked")]
    fn double_block_panics() {
        let c = ThreadControl::new();
        c.publish_blocked();
        c.publish_blocked();
    }

    #[test]
    fn request_queue_flag_protocol() {
        let c = ThreadControl::new();
        assert!(!c.has_pending_requests());
        assert!(c.take_requests().is_empty());
        let tok = ResponseToken::new();
        c.enqueue_request(CoordRequest {
            from: ThreadId(1),
            obj: None,
            token: tok.clone(),
        });
        assert!(c.has_pending_requests());
        let reqs = c.take_requests();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].from, ThreadId(1));
        assert!(!c.has_pending_requests());
    }

    #[test]
    fn detached_flag_starts_clear_and_latches() {
        let c = ThreadControl::new();
        assert!(!c.is_detached());
        c.publish_blocked();
        c.mark_detached();
        assert!(c.is_detached());
        // The flag is independent of the status word's epoch games.
        assert!(c.try_implicit(0));
        assert!(c.is_detached());
    }

    #[test]
    fn drain_into_appends_fifo_after_existing_entries() {
        let c = ThreadControl::new();
        let mut out = vec![CoordRequest {
            from: ThreadId(9),
            obj: None,
            token: ResponseToken::new(),
        }];
        for i in 0..3 {
            c.enqueue_request(CoordRequest {
                from: ThreadId(i),
                obj: None,
                token: ResponseToken::new(),
            });
        }
        c.drain_requests_into(&mut out);
        let froms: Vec<u16> = out.iter().map(|r| r.from.0).collect();
        assert_eq!(froms, vec![9, 0, 1, 2], "existing entries kept, batch FIFO");
        assert!(!c.has_pending_requests());
        // Draining an empty inbox is a no-op on the buffer.
        c.drain_requests_into(&mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn response_token_carries_clock() {
        let tok = ResponseToken::new();
        assert!(!tok.is_done());
        tok.complete(42);
        assert!(tok.is_done());
        assert_eq!(tok.responder_clock(), 42);
    }

    #[test]
    fn release_clock_is_monotonic() {
        let c = ThreadControl::new();
        assert_eq!(c.release_clock(), 0);
        assert_eq!(c.bump_release_clock(), 1);
        assert_eq!(c.bump_release_clock(), 2);
        assert_eq!(c.release_clock(), 2);
    }

    #[test]
    fn drain_preserves_single_producer_fifo_order() {
        let c = ThreadControl::new();
        for i in 0..10 {
            c.enqueue_request(CoordRequest {
                from: ThreadId(i),
                obj: Some(crate::ids::ObjId(u32::from(i))),
                token: ResponseToken::new(),
            });
        }
        let reqs = c.take_requests();
        let froms: Vec<u16> = reqs.iter().map(|r| r.from.0).collect();
        assert_eq!(froms, (0..10).collect::<Vec<u16>>());
    }

    #[test]
    fn drop_reclaims_unanswered_requests() {
        let tok = ResponseToken::new();
        {
            let c = ThreadControl::new();
            for _ in 0..4 {
                c.enqueue_request(CoordRequest {
                    from: ThreadId(0),
                    obj: None,
                    token: tok.clone(),
                });
            }
            // c dropped with a non-empty inbox.
        }
        // All queue-held Arcs were released by the drop.
        assert_eq!(std::sync::Arc::strong_count(&tok), 1);
    }

    #[test]
    fn token_completion_wakes_a_parked_requester() {
        let waker = Arc::new(Waker::default());
        let tok = ResponseToken::with_waker(waker.clone());
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            let tok2 = tok.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tok2.complete(7);
            });
            // Generous timeout: the notify, not the timeout, should end it.
            while !tok.is_done() {
                waker.park(Duration::from_secs(5));
            }
        });
        assert!(tok.is_done());
        assert_eq!(tok.responder_clock(), 7);
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "park must be ended by the notify, not the timeout"
        );
    }

    #[test]
    fn park_times_out_without_a_notify() {
        let waker = Waker::default();
        let t0 = std::time::Instant::now();
        waker.park(Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn notify_before_park_is_not_lost() {
        let waker = Waker::default();
        // Pre-notify while "parked" is being published: simulate the benign
        // race by setting parked first, then notifying, then parking.
        waker.parked.store(true, Ordering::SeqCst);
        waker.notify();
        let t0 = std::time::Instant::now();
        waker.park(Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a pending notify must make park return immediately"
        );
    }

    #[test]
    fn enqueue_request_notifies_the_owners_waker() {
        let c = Arc::new(ThreadControl::new());
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            let c2 = c.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                c2.enqueue_request(CoordRequest {
                    from: ThreadId(1),
                    obj: None,
                    token: ResponseToken::new(),
                });
            });
            while !c.has_pending_requests() {
                c.waker().park(Duration::from_secs(5));
            }
        });
        assert_eq!(c.take_requests().len(), 1);
        assert!(t0.elapsed() < Duration::from_secs(4), "woken by the enqueue");
    }

    #[test]
    fn control_block_is_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<ThreadControl>(), 128);
        assert!(std::mem::size_of::<ThreadControl>() >= 128);
    }

    #[test]
    fn concurrent_enqueue_never_loses_requests() {
        let c = std::sync::Arc::new(ThreadControl::new());
        let drained = std::sync::Arc::new(AtomicUsize::new(0));
        const PER_THREAD: usize = 1_000;
        const THREADS: usize = 4;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.enqueue_request(CoordRequest {
                            from: ThreadId(t as u16),
                            obj: None,
                            token: ResponseToken::new(),
                        });
                    }
                });
            }
            let c2 = c.clone();
            let drained2 = drained.clone();
            s.spawn(move || {
                let mut seen = 0;
                let mut wait = crate::Wait::new("drain all requests");
                while seen < PER_THREAD * THREADS {
                    let got = c2.take_requests().len();
                    if got == 0 {
                        let _ = wait.step();
                    }
                    seen += got;
                }
                drained2.store(seen, Ordering::Relaxed);
            });
        });
        assert_eq!(
            drained.load(Ordering::Relaxed) + c.take_requests().len(),
            PER_THREAD * THREADS
        );
    }
}
