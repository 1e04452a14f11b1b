//! Workload specification and deterministic operation-sequence generation.
//!
//! The paper evaluates on DaCapo 2006/2009 and SPECjbb workloads. We cannot
//! run Java programs, but the tracking results are driven by each program's
//! *communication profile* — how often accesses conflict across threads, how
//! much read sharing exists, how lock-heavy the program is, and whether it
//! has (object-level) data races. A [`WorkloadSpec`] captures exactly those
//! knobs, and expands into a **deterministic per-thread operation sequence**:
//! given the same spec, every thread performs the identical sequence of
//! tracked reads/writes/lock operations in every run. Determinism is what
//! makes record & replay testable — a replayed run walks the same op lists
//! and must reproduce the recorded run's final heap.
//!
//! ## Heap layout
//!
//! Objects are laid out as `[shared | thread-local × threads]`:
//!
//! * the first `shared_objects` ids are shared by all threads; the first
//!   `hot_objects` of those form the high-conflict hot set;
//! * each thread then owns `local_objects` private ids; accesses to them
//!   never conflict (the overwhelming majority of accesses in most DaCapo
//!   programs — the "Same state" column of Table 2).
//!
//! Monitors partition the shared objects: an access inside `synchronized(m)`
//! only touches objects guarded by `m`, so lock-generated sharing is
//! data-race-free (the deferred-unlocking friendly case of Figure 2(a)).
//! Accesses generated by `racy_frac` go to shared objects *outside* any
//! critical section — object-level data races, the contended case of
//! Figure 2(b).

use drink_runtime::{MonitorId, ObjId, ThreadId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One program operation in a thread's deterministic sequence.
///
/// `Read`/`Write`/`Lock`/`Unlock` advance the engine's per-thread op index
/// (they are "program operations" for the recorder); `Work` and `Safepoint`
/// do not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Tracked read of an object.
    Read(ObjId),
    /// Tracked write of an object. The value written is derived
    /// deterministically from the thread's running value state.
    Write(ObjId),
    /// Monitor acquire.
    Lock(MonitorId),
    /// Monitor release.
    Unlock(MonitorId),
    /// Local computation of the given weight (no tracking involvement).
    Work(u32),
    /// A safe point poll (a loop back edge).
    Safepoint,
    /// Yield the OS thread's quantum. Used by the stress microbenchmarks to
    /// force fine-grained interleaving on hosts with fewer cores than
    /// mutators — without it, a single-core host runs each thread in long
    /// scheduler quanta and the ping-pong conflicts the paper's Figure 8
    /// measures (on 32 real cores) never materialize.
    Yield,
}

/// A synthetic parallel program with a controlled communication profile.
///
/// ```
/// use drink_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::builder().racy_frac(0.1).build().unwrap();
/// // Expansion is deterministic per (spec, thread): the bedrock of replay.
/// assert_eq!(spec.ops(0), spec.ops(0));
/// assert_ne!(spec.ops(0), spec.ops(1));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Display name (the paper program this profile models, where relevant).
    pub name: String,
    /// Mutator thread count.
    pub threads: usize,
    /// Program operations ("steps") per thread. One step expands to a
    /// handful of ops (an access, or a short critical section).
    pub steps_per_thread: usize,
    /// Number of shared objects.
    pub shared_objects: usize,
    /// Size of the hot subset of the shared objects that conflict-prone
    /// accesses concentrate on.
    pub hot_objects: usize,
    /// Thread-private objects per thread.
    pub local_objects: usize,
    /// Number of monitors partitioning the shared objects.
    pub monitors: usize,
    /// Probability a step is a critical section over monitor-guarded shared
    /// data (well-synchronized sharing).
    pub locked_frac: f64,
    /// Probability a critical section uses the thread's *preferred* monitor
    /// (`tid % monitors`) rather than a uniformly random one. High affinity
    /// models programs whose shared data has strong temporal thread
    /// locality — they synchronize often but hand ownership across threads
    /// rarely, which is why e.g. eclipse has 10¹⁰ accesses and only 10⁵
    /// conflicts (Table 2).
    pub lock_affinity: f64,
    /// Probability a step is an *unsynchronized* access to the hot shared
    /// set (object-level data races; drives contended transitions).
    pub racy_frac: f64,
    /// Probability a step is an unsynchronized read of the shared read-mostly
    /// region (drives RdSh states and reentrant pessimistic reads).
    pub shared_read_frac: f64,
    /// Probability an access within a step is a write (vs. a read).
    pub write_frac: f64,
    /// Accesses per critical section.
    pub cs_len: usize,
    /// Local-work weight *inside* each critical section (models CS body
    /// computation; long critical sections push lock waiters past the
    /// monitor spin phase into parking, which turns conflicting transitions
    /// implicit — the hsqldb6 regime).
    pub cs_work: u32,
    /// Local-work weight between steps (relative units; the driver runs a
    /// multiply-xor loop of this many iterations).
    pub local_work: u32,
    /// Insert a safe point every this many steps (the "loop back edge"
    /// density; the JVM's compiled-code safe points).
    pub safepoint_every: usize,
    /// Base RNG seed; thread `t` uses `seed ⊕ t`-derived streams.
    pub seed: u64,
    /// Insert an [`Op::Yield`] every this many steps (0 = never).
    pub yield_every: usize,
    /// Override for the runtime's contended-monitor spin iterations.
    /// `None` keeps the default. Programs with fat, long-held locks (the
    /// hsqldb6 profile) set a small value so waiters park — which is what
    /// makes their conflicting transitions resolve *implicitly* (§7.5's
    /// explanation of why hybrid tracking barely helps hsqldb6).
    pub monitor_spin: Option<u32>,
    /// Recoverable coordination deadline, in milliseconds, wired into the
    /// runtime config by [`crate::driver::runtime_config_for`]. `None`
    /// keeps deadlines off — only the hard-panic spin watchdog bounds
    /// coordination waits then (DESIGN.md §13).
    pub coord_deadline_ms: Option<u64>,
    /// Phase length, in steps, of the phase-shifted access mix (0 = the
    /// mix is static). When nonzero, the *racy* slice's write probability
    /// alternates every `phase_every` steps between `write_frac` and
    /// `1 - write_frac`, with each thread's schedule offset by its id — so
    /// at any instant some threads hammer the hot set with writes while
    /// others mostly read it, and the population flips as phases roll
    /// over. Hot objects therefore oscillate between write-heavy (worth
    /// demoting to pessimistic) and read-mostly (worth promoting back),
    /// which is exactly the regime the policy's re-opening valve
    /// ([`drink_core::policy::Valve`]) has to track without thrashing.
    pub phase_every: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "default".into(),
            threads: 4,
            steps_per_thread: 10_000,
            shared_objects: 256,
            hot_objects: 16,
            local_objects: 256,
            monitors: 8,
            locked_frac: 0.02,
            lock_affinity: 0.0,
            racy_frac: 0.0,
            shared_read_frac: 0.05,
            write_frac: 0.4,
            cs_len: 3,
            cs_work: 0,
            local_work: 12,
            safepoint_every: 4,
            seed: 0x5eed,
            yield_every: 0,
            monitor_spin: None,
            coord_deadline_ms: None,
            phase_every: 0,
        }
    }
}

/// Why a [`WorkloadSpec`] failed validation. Carries one human-readable
/// reason; surfaced as `Err` by [`WorkloadSpecBuilder::build`] and
/// [`WorkloadSpec::validate`] so a bad spec (hand-written JSON, a typo'd
/// chaos constructor) is rejected at construction, not as an arithmetic
/// panic mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid WorkloadSpec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Validating builder for [`WorkloadSpec`]: starts from
/// [`WorkloadSpec::default`], every field has a typed setter, and
/// [`build`](WorkloadSpecBuilder::build) rejects inconsistent knob
/// combinations with a [`SpecError`] naming the offending field. The chaos
/// spec constructors and both drivers construct specs through this; struct
/// literals remain possible (the fields are public, and serde needs them)
/// but are unvalidated — parse-then-[`validate`](WorkloadSpec::validate)
/// covers that path.
#[derive(Clone, Debug)]
pub struct WorkloadSpecBuilder {
    spec: WorkloadSpec,
}

macro_rules! spec_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $field(mut self, v: $ty) -> Self {
                self.spec.$field = v;
                self
            }
        )*
    };
}

impl WorkloadSpecBuilder {
    spec_setters! {
        /// Mutator thread count.
        threads: usize,
        /// Program operations ("steps") per thread.
        steps_per_thread: usize,
        /// Number of shared objects.
        shared_objects: usize,
        /// Size of the hot conflict-prone subset of the shared objects.
        hot_objects: usize,
        /// Thread-private objects per thread.
        local_objects: usize,
        /// Number of monitors partitioning the shared objects.
        monitors: usize,
        /// Probability a step is a monitor-guarded critical section.
        locked_frac: f64,
        /// Probability a critical section uses the thread's preferred monitor.
        lock_affinity: f64,
        /// Probability a step is an unsynchronized hot-set access (a race).
        racy_frac: f64,
        /// Probability a step reads the shared read-mostly region.
        shared_read_frac: f64,
        /// Probability an access within a step is a write.
        write_frac: f64,
        /// Accesses per critical section.
        cs_len: usize,
        /// Local-work weight inside each critical section.
        cs_work: u32,
        /// Local-work weight between steps.
        local_work: u32,
        /// Safe-point density (every N steps; 0 = never).
        safepoint_every: usize,
        /// Base RNG seed.
        seed: u64,
        /// Yield density (every N steps; 0 = never).
        yield_every: usize,
        /// Override for the runtime's contended-monitor spin iterations.
        monitor_spin: Option<u32>,
        /// Recoverable coordination deadline in ms (`None` = off; `Some(0)`
        /// is rejected by [`build`](WorkloadSpecBuilder::build)).
        coord_deadline_ms: Option<u64>,
        /// Phase length of the phase-shifted racy mix (0 = static mix).
        phase_every: usize,
    }

    /// Display name.
    pub fn name(mut self, v: impl Into<String>) -> Self {
        self.spec.name = v.into();
        self
    }

    /// Validate and yield the spec.
    pub fn build(self) -> Result<WorkloadSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

impl WorkloadSpec {
    /// Start building a spec from the defaults; see [`WorkloadSpecBuilder`].
    pub fn builder() -> WorkloadSpecBuilder {
        WorkloadSpecBuilder { spec: WorkloadSpec::default() }
    }

    /// Check every cross-field invariant the op-stream expansion and the
    /// runtime sizing rely on. Total: never panics. The builder calls this;
    /// consumers of externally supplied specs (the JSON path of
    /// `drink-bench custom`) call it after parsing.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |msg: String| Err(SpecError(msg));
        if self.threads == 0 {
            return err("threads must be >= 1".into());
        }
        if self.threads > ThreadId::MAX {
            return err(format!("threads {} exceeds ThreadId::MAX {}", self.threads, ThreadId::MAX));
        }
        if self.steps_per_thread == 0 {
            return err("steps_per_thread must be >= 1".into());
        }
        if self.shared_objects == 0 {
            return err("shared_objects must be >= 1".into());
        }
        if self.hot_objects > self.shared_objects {
            return err(format!(
                "hot_objects {} exceeds shared_objects {}",
                self.hot_objects, self.shared_objects
            ));
        }
        if self.monitors == 0 {
            return err("monitors must be >= 1 (the guard partition is total)".into());
        }
        for (name, frac) in [
            ("locked_frac", self.locked_frac),
            ("lock_affinity", self.lock_affinity),
            ("racy_frac", self.racy_frac),
            ("shared_read_frac", self.shared_read_frac),
            ("write_frac", self.write_frac),
        ] {
            if !(0.0..=1.0).contains(&frac) {
                return err(format!("{name} {frac} is outside [0, 1]"));
            }
        }
        let step_mix = self.locked_frac + self.racy_frac + self.shared_read_frac;
        if step_mix > 1.0 + 1e-9 {
            return err(format!(
                "locked_frac + racy_frac + shared_read_frac = {step_mix} exceeds 1.0"
            ));
        }
        if self.locked_frac > 0.0 && self.cs_len == 0 {
            return err("cs_len must be >= 1 when locked_frac > 0".into());
        }
        // Monitor `m` guards the shared objects `i ≡ m (mod monitors)`, so a
        // monitor past the shared set guards nothing a critical section on it
        // could touch.
        if self.locked_frac > 0.0 && self.monitors > self.shared_objects {
            return err(format!(
                "monitors {} exceeds shared_objects {} with locked_frac > 0 (a critical \
                 section on an extra monitor has no guarded object)",
                self.monitors, self.shared_objects
            ));
        }
        // Every step the mix leaves over is a thread-private access.
        if self.local_objects == 0 && step_mix < 1.0 {
            return err(format!(
                "local_objects is 0 but the step mix {step_mix} leaves private accesses"
            ));
        }
        if self.coord_deadline_ms == Some(0) {
            return err("coord_deadline_ms must be > 0 (use None to disable deadlines)".into());
        }
        if self.phase_every > 0 && self.racy_frac == 0.0 {
            return err(
                "phase_every > 0 shifts the racy mix, but racy_frac is 0 (the phase \
                 schedule would be a no-op)"
                    .into(),
            );
        }
        Ok(())
    }

    /// Total tracked objects this spec needs.
    pub fn heap_objects(&self) -> usize {
        self.shared_objects + self.local_objects * self.threads
    }

    /// The id of thread `t`'s `i`-th private object.
    pub fn local_obj(&self, t: usize, i: usize) -> ObjId {
        debug_assert!(i < self.local_objects);
        ObjId((self.shared_objects + t * self.local_objects + i) as u32)
    }

    /// First shared-object index past the guarded/racy span: objects in
    /// `[guarded_span(), shared_objects)` form the read-mostly region.
    pub fn guarded_span(&self) -> usize {
        self.hot_objects.max(self.monitors).min(self.shared_objects)
    }

    /// Is `o` part of the pre-shared read-mostly region?
    pub fn is_read_shared(&self, o: ObjId) -> bool {
        (self.guarded_span()..self.shared_objects).contains(&o.index())
    }

    /// The monitor guarding shared object `o` (shared objects are partitioned
    /// round-robin across monitors).
    pub fn guard_of(&self, o: ObjId) -> MonitorId {
        debug_assert!((o.index()) < self.shared_objects);
        MonitorId((o.index() % self.monitors) as u32)
    }

    /// The shared objects guarded by monitor `m` within the hot set — the
    /// objects a critical section on `m` may touch.
    fn guarded_hot(&self, m: usize) -> Vec<ObjId> {
        (0..self.shared_objects.min(self.hot_objects.max(self.monitors)))
            .filter(|i| i % self.monitors == m)
            .map(|i| ObjId(i as u32))
            .collect()
    }

    /// The initial allocating owner of every object: shared objects
    /// round-robin over threads, private objects their owning thread.
    pub fn initial_owner(&self, o: ObjId) -> ThreadId {
        let i = o.index();
        if i < self.shared_objects {
            ThreadId((i % self.threads) as u16)
        } else {
            ThreadId(((i - self.shared_objects) / self.local_objects) as u16)
        }
    }

    /// Expand this spec into thread `t`'s deterministic operation sequence.
    ///
    /// The expansion is a pure function of `(spec, t)` — the cornerstone of
    /// replay determinism.
    pub fn ops_for_thread(&self, t: usize) -> Vec<Op> {
        assert!(t < self.threads);
        assert!(self.monitors >= 1, "at least one monitor required");
        assert!(self.hot_objects <= self.shared_objects);
        let mut rng = SmallRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(t as u64),
        );
        let mut ops = Vec::with_capacity(self.steps_per_thread * 3);
        let guarded: Vec<Vec<ObjId>> = (0..self.monitors).map(|m| self.guarded_hot(m)).collect();

        for step in 0..self.steps_per_thread {
            let dice: f64 = rng.gen();
            if dice < self.locked_frac {
                // A critical section over one monitor's guarded objects.
                let m = if rng.gen::<f64>() < self.lock_affinity {
                    t % self.monitors
                } else {
                    rng.gen_range(0..self.monitors)
                };
                ops.push(Op::Lock(MonitorId(m as u32)));
                for _ in 0..self.cs_len {
                    let pool = &guarded[m];
                    let o = pool[rng.gen_range(0..pool.len())];
                    if rng.gen::<f64>() < self.write_frac {
                        // Guarded read-modify-write: the common "update shared
                        // structure under lock" shape.
                        ops.push(Op::Read(o));
                        ops.push(Op::Write(o));
                    } else {
                        ops.push(Op::Read(o));
                    }
                }
                if self.cs_work > 0 {
                    ops.push(Op::Work(self.cs_work));
                }
                ops.push(Op::Unlock(MonitorId(m as u32)));
            } else if dice < self.locked_frac + self.racy_frac {
                // Unsynchronized access to the hot set: an (object-level)
                // data race. Under a phase-shifted mix the write probability
                // flips between phases (offset per thread), still a pure
                // function of (spec, t, step) — replay determinism holds.
                let wf = if self.phase_every > 0 && (step / self.phase_every + t) % 2 == 1 {
                    1.0 - self.write_frac
                } else {
                    self.write_frac
                };
                let o = ObjId(rng.gen_range(0..self.hot_objects.max(1)) as u32);
                if rng.gen::<f64>() < wf {
                    ops.push(Op::Write(o));
                } else {
                    ops.push(Op::Read(o));
                }
            } else if dice < self.locked_frac + self.racy_frac + self.shared_read_frac {
                // Read of the shared read-mostly region (beyond the guarded
                // span, so these become RdSh rather than ping-pong).
                let lo = self.guarded_span().min(self.shared_objects - 1);
                let o = ObjId(rng.gen_range(lo..self.shared_objects) as u32);
                ops.push(Op::Read(o));
            } else {
                // Thread-private access: the dominant, never-conflicting case.
                let o = self.local_obj(t, rng.gen_range(0..self.local_objects));
                if rng.gen::<f64>() < self.write_frac {
                    ops.push(Op::Write(o));
                } else {
                    ops.push(Op::Read(o));
                }
            }
            if self.local_work > 0 {
                ops.push(Op::Work(self.local_work));
            }
            if self.safepoint_every > 0 && step % self.safepoint_every == 0 {
                ops.push(Op::Safepoint);
            }
            if self.yield_every > 0 && step % self.yield_every == 0 {
                ops.push(Op::Yield);
            }
        }
        ops
    }

    /// Count of tracked accesses (reads + writes) in `ops`.
    pub fn count_accesses(ops: &[Op]) -> usize {
        ops.iter()
            .filter(|op| matches!(op, Op::Read(_) | Op::Write(_)))
            .count()
    }
}

/// The `syncInc` microbenchmark of Figure 8(a): every thread repeatedly
/// increments a global counter under a global lock.
pub fn sync_inc(threads: usize, iters: usize) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("syncInc")
        .threads(threads)
        .steps_per_thread(iters)
        .shared_objects(1)
        .hot_objects(1)
        .local_objects(1)
        .monitors(1)
        .locked_frac(1.0)
        .racy_frac(0.0)
        .shared_read_frac(0.0)
        .write_frac(1.0)
        .cs_len(1)
        .local_work(4)
        .safepoint_every(1)
        .seed(0x1)
        .yield_every(1)
        .build()
        .expect("static syncInc spec is valid")
}

/// The `racyInc` microbenchmark of Figure 8(b): unsynchronized increments of
/// a global counter — the extreme data-race case.
pub fn racy_inc(threads: usize, iters: usize) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("racyInc")
        .threads(threads)
        .steps_per_thread(iters)
        .shared_objects(1)
        .hot_objects(1)
        .local_objects(1)
        .monitors(1)
        .locked_frac(0.0)
        .racy_frac(1.0)
        .shared_read_frac(0.0)
        // racyInc's `gCounter++` is a read followed by a write; the name
        // selects a dedicated expansion (`ops_racy_inc`) that emits the
        // read+write pair per step, so write_frac is nominal here.
        .write_frac(1.0)
        .cs_len(1)
        .local_work(4)
        .safepoint_every(1)
        .seed(0x2)
        .yield_every(1)
        .build()
        .expect("static racyInc spec is valid")
}

/// A small chaos-friendly mix for the schedule-exploration harness: a few
/// threads, a tiny hot set, lots of cross-thread traffic of every species
/// (critical sections, races, read-sharing), short enough that a full run
/// under perturbation finishes in tens of milliseconds. The tiny heap and
/// high conflict fractions drive objects through the adaptive valve (Opt →
/// Pess → OptFinal) quickly, so invariant checks see every protocol corner.
pub fn chaos_mix(seed: u64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("chaosMix")
        .threads(4)
        .steps_per_thread(400)
        .shared_objects(24)
        .hot_objects(6)
        .local_objects(8)
        .monitors(3)
        .locked_frac(0.30)
        .lock_affinity(0.25)
        .racy_frac(0.25)
        .shared_read_frac(0.15)
        .write_frac(0.5)
        .cs_len(2)
        .cs_work(2)
        .local_work(2)
        .safepoint_every(2)
        .seed(seed)
        // Park early: blocking safe points (and implicit coordination) are
        // where the interesting races live.
        .monitor_spin(Some(8))
        .build()
        .expect("static chaosMix spec is valid")
}

/// A race-free, lock-free chaos workload: disjoint write sets plus a shared
/// read-only region. Because no step's value depends on cross-thread timing,
/// the final heap must be bit-identical across every engine and every
/// perturbation — the strongest differential oracle the harness has.
pub fn chaos_disjoint(seed: u64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("chaosDisjoint")
        .threads(4)
        .steps_per_thread(400)
        .shared_objects(16)
        .hot_objects(2)
        .local_objects(8)
        .monitors(2)
        .locked_frac(0.0)
        .racy_frac(0.0)
        .shared_read_frac(0.35)
        .write_frac(0.5)
        .cs_len(1)
        .local_work(2)
        .safepoint_every(2)
        .seed(seed)
        .monitor_spin(Some(8))
        .build()
        .expect("static chaosDisjoint spec is valid")
}

/// A handoff-heavy chaos workload: almost every step is a critical section
/// over a few monitors with no affinity, so ownership of the guarded objects
/// ping-pongs and contended acquires park constantly. This is the spec that
/// exercises the blocking-safe-point protocol (flush before BLOCKED, raced
/// request answering, implicit coordination) hardest.
pub fn chaos_handoff(seed: u64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("chaosHandoff")
        .threads(4)
        .steps_per_thread(250)
        .shared_objects(8)
        .hot_objects(4)
        .local_objects(4)
        .monitors(2)
        .locked_frac(0.85)
        .racy_frac(0.10)
        .shared_read_frac(0.0)
        .write_frac(0.7)
        .cs_len(2)
        .cs_work(1)
        .local_work(1)
        .safepoint_every(2)
        .seed(seed)
        .monitor_spin(Some(4))
        .build()
        .expect("static chaosHandoff spec is valid")
}

/// A fan-out-heavy chaos workload: six threads hammer a small hot set with
/// *mostly-read* racy accesses, so hot objects sit in RdSh states most of
/// the time and every racy write is a conflicting RdSh transition — the
/// conservative coordinate-with-everyone protocol (`coordinate` with
/// `AllOthers`), five peers wide. This is the spec that stresses the fan-out window: requests
/// enqueued to all running peers at once, implicit fallbacks when peers park
/// mid-wait, and responder-side batches when several writers fan out
/// simultaneously.
pub fn chaos_rdsh(seed: u64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("chaosRdsh")
        .threads(6)
        .steps_per_thread(250)
        .shared_objects(12)
        .hot_objects(4)
        .local_objects(4)
        .monitors(1)
        // A little parking so some fan-out peers resolve implicitly.
        .locked_frac(0.05)
        .racy_frac(0.45)
        .shared_read_frac(0.25)
        .write_frac(0.25)
        .cs_len(1)
        .cs_work(1)
        .local_work(1)
        .safepoint_every(1)
        .seed(seed)
        .monitor_spin(Some(4))
        .build()
        .expect("static chaosRdsh spec is valid")
}

/// A read-mostly RdSh chaos workload for the seqlock read path (DESIGN.md
/// §12): six threads, a large shared read-only region (35% of steps) so RdSh
/// states form early and stay, plus enough racy writes (10% write fraction
/// within the 40% racy slice) that seqlock validation windows actually race
/// installs and exercise the retry/fallback arm — not just the validated
/// fast exit. Per-step safe points and early parking keep the chaos layer in
/// the loop at every `SeqlockReadValidate` point.
pub fn chaos_read_mostly(seed: u64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("chaosReadMostly")
        .threads(6)
        .steps_per_thread(250)
        .shared_objects(16)
        .hot_objects(4)
        .local_objects(4)
        .monitors(1)
        // A little parking so some fallback fan-out peers resolve implicitly.
        .locked_frac(0.05)
        .racy_frac(0.40)
        .shared_read_frac(0.35)
        .write_frac(0.10)
        .cs_len(1)
        .cs_work(1)
        .local_work(1)
        .safepoint_every(1)
        .seed(seed)
        .monitor_spin(Some(4))
        .build()
        .expect("static chaosReadMostly spec is valid")
}

/// A phase-shifted chaos workload for the adaptive policy's re-opening
/// valve (`drink_core::policy`): six threads hammer a tiny hot set whose racy
/// access mix flips between write-heavy and read-mostly every 40 steps,
/// offset per thread. Hot objects are worth demoting during the write
/// phases (every optimistic write is a coordination roundtrip) and worth
/// promoting back during the read phases (RdSh seqlock reads are free) —
/// so a run drives the policy through real demotions while the differential
/// oracle checks the engines still agree. A short recoverable coordination
/// deadline is on so the degradation ladder's deadline → demote arm fires
/// under chaos-layer stalls too.
pub fn chaos_adapt(seed: u64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("chaosAdapt")
        .threads(6)
        .steps_per_thread(280)
        .shared_objects(16)
        .hot_objects(4)
        .local_objects(4)
        .monitors(2)
        .locked_frac(0.10)
        .racy_frac(0.45)
        .shared_read_frac(0.15)
        .write_frac(0.85)
        .cs_len(2)
        .cs_work(1)
        .local_work(1)
        .safepoint_every(1)
        .seed(seed)
        .monitor_spin(Some(4))
        .coord_deadline_ms(Some(150))
        .phase_every(40)
        .build()
        .expect("static chaosAdapt spec is valid")
}

/// A wide chaos workload for the fan-out path: sixteen threads and an
/// rdsh-style mix, so racy writes hit standing RdSh states and every one
/// coordinates with the fifteen other threads. Most steps are private, so
/// those peers are mostly running when asked. The fan-outs interleave with
/// parking (early `monitor_spin`) and with detach, since threads finish at
/// different times.
pub fn chaos_wide(seed: u64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .name("chaosWide")
        .threads(16)
        .steps_per_thread(120)
        .shared_objects(12)
        .hot_objects(4)
        .local_objects(4)
        .monitors(1)
        // A little parking so some fan-out peers resolve implicitly.
        .locked_frac(0.05)
        .racy_frac(0.30)
        .shared_read_frac(0.20)
        .write_frac(0.25)
        .cs_len(1)
        .cs_work(1)
        .local_work(1)
        .safepoint_every(1)
        .seed(seed)
        .monitor_spin(Some(4))
        .build()
        .expect("static chaosWide spec is valid")
}

impl WorkloadSpec {
    /// True if this is the racyInc micro (which expands each step to an
    /// unsynchronized read+write pair, exactly `gCounter++`).
    pub fn is_racy_inc(&self) -> bool {
        self.name == "racyInc"
    }

    /// Expansion override for racyInc: `for i in 0..N { gCounter++ }`.
    pub fn ops_racy_inc(&self) -> Vec<Op> {
        let counter = ObjId(0);
        let mut ops = Vec::with_capacity(self.steps_per_thread * 4);
        for _ in 0..self.steps_per_thread {
            ops.push(Op::Read(counter));
            ops.push(Op::Write(counter));
            if self.local_work > 0 {
                ops.push(Op::Work(self.local_work));
            }
            ops.push(Op::Safepoint);
            if self.yield_every > 0 {
                ops.push(Op::Yield);
            }
        }
        ops
    }

    /// The op sequence for thread `t`, honouring racyInc's override (syncInc
    /// needs none: its fields make [`WorkloadSpec::ops_for_thread`] emit
    /// `synchronized(g) { gCounter++ }` per step).
    pub fn ops(&self, t: usize) -> Vec<Op> {
        if self.is_racy_inc() {
            self.ops_racy_inc()
        } else {
            self.ops_for_thread(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default_and_validate() {
        let built = WorkloadSpec::builder().build().expect("defaults are valid");
        let direct = WorkloadSpec::default();
        assert_eq!(format!("{built:?}"), format!("{direct:?}"));
        direct.validate().expect("Default::default() validates");
    }

    #[test]
    fn builder_rejects_inconsistent_knobs() {
        let cases: [(&str, WorkloadSpecBuilder); 9] = [
            ("zero threads", WorkloadSpec::builder().threads(0)),
            ("zero steps", WorkloadSpec::builder().steps_per_thread(0)),
            (
                "hot set larger than shared set",
                WorkloadSpec::builder().shared_objects(4).hot_objects(5),
            ),
            ("zero monitors", WorkloadSpec::builder().monitors(0)),
            ("frac outside [0,1]", WorkloadSpec::builder().racy_frac(1.5)),
            (
                "step mix over 1.0",
                WorkloadSpec::builder()
                    .locked_frac(0.5)
                    .racy_frac(0.4)
                    .shared_read_frac(0.3),
            ),
            (
                "zero coordination deadline",
                WorkloadSpec::builder().coord_deadline_ms(Some(0)),
            ),
            (
                "monitor past the shared set with locked steps",
                WorkloadSpec::builder()
                    .shared_objects(4)
                    .hot_objects(2)
                    .monitors(8)
                    .locked_frac(0.2),
            ),
            (
                "no private objects with private steps",
                WorkloadSpec::builder().local_objects(0),
            ),
        ];
        for (what, builder) in cases {
            let err = builder.build().expect_err(what);
            assert!(
                err.to_string().starts_with("invalid WorkloadSpec: "),
                "error for `{what}` names the failure: {err}"
            );
        }
    }

    #[test]
    fn phase_schedule_requires_a_racy_slice() {
        let err = WorkloadSpec::builder()
            .phase_every(40)
            .racy_frac(0.0)
            .build()
            .expect_err("phase knob without racy slice is a silent no-op");
        assert!(err.to_string().contains("phase_every"));
        WorkloadSpec::builder()
            .phase_every(40)
            .racy_frac(0.2)
            .build()
            .expect("phase knob with racy slice is fine");
    }

    #[test]
    fn every_chaos_constructor_validates() {
        for spec in [
            sync_inc(4, 100),
            racy_inc(4, 100),
            chaos_mix(1),
            chaos_disjoint(2),
            chaos_handoff(3),
            chaos_rdsh(4),
            chaos_read_mostly(5),
            chaos_adapt(6),
            chaos_wide(7),
        ] {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.ops(0), spec.ops(0));
        assert_eq!(spec.ops(3), spec.ops(3));
        assert_ne!(spec.ops(0), spec.ops(1), "threads get distinct streams");
    }

    #[test]
    fn locks_are_balanced_and_guard_consistently() {
        let spec = WorkloadSpec {
            locked_frac: 0.5,
            ..WorkloadSpec::default()
        };
        for t in 0..spec.threads {
            let ops = spec.ops(t);
            let mut held: Option<MonitorId> = None;
            for op in &ops {
                match op {
                    Op::Lock(m) => {
                        assert!(held.is_none(), "no nested locks in generated code");
                        held = Some(*m);
                    }
                    Op::Unlock(m) => {
                        assert_eq!(held, Some(*m));
                        held = None;
                    }
                    Op::Read(o) | Op::Write(o) => {
                        if let Some(m) = held {
                            assert_eq!(spec.guard_of(*o), m, "CS touches only guarded objects");
                        }
                    }
                    _ => {}
                }
            }
            assert!(held.is_none(), "all locks released at thread end");
        }
    }

    #[test]
    fn local_objects_are_disjoint_across_threads() {
        let spec = WorkloadSpec::default();
        let locals = |t: usize| -> std::collections::HashSet<u32> {
            spec.ops(t)
                .iter()
                .filter_map(|op| match op {
                    Op::Read(o) | Op::Write(o) if o.index() >= spec.shared_objects => Some(o.0),
                    _ => None,
                })
                .collect()
        };
        let a = locals(0);
        let b = locals(1);
        assert!(a.is_disjoint(&b));
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    fn racy_frac_zero_generates_no_unsynchronized_hot_access() {
        let spec = WorkloadSpec {
            racy_frac: 0.0,
            shared_read_frac: 0.0,
            ..WorkloadSpec::default()
        };
        for t in 0..spec.threads {
            let mut held = false;
            for op in spec.ops(t) {
                match op {
                    Op::Lock(_) => held = true,
                    Op::Unlock(_) => held = false,
                    Op::Read(o) | Op::Write(o) if o.index() < spec.shared_objects => {
                        assert!(held, "shared access outside a critical section");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn micro_benchmarks_expand_exactly() {
        // `synchronized(g) { gCounter++ }` and `gCounter++`, each followed by
        // the local work, a safe point and a yield, on every thread.
        let (m, counter) = (MonitorId(0), ObjId(0));
        let tail = [Op::Work(4), Op::Safepoint, Op::Yield];
        let sync_step = [Op::Lock(m), Op::Read(counter), Op::Write(counter), Op::Unlock(m)];
        let racy_step = [Op::Read(counter), Op::Write(counter)];
        for (spec, step) in [(sync_inc(8, 5), &sync_step[..]), (racy_inc(8, 5), &racy_step[..])] {
            let expected = [step, &tail].concat().repeat(5);
            for t in 0..spec.threads {
                assert_eq!(spec.ops(t), expected, "{} thread {t}", spec.name);
            }
        }
    }

    #[test]
    fn phase_shift_flips_racy_write_mix_and_stays_deterministic() {
        let spec = chaos_adapt(7);
        assert_eq!(spec.ops(0), spec.ops(0), "phase shift keeps expansion pure");

        // Count racy writes vs. reads (hot-set accesses outside any CS) per
        // phase window; the write share must differ materially between an
        // even and an odd phase of the same thread.
        let racy_write_share = |t: usize, phase: usize| -> f64 {
            let mut step = 0usize;
            let mut held = false;
            let (mut w, mut n) = (0usize, 0usize);
            for op in spec.ops(t) {
                match op {
                    Op::Lock(_) => held = true,
                    Op::Unlock(_) => held = false,
                    Op::Safepoint => step += 1, // safepoint_every == 1
                    Op::Read(o) | Op::Write(o)
                        if !held
                            && o.index() < spec.hot_objects
                            && step / spec.phase_every == phase =>
                    {
                        n += 1;
                        if matches!(op, Op::Write(_)) {
                            w += 1;
                        }
                    }
                    _ => {}
                }
            }
            assert!(n > 10, "phase {phase} of thread {t} has racy traffic");
            w as f64 / n as f64
        };
        let write_phase = racy_write_share(0, 0);
        let read_phase = racy_write_share(0, 1);
        assert!(
            write_phase > 0.6 && read_phase < 0.4,
            "phases must flip the mix: even {write_phase:.2}, odd {read_phase:.2}"
        );
        // Threads are offset: thread 1's even phase is read-mostly.
        assert!(racy_write_share(1, 0) < 0.4);
    }

    #[test]
    fn heap_sizing_and_ownership() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.heap_objects(), 256 + 256 * 4);
        // Shared objects round-robin over threads.
        assert_eq!(spec.initial_owner(ObjId(0)), ThreadId(0));
        assert_eq!(spec.initial_owner(ObjId(1)), ThreadId(1));
        // Private objects owned by their thread.
        assert_eq!(spec.initial_owner(spec.local_obj(2, 0)), ThreadId(2));
        assert_eq!(
            spec.initial_owner(spec.local_obj(3, spec.local_objects - 1)),
            ThreadId(3)
        );
    }

    #[test]
    fn guard_partition_is_total_and_consistent() {
        let spec = WorkloadSpec::default();
        for i in 0..spec.shared_objects {
            let m = spec.guard_of(ObjId(i as u32));
            assert!(m.index() < spec.monitors);
        }
    }
}
