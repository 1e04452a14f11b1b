//! Mutator session façade: the per-thread handle workloads use.
//!
//! A [`Session`] binds one OS thread to one mutator id on one engine, and
//! exposes the tracked operations. It detaches automatically on drop (the
//! final flush — thread exit is a PSRO), so workloads cannot forget to
//! merge statistics or leave pessimistic locks dangling.

use drink_runtime::{MonitorId, ObjId, ThreadId};

use crate::engine::Tracker;

/// A per-thread handle onto a tracking engine.
///
/// Not `Send`: the engine's per-thread state is owned by the attaching OS
/// thread.
///
/// A session attaches equally to a concrete engine, to an
/// [`AnyEngine`](crate::engine::AnyEngine) — the enum over the engine types
/// that runtime-selected engines (the serve store, the bench runner) drive the
/// same façade through; either way `read` / `write` / `safepoint` inline the
/// engine's leaf into the caller — or, since `T` may be unsized
/// (`T: ?Sized`), to a plain `dyn Tracker`, at an indirect call an
/// operation.
pub struct Session<'e, T: Tracker + ?Sized> {
    engine: &'e T,
    t: ThreadId,
    detached: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl<'e, T: Tracker + ?Sized> Session<'e, T> {
    /// Attach the calling thread to `engine`.
    pub fn attach(engine: &'e T) -> Self {
        let t = engine.attach();
        Session {
            engine,
            t,
            detached: false,
            _not_send: std::marker::PhantomData,
        }
    }

    /// This session's mutator id.
    #[inline]
    pub fn tid(&self) -> ThreadId {
        self.t
    }

    /// The engine behind this session.
    #[inline]
    pub fn engine(&self) -> &'e T {
        self.engine
    }

    /// Tracked read.
    #[inline(always)]
    pub fn read(&self, o: ObjId) -> u64 {
        self.engine.read(self.t, o)
    }

    /// Tracked write.
    #[inline(always)]
    pub fn write(&self, o: ObjId, v: u64) {
        self.engine.write(self.t, o, v)
    }

    /// Initialize `o` as allocated by this thread.
    pub fn alloc(&self, o: ObjId) {
        self.engine.alloc_init(o, self.t)
    }

    /// Safe point poll (place at loop back edges, as the JIT would).
    #[inline(always)]
    pub fn safepoint(&self) {
        self.engine.safepoint(self.t)
    }

    /// Program lock acquire.
    pub fn lock(&self, m: MonitorId) {
        self.engine.lock(self.t, m)
    }

    /// Program lock release.
    pub fn unlock(&self, m: MonitorId) {
        self.engine.unlock(self.t, m)
    }

    /// Run `f` while holding monitor `m` (a `synchronized` block).
    pub fn synchronized<R>(&self, m: MonitorId, f: impl FnOnce(&Self) -> R) -> R {
        self.lock(m);
        let r = f(self);
        self.unlock(m);
        r
    }

    /// Monitor wait.
    pub fn wait(&self, m: MonitorId) {
        self.engine.wait(self.t, m)
    }

    /// Monitor notify-all.
    pub fn notify_all(&self, m: MonitorId) {
        self.engine.notify_all(self.t, m)
    }

    /// Detach eagerly (otherwise happens on drop).
    pub fn finish(mut self) {
        self.detach_once();
    }

    fn detach_once(&mut self) {
        if !self.detached {
            self.detached = true;
            self.engine.detach(self.t);
        }
    }
}

impl<T: Tracker + ?Sized> Drop for Session<'_, T> {
    fn drop(&mut self) {
        // A thread unwinding out of a tracked operation died mid-protocol:
        // its lock buffer, status word and read set are in an arbitrary
        // state, and detach's own invariant checks would panic again —
        // turning a reportable failure into a process abort. Leave the
        // wreckage in place; the checking harness inspects it post-mortem.
        if std::thread::panicking() {
            return;
        }
        self.detach_once();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::hybrid::HybridEngine;
    use drink_runtime::{Event, Runtime, RuntimeConfig};
    use std::sync::Arc;

    #[test]
    fn session_lifecycle_and_basic_ops() {
        let e = HybridEngine::new(Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(4)
        .heap_objects(8)
        .monitors(2)
        .build())));
        {
            let s = Session::attach(&e);
            assert_eq!(s.tid(), ThreadId(0));
            s.alloc(ObjId(0));
            s.write(ObjId(0), 7);
            assert_eq!(s.read(ObjId(0)), 7);
            s.synchronized(MonitorId(0), |s| s.write(ObjId(0), 8));
            s.safepoint();
        } // drop detaches
        let r = e.rt().stats().report();
        assert_eq!(r.accesses(), 3);
        assert_eq!(r.get(Event::MonitorRelease), 1);
    }

    #[test]
    fn finish_is_idempotent_with_drop() {
        let e = HybridEngine::new(Arc::new(Runtime::new(RuntimeConfig::builder()
        .max_threads(4)
        .heap_objects(8)
        .monitors(2)
        .build())));
        let s = Session::attach(&e);
        s.write(ObjId(1), 1);
        s.finish(); // no double-detach on the implicit drop
        assert_eq!(e.rt().stats().report().accesses(), 1);
    }
}
