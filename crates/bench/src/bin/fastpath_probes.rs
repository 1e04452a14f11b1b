//! Codegen probes for `scripts/fastpath_asm.sh`: each tracked operation's
//! fast path behind a symbol `objdump` can find, so that whether the leaf is
//! still a leaf (DESIGN.md §8) is checked by a script and not by eye.

use std::hint::black_box;
use std::sync::Arc;

use drink_core::prelude::*;
use drink_runtime::{ObjId, Runtime, RuntimeConfig, ThreadId};

#[no_mangle]
#[inline(never)]
pub fn probe_hybrid_read(e: &HybridEngine, t: ThreadId, o: ObjId) -> u64 {
    e.read(t, o)
}

#[no_mangle]
#[inline(never)]
pub fn probe_hybrid_write(e: &HybridEngine, t: ThreadId, o: ObjId, v: u64) {
    e.write(t, o, v)
}

#[no_mangle]
#[inline(never)]
pub fn probe_hybrid_safepoint(e: &HybridEngine, t: ThreadId) {
    e.safepoint(t)
}

#[no_mangle]
#[inline(never)]
pub fn probe_any_read(e: &AnyEngine, t: ThreadId, o: ObjId) -> u64 {
    e.read(t, o)
}

/// Calls every probe once: the linker keeps what is called.
fn main() {
    let rt = || Arc::new(Runtime::new(RuntimeConfig::builder().max_threads(1).heap_objects(1).build()));
    let (hybrid, any) = (HybridEngine::new(rt()), EngineKind::Hybrid.build(rt()));
    let (t, u, o) = (hybrid.attach(), any.attach(), black_box(ObjId(0)));
    hybrid.alloc_init(o, t);
    any.alloc_init(o, u);
    probe_hybrid_write(black_box(&hybrid), t, o, 7);
    probe_hybrid_safepoint(black_box(&hybrid), t);
    assert_eq!(probe_hybrid_read(black_box(&hybrid), t, o), 7);
    assert_eq!(probe_any_read(black_box(&any), u, o), 0);
}
