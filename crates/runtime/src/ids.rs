//! Small typed identifiers used across the substrate.
//!
//! The paper encodes the owning thread's address inside each object's 32-bit
//! state word. We instead use dense small integers, which both fit easily in
//! our 64-bit state word and index directly into the runtime's thread table.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a mutator thread registered with the [`crate::Runtime`].
///
/// Thread ids are dense indices into the runtime's thread-control table. The
/// state word reserves 16 bits for an owner id, so at most [`ThreadId::MAX`]
/// mutators may be registered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ThreadId(pub u16);

impl ThreadId {
    /// Upper bound (exclusive) on thread ids: the state word's owner field is
    /// 16 bits wide.
    pub const MAX: usize = u16::MAX as usize;

    /// Index into per-thread tables.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw 16-bit value, as stored in state words.
    #[inline(always)]
    pub fn raw(self) -> u16 {
        self.0
    }

    /// Reconstruct from the raw value stored in a state word.
    #[inline(always)]
    pub fn from_raw(raw: u16) -> Self {
        ThreadId(raw)
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A failed range check, out of line and on plain integers: no inlined copy
/// of an access's fast path then builds `fmt::Arguments` on its stack.
#[cold]
#[inline(never)]
pub(crate) fn out_of_range(what: &str, i: usize, len: usize) -> ! {
    panic!("{what} {i} out of range (0..{len})")
}

/// Identifier of a tracked shared object: a dense index into the [`crate::Heap`].
///
/// The paper uses the term "object" for any unit of shared memory (scalar
/// object, array, or static field); so do we.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Index into the heap's object table.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Identifier of a program monitor (lock): a dense index into the runtime's
/// monitor table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MonitorId(pub u32);

impl MonitorId {
    /// Index into the monitor table.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MonitorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MonitorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_roundtrip() {
        for raw in [0u16, 1, 7, 255, u16::MAX] {
            let t = ThreadId::from_raw(raw);
            assert_eq!(t.raw(), raw);
            assert_eq!(t.index(), raw as usize);
        }
    }

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{}", ThreadId(3)), "T3");
        assert_eq!(format!("{:?}", ObjId(12)), "o12");
        assert_eq!(format!("{}", MonitorId(0)), "m0");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(ThreadId(1) < ThreadId(2));
        assert!(ObjId(9) < ObjId(10));
        assert!(MonitorId(0) < MonitorId(1));
    }
}
