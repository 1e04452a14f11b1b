//! Cache-line padding for items that live in dense shared arrays.

/// Pads and aligns `T` to 128 bytes on x86_64/aarch64 (two 64-byte lines:
/// Intel's spatial prefetcher pulls line pairs, making 128 the effective
/// false-sharing granularity — same reasoning as crossbeam's `CachePadded`)
/// and 64 bytes elsewhere.
///
/// Used for per-thread state slots: thread A's hot mutable state
/// (lock buffer, stats) must not share a line with thread B's.
#[derive(Debug, Default)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "aarch64"), repr(align(128)))]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), repr(align(64)))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline(always)]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_array_elements_do_not_share_lines() {
        let v: Vec<CachePadded<u8>> = (0..4).map(CachePadded::new).collect();
        let stride = std::mem::size_of::<CachePadded<u8>>();
        assert!(stride >= 64);
        let a = &*v[0] as *const u8 as usize;
        let b = &*v[1] as *const u8 as usize;
        assert_eq!(b - a, stride);
        assert_eq!(a % stride, 0);
    }

    #[test]
    fn deref_roundtrip() {
        let mut p = CachePadded::new(41u64);
        *p += 1;
        assert_eq!(*p, 42);
    }
}
