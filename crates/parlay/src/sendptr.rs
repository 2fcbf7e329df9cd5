//! A `Send + Sync` raw-pointer wrapper for scan-proven disjoint scatters.
//!
//! Several primitives in this crate (pack, flatten, and the counting pass
//! under the radix and sample sorts) write to data-dependent destinations
//! that an exclusive scan has proven disjoint. That is exactly the paper's `SngInd`/`RngInd` situation: the
//! algorithm guarantees independence, but `rustc` cannot see it. `SendPtr`
//! is the minimal interior-unsafe escape hatch those primitives encapsulate
//! behind safe APIs — the same technique Rayon uses inside
//! `collect_into_vec`.
//!
//! # Safety contract
//! Callers must guarantee that concurrent `write`s through clones of one
//! `SendPtr` target disjoint indices, and that no other reference accesses
//! the pointee for the duration.

/// Raw mutable pointer that may cross thread boundaries.
pub struct SendPtr<T>(*mut T);

// SAFETY: a `SendPtr` is just an address; moving it between threads is
// harmless because every dereference goes through the `unsafe` accessors
// below, whose caller contract (module doc) demands disjoint indices.
// `T: Send` so the values written/read may themselves change threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared `&SendPtr` access exposes no safe dereference; the
// unsafe accessors' disjointness contract rules out data races.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wraps a raw pointer obtained from exclusively owned memory.
    #[inline]
    pub fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// Writes `value` at offset `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the allocation and not concurrently written
    /// by any other task (see module-level contract).
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        // SAFETY: caller contract — in-bounds, no concurrent access to `i`.
        unsafe { self.0.add(i).write(value) };
    }

    /// Reads the value at offset `i`.
    ///
    /// # Safety
    /// `i` must be in bounds, initialized, and not concurrently written.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T {
        // SAFETY: caller contract — in-bounds, initialized, not
        // concurrently written.
        unsafe { self.0.add(i).read() }
    }

    /// Returns a mutable reference to slot `i`.
    ///
    /// # Safety
    /// Same as [`SendPtr::write`], plus the usual exclusive-reference rules
    /// for the lifetime of the borrow.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        // SAFETY: caller contract — in-bounds and exclusive for the
        // lifetime of the returned borrow.
        unsafe { &mut *self.0.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn disjoint_parallel_writes() {
        let n = 10_000;
        let mut v = vec![0usize; n];
        let p = SendPtr::new(v.as_mut_ptr());
        (0..n).into_par_iter().for_each(|i| {
            // SAFETY: each i is written by exactly one task.
            unsafe { p.write(i, i * 2) };
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn get_mut_round_trip() {
        let mut v = vec![1u32; 4];
        let p = SendPtr::new(v.as_mut_ptr());
        // SAFETY: exclusive single-threaded access.
        unsafe {
            *p.get_mut(2) = 9;
            assert_eq!(p.read(2), 9);
        }
        assert_eq!(v, vec![1, 1, 9, 1]);
    }
}
