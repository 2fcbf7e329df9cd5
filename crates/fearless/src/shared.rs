//! [`SharedMutSlice`] — the minimal unsafe escape hatch for algorithmically
//! independent writes.
//!
//! This corresponds to the paper's Listing 6(d): "unsafely dereference a
//! pointer to write", the *scary* option. All of RPB's `Unsafe`-mode
//! benchmark variants funnel their raw writes through this one type so the
//! `unsafe` footprint is centralized and auditable, per Rust best practice
//! (minimize and encapsulate unsafe code).

use std::marker::PhantomData;

/// A view of `&mut [T]` that can be shared across tasks, deferring the
/// aliasing-XOR-mutability proof to the caller.
///
/// # Safety contract
/// Users must ensure that concurrent accesses through clones of one
/// `SharedMutSlice` touch disjoint indices. Violations are data races
/// (undefined behaviour) exactly as in C++ — this type is the paper's
/// "scared" tier made explicit.
pub struct SharedMutSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the view is an address + length; sending it is harmless because
// every dereference goes through the unsafe accessors below, whose caller
// contract (type-level doc) demands disjoint indices. `T: Send` so the
// values themselves may cross threads.
unsafe impl<T: Send> Send for SharedMutSlice<'_, T> {}
// SAFETY: `&SharedMutSlice` exposes no safe dereference; the accessors'
// disjointness contract rules out data races through shared references.
unsafe impl<T: Send> Sync for SharedMutSlice<'_, T> {}

impl<T> Clone for SharedMutSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedMutSlice<'_, T> {}

impl<'a, T> SharedMutSlice<'a, T> {
    /// Wraps an exclusive slice borrow.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedMutSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Slice length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a mutable reference to element `i`.
    ///
    /// Bounds are checked with `debug_assert!` only — release builds trade
    /// the check away, which is exactly the C++-equivalence the `Unsafe`
    /// benchmark mode measures.
    ///
    /// # Safety
    /// `i < len()`, and no concurrent task may access index `i` while the
    /// returned borrow lives.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &'a mut T {
        debug_assert!(
            i < self.len,
            "SharedMutSlice index {i} out of bounds {}",
            self.len
        );
        // SAFETY: caller contract — `i < len` (within the original
        // allocation) and exclusive access to index `i`.
        unsafe { &mut *self.ptr.add(i) }
    }

    /// Writes `value` at index `i`.
    ///
    /// # Safety
    /// Same contract as [`SharedMutSlice::get_mut`].
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        // SAFETY: caller contract — in-bounds, no concurrent access to `i`.
        unsafe { self.ptr.add(i).write(value) };
    }

    /// Reads element `i` (requires `T: Copy`).
    ///
    /// # Safety
    /// `i < len()` and no concurrent writer to index `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        // SAFETY: caller contract — in-bounds, initialized, no concurrent
        // writer to `i`.
        unsafe { *self.ptr.add(i) }
    }

    /// Reinterprets a sub-range as a mutable slice.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every other live
    /// borrow derived from this view.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, end: usize) -> &'a mut [T] {
        debug_assert!(start <= end && end <= self.len);
        // SAFETY: caller contract — `start..end` in bounds and disjoint
        // from every other live borrow derived from this view.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) }
    }

    /// The raw base pointer, for FFI-style call sites.
    #[inline]
    pub fn as_ptr(&self) -> *mut T {
        self.ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn disjoint_writes_in_parallel() {
        let n = if cfg!(miri) { 256 } else { 4096 };
        let mut v = vec![0u64; n];
        let view = SharedMutSlice::new(&mut v);
        (0..n).into_par_iter().for_each(|i| {
            // SAFETY: i is unique per task.
            unsafe { view.write(i, (i * 3) as u64) };
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == (i * 3) as u64));
    }

    #[test]
    fn slice_mut_carves_disjoint_windows() {
        let mut v = vec![0u8; 100];
        let view = SharedMutSlice::new(&mut v);
        (0..4usize).into_par_iter().for_each(|b| {
            // SAFETY: 25-element windows are disjoint.
            let w = unsafe { view.slice_mut(b * 25, (b + 1) * 25) };
            w.fill(b as u8 + 1);
        });
        assert_eq!(v[0], 1);
        assert_eq!(v[30], 2);
        assert_eq!(v[99], 4);
    }

    #[test]
    fn len_and_empty() {
        let mut v: Vec<u8> = vec![];
        let view = SharedMutSlice::new(&mut v);
        assert!(view.is_empty());
        assert_eq!(view.len(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn debug_bounds_check_fires() {
        let mut v = vec![0u8; 2];
        let view = SharedMutSlice::new(&mut v);
        // SAFETY: intentionally violated to test the debug assertion.
        unsafe {
            view.get_mut(5);
        }
    }
}
