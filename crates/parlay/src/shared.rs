//! [`SharedMutSlice`] and [`atomic_view`] — the workspace's one raw-pointer
//! view, for algorithmically independent writes.
//!
//! [`SharedMutSlice`] is the paper's Listing 6(d): "unsafely dereference a
//! pointer to write", the *scary* option. Every write whose disjointness the
//! types cannot see goes through it: the `Unsafe` arms of the benchmarks,
//! `rpb-fearless`'s checked and proved `SngInd`/`RngInd` iterators, the
//! counting pass's scatter and the two patches `geom::refine` makes to
//! reserved triangles. [`atomic_view`] is Listing 6(e), every `Sync`-mode
//! reinterpretation of a slice as atomics. Keeping both here keeps the
//! interior-unsafe surface in one file: no other file in the workspace
//! implements `Send` or `Sync` by hand.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize};

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
}

mod sealed {
    pub trait Sealed {}
}

/// An integer whose atomic twin has its size, so a slice of one can be
/// viewed as a slice of the other. Sealed: implemented only for the pairs
/// [`atomic_view`] is sound for.
pub trait AtomicTwin: sealed::Sealed + Sized {
    /// The atomic type of the same size (and, on every target but for
    /// `u64` on some 32-bit ones, the same alignment).
    type Atomic;
}

macro_rules! atomic_twin {
    ($($int:ty => $atomic:ty),*) => {$(
        impl sealed::Sealed for $int {}
        impl AtomicTwin for $int {
            type Atomic = $atomic;
        }
    )*};
}
atomic_twin!(u8 => AtomicU8, u32 => AtomicU32, u64 => AtomicU64, usize => AtomicUsize);

/// Views an exclusively borrowed slice as atomics, for a phase of relaxed
/// stores or `fetch_add`s from many tasks: the paper's Listing 6(e),
/// "placate rustc with atomics". Every `Sync`-mode reinterpretation in the
/// workspace goes through this one function.
///
/// # Panics
/// If a non-empty `slice` is not aligned for `T::Atomic`. That can happen
/// only where the atomic is more aligned than the integer: `u64` on
/// targets that align it to 4 bytes (32-bit x86, for one). There the view
/// checks the address once, in O(1); everywhere else the two alignments
/// are equal, the condition is a constant and the check compiles away.
///
/// # Examples
/// ```
/// use std::sync::atomic::Ordering;
/// let mut counts = vec![0usize; 3];
/// let atomic = rpb_parlay::shared::atomic_view(&mut counts);
/// atomic[1].fetch_add(2, Ordering::Relaxed);
/// assert_eq!(counts, [0, 2, 0]);
/// ```
pub fn atomic_view<T: AtomicTwin>(slice: &mut [T]) -> &[T::Atomic] {
    const { assert!(std::mem::size_of::<T>() == std::mem::size_of::<T::Atomic>()) };
    if std::mem::align_of::<T::Atomic>() > std::mem::align_of::<T>() {
        if slice.is_empty() {
            return &[];
        }
        assert!(
            aligned_for_atomic(slice.as_ptr()),
            "atomic_view: a slice not aligned for its atomic twin"
        );
    }
    // SAFETY: `T::Atomic` has `T`'s size (asserted above at compile time)
    // and every bit pattern of `T` is a valid atomic. The pointer is
    // aligned for `T::Atomic`: the atomic is no more aligned than `T`, or
    // the address was checked above. The exclusive borrow is the only
    // reference to the elements for the view's lifetime, and the pointer
    // comes from `as_mut_ptr`, so the atomics' stores are writes it may
    // make.
    unsafe { std::slice::from_raw_parts(slice.as_mut_ptr().cast::<T::Atomic>(), slice.len()) }
}

/// Whether `at` may address a `T::Atomic`, an O(1) check on the address.
fn aligned_for_atomic<T: AtomicTwin>(at: *const T) -> bool {
    at.cast::<T::Atomic>().is_aligned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;
    use std::sync::atomic::Ordering;

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
    fn get_mut_round_trip() {
        let mut v = vec![1u32; 4];
        {
            let view = SharedMutSlice::new(&mut v);
            // SAFETY: index 2 is in bounds, and this thread is the view's
            // only user.
            let slot = unsafe { view.get_mut(2) };
            *slot = 9;
            assert_eq!(*slot, 9);
        }
        assert_eq!(v, vec![1, 1, 9, 1]);
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
    fn atomic_view_of_u64_checks_alignment() {
        assert!(atomic_view::<u64>(&mut []).is_empty());
        let words = [0u64; 2];
        assert!(aligned_for_atomic(words.as_ptr()));
        // Four bytes in: a `u64` address where `u64` is 4-aligned, never
        // an `AtomicU64` one.
        let skewed = words.as_ptr().cast::<u8>().wrapping_add(4).cast::<u64>();
        assert!(!aligned_for_atomic(skewed));
        let mut v = vec![7u64; 3];
        assert_eq!(atomic_view(&mut v)[2].load(Ordering::Relaxed), 7);
    }

    #[test]
    fn atomic_view_of_u64_round_trips() {
        let mut v = vec![5u64; 100];
        {
            let a = atomic_view(&mut v);
            (0..100usize).into_par_iter().for_each(|i| {
                a[i].fetch_min(i as u64, Ordering::Relaxed);
            });
        }
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i as u64).min(5));
        }
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
