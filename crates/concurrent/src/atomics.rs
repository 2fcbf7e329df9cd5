//! Priority updates: CAS loops that monotonically improve a shared value.
//!
//! "Priority update" (Shun et al., SPAA'13) is the benign-looking `AW`
//! idiom the paper discusses in Sec. 5.2: many tasks race to write the
//! minimum (or maximum) into a shared cell. Implemented as a
//! compare-exchange loop it is linearizable and contention-friendly —
//! the loop exits as soon as the resident value is already at least as
//! good, so over time most attempts are a single relaxed load.
//!
//! Rust's verdict per the paper: using these is *scared* territory — data
//! races are ruled out, but nothing checks that relaxed ordering or the
//! retry logic is correct.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically sets `*cell = min(*cell, value)`.
///
/// Returns `true` iff `value` strictly improved (lowered) the cell.
#[inline]
pub fn write_min_u64(cell: &AtomicU64, value: u64) -> bool {
    let mut cur = cell.load(Ordering::Relaxed);
    while value < cur {
        match cell.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

/// Atomically sets `*cell = max(*cell, value)`.
///
/// Returns `true` iff `value` strictly raised the cell.
#[inline]
pub fn write_max_u64(cell: &AtomicU64, value: u64) -> bool {
    let mut cur = cell.load(Ordering::Relaxed);
    while value > cur {
        match cell.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

/// Generic priority update: installs `value` iff `better(value, current)`.
///
/// Returns `true` if installed.
#[inline]
pub fn write_better<F>(cell: &AtomicU64, value: u64, better: F) -> bool
where
    F: Fn(u64, u64) -> bool,
{
    let mut cur = cell.load(Ordering::Relaxed);
    while better(value, cur) {
        match cell.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

/// Reinterprets `&mut [u64]` as `&[AtomicU64]` for a synchronization phase.
///
/// This is the standard (and sound) trick for the paper's `Sync` mode: the
/// exclusive borrow proves no other references exist, and `AtomicU64` has
/// the same layout as `u64`.
pub fn as_atomic_u64(slice: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: AtomicU64 is #[repr(C, align(8))] with the same size as u64;
    // the exclusive borrow guarantees we hold the only reference, and the
    // pointer comes from `as_mut_ptr`, so stores through the view are
    // writes that pointer is allowed to make.
    unsafe { std::slice::from_raw_parts(slice.as_mut_ptr() as *const AtomicU64, slice.len()) }
}

/// Reinterprets `&mut [usize]` as `&[AtomicUsize]`.
pub fn as_atomic_usize(slice: &mut [usize]) -> &[std::sync::atomic::AtomicUsize] {
    // SAFETY: as in `as_atomic_u64`.
    unsafe {
        std::slice::from_raw_parts(
            slice.as_mut_ptr() as *const std::sync::atomic::AtomicUsize,
            slice.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn write_min_keeps_minimum() {
        let n: u64 = if cfg!(miri) { 256 } else { 10_000 };
        let cell = AtomicU64::new(u64::MAX);
        (0..n).into_par_iter().for_each(|i| {
            write_min_u64(&cell, rpb_parlay::random::hash64(i) % 1_000_000);
        });
        let want = (0..n)
            .map(|i| rpb_parlay::random::hash64(i) % 1_000_000)
            .min()
            .unwrap();
        assert_eq!(cell.load(Ordering::Relaxed), want);
    }

    #[test]
    fn write_max_keeps_maximum() {
        let n: u64 = if cfg!(miri) { 256 } else { 10_000 };
        let cell = AtomicU64::new(0);
        (0..n).into_par_iter().for_each(|i| {
            write_max_u64(&cell, rpb_parlay::random::hash64(i) % 1_000_000);
        });
        let want = (0..n)
            .map(|i| rpb_parlay::random::hash64(i) % 1_000_000)
            .max()
            .unwrap();
        assert_eq!(cell.load(Ordering::Relaxed), want);
    }

    #[test]
    fn write_min_reports_improvement() {
        let cell = AtomicU64::new(10);
        assert!(write_min_u64(&cell, 5));
        assert!(!write_min_u64(&cell, 7));
        assert!(!write_min_u64(&cell, 5));
        assert_eq!(cell.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn write_better_with_custom_order() {
        // Prefer even values, then smaller.
        let better = |new: u64, cur: u64| {
            // `is_multiple_of` is Rust 1.87; README's MSRV is 1.85.
            #[allow(clippy::manual_is_multiple_of)]
            let (ne, ce) = (new % 2 == 0, cur % 2 == 0);
            match (ne, ce) {
                (true, false) => true,
                (false, true) => false,
                _ => new < cur,
            }
        };
        let cell = AtomicU64::new(9);
        assert!(write_better(&cell, 12, better));
        assert!(!write_better(&cell, 13, better));
        assert!(write_better(&cell, 4, better));
        assert_eq!(cell.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn atomic_view_round_trip() {
        let mut v = vec![5u64; 100];
        {
            let a = as_atomic_u64(&mut v);
            (0..100usize).into_par_iter().for_each(|i| {
                write_min_u64(&a[i], i as u64);
            });
        }
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i as u64).min(5));
        }
    }
}
