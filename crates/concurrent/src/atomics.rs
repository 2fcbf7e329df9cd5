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
    fn write_max_reports_improvement() {
        let cell = AtomicU64::new(10);
        assert!(write_max_u64(&cell, 15));
        assert!(!write_max_u64(&cell, 12));
        assert!(!write_max_u64(&cell, 15));
        assert_eq!(cell.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn exactly_one_writer_wins_a_tie() {
        // Every task offers the same value: the first lands, the rest see
        // a cell already as good and report no improvement.
        let n: u64 = if cfg!(miri) { 64 } else { 10_000 };
        let low = AtomicU64::new(u64::MAX);
        let high = AtomicU64::new(0);
        let (min_wins, max_wins) = (0..n)
            .into_par_iter()
            .map(|_| {
                (
                    write_min_u64(&low, 42) as usize,
                    write_max_u64(&high, 42) as usize,
                )
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        assert_eq!((min_wins, max_wins), (1, 1));
        assert_eq!(low.load(Ordering::Relaxed), 42);
        assert_eq!(high.load(Ordering::Relaxed), 42);
    }
}
