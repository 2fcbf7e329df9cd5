//! Parallel sample sort — the `sort` benchmark of RPB.
//!
//! PBBS's comparison sort: take an oversampled random sample, sort it, pick
//! evenly spaced pivots, classify every element into a bucket (read-only),
//! group the elements by bucket with one [`CountingPass`], then sort each
//! bucket in parallel. The bucket boundaries the pass's scan returns are
//! exactly the `RngInd` pattern the paper studies: contiguous chunks whose
//! offsets come from run-time data, monotone by construction. How the
//! bucket phase expresses that is the caller's choice
//! ([`sample_sort_with`]); [`sample_sort`] carves with `split_at_mut`.

use std::cmp::Ordering;
use std::ops::Range;

use rayon::prelude::*;

use crate::counting::{Bounds, CountingPass};
use crate::random::Random;
use crate::slice_util::carve;

/// Below this size, delegate to the standard library's sequential sort.
const SEQ_CUTOFF: usize = 1 << 14;
/// Oversampling factor for pivot selection.
const OVERSAMPLE: usize = 8;

/// Sorts `data` with a parallel sample sort. Not stable.
///
/// # Examples
/// ```
/// let mut v = vec![3, 1, 4, 1, 5, 9, 2, 6];
/// rpb_parlay::sample_sort(&mut v, |a, b| a.cmp(b));
/// assert_eq!(v, vec![1, 1, 2, 3, 4, 5, 6, 9]);
/// ```
pub fn sample_sort<T, F>(data: &mut [T], cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Send + Sync,
{
    // Block-on-RngInd, statically safe: the chunk list is carved off the
    // front of the buffer one boundary at a time.
    sample_sort_with(data, cmp, |grouped, bounds, cmp| {
        carve(grouped, bounds.windows(2).map(|w| w[1] - w[0]))
            .par_iter_mut()
            .for_each(|bucket| bucket.sort_unstable_by(cmp));
    });
}

/// [`sample_sort`] with the bucket phase left to the caller:
/// `sort_buckets(grouped, bounds, &cmp)` receives the elements grouped by
/// bucket and the counting pass's [`Bounds`], the `nbuckets + 1` bucket
/// boundaries (`bounds[0] == 0`, monotone, `bounds[nbuckets] ==
/// grouped.len()`; every element of bucket `d` compares `<=` every element
/// of bucket `d + 1`), and must leave each bucket
/// `grouped[bounds[d]..bounds[d + 1]]` sorted. Inputs below the sequential
/// cutoff are sorted directly and never reach it.
pub fn sample_sort_with<T, F, B>(data: &mut [T], cmp: F, sort_buckets: B)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Send + Sync,
    B: FnOnce(&mut [T], &Bounds, &F),
{
    let n = data.len();
    if n < SEQ_CUTOFF {
        data.sort_unstable_by(&cmp);
        return;
    }
    let nbuckets = ((n as f64).sqrt() / 8.0).ceil() as usize;
    let nbuckets = nbuckets.clamp(2, 1024);
    // 1. Sample and pick pivots.
    let r = Random::new(0xD1CE);
    let mut sample: Vec<T> = (0..nbuckets * OVERSAMPLE)
        .map(|i| data[(r.ith_rand(i as u64) % n as u64) as usize])
        .collect();
    sample.sort_unstable_by(&cmp);
    let pivots: Vec<T> = (1..nbuckets).map(|i| sample[i * OVERSAMPLE]).collect();

    // 2. Classify each element (read-only over data + pivots): its bucket
    //    is the number of pivots not greater than it.
    let ids: Vec<u32> = data
        .par_iter()
        .map(|x| pivots.partition_point(|p| cmp(p, x) != Ordering::Greater) as u32)
        .collect();

    // 3. Group by bucket into a buffer. Count and scatter both read `ids`,
    //    so they agree whatever `cmp` does.
    let buckets = |items: Range<usize>| ids[items].iter().map(|&d| d as usize);
    let mut pass = CountingPass::new(n, nbuckets);
    pass.count(buckets);
    let bounds = pass.scan();
    let mut buf = Box::<[T]>::new_uninit_slice(n);
    let grouped = pass.scatter(data, &mut buf, buckets);

    // 4. Sort each bucket and copy back.
    sort_buckets(grouped, &bounds, &cmp);
    data.copy_from_slice(grouped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::hash64;

    #[test]
    fn sorts_random_u64() {
        let mut v: Vec<u64> = (0..100_000).map(hash64).collect();
        let mut want = v.clone();
        want.sort_unstable();
        sample_sort(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, want);
    }

    #[test]
    fn sorts_with_duplicates() {
        let mut v: Vec<u64> = (0..100_000).map(|i| hash64(i) % 10).collect();
        let mut want = v.clone();
        want.sort_unstable();
        sample_sort(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, want);
    }

    #[test]
    fn sorts_all_equal() {
        let mut v = vec![7u64; 50_000];
        sample_sort(&mut v, |a, b| a.cmp(b));
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn sorts_descending_comparator() {
        let mut v: Vec<u64> = (0..50_000).map(hash64).collect();
        sample_sort(&mut v, |a, b| b.cmp(a));
        assert!(v.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn small_input_falls_back() {
        let mut v = vec![2u8, 1];
        sample_sort(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2]);
    }

    #[test]
    fn sorts_floats_by_total_order() {
        let mut v: Vec<f64> = (0..60_000)
            .map(|i| (hash64(i) % 1000) as f64 - 500.0)
            .collect();
        sample_sort(&mut v, |a, b| a.partial_cmp(b).expect("no NaN"));
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }
}
