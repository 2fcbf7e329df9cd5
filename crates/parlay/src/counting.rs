//! The blocked stable counting pass — ParlayLib's `count_sort` core.
//!
//! One PBBS idiom sits under the radix sort, the sample sort, the `isort`
//! benchmark and the BWT's LF mapping: cut the input into blocks, count
//! each block's items per bucket (`Block` pattern), exclusive-scan the
//! counts in (bucket, block) order, and the scanned matrix is at once
//!
//! * the first destination of every (block, bucket) pair — a stable
//!   counting sort's `SngInd` scatter, proven disjoint by the scan, and
//! * the `nbuckets + 1` monotone bucket boundaries — the `RngInd` chunk
//!   list of whatever runs per bucket afterwards.
//!
//! [`CountingPass`] holds that idiom once: [`count`](CountingPass::count)
//! (or [`count_with`](CountingPass::count_with) a caller-supplied per-block
//! histogram kernel), [`scan`](CountingPass::scan), then one of two walks
//! over the scanned
//! offsets — [`destinations`](CountingPass::destinations) (each item's
//! rank, written safely into the block's own chunk) or the crate-private
//! value `scatter`, the one interior-unsafe write all of the suite's
//! sorting rests on.

use std::mem::MaybeUninit;
use std::ops::Range;

use rayon::prelude::*;

use crate::scan::scan_inplace_exclusive;
use crate::sendptr::SendPtr;
use crate::slice_util::{block_range, block_size_for};

/// A stable counting pass over `n` items and `nbuckets` buckets, reusable
/// for any number of passes of that shape (a radix sort's digits).
///
/// The block decomposition is fixed at construction from the *ambient*
/// Rayon pool (four blocks per thread), so build it inside the pool that
/// will run it. Both count matrices are allocated here, once.
pub struct CountingPass {
    n: usize,
    nbuckets: usize,
    block: usize,
    /// Row-major `nblocks × nbuckets`: per-block histograms after `count`,
    /// per-block first destinations after `scan`, bumped in place by the
    /// walks (each block owns its row).
    counts: Vec<usize>,
    /// Column-major copy of `counts`, the order the stable scan runs in.
    transposed: Vec<usize>,
}

impl CountingPass {
    /// # Panics
    /// Panics if `nbuckets` is 0.
    pub fn new(n: usize, nbuckets: usize) -> Self {
        assert!(nbuckets > 0, "a counting pass needs at least one bucket");
        let block = block_size_for(n, rayon::current_num_threads() * 4);
        let cells = crate::num_blocks(n, block) * nbuckets;
        CountingPass {
            n,
            nbuckets,
            block,
            counts: vec![0; cells],
            transposed: vec![0; cells],
        }
    }

    /// Fills the count matrix from the items' buckets: `buckets(items)`
    /// yields the bucket (`< nbuckets`) of each item of the block with index
    /// range `items`, in order. Hand the same closure to the walk that
    /// follows and the two agree by construction. Returns whether a single
    /// bucket holds all `n` items — the stable scatter is then the identity
    /// permutation, so a caller that moves values may skip the rest of the
    /// pass.
    pub fn count<I>(&mut self, buckets: impl Fn(Range<usize>) -> I + Sync) -> bool
    where
        I: Iterator<Item = usize>,
    {
        self.count_with(|items, row| {
            for d in buckets(items) {
                row[d] += 1;
            }
        })
    }

    /// [`count`](Self::count) with the per-block histogram kernel supplied:
    /// `histogram(items, row)` adds, for every item of the block, one to its
    /// bucket's slot of the zeroed `row` (where a vectorized histogram
    /// plugs in).
    pub fn count_with(&mut self, histogram: impl Fn(Range<usize>, &mut [usize]) + Sync) -> bool {
        let (n, block, nbuckets) = (self.n, self.block, self.nbuckets);
        self.counts
            .par_chunks_mut(nbuckets)
            .enumerate()
            .for_each(|(b, row)| {
                row.fill(0);
                histogram(block_range(n, block, b), row);
            });
        // Block 0 is never empty, so its first occupied bucket is the only
        // candidate; it holds everything iff its column sums to n.
        let first = self.counts.iter().take(nbuckets).position(|&c| c != 0);
        first.is_some_and(|d| self.counts[d..].iter().step_by(nbuckets).sum::<usize>() == n)
    }

    /// Exclusive scan of the counts in (bucket, block) order: the offset of
    /// (block `b`, bucket `d`) becomes the count of all smaller buckets
    /// plus bucket `d`'s count in earlier blocks — the order that makes the
    /// pass stable. Returns the `nbuckets + 1` monotone bucket boundaries
    /// (`bounds[d]..bounds[d + 1]` is bucket `d`, `bounds[nbuckets] == n`).
    ///
    /// # Panics
    /// Panics if the preceding count did not count `n` items.
    pub fn scan(&mut self) -> Vec<usize> {
        let nbuckets = self.nbuckets;
        let nblocks = self.counts.len() / nbuckets;
        for b in 0..nblocks {
            for d in 0..nbuckets {
                self.transposed[d * nblocks + b] = self.counts[b * nbuckets + d];
            }
        }
        let total = scan_inplace_exclusive(&mut self.transposed, 0, |a, b| a + b);
        assert_eq!(total, self.n, "counting pass: histogram miscounted");
        for b in 0..nblocks {
            for d in 0..nbuckets {
                self.counts[b * nbuckets + d] = self.transposed[d * nblocks + b];
            }
        }
        let mut bounds: Vec<usize> = self.counts.iter().take(nbuckets).copied().collect();
        bounds.resize(nbuckets + 1, total);
        bounds
    }

    /// Walks the scanned offsets and returns every item's destination under
    /// the stable counting sort — a permutation of `0..n` when `buckets`
    /// (as for [`count`](Self::count)) agrees with what was counted.
    pub fn destinations<I>(&mut self, buckets: impl Fn(Range<usize>) -> I + Sync) -> Vec<usize>
    where
        I: Iterator<Item = usize>,
    {
        let (n, block) = (self.n, self.block);
        let mut dest = vec![0usize; n];
        self.counts
            .par_chunks_mut(self.nbuckets)
            .zip(dest.par_chunks_mut(block))
            .enumerate()
            .for_each(|(b, (offs, chunk))| {
                for (slot, d) in chunk.iter_mut().zip(buckets(block_range(n, block, b))) {
                    *slot = offs[d];
                    offs[d] += 1;
                }
            });
        dest
    }

    /// Walks the scanned offsets and moves `src` into `dst` in stable
    /// bucket order, returning `dst` as the initialised slice it now is.
    ///
    /// Crate-private because its soundness is a contract no signature
    /// states: `buckets` must yield, for every block, exactly the bucket
    /// sequence the preceding count counted (and `scan` must have run in
    /// between). Both in-crate users derive the two from one digit function
    /// or one id array.
    pub(crate) fn scatter<'d, T, I>(
        &mut self,
        src: &[T],
        dst: &'d mut [MaybeUninit<T>],
        buckets: impl Fn(Range<usize>) -> I + Sync,
    ) -> &'d mut [T]
    where
        T: Copy + Send + Sync,
        I: Iterator<Item = usize>,
    {
        let (n, block) = (self.n, self.block);
        assert!(src.len() == n && dst.len() == n, "counting pass: length");
        let out = SendPtr::new(dst.as_mut_ptr());
        self.counts
            .par_chunks_mut(self.nbuckets)
            .enumerate()
            .for_each(|(b, offs)| {
                let items = block_range(n, block, b);
                for (&x, d) in src[items.clone()].iter().zip(buckets(items)) {
                    // SAFETY: offs[d] walks the half-open range the scan
                    // assigned to (block b, bucket d) alone — it starts at
                    // the scanned offset and, `buckets` repeating what was
                    // counted, advances exactly count(b, d) times; those
                    // ranges partition 0..n = dst's bounds.
                    unsafe { out.write(offs[d], MaybeUninit::new(x)) };
                    offs[d] += 1;
                }
            });
        // SAFETY: the ranges above partition 0..n and each was filled, so
        // all n slots are initialised; `MaybeUninit<T>` has `T`'s layout.
        unsafe { &mut *(dst as *mut [MaybeUninit<T>] as *mut [T]) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{rayon_executor, run_in};
    use crate::random::hash64;

    /// Runs one full pass over `keys` and checks both walks and the
    /// boundaries against a stable `sort_by_key`.
    fn check_against_stable_sort(keys: &[usize], nbuckets: usize) {
        let n = keys.len();
        let mut pass = CountingPass::new(n, nbuckets);
        let histogram = |items: Range<usize>, row: &mut [usize]| {
            for &k in &keys[items] {
                row[k] += 1;
            }
        };
        let buckets = |items: Range<usize>| keys[items].iter().copied();

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut rank = vec![0usize; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let mut want_bounds = vec![0usize; nbuckets + 1];
        for &k in keys {
            want_bounds[k + 1] += 1;
        }
        for d in 0..nbuckets {
            want_bounds[d + 1] += want_bounds[d];
        }
        let sole = n > 0 && keys.iter().all(|&k| k == keys[0]);

        assert_eq!(pass.count(buckets), sole, "n={n} nbuckets={nbuckets}");
        assert_eq!(pass.scan(), want_bounds, "n={n} nbuckets={nbuckets}");
        assert_eq!(
            pass.destinations(buckets),
            rank,
            "n={n} nbuckets={nbuckets}"
        );

        // The same object again, now with a histogram kernel and moving
        // (key, index) values.
        let values: Vec<(usize, usize)> = keys.iter().copied().zip(0..).collect();
        let mut target = vec![MaybeUninit::uninit(); n];
        assert_eq!(pass.count_with(histogram), sole);
        pass.scan();
        let moved = pass.scatter(&values, &mut target, buckets);
        let want: Vec<(usize, usize)> = order.iter().map(|&i| (keys[i], i)).collect();
        assert_eq!(moved, want, "n={n} nbuckets={nbuckets}");
    }

    #[test]
    fn walks_and_boundaries_match_a_stable_sort() {
        // Items per block of the "several blocks" size.
        let per_block = if cfg!(miri) { 3 } else { 61 };
        let bucket_counts: &[usize] = if cfg!(miri) {
            &[1, 2, 37]
        } else {
            &[1, 2, 37, 256, 1024]
        };
        for threads in [1usize, 2, 4] {
            run_in(rayon_executor(), threads, || {
                let nblocks = threads * 4;
                // 0, 1, then the sizes around one item per block (where the
                // block size steps from 1 to 2), then uneven and even fills.
                let sizes = [
                    0,
                    1,
                    nblocks - 1,
                    nblocks,
                    nblocks + 1,
                    nblocks * per_block - 1,
                    nblocks * per_block,
                    nblocks * per_block + 1,
                ];
                for n in sizes {
                    for &nbuckets in bucket_counts {
                        let uniform: Vec<usize> = (0..n as u64)
                            .map(|i| (hash64(i) % nbuckets as u64) as usize)
                            .collect();
                        let one_bucket = vec![nbuckets / 2; n];
                        let mut one_elsewhere = one_bucket.clone();
                        if let Some(last) = one_elsewhere.last_mut() {
                            *last = nbuckets - 1;
                        }
                        for keys in [uniform, one_bucket, one_elsewhere] {
                            check_against_stable_sort(&keys, nbuckets);
                        }
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "miscounted")]
    fn scan_rejects_a_histogram_that_lost_items() {
        let mut pass = CountingPass::new(10, 4);
        pass.count_with(|_, _| {});
        pass.scan();
    }
}
