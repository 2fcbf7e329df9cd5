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
//!
//! # Proofs by construction
//!
//! The pass hands out what it guarantees as sealed types, so a consumer
//! never re-checks it: [`scan`](CountingPass::scan) returns the
//! boundaries as [`Bounds`] (monotone, ending at `n`), and
//! [`destinations`](CountingPass::destinations) returns a [`Permutation`]
//! of `0..n`. Neither type has a public constructor or a mutable view;
//! `rpb-fearless` turns them into its `ValidatedChunks` /
//! `ValidatedOffsets` proofs in O(1).
//!
//! What the pass cannot take on trust is the caller's `buckets` closure:
//! nothing stops it from answering differently on the count and on the
//! walk. So every walk ends with the *agreement check*, O(blocks ×
//! buckets): each (block, bucket) cursor must stop exactly where the next
//! range starts. A walk that fails it yields a [`CountingError`], never a
//! proof; the value scatter also bounds every cursor by its range before
//! it writes.
//!
//! Safe code cannot forge either proof:
//!
//! ```compile_fail
//! let forged = rpb_parlay::counting::Permutation(vec![0, 0]);
//! ```
//!
//! ```compile_fail
//! let forged: rpb_parlay::counting::Permutation = vec![0, 0].into();
//! ```
//!
//! ```compile_fail
//! let forged = rpb_parlay::counting::Bounds(vec![0, 5, 3]);
//! ```
//!
//! ```compile_fail
//! let mut pass = rpb_parlay::CountingPass::new(2, 1);
//! pass.count(|items| items.map(|_| 0));
//! let mut bounds = pass.scan();
//! bounds[1] = 7; // no mutable view
//! ```
//!
//! The one way to get them is to run the pass:
//!
//! ```
//! let keys = [2usize, 0, 1, 0];
//! let buckets = |items: std::ops::Range<usize>| keys[items].iter().copied();
//! let mut pass = rpb_parlay::CountingPass::new(keys.len(), 3);
//! pass.count(buckets);
//! let bounds = pass.scan();
//! assert_eq!(&bounds[..], &[0, 2, 3, 4]);
//! let dest = pass.destinations(buckets).expect("one closure, so they agree");
//! assert_eq!(&dest[..], &[3, 0, 2, 1]);
//! ```

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::{Deref, Range};

use rayon::prelude::*;

use crate::scan::scan_inplace_exclusive;
use crate::shared::SharedMutSlice;
use crate::slice_util::{block_range, block_size_for};

/// A permutation of `0..len()`: every index below the length exactly
/// once.
///
/// Issued only by this crate's producers
/// ([`CountingPass::destinations`], [`crate::sort::Refinement`]), which
/// establish the property as they build it; there is no public
/// constructor and no mutable view, so holding one is the proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation(
    /// Crate-private: only this crate's producers build or rewrite it.
    pub(crate) Vec<usize>,
);

impl Permutation {
    /// The indices, giving up the proof.
    pub fn into_vec(self) -> Vec<usize> {
        self.0
    }
}

impl Deref for Permutation {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.0
    }
}

/// The `nbuckets + 1` bucket boundaries of a scanned [`CountingPass`]:
/// `bounds[0] == 0`, monotone, `bounds[nbuckets] == n`.
///
/// Issued only by [`CountingPass::scan`], after the counts passed its
/// `total == n` assert; like [`Permutation`] it has no public
/// constructor and no mutable view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bounds(Vec<usize>);

impl Bounds {
    /// The length the boundaries tile, `bounds[nbuckets]`.
    pub fn total(&self) -> usize {
        self.0[self.0.len() - 1]
    }
}

impl Deref for Bounds {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.0
    }
}

/// Why a [`CountingPass`] walk issued no [`Permutation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountingError {
    /// The walk did not follow a [`CountingPass::scan`]: there were no
    /// scanned offsets to walk (a second walk after one scan included).
    NotScanned,
    /// The walk's buckets disagree with the count: this (block, bucket)
    /// cursor did not stop where the next range starts.
    WalkDisagrees {
        /// The block whose walk went astray.
        block: usize,
        /// The first of its buckets whose cursor is off.
        bucket: usize,
    },
}

impl fmt::Display for CountingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountingError::NotScanned => write!(f, "walked offsets that were never scanned"),
            CountingError::WalkDisagrees { block, bucket } => write!(
                f,
                "block {block}'s walk disagrees with its count in bucket {bucket}"
            ),
        }
    }
}

impl std::error::Error for CountingError {}

/// A stable counting pass over `n` items and `nbuckets` buckets, reusable
/// for any number of passes of that shape (a radix sort's digits).
///
/// The block decomposition is fixed at construction from the *ambient*
/// Rayon pool (four blocks per thread), so build it inside the pool that
/// will run it. All three matrices are allocated here, once.
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
    /// Row-major, set by `scan`: where each (block, bucket) range ends —
    /// the start of the next range in scan order. A walk agrees with its
    /// count iff every cursor in `counts` stops here.
    ends: Vec<usize>,
    /// Whether `counts` holds scanned offsets no walk has consumed yet.
    scanned: bool,
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
            ends: vec![0; cells],
            scanned: false,
        }
    }

    /// Fills the count matrix from the items' buckets: `buckets(items)`
    /// yields the bucket (`< nbuckets`) of each item of the block with index
    /// range `items`, in order. Hand the same closure to the walk that
    /// follows and the two agree (the walk checks that they did). Returns
    /// whether a single bucket holds all `n` items — the stable scatter is
    /// then the identity permutation, so a caller that moves values may
    /// skip the rest of the pass.
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
        self.scanned = false;
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
    /// Panics if the preceding count did not count `n` items. The counts
    /// are summed without wrapping before they are scanned, so the scanned
    /// ranges tile `0..n` whatever a histogram kernel wrote.
    pub fn scan(&mut self) -> Bounds {
        let (n, nbuckets) = (self.n, self.nbuckets);
        let nblocks = self.counts.len() / nbuckets;
        for b in 0..nblocks {
            for d in 0..nbuckets {
                self.transposed[d * nblocks + b] = self.counts[b * nbuckets + d];
            }
        }
        let total = self
            .transposed
            .iter()
            .try_fold(0usize, |sum, &c| sum.checked_add(c));
        assert_eq!(total, Some(n), "counting pass: histogram miscounted");
        scan_inplace_exclusive(&mut self.transposed, 0, |a, b| a + b);
        for b in 0..nblocks {
            for d in 0..nbuckets {
                let at = d * nblocks + b;
                self.counts[b * nbuckets + d] = self.transposed[at];
                self.ends[b * nbuckets + d] = self.transposed.get(at + 1).copied().unwrap_or(n);
            }
        }
        self.scanned = true;
        let mut bounds: Vec<usize> = self.counts.iter().take(nbuckets).copied().collect();
        bounds.resize(nbuckets + 1, n);
        Bounds(bounds)
    }

    /// Walks the scanned offsets and returns every item's destination under
    /// the stable counting sort — a permutation of `0..n`, since `buckets`
    /// (as for [`count`](Self::count)) is checked to agree with what was
    /// counted.
    ///
    /// # Errors
    /// [`CountingError::NotScanned`] unless [`scan`](Self::scan) ran since
    /// the last count or walk; [`CountingError::WalkDisagrees`] if
    /// `buckets` yields, for some block, a bucket sequence other than the
    /// one counted (an impure closure, or one shorter than the block).
    ///
    /// # Panics
    /// Panics if `buckets` yields a bucket `>= nbuckets`.
    pub fn destinations<I>(
        &mut self,
        buckets: impl Fn(Range<usize>) -> I + Sync,
    ) -> Result<Permutation, CountingError>
    where
        I: Iterator<Item = usize>,
    {
        if !std::mem::take(&mut self.scanned) {
            return Err(CountingError::NotScanned);
        }
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
        // Every cursor at its range's end means every (block, bucket) wrote
        // exactly its count — n slots in all, one per block slot — of the
        // consecutive values its range holds; the ranges tile 0..n.
        self.agreement()?;
        Ok(Permutation(dest))
    }

    /// The agreement check every walk ends with: each cursor stopped where
    /// the next range starts.
    fn agreement(&self) -> Result<(), CountingError> {
        let nbuckets = self.nbuckets;
        let mut cursors = self.counts.iter().zip(&self.ends);
        match cursors.position(|(cursor, end)| cursor != end) {
            None => Ok(()),
            Some(cell) => Err(CountingError::WalkDisagrees {
                block: cell / nbuckets,
                bucket: cell % nbuckets,
            }),
        }
    }

    /// Walks the scanned offsets and moves `src` into `dst` in stable
    /// bucket order, returning `dst` as the initialised slice it now is.
    ///
    /// Sound for any `buckets`: each write is bounded by its (block,
    /// bucket) range, and the agreement check runs before `dst` is handed
    /// back. Crate-private because a disagreeing closure is a bug it turns
    /// into a panic (like `std`'s sort given an inconsistent `Ord`), not an
    /// error a caller could act on; both in-crate users derive count and
    /// walk from one digit function or one id array.
    ///
    /// # Panics
    /// Panics unless [`scan`](Self::scan) ran since the last count or walk,
    /// or if `buckets` disagrees with the count.
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
        let (n, block, nbuckets) = (self.n, self.block, self.nbuckets);
        assert!(src.len() == n && dst.len() == n, "counting pass: length");
        let scanned = std::mem::take(&mut self.scanned);
        assert!(scanned, "counting pass: {}", CountingError::NotScanned);
        let out = SharedMutSlice::new(&mut *dst);
        self.counts
            .par_chunks_mut(nbuckets)
            .zip(self.ends.par_chunks(nbuckets))
            .enumerate()
            .for_each(|(b, (offs, ends))| {
                let items = block_range(n, block, b);
                for (&x, d) in src[items.clone()].iter().zip(buckets(items)) {
                    let at = offs[d];
                    assert!(at < ends[d], "counting pass: the walk overran its count");
                    // SAFETY: `at` lies in the half-open range the scan
                    // assigned to (block b, bucket d) alone — the cursor
                    // starts at the range's first slot, only steps forward
                    // and was just bounded by its end; those ranges
                    // partition 0..n = dst's bounds.
                    unsafe { out.write(at, MaybeUninit::new(x)) };
                    offs[d] = at + 1;
                }
            });
        if let Err(e) = self.agreement() {
            panic!("counting pass: {e}");
        }
        // SAFETY: the agreement check passed, so every range of the
        // partition of 0..n was filled to its end: all n slots are
        // initialised. `MaybeUninit<T>` has `T`'s layout.
        unsafe { &mut *(dst as *mut [MaybeUninit<T>] as *mut [T]) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{rayon_executor, run_in};
    use crate::random::hash64;
    use std::sync::atomic::{AtomicBool, Ordering};

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
        assert_eq!(*pass.scan(), want_bounds, "n={n} nbuckets={nbuckets}");
        let dest = pass.destinations(buckets).expect("one closure agrees");
        assert_eq!(*dest, rank, "n={n} nbuckets={nbuckets}");

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

    #[test]
    #[should_panic(expected = "miscounted")]
    fn scan_rejects_a_histogram_that_invented_items() {
        let mut pass = CountingPass::new(10, 4);
        pass.count_with(|items, row| row[0] += items.len() + 1);
        pass.scan();
    }

    /// Counts whose sum wraps around to `n` would scan into ranges that
    /// overlap; the scan must refuse them before it issues `Bounds`.
    #[test]
    #[should_panic(expected = "miscounted")]
    fn scan_rejects_counts_that_wrap_around_to_n() {
        let mut pass = CountingPass::new(10, 4);
        pass.count_with(|items, row| {
            if items.start == 0 {
                row[0] = usize::MAX;
                row[1] = 11;
            }
        });
        pass.scan();
    }

    /// A `buckets` closure that answers one way on the count and another
    /// on the walk — by a flag flipped in between, or by yielding too few items —
    /// gets the typed error, never a `Permutation`.
    #[test]
    fn an_impure_walk_yields_the_typed_error() {
        let n = if cfg!(miri) { 40 } else { 4000 };
        run_in(rayon_executor(), 2, || {
            let keys: Vec<usize> = (0..n as u64).map(|i| (hash64(i) % 5) as usize).collect();
            let walking = AtomicBool::new(false);
            let impure = |items: Range<usize>| {
                let flip = walking.load(Ordering::Relaxed);
                keys[items]
                    .iter()
                    .map(move |&k| if flip { 4 - k } else { k })
            };
            let mut pass = CountingPass::new(n, 5);
            pass.count(impure);
            pass.scan();
            walking.store(true, Ordering::Relaxed);
            let err = pass.destinations(impure).unwrap_err();
            assert!(matches!(err, CountingError::WalkDisagrees { .. }), "{err}");

            let short = |items: Range<usize>| keys[items].iter().copied().skip(1);
            pass.count(|items| keys[items].iter().copied());
            pass.scan();
            let err = pass.destinations(short).unwrap_err();
            assert!(matches!(err, CountingError::WalkDisagrees { .. }), "{err}");
        });
    }

    /// A walk consumes the scanned offsets: walking again, or walking a
    /// count that was never scanned, is `NotScanned`.
    #[test]
    fn a_walk_needs_a_fresh_scan() {
        let keys = [1usize, 0, 2, 1];
        let buckets = |items: Range<usize>| keys[items].iter().copied();
        let mut pass = CountingPass::new(keys.len(), 3);
        pass.count(buckets);
        assert_eq!(pass.destinations(buckets), Err(CountingError::NotScanned));
        pass.scan();
        assert_eq!(*pass.destinations(buckets).expect("scanned"), [1, 0, 3, 2]);
        assert_eq!(pass.destinations(buckets), Err(CountingError::NotScanned));
        pass.count(buckets);
        assert_eq!(pass.destinations(buckets), Err(CountingError::NotScanned));
    }

    /// The value scatter bounds each cursor: a walk that answers a bucket
    /// the count never saw panics before it writes outside its range.
    #[test]
    #[should_panic(expected = "overran")]
    fn scatter_refuses_a_walk_that_overruns_its_count() {
        let n = if cfg!(miri) { 24 } else { 1000 };
        let values: Vec<u32> = (0..n as u32).collect();
        let mut target = vec![MaybeUninit::uninit(); n];
        let mut pass = CountingPass::new(n, 4);
        pass.count(|items| items.map(|i| i % 2));
        pass.scan();
        pass.scatter(&values, &mut target, |items| items.map(|_| 3));
    }

    /// A walk that stops short of a block's items leaves slots unwritten;
    /// the agreement check must panic before they are handed back as
    /// initialised.
    #[test]
    #[should_panic(expected = "disagrees")]
    fn scatter_refuses_a_walk_that_falls_short_of_its_count() {
        let n = if cfg!(miri) { 24 } else { 1000 };
        let values: Vec<u32> = (0..n as u32).collect();
        let mut target = vec![MaybeUninit::uninit(); n];
        let mut pass = CountingPass::new(n, 4);
        pass.count(|items| items.map(|i| i % 4));
        pass.scan();
        pass.scatter(&values, &mut target, |items| items.map(|i| i % 4).skip(1));
    }
}
