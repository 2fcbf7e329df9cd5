//! `par_ind_iter_mut` — the paper's proposed interior-unsafe iterator for
//! the **single-valued indirect write** pattern (`SngInd`,
//! `out[offsets[i]] = f(i)`, Listing 6(f)).
//!
//! The algorithm using the pattern guarantees that `offsets` contains
//! unique, in-bounds indices, so tasks are independent — but `rustc` cannot
//! know that. The checked constructor validates the guarantee at run time
//! and then hands task *i* a `&mut` to `out[offsets[i]]`, moving the
//! programmer from *scared* to *comfortable*: an implementation bug (a
//! duplicate offset) panics at the call site instead of silently racing.
//!
//! Several check strategies are provided, because the check's cost is the
//! paper's central trade-off (Fig. 5a):
//!
//! * [`UniquenessCheck::MarkTable`] — `O(n)` work over **block-private
//!   bitmaps**: `offsets` is cut into at most one contiguous block per
//!   thread, and each block marks its offsets in a bitmap of its own
//!   (`len/64` plain `u64` words out of one pooled buffer,
//!   [`crate::pool`]) with ordinary loads and stores; a fold over the
//!   bitmaps then catches offsets that two blocks share (why that is
//!   complete: below).
//! * [`UniquenessCheck::Bitset`] — `O(n)` work over one bitmap shared by
//!   all tasks through atomic `fetch_or`: `len/8` bytes whatever the
//!   thread count, at the price of a locked instruction per offset. For
//!   targets whose private bitmaps would outgrow the pool.
//! * [`UniquenessCheck::Sort`] — `O(n log n)` work, no per-element marks:
//!   radix-sort a copy and compare neighbours. Wins when the offsets are
//!   very sparse in `0..len` (marking would touch a huge cold bitmap).
//! * [`UniquenessCheck::Adaptive`] (the default) — picks one of the above
//!   from `offsets.len()`, `len` and the current thread count.
//!
//! The bounds check is **fused into the mark sweep** for the marking
//! strategies: validation is one pass over `offsets`, not two.
//!
//! # Why private bitmaps, and why they miss nothing
//!
//! A table all tasks mark needs a locked read-modify-write per offset and,
//! at one word per slot, falls out of cache between the rounds of the
//! kernels that call this check (Fig. 5a's overhead was mostly that). A
//! bitmap per block is `len/8` bytes — L1/L2-sized for the suite's inputs —
//! and exclusively owned (`par_chunks_mut`), so marking is plain safe Rust
//! on `&mut` words: the paper's own fearless `Block` pattern, with no
//! atomics to reason about in the code that licenses the unchecked scatter.
//! It costs `blocks × len/8` bytes, which is why `Adaptive` hands targets
//! too large for that to the shared `Bitset`, and a sequential fold of
//! `(blocks − 1) × len/64` word operations after the blocks join.
//!
//! Each block zeroes its bitmap and then sets the bit of every offset it
//! holds, so a bit is set in the bitmaps of exactly the blocks its offset
//! occurs in. Two occurrences in one block meet in that block's
//! test-before-set; two occurrences in different blocks leave the same bit
//! set in two bitmaps, which the fold finds as a non-zero AND. Bits a
//! previous holder of the pooled buffer left behind are gone before the
//! first test (a block zeroes every word it owns), and bits at or above
//! `len` in a bitmap's last word are never set, because an out-of-bounds
//! offset is rejected before it is marked.
//!
//! For call sites that reuse one offsets array across rounds, see
//! [`crate::proof::ValidatedOffsets`] — validate once, iterate many times.

use rayon::iter::plumbing::{bridge, Consumer, Producer, ProducerCallback, UnindexedConsumer};
use rayon::iter::{IndexedParallelIterator, ParallelIterator};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool;
use crate::shared::SharedMutSlice;

/// Validation failure for an offsets array.
///
/// When an input has several faults, the reported *variant* is
/// deterministic — [`OutOfBounds`](Self::OutOfBounds) takes priority over
/// [`Duplicate`](Self::Duplicate) for every strategy — but which of
/// several same-variant faults is reported may vary between runs (the
/// validation sweep is parallel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndOffsetsError {
    /// `offsets[index]` appears more than once.
    Duplicate { index: usize, offset: usize },
    /// `offsets[index]` is `>= len`.
    OutOfBounds {
        index: usize,
        offset: usize,
        len: usize,
    },
}

impl std::fmt::Display for IndOffsetsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IndOffsetsError::Duplicate { index, offset } => {
                write!(
                    f,
                    "offsets[{index}] = {offset} duplicates an earlier offset"
                )
            }
            IndOffsetsError::OutOfBounds { index, offset, len } => {
                write!(
                    f,
                    "offsets[{index}] = {offset} out of bounds for slice of length {len}"
                )
            }
        }
    }
}

impl std::error::Error for IndOffsetsError {}

/// Strategy used by the run-time uniqueness check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UniquenessCheck {
    /// Block-private mark bitmaps: `O(n)` time, no atomic instruction,
    /// `blocks × len/8` bytes of pooled words (zero allocation in steady
    /// state).
    MarkTable,
    /// One atomic bitmap shared by all tasks: `O(n)` time, `len/8` bytes
    /// whatever the thread count.
    Bitset,
    /// Sort-based: `O(n log n)` time, allocates a copy of the offsets.
    Sort,
    /// Picks [`MarkTable`](Self::MarkTable) / [`Bitset`](Self::Bitset) /
    /// [`Sort`](Self::Sort) from `offsets.len()`, `len` and the current
    /// thread count. The recommended default.
    #[default]
    Adaptive,
}

/// Offsets sparser than one per this many slots switch `Adaptive` to the
/// sort strategy: marking would touch a cold bitmap far larger than the
/// data being validated.
const ADAPTIVE_SORT_SPARSITY: usize = 64;

/// Fewest offsets worth a block (and a task) of their own in the
/// [`MarkTable`](UniquenessCheck::MarkTable) sweep. Miri gets a small
/// value so that its small inputs still split into several blocks.
const MIN_BLOCK: usize = if cfg!(miri) { 32 } else { 4096 };

/// Blocks the `MarkTable` sweep cuts `n` offsets into: one per thread of
/// the current pool, as long as each gets [`MIN_BLOCK`] offsets.
fn block_count(n: usize) -> usize {
    rayon::current_num_threads()
        .min(n.div_ceil(MIN_BLOCK))
        .max(1)
}

impl UniquenessCheck {
    /// Resolves `Adaptive` to a concrete strategy for an `offsets.len()`
    /// of `n` against a target slice of length `len`.
    pub fn resolve(self, n: usize, len: usize) -> UniquenessCheck {
        match self {
            UniquenessCheck::Adaptive => {
                if n.saturating_mul(ADAPTIVE_SORT_SPARSITY) < len {
                    // Sparse: marking would touch a cold bitmap far larger
                    // than the data being validated.
                    UniquenessCheck::Sort
                } else if pool::serves(block_count(n).saturating_mul(len.div_ceil(64))) {
                    UniquenessCheck::MarkTable
                } else {
                    // Dense, but a bitmap per block would outgrow the pool.
                    UniquenessCheck::Bitset
                }
            }
            concrete => concrete,
        }
    }
}

/// Validates that every offset is in-bounds for `len` and unique.
///
/// Edge cases are fully defined: empty `offsets` validate trivially
/// (`Ok`, regardless of `len`), and non-empty `offsets` against `len == 0`
/// deterministically fail with `OutOfBounds { index: 0, .. }` without
/// touching the pool. Element type plays no role here — ZSTs
/// validate like anything else (see [`ParIndIterMutExt::par_ind_iter_mut`]).
///
/// Telemetry (feature `obs`): records the check's wall time, strategy,
/// offset count, bitmap allocation, and failures — the raw material of
/// Fig. 5(a)'s check-overhead attribution.
pub fn validate_offsets(
    offsets: &[usize],
    len: usize,
    strategy: UniquenessCheck,
) -> Result<(), IndOffsetsError> {
    use rpb_obs::metrics as obs;
    rpb_obs::span!(obs::SNGIND_CHECK_NS);
    obs::SNGIND_OFFSETS_VALIDATED.add(offsets.len() as u64);
    let strategy = strategy.resolve(offsets.len(), len);
    match strategy {
        UniquenessCheck::MarkTable => obs::SNGIND_CHECKS_MARK.add(1),
        UniquenessCheck::Bitset => obs::SNGIND_CHECKS_BITSET.add(1),
        UniquenessCheck::Sort => obs::SNGIND_CHECKS_SORT.add(1),
        UniquenessCheck::Adaptive => unreachable!("resolve() returns a concrete strategy"),
    }
    let result = validate_offsets_inner(offsets, len, strategy);
    if result.is_err() {
        obs::SNGIND_CHECK_FAILURES.add(1);
    }
    result
}

fn validate_offsets_inner(
    offsets: &[usize],
    len: usize,
    strategy: UniquenessCheck,
) -> Result<(), IndOffsetsError> {
    if offsets.is_empty() {
        return Ok(());
    }
    if len == 0 {
        // Every offset is out of bounds for an empty target. Report the
        // first one deterministically and skip strategy dispatch entirely
        // — in particular, don't acquire a zero-word buffer from the pool
        // or hand `offsets.len() / len` to `resolve()`.
        return Err(IndOffsetsError::OutOfBounds {
            index: 0,
            offset: offsets[0],
            len,
        });
    }
    match strategy {
        // Marking strategies fuse the bounds check into the mark sweep:
        // one pass over `offsets` instead of two.
        UniquenessCheck::MarkTable => private_bitmap_check(offsets, len),
        UniquenessCheck::Bitset => {
            let words = len.div_ceil(64);
            let mut guard = pool::acquire_words(words);
            zero(&mut guard.words_mut()[..words]);
            fused_mark_sweep(offsets, len, &guard.words()[..words])
        }
        UniquenessCheck::Sort => {
            // The sort can't detect out-of-bounds, so bounds get their own
            // (cheap) pass here.
            if let Some((index, &offset)) =
                offsets.par_iter().enumerate().find_any(|(_, &o)| o >= len)
            {
                return Err(IndOffsetsError::OutOfBounds { index, offset, len });
            }
            let mut sorted: Vec<(usize, usize)> = offsets
                .par_iter()
                .copied()
                .enumerate()
                .map(|(i, o)| (o, i))
                .collect();
            // All offsets are `< len`, so `ceil(log2(len))` key bits
            // suffice; at least 1 so the `len <= 1` edge still sorts.
            let bits = (usize::BITS - len.leading_zeros()).max(1);
            rpb_parlay::radix_sort_by_key(&mut sorted, bits, |p| p.0 as u64);
            let dup = sorted
                .par_windows(2)
                .find_any(|w| w[0].0 == w[1].0)
                .map(|w| (w[0].1.max(w[1].1), w[0].0));
            if let Some((index, offset)) = dup {
                return Err(IndOffsetsError::Duplicate { index, offset });
            }
            Ok(())
        }
        UniquenessCheck::Adaptive => {
            validate_offsets_inner(offsets, len, strategy.resolve(offsets.len(), len))
        }
    }
}

/// The [`UniquenessCheck::MarkTable`] check (see the module docs for why it
/// is complete): `offsets` is cut into [`block_count`] contiguous blocks
/// and a pooled buffer into as many bitmaps of `len/64` words; block *b*
/// sweeps its offsets through bitmap *b* ([`mark_block`]), and a fold over
/// the bitmaps ([`bitmaps_overlap`]) catches what two blocks share. One
/// block needs neither rayon dispatch nor fold.
///
/// The *verdict* and the error *variant* are deterministic (`OutOfBounds`
/// wins, see [`settle`]); which of several same-variant
/// faults is reported depends on which block reports first.
fn private_bitmap_check(offsets: &[usize], len: usize) -> Result<(), IndOffsetsError> {
    let words = len.div_ceil(64);
    // Blocks of equal size, and exactly as many bitmaps as blocks: a bitmap
    // no block zeroed would feed stale bits to the fold.
    let block = offsets.len().div_ceil(block_count(offsets.len()));
    let blocks = offsets.len().div_ceil(block);
    // Checked: a wrapped product would leave blocks without a bitmap, and
    // their offsets unexamined.
    let total = blocks
        .checked_mul(words)
        .expect("the mark bitmaps exceed the address space");
    let mut guard = pool::acquire_words(total);
    let buf = &mut guard.words_mut()[..total];
    let fault = if blocks == 1 {
        mark_block(buf, offsets, 0, len)
    } else {
        let fault = buf
            .par_chunks_mut(words)
            .zip(offsets.par_chunks(block))
            .enumerate()
            .find_map_any(|(b, (bits, part))| mark_block(bits, part, b * block, len));
        if fault.is_none() && bitmaps_overlap(buf, words) {
            // Cold: every block passed, so all offsets are in bounds and
            // some offset sits in two blocks. One sequential sweep over
            // all of `offsets` names its second occurrence.
            let dup = mark_block(&mut buf[..words], offsets, 0, len);
            Some(dup.expect("two bitmaps share a bit, so some offset repeats"))
        } else {
            fault
        }
    };
    settle(offsets, len, fault)
}

/// Clears a bitmap its holder owns exclusively: plain stores.
fn zero(bits: &mut [AtomicU64]) {
    for w in bits {
        *w.get_mut() = 0;
    }
}

/// One block of [`private_bitmap_check`]: zeroes `bits` (one bit for each
/// of `len` slots) and marks `offsets` in it, stopping at the first offset
/// that is out of bounds or already marked. `base` is the index of
/// `offsets[0]` in the whole array.
fn mark_block(
    bits: &mut [AtomicU64],
    offsets: &[usize],
    base: usize,
    len: usize,
) -> Option<IndOffsetsError> {
    zero(bits);
    for (k, &offset) in offsets.iter().enumerate() {
        let index = base + k;
        if offset >= len {
            return Some(IndOffsetsError::OutOfBounds { index, offset, len });
        }
        let word = bits[offset >> 6].get_mut();
        let mask = 1u64 << (offset & 63);
        if *word & mask != 0 {
            return Some(IndOffsetsError::Duplicate { index, offset });
        }
        *word |= mask;
    }
    None
}

/// Folds the bitmaps of `words` words each that make up `buf` into the
/// first one, and reports whether any bit was set in two of them.
fn bitmaps_overlap(buf: &mut [AtomicU64], words: usize) -> bool {
    let (acc, rest) = buf.split_at_mut(words);
    let mut shared = 0u64;
    for next in rest.chunks_mut(words) {
        for (a, x) in acc.iter_mut().zip(next) {
            let (a, x) = (a.get_mut(), *x.get_mut());
            shared |= *a & x;
            *a |= x;
        }
    }
    shared != 0
}

/// The fused bounds + uniqueness sweep of [`UniquenessCheck::Bitset`] over
/// one zeroed bitmap `bits` that all tasks share.
///
/// The *verdict* and the error *variant* are deterministic: when an input
/// has both an out-of-bounds offset and a duplicate, `OutOfBounds` wins
/// (the historical two-pass contract, restored by a rescan on the cold
/// error path). Which of several same-variant faults is reported remains
/// schedule-dependent.
fn fused_mark_sweep(
    offsets: &[usize],
    len: usize,
    bits: &[AtomicU64],
) -> Result<(), IndOffsetsError> {
    let err = offsets
        .par_iter()
        .enumerate()
        .find_map_any(|(index, &offset)| {
            if offset >= len {
                Some(IndOffsetsError::OutOfBounds { index, offset, len })
            } else if set_was_set(bits, offset) {
                Some(IndOffsetsError::Duplicate { index, offset })
            } else {
                None
            }
        });
    settle(offsets, len, err)
}

/// Sets bit `i` of the shared bitmap, returning `true` iff it was already
/// set.
#[inline]
fn set_was_set(bits: &[AtomicU64], i: usize) -> bool {
    let mask = 1u64 << (i & 63);
    bits[i >> 6].fetch_or(mask, Ordering::Relaxed) & mask != 0
}

/// Turns the first fault a marking sweep met (if any) into the verdict.
/// Cold error path: when the sweep reported a duplicate but an
/// out-of-bounds offset coexists with it, prefer that deterministically
/// (first by index) — error path only, so the extra sequential scan costs
/// nothing in the success case.
fn settle(
    offsets: &[usize],
    len: usize,
    fault: Option<IndOffsetsError>,
) -> Result<(), IndOffsetsError> {
    match fault {
        None => Ok(()),
        Some(dup @ IndOffsetsError::Duplicate { .. }) => {
            match offsets.iter().enumerate().find(|&(_, &o)| o >= len) {
                Some((index, &offset)) => Err(IndOffsetsError::OutOfBounds { index, offset, len }),
                None => Err(dup),
            }
        }
        Some(out_of_bounds) => Err(out_of_bounds),
    }
}

/// A parallel iterator over `&mut out[offsets[i]]` for `i in 0..offsets.len()`.
///
/// Construct through [`ParIndIterMutExt`]. Implements
/// [`IndexedParallelIterator`], so it composes with `enumerate`/`zip`/etc.
pub struct ParIndIterMut<'a, T: Send> {
    data: SharedMutSlice<'a, T>,
    offsets: &'a [usize],
}

/// Extension trait adding the paper's `par_ind_iter_mut` family to slices.
pub trait ParIndIterMutExt<T: Send> {
    /// Checked construction (the paper's *comfortable* Listing 6(f)):
    /// validates uniqueness and bounds of `offsets` at run time.
    ///
    /// Edge cases: empty `offsets` yield an empty iterator (valid against
    /// any slice, including an empty one); non-empty `offsets` against an
    /// empty slice always fail validation (every offset is out of bounds).
    /// Zero-sized element types work like any other `T` — the iterator
    /// hands out disjoint `&mut` references (trivially disjoint for ZSTs)
    /// and the same offset validation applies.
    ///
    /// # Panics
    /// Panics with the offending index if the validation fails — the
    /// run-time-error-near-the-cause behaviour the paper argues for.
    fn par_ind_iter_mut<'a>(&'a mut self, offsets: &'a [usize]) -> ParIndIterMut<'a, T>;

    /// Like [`ParIndIterMutExt::par_ind_iter_mut`] but returns the
    /// validation error instead of panicking, and lets the caller pick the
    /// check strategy.
    fn try_par_ind_iter_mut<'a>(
        &'a mut self,
        offsets: &'a [usize],
        strategy: UniquenessCheck,
    ) -> Result<ParIndIterMut<'a, T>, IndOffsetsError>;

    /// Unchecked construction (the paper's *scary* Listing 6(d)).
    ///
    /// # Safety
    /// `offsets` must contain unique indices, all `< self.len()`.
    unsafe fn par_ind_iter_mut_unchecked<'a>(
        &'a mut self,
        offsets: &'a [usize],
    ) -> ParIndIterMut<'a, T>;
}

impl<T: Send> ParIndIterMutExt<T> for [T] {
    fn par_ind_iter_mut<'a>(&'a mut self, offsets: &'a [usize]) -> ParIndIterMut<'a, T> {
        match self.try_par_ind_iter_mut(offsets, UniquenessCheck::default()) {
            Ok(it) => it,
            Err(e) => panic!("par_ind_iter_mut: {e}"),
        }
    }

    fn try_par_ind_iter_mut<'a>(
        &'a mut self,
        offsets: &'a [usize],
        strategy: UniquenessCheck,
    ) -> Result<ParIndIterMut<'a, T>, IndOffsetsError> {
        validate_offsets(offsets, self.len(), strategy)?;
        // SAFETY: offsets proven unique and in-bounds just above.
        Ok(unsafe { self.par_ind_iter_mut_unchecked(offsets) })
    }

    // SAFETY: contract documented on the trait declaration — offsets must
    // be pairwise distinct and in bounds.
    unsafe fn par_ind_iter_mut_unchecked<'a>(
        &'a mut self,
        offsets: &'a [usize],
    ) -> ParIndIterMut<'a, T> {
        ParIndIterMut {
            data: SharedMutSlice::new(self),
            offsets,
        }
    }
}

impl<'a, T: Send + 'a> ParallelIterator for ParIndIterMut<'a, T> {
    type Item = &'a mut T;

    fn drive_unindexed<C>(self, consumer: C) -> C::Result
    where
        C: UnindexedConsumer<Self::Item>,
    {
        bridge(self, consumer)
    }

    fn opt_len(&self) -> Option<usize> {
        Some(self.offsets.len())
    }
}

impl<'a, T: Send + 'a> IndexedParallelIterator for ParIndIterMut<'a, T> {
    fn len(&self) -> usize {
        self.offsets.len()
    }

    fn drive<C: Consumer<Self::Item>>(self, consumer: C) -> C::Result {
        bridge(self, consumer)
    }

    fn with_producer<CB: ProducerCallback<Self::Item>>(self, callback: CB) -> CB::Output {
        callback.callback(IndProducer {
            data: self.data,
            offsets: self.offsets,
        })
    }
}

struct IndProducer<'a, T: Send> {
    data: SharedMutSlice<'a, T>,
    offsets: &'a [usize],
}

impl<'a, T: Send + 'a> Producer for IndProducer<'a, T> {
    type Item = &'a mut T;
    type IntoIter = IndIter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        // One leaf task starts consuming here: attribute its share of the
        // scatter to the executing thread (task-imbalance telemetry).
        rpb_obs::metrics::SNGIND_ITEMS.add(self.offsets.len() as u64);
        IndIter {
            data: self.data,
            offsets: self.offsets.iter(),
        }
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.offsets.split_at(index);
        (
            IndProducer {
                data: self.data,
                offsets: l,
            },
            IndProducer {
                data: self.data,
                offsets: r,
            },
        )
    }
}

/// Sequential side of the producer: yields `&mut data[off]` for each offset
/// in this task's sub-range. Soundness relies on the constructor-validated
/// (or caller-promised) uniqueness of the *whole* offsets array — splitting
/// preserves disjointness trivially.
pub struct IndIter<'a, T: Send> {
    data: SharedMutSlice<'a, T>,
    offsets: std::slice::Iter<'a, usize>,
}

impl<'a, T: Send> Iterator for IndIter<'a, T> {
    type Item = &'a mut T;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &off = self.offsets.next()?;
        // SAFETY: constructor contract — unique in-bounds offsets; each
        // offset is consumed by exactly one task exactly once.
        Some(unsafe { self.data.get_mut(off) })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.offsets.size_hint()
    }
}

impl<T: Send> ExactSizeIterator for IndIter<'_, T> {}

impl<T: Send> DoubleEndedIterator for IndIter<'_, T> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        let &off = self.offsets.next_back()?;
        // SAFETY: as in `next`.
        Some(unsafe { self.data.get_mut(off) })
    }
}

/// Convenience form of the pattern: `out[offsets[i]] = value(i)`, checked.
///
/// # Panics
/// Panics if `offsets` fails validation.
pub fn ind_write_checked<T, F>(out: &mut [T], offsets: &[usize], value: F)
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    out.par_ind_iter_mut(offsets)
        .enumerate()
        .for_each(|(i, slot)| *slot = value(i));
}

/// Unchecked form of [`ind_write_checked`] — the C++-equivalent *scary* tier.
///
/// # Safety
/// `offsets` must be unique and in-bounds for `out`.
pub unsafe fn ind_write_unchecked<T, F>(out: &mut [T], offsets: &[usize], value: F)
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    // SAFETY: forwarded caller contract.
    unsafe { out.par_ind_iter_mut_unchecked(offsets) }
        .enumerate()
        .for_each(|(i, slot)| *slot = value(i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpb_parlay::seqdata::random_permutation;

    #[test]
    fn checked_scatter_matches_sequential() {
        let n = if cfg!(miri) { 128 } else { 50_000 };
        let offsets = random_permutation(n, 42);
        let input: Vec<u64> = (0..n as u64).collect();
        let mut out = vec![0u64; n];
        out.par_ind_iter_mut(&offsets)
            .enumerate()
            .for_each(|(i, o)| *o = input[i]);
        let mut want = vec![0u64; n];
        for i in 0..n {
            want[offsets[i]] = input[i];
        }
        assert_eq!(out, want);
    }

    #[test]
    fn unchecked_scatter_matches_checked() {
        let n = if cfg!(miri) { 128 } else { 20_000 };
        let offsets = random_permutation(n, 7);
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        ind_write_checked(&mut a, &offsets, |i| i as u32 * 3);
        // SAFETY: offsets is a permutation — unique and in bounds.
        unsafe { ind_write_unchecked(&mut b, &offsets, |i| i as u32 * 3) };
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_offsets_error_mark() {
        let mut out = [0u8; 10];
        let offsets = vec![1, 2, 3, 2];
        let err = out
            .try_par_ind_iter_mut(&offsets, UniquenessCheck::MarkTable)
            .err();
        assert!(
            matches!(err, Some(IndOffsetsError::Duplicate { offset: 2, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn duplicate_offsets_error_sort() {
        let mut out = [0u8; 10];
        let offsets = vec![5, 9, 5];
        let err = out
            .try_par_ind_iter_mut(&offsets, UniquenessCheck::Sort)
            .err();
        assert!(
            matches!(err, Some(IndOffsetsError::Duplicate { offset: 5, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn out_of_bounds_error() {
        let mut out = [0u8; 4];
        let offsets = vec![0, 4];
        let err = out
            .try_par_ind_iter_mut(&offsets, UniquenessCheck::MarkTable)
            .err();
        assert_eq!(
            err,
            Some(IndOffsetsError::OutOfBounds {
                index: 1,
                offset: 4,
                len: 4
            })
        );
    }

    #[test]
    #[should_panic(expected = "duplicates an earlier offset")]
    fn checked_panics_on_duplicates() {
        let mut out = [0u8; 8];
        let offsets = vec![3, 3];
        out.par_ind_iter_mut(&offsets).for_each(|o| *o = 1);
    }

    #[test]
    fn large_duplicate_detected_by_both_strategies() {
        let n = if cfg!(miri) { 256 } else { 100_000 };
        let mut offsets = random_permutation(n, 3);
        offsets[n - 1] = offsets[0]; // plant one duplicate
        let mut out = vec![0u8; n];
        for strat in [UniquenessCheck::MarkTable, UniquenessCheck::Sort] {
            let err = out.try_par_ind_iter_mut(&offsets, strat).err();
            assert!(
                matches!(err, Some(IndOffsetsError::Duplicate { .. })),
                "{strat:?}: {err:?}"
            );
        }
    }

    #[test]
    fn composes_with_zip() {
        let n = if cfg!(miri) { 128 } else { 30_000 };
        let offsets = random_permutation(n, 9);
        let input: Vec<u64> = (0..n as u64).map(|i| i * 7).collect();
        let mut out = vec![0u64; n];
        out.par_ind_iter_mut(&offsets)
            .zip(input.par_iter())
            .for_each(|(slot, &v)| *slot = v);
        for i in 0..n {
            assert_eq!(out[offsets[i]], input[i]);
        }
    }

    #[test]
    fn partial_offsets_touch_only_targets() {
        // Fewer offsets than slots: untouched slots keep their value.
        let mut out = vec![9u8; 10];
        let offsets = vec![2, 4];
        out.par_ind_iter_mut(&offsets).for_each(|o| *o = 0);
        assert_eq!(out, vec![9, 9, 0, 9, 0, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn empty_offsets_ok() {
        let mut out = vec![1u8; 4];
        let offsets: Vec<usize> = vec![];
        out.par_ind_iter_mut(&offsets).for_each(|o| *o = 0);
        assert_eq!(out, vec![1, 1, 1, 1]);
    }

    #[test]
    fn duplicate_offsets_error_bitset() {
        let mut out = [0u8; 10];
        let offsets = vec![7, 0, 7];
        let err = out
            .try_par_ind_iter_mut(&offsets, UniquenessCheck::Bitset)
            .err();
        assert!(
            matches!(err, Some(IndOffsetsError::Duplicate { offset: 7, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn out_of_bounds_error_bitset() {
        let mut out = [0u8; 4];
        let offsets = vec![0, 9];
        let err = out
            .try_par_ind_iter_mut(&offsets, UniquenessCheck::Bitset)
            .err();
        assert_eq!(
            err,
            Some(IndOffsetsError::OutOfBounds {
                index: 1,
                offset: 9,
                len: 4
            })
        );
    }

    #[test]
    fn adaptive_accepts_and_rejects_like_concrete_strategies() {
        let n = if cfg!(miri) { 256 } else { 60_000 };
        let offsets = random_permutation(n, 11);
        let mut out = vec![0u8; n];
        assert!(out
            .try_par_ind_iter_mut(&offsets, UniquenessCheck::Adaptive)
            .is_ok());
        let mut dup = offsets.clone();
        dup[0] = dup[n - 1];
        let err = out
            .try_par_ind_iter_mut(&dup, UniquenessCheck::Adaptive)
            .err();
        assert!(
            matches!(err, Some(IndOffsetsError::Duplicate { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn adaptive_resolves_to_concrete_strategies() {
        // Dense, and a bitmap per block fits the pool: private bitmaps.
        assert_eq!(
            UniquenessCheck::Adaptive.resolve(1000, 1000),
            UniquenessCheck::MarkTable
        );
        // Beyond the pool's cap even as one bitmap: dense offsets -> bitset.
        let huge = 64 * pool::MAX_POOLED_WORDS + 1;
        assert_eq!(
            UniquenessCheck::Adaptive.resolve(huge, huge),
            UniquenessCheck::Bitset
        );
        // Beyond the cap and very sparse -> sort.
        assert_eq!(
            UniquenessCheck::Adaptive.resolve(8, huge),
            UniquenessCheck::Sort
        );
        // Concrete strategies resolve to themselves.
        assert_eq!(
            UniquenessCheck::Sort.resolve(1000, 1000),
            UniquenessCheck::Sort
        );
    }

    #[test]
    fn sort_strategy_tiny_len_regression() {
        // Regression: the radix bit-width used to be computed as
        // `usize::BITS - len.leading_zeros().max(1)`, which passed a
        // garbage bit count for `len <= 1`.
        for len in [0usize, 1, 2] {
            let mut out = vec![0u8; len];
            let offsets: Vec<usize> = (0..len).collect();
            assert!(
                out.try_par_ind_iter_mut(&offsets, UniquenessCheck::Sort)
                    .is_ok(),
                "len={len}"
            );
        }
        // len = 1 with a duplicate offset must still be rejected.
        let mut out = [0u8; 1];
        let dup = [0usize, 0];
        let err = out.try_par_ind_iter_mut(&dup, UniquenessCheck::Sort).err();
        assert!(matches!(
            err,
            Some(IndOffsetsError::Duplicate { offset: 0, .. })
        ));
        // len = 2, out-of-bounds offset.
        let mut out = [0u8; 2];
        let oob = [0usize, 2];
        let err = out.try_par_ind_iter_mut(&oob, UniquenessCheck::Sort).err();
        assert!(matches!(
            err,
            Some(IndOffsetsError::OutOfBounds { offset: 2, .. })
        ));
    }

    #[test]
    fn multi_fault_input_prefers_out_of_bounds() {
        // An input with both a duplicate and an out-of-bounds offset must
        // report OutOfBounds for every strategy, however rayon schedules
        // the fused sweep.
        let n = if cfg!(miri) { 500 } else { 10_000 };
        let rounds = if cfg!(miri) { 2 } else { 8 };
        let mut offsets = random_permutation(n, 5);
        offsets[17] = offsets[n * 2 / 5]; // duplicate
        let oob_at = n * 9 / 10;
        offsets[oob_at] = n + 7; // out of bounds
        let mut out = vec![0u8; n];
        for strat in [
            UniquenessCheck::MarkTable,
            UniquenessCheck::Bitset,
            UniquenessCheck::Sort,
            UniquenessCheck::Adaptive,
        ] {
            for _ in 0..rounds {
                let err = out.try_par_ind_iter_mut(&offsets, strat).err();
                assert!(
                    matches!(
                        err,
                        Some(IndOffsetsError::OutOfBounds { index, offset, .. })
                            if index == oob_at && offset == n + 7
                    ),
                    "{strat:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn rev_iteration_via_double_ended() {
        // rev() requires DoubleEndedIterator on the producer's iterator.
        let mut out = vec![0usize; 6];
        let offsets = vec![5, 3, 1];
        let ParIndIterMut { data, offsets } = out.par_ind_iter_mut(&offsets);
        (IndProducer { data, offsets })
            .into_iter()
            .rev()
            .enumerate()
            .for_each(|(k, slot)| *slot = k + 1);
        // rev: k=0 -> offset 1, k=1 -> offset 3, k=2 -> offset 5
        assert_eq!(out, vec![0, 1, 0, 2, 0, 3]);
    }

    const ALL_STRATEGIES: [UniquenessCheck; 4] = [
        UniquenessCheck::MarkTable,
        UniquenessCheck::Bitset,
        UniquenessCheck::Sort,
        UniquenessCheck::Adaptive,
    ];

    #[test]
    fn empty_out_with_offsets_errors_every_strategy() {
        // A non-empty offset list can never be valid against an empty
        // target; the error is deterministic and the unchecked pointer
        // path must never be reached.
        let mut out: Vec<u64> = vec![];
        for strat in ALL_STRATEGIES {
            let err = out.try_par_ind_iter_mut(&[3, 1], strat).err();
            assert_eq!(
                err,
                Some(IndOffsetsError::OutOfBounds {
                    index: 0,
                    offset: 3,
                    len: 0
                }),
                "{strat:?}"
            );
        }
    }

    #[test]
    fn empty_out_empty_offsets_ok_every_strategy() {
        let mut out: Vec<u64> = vec![];
        for strat in ALL_STRATEGIES {
            let it = out.try_par_ind_iter_mut(&[], strat).unwrap();
            assert_eq!(it.count(), 0, "{strat:?}");
        }
    }

    #[test]
    fn zst_scatter_every_strategy() {
        // Zero-sized elements: `&mut` disjointness is trivial, but the
        // offset validation must behave identically to sized types.
        let mut out = [(); 16];
        let offsets = random_permutation(16, 11);
        let touched = std::sync::atomic::AtomicUsize::new(0);
        for strat in ALL_STRATEGIES {
            touched.store(0, std::sync::atomic::Ordering::Relaxed);
            out.try_par_ind_iter_mut(&offsets, strat)
                .unwrap()
                .for_each(|slot| {
                    *slot = ();
                    touched.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            assert_eq!(
                touched.load(std::sync::atomic::Ordering::Relaxed),
                16,
                "{strat:?}"
            );
        }
    }

    #[test]
    fn zst_duplicate_and_oob_rejected_every_strategy() {
        let mut out = [(); 8];
        for strat in ALL_STRATEGIES {
            let err = out.try_par_ind_iter_mut(&[2, 5, 2], strat).err();
            assert!(
                matches!(err, Some(IndOffsetsError::Duplicate { offset: 2, .. })),
                "{strat:?}: {err:?}"
            );
            let err = out.try_par_ind_iter_mut(&[0, 8], strat).err();
            assert!(
                matches!(err, Some(IndOffsetsError::OutOfBounds { offset: 8, .. })),
                "{strat:?}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_out_zst_offsets_rejected() {
        let mut out: Vec<()> = vec![];
        let err = out
            .try_par_ind_iter_mut(&[0], UniquenessCheck::Adaptive)
            .err();
        assert_eq!(
            err,
            Some(IndOffsetsError::OutOfBounds {
                index: 0,
                offset: 0,
                len: 0
            })
        );
    }

    #[test]
    fn private_bitmaps_catch_duplicates_within_and_across_blocks() {
        use rpb_parlay::exec::{rayon_executor, run_in};
        for threads in [1, 2, 4] {
            run_in(rayon_executor(), threads, || {
                // Around the sizes where the block count changes: one
                // block becomes two, and the pool runs out of threads.
                for n in [MIN_BLOCK, threads * MIN_BLOCK]
                    .into_iter()
                    .flat_map(|edge| [edge - 1, edge, edge + 1])
                {
                    let clean = random_permutation(n, n as u64);
                    let mark = UniquenessCheck::MarkTable;
                    assert_eq!(validate_offsets(&clean, n, mark), Ok(()), "n={n}");
                    let block = n.div_ceil(block_count(n));
                    // (first, second) occurrence: both in block 0; in the
                    // first and the last block; on either side of the first
                    // block boundary (where there is one).
                    let mut plants = vec![(0, block - 1), (0, n - 1)];
                    if block < n {
                        plants.push((block - 1, block));
                    }
                    for (i, j) in plants {
                        let mut dup = clean.clone();
                        dup[j] = dup[i];
                        let planted = dup[i];
                        let err = validate_offsets(&dup, n, mark);
                        assert!(
                            matches!(
                                err,
                                Err(IndOffsetsError::Duplicate { index, offset })
                                    if offset == planted && dup[index] == planted
                            ),
                            "threads={threads} n={n} plant=({i},{j}): {err:?}"
                        );
                    }
                }
            });
        }
    }
}
