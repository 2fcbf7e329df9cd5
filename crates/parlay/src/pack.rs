//! Pack, filter, and flatten — regular scatter primitives built on counts.
//!
//! `pack` is the PBBS idiom: a parallel count, then a blocked write where
//! each block owns the contiguous destination range that the exclusive
//! scan of the counts gives it. The destination ranges are exactly the
//! `RngInd` pattern, but because they come from the counts in order they
//! tile the output by construction: the output's spare capacity is carved
//! into one window per block with `split_at_mut` (the carving is the
//! scan), and each block fills its own window in safe code. Only the
//! final `set_len` is `unsafe`, and it runs after every window was
//! checked full, because the closure that decides what survives is
//! caller code.

use rayon::prelude::*;

use crate::slice_util::{block_range, carve};
use crate::SEQ_THRESHOLD;

/// Keeps `data[i]` where `flags[i]` is true, preserving order.
///
/// # Panics
/// Panics if `flags.len() != data.len()`.
///
/// # Examples
/// ```
/// let v = [10, 11, 12, 13];
/// let f = [true, false, true, false];
/// assert_eq!(rpb_parlay::pack(&v, &f), vec![10, 12]);
/// ```
pub fn pack<T: Copy + Send + Sync>(data: &[T], flags: &[bool]) -> Vec<T> {
    assert_eq!(data.len(), flags.len(), "pack: flags/data length mismatch");
    filter_map_indexed(data.len(), |i| if flags[i] { Some(data[i]) } else { None })
}

/// Order-preserving parallel filter.
pub fn filter<T, P>(data: &[T], pred: P) -> Vec<T>
where
    T: Copy + Send + Sync,
    P: Fn(&T) -> bool + Send + Sync,
{
    filter_map_indexed(data.len(), |i| {
        if pred(&data[i]) {
            Some(data[i])
        } else {
            None
        }
    })
}

/// Indices `i` in `0..flags.len()` where `flags[i]` is true
/// (ParlayLib `pack_index`).
pub fn pack_index(flags: &[bool]) -> Vec<usize> {
    filter_map_indexed(flags.len(), |i| if flags[i] { Some(i) } else { None })
}

/// The engine behind pack/filter: evaluates `f(i)` for `i in 0..n` twice
/// (count pass + write pass) and packs the `Some` results in index order.
///
/// # Panics
/// Panics if `f` does not answer the same way in both passes: a block whose
/// write pass yields more values than its count pass stops at the first
/// value past its window, and one that yields fewer fails before the output
/// takes its length. Either way no slot is written out of bounds or left
/// uninitialized, so a closure that reads racing state stays sound.
pub fn filter_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> Option<T> + Send + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if n <= SEQ_THRESHOLD {
        return (0..n).filter_map(f).collect();
    }
    let block = SEQ_THRESHOLD;
    let nblocks = n.div_ceil(block);
    // Count survivors per block.
    let counts: Vec<usize> = (0..nblocks)
        .into_par_iter()
        .map(|b| block_range(n, block, b).filter(|&i| f(i).is_some()).count())
        .collect();
    let total = counts.iter().sum();
    // Write pass: block `b` owns the `counts[b]` slots after the earlier
    // blocks' and must fill exactly that window; a value past the window
    // or a slot left over panics before the output takes its length.
    let mut out: Vec<T> = Vec::with_capacity(total);
    carve(out.spare_capacity_mut(), counts.iter().copied())
        .par_iter_mut()
        .enumerate()
        .for_each(|(b, window)| {
            let mut slots = window.iter_mut();
            for v in block_range(n, block, b).filter_map(&f) {
                let Some(slot) = slots.next() else {
                    panic!("filter_map_indexed: f kept more values of block {b} on the write pass than on the count pass");
                };
                slot.write(v);
            }
            assert!(
                slots.next().is_none(),
                "filter_map_indexed: f kept fewer values of block {b} on the write pass than on the count pass"
            );
        });
    // SAFETY: every block filled its window (asserted above; a panic there
    // unwinds past this line), and the windows tile `0..total`.
    unsafe { out.set_len(total) };
    out
}

/// Concatenates nested sequences in parallel (ParlayLib `flatten`).
pub fn flatten<T: Copy + Send + Sync>(seqs: &[Vec<T>]) -> Vec<T> {
    let total = seqs.iter().map(Vec::len).sum();
    let mut out: Vec<T> = Vec::with_capacity(total);
    seqs.par_iter()
        .zip(carve(out.spare_capacity_mut(), seqs.iter().map(Vec::len)).par_iter_mut())
        .for_each(|(seq, window)| {
            for (slot, &v) in window.iter_mut().zip(seq) {
                slot.write(v);
            }
        });
    // SAFETY: the windows tile `0..total`, and sequence `b` filled its
    // window, whose length is its own.
    unsafe { out.set_len(total) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_small() {
        let v = [1, 2, 3, 4, 5];
        let f = [true, false, false, true, true];
        assert_eq!(pack(&v, &f), vec![1, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pack_length_mismatch_panics() {
        pack(&[1, 2, 3], &[true]);
    }

    /// Large enough for the blocked passes, small enough for Miri.
    const LARGE: usize = if cfg!(miri) {
        SEQ_THRESHOLD * 2 + 77
    } else {
        100_000
    };

    #[test]
    fn filter_large_matches_sequential() {
        let v: Vec<u64> = (0..LARGE as u64).map(crate::random::hash64).collect();
        let got = filter(&v, |&x| x % 3 == 0);
        let want: Vec<u64> = v.iter().copied().filter(|&x| x % 3 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn filter_none_and_all() {
        let v: Vec<u32> = (0..LARGE as u32).collect();
        assert!(filter(&v, |_| false).is_empty());
        assert_eq!(filter(&v, |_| true), v);
    }

    #[test]
    fn pack_index_matches() {
        let flags: Vec<bool> = (0..LARGE).map(|i| i % 7 == 0).collect();
        let got = pack_index(&flags);
        let want: Vec<usize> = (0..flags.len()).filter(|&i| flags[i]).collect();
        assert_eq!(got, want);
    }

    /// A closure that answers differently on the write pass than on the
    /// count pass (as one reading racing state may) panics instead of
    /// writing past its block's window or leaving part of it uninitialized.
    #[test]
    fn a_closure_that_changes_between_count_and_write_panics() {
        let n = if cfg!(miri) {
            SEQ_THRESHOLD + 77
        } else {
            4 * SEQ_THRESHOLD
        };
        // Count pass keeps nothing, write pass everything; then the reverse.
        for keep_on_count in [false, true] {
            let calls = std::sync::atomic::AtomicUsize::new(0);
            let packed = std::panic::catch_unwind(|| {
                filter_map_indexed(n, |i| {
                    let call = calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    ((call < n) == keep_on_count).then(|| vec![i])
                })
            });
            assert!(packed.is_err(), "kept on the count pass: {keep_on_count}");
        }
    }

    #[test]
    fn flatten_preserves_order() {
        let seqs = vec![vec![1, 2], vec![], vec![3], vec![4, 5, 6]];
        assert_eq!(flatten(&seqs), vec![1, 2, 3, 4, 5, 6]);
        let seqs = vec![vec![], vec![], vec![7], vec![8, 9], vec![], vec![]];
        assert_eq!(flatten(&seqs), vec![7, 8, 9]);
    }

    #[test]
    fn flatten_large() {
        let seqs: Vec<Vec<u64>> = (0..500)
            .map(|i| (0..(i % 37)).map(|j| i * 1000 + j).collect())
            .collect();
        let want: Vec<u64> = seqs.iter().flatten().copied().collect();
        assert_eq!(flatten(&seqs), want);
    }

    #[test]
    fn flatten_empty() {
        let seqs: Vec<Vec<u8>> = vec![];
        assert!(flatten(&seqs).is_empty());
    }
}
