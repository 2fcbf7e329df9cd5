//! `par_ind_chunks_mut` — the paper's interior-unsafe iterator for the
//! **ranged indirect write** pattern (`RngInd`,
//! `out[offsets[i]..offsets[i+1]] = f(i)`, Listing 7(c)).
//!
//! Unlike `SngInd`, the prevailing form of this pattern has chunk order
//! aligned with task iteration order, so non-overlap follows from a *cheap*
//! `O(k)` monotonicity check on the `k+1` boundaries — comfort at
//! effectively zero cost, which is why the paper uses the checked form even
//! in its performance-tuned RPB configuration.

use rayon::iter::plumbing::{bridge, Consumer, Producer, ProducerCallback, UnindexedConsumer};
use rayon::iter::{IndexedParallelIterator, ParallelIterator};

use crate::shared::SharedMutSlice;

/// Validation failure for a chunk-boundary array.
///
/// When an input has several faults, the reported *variant* is
/// deterministic — [`OutOfBounds`](Self::OutOfBounds) takes priority over
/// [`NotMonotone`](Self::NotMonotone) — but which of several same-variant
/// faults is reported may vary between runs (the validation sweep is
/// parallel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndChunksError {
    /// `offsets[index] < offsets[index-1]`.
    NotMonotone { index: usize },
    /// `offsets[index] > len`.
    OutOfBounds {
        index: usize,
        offset: usize,
        len: usize,
    },
}

impl std::fmt::Display for IndChunksError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IndChunksError::NotMonotone { index } => {
                write!(
                    f,
                    "offsets[{index}] decreases; chunk boundaries must be monotone"
                )
            }
            IndChunksError::OutOfBounds { index, offset, len } => {
                write!(f, "offsets[{index}] = {offset} exceeds slice length {len}")
            }
        }
    }
}

impl std::error::Error for IndChunksError {}

/// Parallel iterator over `&mut out[offsets[i]..offsets[i+1]]` for
/// `i in 0..offsets.len()-1`.
pub struct ParIndChunksMut<'a, T: Send> {
    data: SharedMutSlice<'a, T>,
    /// `k+1` boundaries for `k` chunks.
    offsets: &'a [usize],
}

/// Extension trait adding `par_ind_chunks_mut` to slices.
pub trait ParIndChunksMutExt<T: Send> {
    /// Checked construction: verifies `offsets` is monotonically
    /// non-decreasing and bounded by `self.len()` (an `O(k)` parallel
    /// check), then yields the `offsets.len()-1` disjoint chunks.
    ///
    /// Edge cases: an empty or single-element `offsets` yields zero
    /// chunks; an empty slice accepts only all-zero boundaries (yielding
    /// empty chunks) and rejects anything else as out of bounds. ZST
    /// elements chunk like any other `T`.
    ///
    /// # Panics
    /// Panics with the offending boundary index if validation fails.
    fn par_ind_chunks_mut<'a>(&'a mut self, offsets: &'a [usize]) -> ParIndChunksMut<'a, T>;

    /// Non-panicking form of [`ParIndChunksMutExt::par_ind_chunks_mut`].
    fn try_par_ind_chunks_mut<'a>(
        &'a mut self,
        offsets: &'a [usize],
    ) -> Result<ParIndChunksMut<'a, T>, IndChunksError>;

    /// Unchecked construction — the *scary* tier, and the substrate the
    /// [`crate::proof::ValidatedChunks`] proof token builds on.
    ///
    /// # Safety
    /// `offsets` must be monotonically non-decreasing with every boundary
    /// `<= self.len()`.
    unsafe fn par_ind_chunks_mut_unchecked<'a>(
        &'a mut self,
        offsets: &'a [usize],
    ) -> ParIndChunksMut<'a, T>;
}

/// Validates boundaries: monotone and bounded.
///
/// Telemetry (feature `obs`): records the check's wall time, boundary
/// count, and failures — evidence that this check really is the ~free one
/// the paper claims.
pub fn validate_chunk_offsets(offsets: &[usize], len: usize) -> Result<(), IndChunksError> {
    use rpb_obs::metrics as obs;
    rpb_obs::span!(obs::RNGIND_CHECK_NS);
    obs::RNGIND_CHECKS.add(1);
    obs::RNGIND_BOUNDARIES_VALIDATED.add(offsets.len() as u64);
    let result = validate_chunk_offsets_inner(offsets, len);
    if result.is_err() {
        obs::RNGIND_CHECK_FAILURES.add(1);
    }
    result
}

fn validate_chunk_offsets_inner(offsets: &[usize], len: usize) -> Result<(), IndChunksError> {
    if len == 0 {
        // An empty target admits only all-zero boundaries (any number of
        // empty chunks). Resolve this sequentially so the reported index
        // is deterministic.
        return match offsets.iter().position(|&o| o > 0) {
            None => Ok(()),
            Some(index) => Err(IndChunksError::OutOfBounds {
                index,
                offset: offsets[index],
                len,
            }),
        };
    }
    // One decomposition under either compare kernel: the boundaries are
    // cut into `CHUNK`-sized tasks and each task reports its first fault.
    #[cfg(all(feature = "simd", target_arch = "x86_64", target_pointer_width = "64"))]
    if rpb_parlay::simd::simd_enabled() {
        rpb_obs::metrics::RNGIND_SIMD_SWEEPS.add(1);
        return chunked_sweep(offsets, len, |start, end| {
            // SAFETY: dispatch established AVX2 support via `simd_enabled()`,
            // and `chunked_sweep` passes `start < end <= offsets.len()`.
            unsafe { simd_sweep::first_boundary_fault(offsets, start, end, len) }
        });
    }
    chunked_sweep(offsets, len, |start, end| {
        first_boundary_fault(offsets, start, end, len)
    })
}

/// Boundaries per task of the sweep. A task per boundary would make the
/// check's cost its dispatch, not its compares.
const CHUNK: usize = 2048;

/// Runs `first_fault(start, end)` — the first faulting boundary in
/// positions `start..end` as `(index, is_oob)`, see
/// [`first_boundary_fault`] — over `CHUNK`-sized position ranges in
/// parallel and turns what it finds into the verdict.
fn chunked_sweep(
    offsets: &[usize],
    len: usize,
    first_fault: impl Fn(usize, usize) -> Option<(usize, bool)> + Sync,
) -> Result<(), IndChunksError> {
    use rayon::prelude::*;
    let nchunks = offsets.len().div_ceil(CHUNK);
    let fault = (0..nchunks).into_par_iter().find_map_any(|c| {
        let start = c * CHUNK;
        first_fault(start, (start + CHUNK).min(offsets.len()))
    });
    match fault {
        None => Ok(()),
        Some((index, true)) => Err(IndChunksError::OutOfBounds {
            index,
            offset: offsets[index],
            len,
        }),
        Some((index, false)) => Err(prefer_out_of_bounds(offsets, len, index)),
    }
}

/// First faulting boundary in positions `start..end` of `offsets`:
/// `(index, is_oob)`, where `is_oob` tells `offsets[index] > len` from
/// `offsets[index - 1] > offsets[index]`; bounds win at an index with both.
/// Position `start` is compared with its predecessor in the range before
/// (position 0 has none), so adjacent ranges cover every adjacent pair.
fn first_boundary_fault(
    offsets: &[usize],
    start: usize,
    end: usize,
    len: usize,
) -> Option<(usize, bool)> {
    let mut prev = if start == 0 { 0 } else { offsets[start - 1] };
    for (index, &offset) in offsets[start..end].iter().enumerate() {
        if offset > len {
            return Some((start + index, true));
        }
        if prev > offset {
            return Some((start + index, false));
        }
        prev = offset;
    }
    None
}

/// Cold error path: the parallel sweep found `offsets[non_monotone]`
/// below its predecessor; when an out-of-bounds boundary coexists with
/// it, prefer that deterministically (first by index), matching the
/// historical bounds-then-monotone order — error path only, so the rescan
/// is free in the success case.
fn prefer_out_of_bounds(offsets: &[usize], len: usize, non_monotone: usize) -> IndChunksError {
    match offsets.iter().enumerate().find(|&(_, &o)| o > len) {
        Some((index, &offset)) => IndChunksError::OutOfBounds { index, offset, len },
        None => IndChunksError::NotMonotone {
            index: non_monotone,
        },
    }
}

/// The AVX2 compare kernel of the boundary sweep.
#[cfg(all(feature = "simd", target_arch = "x86_64", target_pointer_width = "64"))]
mod simd_sweep {
    use std::arch::x86_64::*;

    /// [`super::first_boundary_fault`], four boundaries per 256-bit step:
    /// one compare checks 4 boundaries for bounds, a second checks 4
    /// adjacent pairs for monotonicity (an unaligned load at `i - 1`
    /// supplies the predecessors), and the earliest faulting lane is
    /// reported with the scalar bounds-before-monotone priority. The
    /// scalar kernel is the differential oracle and finishes the lanes
    /// left over.
    ///
    /// Unsigned 64-bit compares are emulated by flipping the sign bit of
    /// both sides (`a > b (unsigned) ⟺ (a ^ MIN) > (b ^ MIN) (signed)`).
    /// Position 0 has no predecessor and is checked for bounds only.
    ///
    /// # Safety
    /// The CPU must support AVX2 (callers establish this through
    /// [`rpb_parlay::simd::simd_enabled`]). `start < end <= offsets.len()`
    /// must hold.
    #[target_feature(enable = "avx2")]
    pub unsafe fn first_boundary_fault(
        offsets: &[usize],
        start: usize,
        end: usize,
        len: usize,
    ) -> Option<(usize, bool)> {
        debug_assert!(start < end && end <= offsets.len());
        let mut i = start;
        if i == 0 {
            if offsets[0] > len {
                return Some((0, true));
            }
            i = 1;
        }
        let sign = _mm256_set1_epi64x(i64::MIN);
        let bound = _mm256_set1_epi64x((len as u64 ^ (1u64 << 63)) as i64);
        while i + 4 <= end {
            // SAFETY: 1 <= i and i + 4 <= end <= offsets.len(), so the two
            // 32-byte unaligned loads cover in-bounds ranges [i, i+4) and
            // [i-1, i+3) (usize is 64-bit by this module's cfg gate).
            let cur = unsafe { _mm256_loadu_si256(offsets.as_ptr().add(i) as *const __m256i) };
            // SAFETY: as above.
            let prev = unsafe { _mm256_loadu_si256(offsets.as_ptr().add(i - 1) as *const __m256i) };
            let cur_biased = _mm256_xor_si256(cur, sign);
            let oob = _mm256_cmpgt_epi64(cur_biased, bound);
            let mono = _mm256_cmpgt_epi64(_mm256_xor_si256(prev, sign), cur_biased);
            let oob_mask = _mm256_movemask_pd(_mm256_castsi256_pd(oob));
            let mono_mask = _mm256_movemask_pd(_mm256_castsi256_pd(mono));
            let any = oob_mask | mono_mask;
            if any != 0 {
                let lane = any.trailing_zeros();
                return Some((i + lane as usize, (oob_mask >> lane) & 1 == 1));
            }
            i += 4;
        }
        super::first_boundary_fault(offsets, i, end, len)
    }
}

impl<T: Send> ParIndChunksMutExt<T> for [T] {
    fn par_ind_chunks_mut<'a>(&'a mut self, offsets: &'a [usize]) -> ParIndChunksMut<'a, T> {
        match self.try_par_ind_chunks_mut(offsets) {
            Ok(it) => it,
            Err(e) => panic!("par_ind_chunks_mut: {e}"),
        }
    }

    fn try_par_ind_chunks_mut<'a>(
        &'a mut self,
        offsets: &'a [usize],
    ) -> Result<ParIndChunksMut<'a, T>, IndChunksError> {
        validate_chunk_offsets(offsets, self.len())?;
        // SAFETY: boundaries proven monotone and bounded just above.
        Ok(unsafe { self.par_ind_chunks_mut_unchecked(offsets) })
    }

    // SAFETY: contract documented on the trait declaration — boundaries
    // must be monotone and bounded by the slice length.
    unsafe fn par_ind_chunks_mut_unchecked<'a>(
        &'a mut self,
        offsets: &'a [usize],
    ) -> ParIndChunksMut<'a, T> {
        ParIndChunksMut {
            data: SharedMutSlice::new(self),
            offsets,
        }
    }
}

impl<'a, T: Send + 'a> ParallelIterator for ParIndChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn drive_unindexed<C>(self, consumer: C) -> C::Result
    where
        C: UnindexedConsumer<Self::Item>,
    {
        bridge(self, consumer)
    }

    fn opt_len(&self) -> Option<usize> {
        Some(self.offsets.len().saturating_sub(1))
    }
}

impl<'a, T: Send + 'a> IndexedParallelIterator for ParIndChunksMut<'a, T> {
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    fn drive<C: Consumer<Self::Item>>(self, consumer: C) -> C::Result {
        bridge(self, consumer)
    }

    fn with_producer<CB: ProducerCallback<Self::Item>>(self, callback: CB) -> CB::Output {
        callback.callback(ChunkProducer {
            data: self.data,
            offsets: self.offsets,
        })
    }
}

struct ChunkProducer<'a, T: Send> {
    data: SharedMutSlice<'a, T>,
    offsets: &'a [usize],
}

impl<'a, T: Send + 'a> Producer for ChunkProducer<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = ChunkIter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        // A leaf task starts consuming: attribute its chunks to the
        // executing thread (task-imbalance telemetry).
        rpb_obs::metrics::RNGIND_CHUNKS.add(self.offsets.len().saturating_sub(1) as u64);
        ChunkIter {
            data: self.data,
            offsets: self.offsets,
        }
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        // Chunk i spans offsets[i]..offsets[i+1]; splitting k chunks at
        // `index` shares the boundary offsets[index] between both halves.
        // With monotone boundaries the halves' element ranges stay disjoint
        // — this is the "check when Rayon splits the iterator" invariant
        // from the paper, upheld structurally here.
        debug_assert!(index < self.offsets.len());
        let l = &self.offsets[..=index];
        let r = &self.offsets[index..];
        (
            ChunkProducer {
                data: self.data,
                offsets: l,
            },
            ChunkProducer {
                data: self.data,
                offsets: r,
            },
        )
    }
}

/// Sequential iterator yielding each boundary-delimited chunk.
pub struct ChunkIter<'a, T: Send> {
    data: SharedMutSlice<'a, T>,
    offsets: &'a [usize],
}

impl<'a, T: Send> Iterator for ChunkIter<'a, T> {
    type Item = &'a mut [T];

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.offsets.len() < 2 {
            return None;
        }
        let (start, end) = (self.offsets[0], self.offsets[1]);
        self.offsets = &self.offsets[1..];
        // SAFETY: constructor validated monotone, bounded boundaries; each
        // half-open range is produced exactly once across all tasks.
        Some(unsafe { self.data.slice_mut(start, end) })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.offsets.len().saturating_sub(1);
        (n, Some(n))
    }
}

impl<T: Send> ExactSizeIterator for ChunkIter<'_, T> {}

impl<T: Send> DoubleEndedIterator for ChunkIter<'_, T> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        let k = self.offsets.len();
        if k < 2 {
            return None;
        }
        let (start, end) = (self.offsets[k - 2], self.offsets[k - 1]);
        self.offsets = &self.offsets[..k - 1];
        // SAFETY: as in `next`.
        Some(unsafe { self.data.slice_mut(start, end) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn chunks_cover_ranges() {
        let mut v = vec![0u32; 10];
        let offsets = vec![0, 3, 3, 7, 10];
        v.par_ind_chunks_mut(&offsets)
            .enumerate()
            .for_each(|(i, chunk)| chunk.fill(i as u32 + 1));
        assert_eq!(v, vec![1, 1, 1, 3, 3, 3, 3, 4, 4, 4]);
    }

    #[test]
    fn leading_gap_is_untouched() {
        let mut v = vec![9u32; 6];
        let offsets = vec![2, 4, 6];
        v.par_ind_chunks_mut(&offsets).for_each(|c| c.fill(0));
        assert_eq!(v, vec![9, 9, 0, 0, 0, 0]);
    }

    #[test]
    fn large_parallel_fill_matches_sequential() {
        let n = if cfg!(miri) { 512 } else { 200_000 };
        // Boundaries every variable-length step.
        let mut offsets = vec![0usize];
        let mut x = 0usize;
        let mut k = 0usize;
        while x < n {
            x = (x + 1 + (k * 7) % 23).min(n);
            offsets.push(x);
            k += 1;
        }
        let mut v = vec![0u64; n];
        v.par_ind_chunks_mut(&offsets)
            .enumerate()
            .for_each(|(i, chunk)| chunk.fill(i as u64));
        // Sequential replay.
        let mut want = vec![0u64; n];
        for i in 0..offsets.len() - 1 {
            want[offsets[i]..offsets[i + 1]].fill(i as u64);
        }
        assert_eq!(v, want);
    }

    #[test]
    fn non_monotone_is_rejected() {
        let mut v = [0u8; 10];
        let offsets = vec![0, 5, 4, 10];
        let err = v.try_par_ind_chunks_mut(&offsets).err();
        assert_eq!(err, Some(IndChunksError::NotMonotone { index: 2 }));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let mut v = [0u8; 10];
        let offsets = vec![0, 11];
        let err = v.try_par_ind_chunks_mut(&offsets).err();
        assert_eq!(
            err,
            Some(IndChunksError::OutOfBounds {
                index: 1,
                offset: 11,
                len: 10
            })
        );
    }

    #[test]
    fn multi_fault_boundaries_prefer_out_of_bounds() {
        let mut v = [0u8; 10];
        // offsets[1] exceeds the slice AND offsets[2] decreases: the
        // reported variant must deterministically be OutOfBounds.
        let offsets = vec![0, 11, 4, 10];
        for _ in 0..8 {
            let err = v.try_par_ind_chunks_mut(&offsets).err();
            assert_eq!(
                err,
                Some(IndChunksError::OutOfBounds {
                    index: 1,
                    offset: 11,
                    len: 10
                })
            );
        }
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn checked_panics_on_decreasing() {
        let mut v = [0u8; 4];
        let offsets = vec![3, 1];
        v.par_ind_chunks_mut(&offsets).for_each(|c| c.fill(1));
    }

    #[test]
    fn empty_offsets_yield_no_chunks() {
        let mut v = [1u8; 4];
        let offsets: Vec<usize> = vec![];
        assert_eq!(v.par_ind_chunks_mut(&offsets).count(), 0);
        let offsets = vec![2];
        assert_eq!(v.par_ind_chunks_mut(&offsets).count(), 0);
    }

    #[test]
    fn zero_length_chunks_are_fine() {
        let mut v = [0u8; 4];
        let offsets = vec![1, 1, 1, 3];
        let lens: Vec<usize> = v.par_ind_chunks_mut(&offsets).map(|c| c.len()).collect();
        assert_eq!(lens, vec![0, 0, 2]);
    }

    #[test]
    fn empty_target_all_zero_boundaries_ok() {
        // An empty slice supports any number of empty chunks.
        let mut v: Vec<u64> = vec![];
        let offsets = vec![0, 0, 0];
        let lens: Vec<usize> = v.par_ind_chunks_mut(&offsets).map(|c| c.len()).collect();
        assert_eq!(lens, vec![0, 0]);
    }

    #[test]
    fn empty_target_nonzero_boundary_rejected() {
        let mut v: Vec<u64> = vec![];
        let err = v.try_par_ind_chunks_mut(&[0, 1]).err();
        assert_eq!(
            err,
            Some(IndChunksError::OutOfBounds {
                index: 1,
                offset: 1,
                len: 0
            })
        );
        // Deterministic first-by-index reporting on the empty target.
        let err = v.try_par_ind_chunks_mut(&[0, 2, 1]).err();
        assert_eq!(
            err,
            Some(IndChunksError::OutOfBounds {
                index: 1,
                offset: 2,
                len: 0
            })
        );
    }

    #[test]
    fn zst_chunks_fill() {
        let mut v = [(); 10];
        let offsets = vec![0, 4, 4, 10];
        let lens: Vec<usize> = v.par_ind_chunks_mut(&offsets).map(|c| c.len()).collect();
        assert_eq!(lens, vec![4, 0, 6]);
        // Writes through the chunks are fine too.
        v.par_ind_chunks_mut(&offsets).for_each(|chunk| {
            for slot in chunk {
                *slot = ();
            }
        });
    }

    #[test]
    fn composes_with_zip() {
        let mut v = vec![0u16; 9];
        let offsets = vec![0, 2, 5, 9];
        let fills = vec![7u16, 8, 9];
        v.par_ind_chunks_mut(&offsets)
            .zip(fills.par_iter())
            .for_each(|(chunk, &f)| chunk.fill(f));
        assert_eq!(v, vec![7, 7, 8, 8, 8, 9, 9, 9, 9]);
    }

    #[test]
    fn rev_works() {
        // What an indexed `rev()` leans on: `ChunkIter` is double-ended.
        let mut v = vec![0u8; 6];
        let offsets = vec![0, 2, 4, 6];
        let ParIndChunksMut { data, offsets } = v.par_ind_chunks_mut(&offsets);
        (ChunkProducer { data, offsets })
            .into_iter()
            .rev()
            .enumerate()
            .for_each(|(k, chunk)| chunk.fill(k as u8 + 1));
        assert_eq!(v, vec![3, 3, 2, 2, 1, 1]);
    }

    /// Scalar-oracle differential for the vectorized boundary sweep: on
    /// builds/machines without AVX2 both runs trivially coincide.
    fn validate_both_impls(
        offsets: &[usize],
        len: usize,
    ) -> (Result<(), IndChunksError>, Result<(), IndChunksError>) {
        use rpb_parlay::simd::{pin, KernelImpl};
        let run = |k| {
            let _pin = pin(k);
            validate_chunk_offsets(offsets, len)
        };
        (run(KernelImpl::Scalar), run(KernelImpl::Simd))
    }

    #[test]
    fn simd_and_scalar_boundary_sweeps_agree() {
        let k = if cfg!(miri) { 133 } else { 30_001 }; // odd: tail lanes
        let len = 4 * k;
        // Monotone boundaries with plateaus (equal neighbours are legal).
        let offsets: Vec<usize> = (0..k).map(|i| (i / 3) * 12).collect();
        let (scalar, simd) = validate_both_impls(&offsets, len);
        assert_eq!(scalar, Ok(()));
        assert_eq!(simd, Ok(()));

        // Single out-of-bounds boundary at assorted positions (including
        // lane 0, mid-lane, and the scalar tail): exact error equality.
        for at in [0, 1, 2, 3, 4, k / 2, k - 2, k - 1] {
            let mut bad = offsets.clone();
            bad[at] = len + 1 + at;
            let (scalar, simd) = validate_both_impls(&bad, len);
            assert!(
                matches!(
                    scalar,
                    Err(IndChunksError::OutOfBounds { index, offset, .. })
                        if index == at && offset == len + 1 + at
                ),
                "at={at}: {scalar:?}"
            );
            assert_eq!(scalar, simd, "at={at}");
        }

        // Single non-monotone pair: exact error equality (the faulting
        // index is unique, so both paths must report it).
        for at in [1, 2, 3, 4, 5, k / 2, k - 1] {
            // A drop below the predecessor is only representable when the
            // predecessor is nonzero.
            if offsets[at - 1] == 0 {
                continue;
            }
            let mut bad = offsets.clone();
            bad[at] = offsets[at - 1] - 1;
            // Keep the *successor* pair legal so the fault stays unique.
            if at + 1 < bad.len() && bad[at + 1] < bad[at] {
                continue;
            }
            let (scalar, simd) = validate_both_impls(&bad, len);
            assert_eq!(
                scalar,
                Err(IndChunksError::NotMonotone { index: at }),
                "at={at}"
            );
            assert_eq!(scalar, simd, "at={at}");
        }

        // Both fault kinds present: OutOfBounds wins deterministically.
        let mut both = offsets.clone();
        both[5] = len + 9; // out of bounds ...
        both[6] = 0; // ... and (harmlessly redundant) non-monotone after it
        let (scalar, simd) = validate_both_impls(&both, len);
        assert!(
            matches!(
                scalar,
                Err(IndChunksError::OutOfBounds { index: 5, offset, .. }) if offset == len + 9
            ),
            "{scalar:?}"
        );
        assert_eq!(scalar, simd);
    }

    #[test]
    fn simd_and_scalar_boundary_sweeps_agree_on_tiny_sizes() {
        for k in 0..=9usize {
            let offsets: Vec<usize> = (0..k).map(|i| i * 2).collect();
            let (scalar, simd) = validate_both_impls(&offsets, 2 * k + 1);
            assert_eq!(scalar, Ok(()), "k={k}");
            assert_eq!(scalar, simd, "k={k}");
            if k < 2 {
                continue;
            }
            let mut bad = offsets.clone();
            bad.swap(k - 2, k - 1); // strictly decreasing adjacent pair
            let (scalar, simd) = validate_both_impls(&bad, 2 * k + 1);
            assert_eq!(
                scalar,
                Err(IndChunksError::NotMonotone { index: k - 1 }),
                "k={k}"
            );
            assert_eq!(scalar, simd, "k={k}");
        }
    }
}
