//! Stable LSD radix sort over 8-bit digits.
//!
//! This is the classic PBBS blocked counting sort applied digit by digit:
//! per-block histograms (`Block` pattern), a column-major exclusive scan of
//! the histogram matrix, then a scatter where every (block, digit) pair owns
//! a contiguous, provably disjoint destination range. The scatter is the
//! `SngInd` pattern of the paper — destinations are data-dependent — but the
//! scan establishes disjointness, so the interior-unsafe write is sound;
//! it is encapsulated here the same way Rayon encapsulates `collect`.
//!
//! Raw-speed details:
//!
//! * the `counts`/`transposed` histogram matrices are allocated **once** per
//!   sort and reused across digit passes (they are shape-identical for every
//!   pass), instead of being reallocated per pass;
//! * with the `simd` feature and a runtime-detected AVX2 CPU,
//!   [`radix_sort_u64`] takes a specialized fast path whose digit histogram
//!   is vectorized (4 keys per load, 4-way striped count tables to break the
//!   store-forwarding dependency chain on skewed digit distributions) and
//!   which elides passes whose histogram shows a single occupied bucket —
//!   the scatter would be the identity permutation, so a block copy
//!   suffices. The scalar code below remains the mandatory fallback and the
//!   differential oracle (`rpb verify --kernel-impl scalar,simd`).

use rayon::prelude::*;

use crate::scan::scan_inplace_exclusive;
use crate::sendptr::SendPtr;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
/// Sequential cutoff: below this a comparison sort is faster and simpler.
const SEQ_CUTOFF: usize = 1 << 14;

/// Per-sort histogram scratch, reused across digit passes.
///
/// Every pass needs the same `nblocks * BUCKETS` matrix twice (row-major
/// per-block counts and its column-major transpose for the stable scan);
/// allocating the pair once per sort instead of twice per pass removes
/// `2 * (passes - 1)` transient allocations from the hot loop.
struct PassScratch {
    counts: Vec<usize>,
    transposed: Vec<usize>,
}

impl PassScratch {
    fn new() -> Self {
        PassScratch {
            counts: Vec::new(),
            transposed: Vec::new(),
        }
    }

    /// Hands out the two matrices sized for `nblocks`, allocating only on
    /// first use. Contents are unspecified: the histogram pass fully
    /// rewrites `counts` and the transpose fully rewrites `transposed`.
    fn matrices(&mut self, nblocks: usize) -> (&mut [usize], &mut [usize]) {
        let want = nblocks * BUCKETS;
        if self.counts.len() != want {
            self.counts.resize(want, 0);
            self.transposed.resize(want, 0);
        }
        (&mut self.counts[..want], &mut self.transposed[..want])
    }

    /// Bytes of allocation avoided per pass that reuses the matrices.
    fn bytes_per_pass(nblocks: usize) -> u64 {
        2 * (nblocks * BUCKETS * std::mem::size_of::<usize>()) as u64
    }
}

/// Stable parallel radix sort of `data` by `key(x)`, using the low
/// `key_bits` bits of the key.
///
/// `key_bits` lets callers skip passes over known-zero digits (e.g. ranks
/// bounded by `n` in suffix-array construction).
///
/// # Examples
/// ```
/// let mut v = vec![30u64, 1, 20, 3];
/// rpb_parlay::radix_sort_by_key(&mut v, 64, |&x| x);
/// assert_eq!(v, vec![1, 3, 20, 30]);
/// ```
pub fn radix_sort_by_key<T, F>(data: &mut [T], key_bits: u32, key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Send + Sync,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n < SEQ_CUTOFF {
        data.sort_by_key(|x| key(x));
        return;
    }
    let passes = key_bits.div_ceil(RADIX_BITS).max(1);
    let mut buf: Vec<T> = Vec::with_capacity(n);
    // SAFETY: `buf` is used strictly as a scatter target; every pass writes
    // all `n` slots before they are read (counting sort is a permutation).
    #[allow(clippy::uninit_vec)]
    unsafe {
        buf.set_len(n)
    };
    let block = block_size(n);
    let mut scratch = PassScratch::new();
    let mut src_is_data = true;
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        if src_is_data {
            counting_sort_pass(data, &mut buf, shift, &key, block, &mut scratch);
        } else {
            counting_sort_pass(&buf, data, shift, &key, block, &mut scratch);
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&buf);
    }
    if passes > 1 {
        rpb_obs::metrics::RADIX_SCRATCH_BYTES_SAVED
            .add((passes as u64 - 1) * PassScratch::bytes_per_pass(n.div_ceil(block)));
    }
}

/// Block size used by every pass of one sort (the matrices in
/// [`PassScratch`] assume it stays fixed).
fn block_size(n: usize) -> usize {
    let nblocks = rayon::current_num_threads().max(1) * 4;
    n.div_ceil(nblocks).max(1)
}

/// One stable counting-sort pass on digit `shift..shift+8`.
fn counting_sort_pass<T, F>(
    src: &[T],
    dst: &mut [T],
    shift: u32,
    key: &F,
    block: usize,
    scratch: &mut PassScratch,
) where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Send + Sync,
{
    let n = src.len();
    let nblocks = n.div_ceil(block);
    let (counts, transposed) = scratch.matrices(nblocks);
    // Per-block digit histograms, written straight into the reused matrix
    // (each block row is zeroed and fully rebuilt here).
    counts
        .par_chunks_mut(BUCKETS)
        .zip(src.par_chunks(block))
        .for_each(|(hist, chunk)| {
            hist.fill(0);
            for x in chunk {
                hist[((key(x) >> shift) & (BUCKETS as u64 - 1)) as usize] += 1;
            }
        });
    column_scan(counts, transposed, nblocks);
    // Scatter: block b writes each element to its digit's running offset.
    // Destination ranges per (block, digit) are disjoint by the scan.
    let dst_ptr = SendPtr::new(dst.as_mut_ptr());
    src.par_chunks(block).enumerate().for_each(|(b, chunk)| {
        let mut offs: [usize; BUCKETS] = [0; BUCKETS];
        offs.copy_from_slice(&counts[b * BUCKETS..(b + 1) * BUCKETS]);
        for &x in chunk {
            let d = ((key(&x) >> shift) & (BUCKETS as u64 - 1)) as usize;
            // SAFETY: offs[d] walks the half-open range owned exclusively by
            // (block b, digit d); ranges partition 0..n.
            unsafe { dst_ptr.write(offs[d], x) };
            offs[d] += 1;
        }
    });
}

/// Column-major exclusive scan of the `nblocks x BUCKETS` histogram matrix:
/// the offset of (digit d, block b) becomes the count of all smaller digits
/// plus the same digit in earlier blocks — that ordering is what makes the
/// sort stable. `counts` is rewritten in place with the scanned offsets.
fn column_scan(counts: &mut [usize], transposed: &mut [usize], nblocks: usize) {
    for b in 0..nblocks {
        for d in 0..BUCKETS {
            transposed[d * nblocks + b] = counts[b * BUCKETS + d];
        }
    }
    scan_inplace_exclusive(transposed, 0, |a, b| a + b);
    for b in 0..nblocks {
        for d in 0..BUCKETS {
            counts[b * BUCKETS + d] = transposed[d * nblocks + b];
        }
    }
}

/// Sorts `u64` values ascending.
///
/// With the `simd` feature on a runtime-detected AVX2 CPU this dispatches
/// to a vectorized-histogram fast path (see the module docs); otherwise —
/// including under `RPB_FORCE_SCALAR=1` or a forced scalar
/// [`crate::simd::KernelImpl`] — it is exactly the generic scalar sort.
pub fn radix_sort_u64(data: &mut [u64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // The AVX2 histogram counts in u32 per block; a block never exceeds
        // n, so capping n keeps the counters overflow-free.
        if data.len() >= SEQ_CUTOFF
            && data.len() <= u32::MAX as usize
            && crate::simd::simd_enabled()
        {
            // SAFETY: `simd_enabled()` just confirmed AVX2 support on this
            // CPU (the fn's only safety requirement).
            unsafe { avx2::radix_sort_u64_avx2(data) };
            return;
        }
    }
    radix_sort_by_key(data, 64, |&x| x);
}

/// Sorts `u32` values ascending (only 4 digit passes).
pub fn radix_sort_u32(data: &mut [u32]) {
    radix_sort_by_key(data, 32, |&x| x as u64);
}

/// AVX2 fast path for [`radix_sort_u64`]. Same blocked counting sort and
/// identical output (a stable sort of `u64` keys is fully determined by the
/// values); only the per-pass digit histogram and the trivial-pass handling
/// differ from the scalar pass.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::*;

    /// Vectorized radix sort.
    ///
    /// # Safety
    /// The CPU must support AVX2 (callers establish this through
    /// [`crate::simd::simd_enabled`]).
    pub unsafe fn radix_sort_u64_avx2(data: &mut [u64]) {
        let n = data.len();
        debug_assert!(n >= 2);
        let passes = 64 / RADIX_BITS;
        let mut buf: Vec<u64> = Vec::with_capacity(n);
        // SAFETY: `buf` is used strictly as a scatter/copy target; every
        // pass writes all `n` slots before they are read.
        #[allow(clippy::uninit_vec)]
        unsafe {
            buf.set_len(n)
        };
        let block = block_size(n);
        let mut scratch = PassScratch::new();
        let mut src_is_data = true;
        for pass in 0..passes {
            let shift = pass * RADIX_BITS;
            if src_is_data {
                // SAFETY: AVX2 availability is this fn's own contract.
                unsafe { pass_avx2(data, &mut buf, shift, block, &mut scratch) };
            } else {
                // SAFETY: as above.
                unsafe { pass_avx2(&buf, data, shift, block, &mut scratch) };
            }
            src_is_data = !src_is_data;
        }
        if !src_is_data {
            data.copy_from_slice(&buf);
        }
        rpb_obs::metrics::RADIX_SCRATCH_BYTES_SAVED
            .add((passes as u64 - 1) * PassScratch::bytes_per_pass(n.div_ceil(block)));
    }

    /// One counting-sort pass with an AVX2 histogram and trivial-pass
    /// elision.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    unsafe fn pass_avx2(
        src: &[u64],
        dst: &mut [u64],
        shift: u32,
        block: usize,
        scratch: &mut PassScratch,
    ) {
        let n = src.len();
        let nblocks = n.div_ceil(block);
        let (counts, transposed) = scratch.matrices(nblocks);
        counts
            .par_chunks_mut(BUCKETS)
            .zip(src.par_chunks(block))
            .for_each(|(hist, chunk)| {
                // SAFETY: AVX2 availability is the enclosing fn's contract.
                unsafe { digit_histogram(chunk, shift, hist) };
            });
        rpb_obs::metrics::RADIX_SIMD_PASSES.add(1);
        // Trivial pass: if the first occupied digit holds all n elements,
        // the stable scatter is the identity permutation — a block copy
        // preserves the ping-pong invariant at memcpy speed. (Frequent in
        // practice: keys bounded far below 2^64 make every high digit 0.)
        for d in 0..BUCKETS {
            let total: usize = (0..nblocks).map(|b| counts[b * BUCKETS + d]).sum();
            if total == 0 {
                continue;
            }
            if total == n {
                rpb_obs::metrics::RADIX_TRIVIAL_PASSES_ELIDED.add(1);
                dst.par_chunks_mut(block)
                    .zip(src.par_chunks(block))
                    .for_each(|(d, s)| d.copy_from_slice(s));
                return;
            }
            break;
        }
        column_scan(counts, transposed, nblocks);
        // Scatter: identical to the scalar pass (data-dependent stores do
        // not vectorize; the digit recompute is a shift+mask).
        let dst_ptr = SendPtr::new(dst.as_mut_ptr());
        src.par_chunks(block).enumerate().for_each(|(b, chunk)| {
            let mut offs: [usize; BUCKETS] = [0; BUCKETS];
            offs.copy_from_slice(&counts[b * BUCKETS..(b + 1) * BUCKETS]);
            for &x in chunk {
                let d = ((x >> shift) & (BUCKETS as u64 - 1)) as usize;
                // SAFETY: offs[d] walks the half-open range owned
                // exclusively by (block b, digit d); ranges partition 0..n.
                unsafe { dst_ptr.write(offs[d], x) };
                offs[d] += 1;
            }
        });
    }

    /// AVX2 digit histogram: extracts the 8-bit digit at `shift` from 4
    /// keys per 256-bit load and counts into 4 striped tables, merged at
    /// the end. The striping gives the CPU 4 independent increment chains,
    /// sidestepping the store-to-load-forwarding stall that serializes the
    /// scalar loop whenever consecutive keys share a digit (the common case
    /// on skewed inputs).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn digit_histogram(chunk: &[u64], shift: u32, hist: &mut [usize]) {
        use std::arch::x86_64::*;
        debug_assert_eq!(hist.len(), BUCKETS);
        debug_assert!(chunk.len() <= u32::MAX as usize);
        let mut stripes = [[0u32; BUCKETS]; 4];
        let n = chunk.len();
        let mask = _mm256_set1_epi64x(BUCKETS as i64 - 1);
        let count = _mm_cvtsi32_si128(shift as i32);
        let mut lanes = [0u64; 4];
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n keeps the 32-byte unaligned load in
            // bounds.
            let v = unsafe { _mm256_loadu_si256(chunk.as_ptr().add(i) as *const __m256i) };
            let d = _mm256_and_si256(_mm256_srl_epi64(v, count), mask);
            // SAFETY: `lanes` is exactly 32 bytes; unaligned store.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, d) };
            stripes[0][lanes[0] as usize] += 1;
            stripes[1][lanes[1] as usize] += 1;
            stripes[2][lanes[2] as usize] += 1;
            stripes[3][lanes[3] as usize] += 1;
            i += 4;
        }
        // Remainder lanes (n % 4) go through the scalar digit extract.
        while i < n {
            stripes[0][((chunk[i] >> shift) & (BUCKETS as u64 - 1)) as usize] += 1;
            i += 1;
        }
        for (b, slot) in hist.iter_mut().enumerate() {
            *slot = stripes[0][b] as usize
                + stripes[1][b] as usize
                + stripes[2][b] as usize
                + stripes[3][b] as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::hash64;

    #[test]
    fn sorts_small() {
        let mut v = vec![5u64, 3, 9, 1, 1, 0];
        radix_sort_u64(&mut v);
        assert_eq!(v, vec![0, 1, 1, 3, 5, 9]);
    }

    #[test]
    fn sorts_large_random() {
        let mut v: Vec<u64> = (0..200_000).map(hash64).collect();
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_u64(&mut v);
        assert_eq!(v, want);
    }

    #[test]
    fn sorts_u32() {
        let mut v: Vec<u32> = (0..100_000).map(|i| hash64(i) as u32).collect();
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_u32(&mut v);
        assert_eq!(v, want);
    }

    #[test]
    fn is_stable_on_pairs() {
        // Sort (key, original_index) pairs by key only; equal keys must keep
        // index order.
        let n = 100_000usize;
        let mut v: Vec<(u64, usize)> = (0..n).map(|i| (hash64(i as u64) % 64, i)).collect();
        radix_sort_by_key(&mut v, 6, |p| p.0);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn respects_key_bits() {
        // Keys < 2^16: only 2 passes should still fully sort.
        let mut v: Vec<u64> = (0..100_000).map(|i| hash64(i) & 0xFFFF).collect();
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_by_key(&mut v, 16, |&x| x);
        assert_eq!(v, want);
    }

    #[test]
    fn empty_and_singleton() {
        let mut v: Vec<u64> = vec![];
        radix_sort_u64(&mut v);
        let mut v = vec![42u64];
        radix_sort_u64(&mut v);
        assert_eq!(v, vec![42]);
    }

    #[test]
    fn already_sorted_and_reversed() {
        let mut v: Vec<u64> = (0..50_000).collect();
        radix_sort_u64(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let mut v: Vec<u64> = (0..50_000).rev().collect();
        radix_sort_u64(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Scalar-vs-fast-path differential: both dispatch outcomes of
    /// `radix_sort_u64` must produce the identical (fully determined)
    /// sorted array, across sizes covering the remainder lanes (n % 4) and
    /// skewed/bounded key ranges that trigger trivial-pass elision. On
    /// machines or builds without AVX2 the two runs trivially coincide.
    #[test]
    fn simd_and_scalar_paths_sort_identically() {
        use crate::simd::{pin, KernelImpl};
        let sorted_under = |k, input: &[u64]| {
            let _pin = pin(k);
            let mut v = input.to_vec();
            radix_sort_u64(&mut v);
            v
        };
        let base = if cfg!(miri) { 0 } else { SEQ_CUTOFF };
        for (extra, spread) in [
            (0usize, u64::MAX),
            (1, u64::MAX),
            (2, 1 << 15),
            (3, 255),
            (17, 1),
        ] {
            let n = base + 64 + extra;
            let input: Vec<u64> = (0..n as u64).map(|i| hash64(i) % spread.max(1)).collect();
            let scalar = sorted_under(KernelImpl::Scalar, &input);
            let simd = sorted_under(KernelImpl::Simd, &input);
            assert_eq!(scalar, simd, "n={n} spread={spread}");
            assert!(scalar.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
