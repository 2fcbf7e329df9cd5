//! Stable LSD radix sort over 8-bit digits.
//!
//! The blocked counting sort of PBBS applied digit by digit: every pass is
//! one [`CountingPass`] (per-block digit histograms, the column-major scan,
//! the scan-proven `SngInd` scatter — see [`crate::counting`]) between
//! `data` and one scratch buffer, ping-pong.
//!
//! Raw-speed details, both independent of the build:
//!
//! * the count matrices are allocated once per sort and reused by every
//!   digit pass;
//! * a pass whose histogram shows one occupied digit is skipped outright —
//!   its stable scatter would be the identity permutation, so nothing
//!   moves and the ping-pong does not flip. (Frequent in practice: keys
//!   bounded far below `2^key_bits` make every high digit 0.)
//!
//! The `simd` feature swaps one kernel into that shared loop: on a
//! runtime-detected AVX2 CPU [`radix_sort_u64`] counts digits with a
//! vectorized histogram (4 keys per load, 4-way striped count tables to
//! break the store-forwarding dependency chain on skewed digit
//! distributions). The scalar histogram remains the mandatory fallback and
//! the differential oracle (`rpb verify --kernel-impl scalar,simd`).

use std::mem::MaybeUninit;

use crate::counting::CountingPass;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
/// Sequential cutoff: below this a comparison sort is faster and simpler.
const SEQ_CUTOFF: usize = 1 << 14;

/// The 8-bit digit of `key` at bit `shift`.
#[inline]
fn digit(key: u64, shift: u32) -> usize {
    ((key >> shift) & (BUCKETS as u64 - 1)) as usize
}

/// Stable parallel radix sort of `data` by `key(x)`, using the low
/// `key_bits` bits of the key. `key` must be a pure function of its
/// argument: every pass evaluates it once to count and once to scatter.
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
    if data.len() < SEQ_CUTOFF {
        data.sort_by_key(|x| key(x));
        return;
    }
    sort_passes(data, key_bits, &key, |chunk, shift, hist| {
        for x in chunk {
            hist[digit(key(x), shift)] += 1;
        }
    });
}

/// The pass loop every entry point shares. `histogram(chunk, shift, hist)`
/// adds each item's digit at `shift` into the zeroed `hist` — the one
/// kernel the `simd` feature replaces.
fn sort_passes<T, K, H>(data: &mut [T], key_bits: u32, key: K, histogram: H)
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Send + Sync,
    H: Fn(&[T], u32, &mut [usize]) + Sync,
{
    let mut pass = CountingPass::new(data.len(), BUCKETS);
    let mut buf = Box::<[T]>::new_uninit_slice(data.len());
    // SAFETY: `MaybeUninit<T>` has `T`'s layout, and every store made
    // through this view is of initialised `T`s: a scatter's, or the final
    // copy out of a buffer a scatter filled.
    let data = unsafe { &mut *(data as *mut [T] as *mut [MaybeUninit<T>]) };
    // Ping-pong: `src` holds the keys as sorted so far. A skipped pass
    // swaps nothing, so `buf` stays unread until a pass has filled it.
    let (mut src, mut dst) = (data, &mut buf[..]);
    let mut in_buf = false;
    for shift in (0..key_bits.div_ceil(RADIX_BITS).max(1)).map(|pass| pass * RADIX_BITS) {
        // SAFETY: `src` is `data`, initialised by the caller, or was the
        // target of a scatter, which initialised all of its slots.
        let sorted = unsafe { &*(&*src as *const [MaybeUninit<T>] as *const [T]) };
        if pass.count_with(|items, hist| histogram(&sorted[items], shift, hist)) {
            rpb_obs::metrics::RADIX_TRIVIAL_PASSES_ELIDED.add(1);
            continue;
        }
        pass.scan();
        pass.scatter(sorted, dst, |items| {
            sorted[items].iter().map(|x| digit(key(x), shift))
        });
        std::mem::swap(&mut src, &mut dst);
        in_buf = !in_buf;
    }
    if in_buf {
        dst.copy_from_slice(src);
    }
}

/// Sorts `u64` values ascending.
///
/// With the `simd` feature on a runtime-detected AVX2 CPU the digit
/// histograms are vectorized (see the module docs); otherwise — including
/// under `RPB_FORCE_SCALAR=1` or a forced scalar
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
            rpb_obs::metrics::RADIX_SIMD_PASSES.add(u64::from(64 / RADIX_BITS));
            sort_passes(
                data,
                64,
                |&x| x,
                // SAFETY: `simd_enabled()` just confirmed AVX2 support on
                // this CPU (the fn's only safety requirement).
                |chunk, shift, hist| unsafe { avx2::digit_histogram(chunk, shift, hist) },
            );
            return;
        }
    }
    radix_sort_by_key(data, 64, |&x| x);
}

/// Sorts `u32` values ascending (only 4 digit passes).
pub fn radix_sort_u32(data: &mut [u32]) {
    radix_sort_by_key(data, 32, |&x| x as u64);
}

/// The AVX2 kernel of [`radix_sort_u64`]: the per-block digit histogram.
/// Everything else of a pass — the skip, the scan, the scatter (its
/// data-dependent stores do not vectorize) — is the shared loop's.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::BUCKETS;

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
    pub unsafe fn digit_histogram(chunk: &[u64], shift: u32, hist: &mut [usize]) {
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
            stripes[0][super::digit(chunk[i], shift)] += 1;
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

    /// Pass skipping under both dispatches: which digits are live decides
    /// how many passes move data — none (the scratch buffer is never
    /// read), an odd number (the result ends in the scratch buffer and is
    /// copied back) or an even number (it ends in `data`) — and a skipped
    /// pass must not flip the ping-pong. The dead digits hold a non-zero
    /// constant, so the sole bucket is not bucket 0.
    #[test]
    fn skipped_passes_keep_the_ping_pong_straight() {
        use crate::simd::{pin, KernelImpl};
        let n = SEQ_CUTOFF + 123;
        for (live, what) in [
            (0u64, "all keys equal"),
            (0xFF00, "digit 0 constant, digit 1 live"),
            (0xFF << 56, "only the top digit live"),
            (0x00FF_00FF, "two moving passes with a skipped one between"),
            (0x00FF_FFFF, "three moving passes"),
        ] {
            let input: Vec<u64> = (0..n as u64)
                .map(|i| (hash64(i) & live) | (0x0102_0304_0506_0708 & !live))
                .collect();
            let mut want = input.clone();
            want.sort_unstable();
            for kernel in [KernelImpl::Scalar, KernelImpl::Simd] {
                let _pin = pin(kernel);
                let mut v = input.clone();
                radix_sort_u64(&mut v);
                assert_eq!(v, want, "{what} under {kernel:?}");
            }
            // The generic entry point, with a payload that shows stability.
            let mut pairs: Vec<(u64, usize)> = input.iter().copied().zip(0..).collect();
            radix_sort_by_key(&mut pairs, 64, |p| p.0);
            assert!(
                pairs.windows(2).all(|w| w[0] < w[1]),
                "{what}: (key, index) pairs must ascend"
            );
        }
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
