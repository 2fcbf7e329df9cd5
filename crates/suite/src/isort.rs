//! `isort` — integer sort (Table 1 row 12).
//!
//! Stable LSD counting sort where each pass's scatter destinations are
//! *materialized* into an offsets array and then written through the
//! selected `SngInd` expression — the most direct exhibit of the paper's
//! Listing 6 trade-off:
//!
//! * [`ExecMode::Unsafe`] — raw-pointer scatter (Listing 6(d)),
//! * [`ExecMode::Checked`] — `par_ind_iter_mut`, paying a uniqueness
//!   check per pass even though counting sort guarantees a permutation
//!   (Listing 6(f)),
//! * [`ExecMode::Sync`] — relaxed atomic stores (Listing 6(e)).

use std::ops::Range;

use rayon::prelude::*;

use rpb_fearless::{
    validate_offsets_cached, ExecMode, ParIndProvedExt, SharedMutSlice, UniquenessCheck,
};
use rpb_parlay::counting::CountingPass;

use crate::error::SuiteError;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;

/// Parallel integer sort of values `< 2^key_bits`. Every pass runs in
/// full — the per-pass `SngInd` write is what this benchmark exhibits, so
/// none is skipped even when its digit is constant.
pub fn run_par(data: &mut [u64], key_bits: u32, mode: ExecMode) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let passes = key_bits.div_ceil(RADIX_BITS).max(1);
    let mut counting = CountingPass::new(n, BUCKETS);
    let mut buf = vec![0u64; n];
    let mut src_is_data = true;
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        if src_is_data {
            let dest = destinations(&mut counting, data, shift);
            scatter(&*data, &mut buf, &dest, mode);
        } else {
            let dest = destinations(&mut counting, &buf, shift);
            scatter(&buf, data, &dest, mode);
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&buf);
    }
}

/// Computes each element's stable counting-sort destination for the digit
/// at `shift` — one [`CountingPass`] count, scan and walk. The result is a
/// permutation of `0..n` by construction.
fn destinations(counting: &mut CountingPass, src: &[u64], shift: u32) -> Vec<usize> {
    let digits = |items: Range<usize>| {
        src[items]
            .iter()
            .map(move |x| ((x >> shift) & (BUCKETS as u64 - 1)) as usize)
    };
    counting.count(digits);
    counting.scan();
    counting.destinations(digits)
}

/// The `SngInd` write `dst[dest[i]] = src[i]` in the selected mode.
fn scatter(src: &[u64], dst: &mut [u64], dest: &[usize], mode: ExecMode) {
    match mode {
        ExecMode::Unsafe => {
            let view = SharedMutSlice::new(dst);
            src.par_iter().zip(dest.par_iter()).for_each(|(&x, &d)| {
                // SAFETY: counting-sort destinations are a permutation.
                unsafe { view.write(d, x) };
            });
        }
        // Adaptive strategy + a validation proof: each pass validates its
        // fresh destination permutation once (in pooled mark bitmaps — no
        // allocation after the first pass) and scatters through the proof.
        ExecMode::Checked => {
            match validate_offsets_cached(dest, dst.len(), UniquenessCheck::Adaptive) {
                Ok(proof) => dst
                    .par_ind_iter_mut_proved(&proof)
                    .zip(src.par_iter())
                    .for_each(|(slot, &x)| *slot = x),
                Err(e) => panic!("isort scatter: {e}"),
            }
        }
        ExecMode::Sync => {
            use std::sync::atomic::Ordering;
            let atomic = rpb_concurrent::atomics::as_atomic_u64(dst);
            src.par_iter().zip(dest.par_iter()).for_each(|(&x, &d)| {
                atomic[d].store(x, Ordering::Relaxed);
            });
        }
    }
}

/// Sequential counting-sort baseline.
pub fn run_seq(data: &mut [u64], key_bits: u32) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let passes = key_bits.div_ceil(RADIX_BITS).max(1);
    let mut buf = vec![0u64; n];
    let mut src_is_data = true;
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        let (src, dst): (&[u64], &mut [u64]) = if src_is_data {
            (&*data, &mut buf)
        } else {
            (&buf, data)
        };
        let digit = |x: u64| ((x >> shift) & (BUCKETS as u64 - 1)) as usize;
        let mut counts = vec![0usize; BUCKETS];
        for &x in src.iter() {
            counts[digit(x)] += 1;
        }
        let mut acc = 0;
        for c in counts.iter_mut() {
            let next = acc + *c;
            *c = acc;
            acc = next;
        }
        for &x in src.iter() {
            dst[counts[digit(x)]] = x;
            counts[digit(x)] += 1;
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&buf);
    }
}

/// Sort invariant: `got` is ascending and a permutation of `original`
/// (sorting both and comparing — no element lost or invented by the
/// scatter passes).
pub fn verify(original: &[u64], got: &[u64]) -> Result<(), SuiteError> {
    if let Some(i) = (1..got.len()).find(|&i| got[i - 1] > got[i]) {
        return Err(SuiteError::invariant(
            "isort",
            format!("output descends at index {i}"),
        ));
    }
    if got.len() != original.len() {
        return Err(SuiteError::invariant(
            "isort",
            format!("{} elements out, {} in", got.len(), original.len()),
        ));
    }
    let mut want = original.to_vec();
    want.sort_unstable();
    if got != want {
        return Err(SuiteError::invariant(
            "isort",
            "output is not a permutation of the input",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn all_modes_sort() {
        let input = inputs::exponential(80_000);
        let bits = 64 - (80_000u64).leading_zeros();
        let mut want = input.clone();
        run_seq(&mut want, bits);
        assert!(want.windows(2).all(|w| w[0] <= w[1]));
        for mode in [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync] {
            let mut got = input.clone();
            run_par(&mut got, bits, mode);
            assert_eq!(got, want, "{mode}");
        }
    }

    #[test]
    fn odd_pass_count_copies_back() {
        // key_bits = 8 → one pass → result ends in buf and must copy back.
        let mut v: Vec<u64> = (0..20_000)
            .map(|i| rpb_parlay::random::hash64(i) % 256)
            .collect();
        let mut want = v.clone();
        want.sort_unstable();
        run_par(&mut v, 8, ExecMode::Checked);
        assert_eq!(v, want);
    }

    #[test]
    fn empty_and_single() {
        let mut v: Vec<u64> = vec![];
        run_par(&mut v, 16, ExecMode::Unsafe);
        let mut v = vec![9u64];
        run_par(&mut v, 16, ExecMode::Checked);
        assert_eq!(v, vec![9]);
    }

    #[test]
    fn verify_catches_disorder_and_element_drift() {
        let input = inputs::exponential(5_000);
        let mut got = input.clone();
        run_par(&mut got, 32, ExecMode::Checked);
        verify(&input, &got).expect("clean sort");
        let mut drifted = got.clone();
        drifted[0] = drifted[0].wrapping_add(1);
        assert!(verify(&input, &drifted).is_err(), "element changed");
        let mut short = got.clone();
        short.pop();
        assert!(verify(&input, &short).is_err(), "element dropped");
        let mut unsorted = got;
        let last = unsorted.len() - 1;
        unsorted.swap(0, last);
        assert!(verify(&input, &unsorted).is_err(), "order broken");
    }
}
