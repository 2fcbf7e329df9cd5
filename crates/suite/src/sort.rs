//! `sort` — comparison sort (Table 1 row 9).
//!
//! Parallel sample sort. The bucket phase is the `RngInd` pattern: bucket
//! boundaries come from a run-time scan, and each task sorts one
//! contiguous bucket. The mode switch picks the `RngInd` expression:
//!
//! * [`ExecMode::Checked`] — `par_ind_chunks_mut` with its (cheap)
//!   monotonicity check — the configuration the paper recommends and
//!   itself uses for RPB ("we use par_ind_chunks_mut to express RngInd
//!   because its overhead is negligible"),
//! * [`ExecMode::Unsafe`] / [`ExecMode::Sync`] — the `split_at_mut`
//!   carving inside [`rpb_parlay::sample_sort`] (statically safe; there
//!   is no meaningful synchronization variant of bucketing, so `Sync`
//!   aliases the default implementation).

use rayon::prelude::*;

use rpb_fearless::{validate_chunk_offsets_cached, ExecMode, ParIndProvedExt};

use crate::error::SuiteError;

/// Parallel sort of `u64` keys in the given mode: one sample sort, the
/// mode picks its bucket phase.
pub fn run_par(data: &mut [u64], mode: ExecMode) {
    match mode {
        // RngInd bucket sort through the paper's checked iterator, with the
        // boundary check hoisted into a proof token (validated once here,
        // and reusable should the bucket phase ever iterate again).
        ExecMode::Checked => rpb_parlay::sort::sample_sort_with(
            data,
            |a, b| a.cmp(b),
            |grouped, bounds, _| {
                let proof = match validate_chunk_offsets_cached(bounds, grouped.len()) {
                    Ok(proof) => proof,
                    Err(e) => panic!("sort buckets: {e}"),
                };
                grouped
                    .par_ind_chunks_mut_proved(&proof)
                    .for_each(|bucket| bucket.sort_unstable());
            },
        ),
        ExecMode::Unsafe | ExecMode::Sync => rpb_parlay::sample_sort(data, |a, b| a.cmp(b)),
    }
}

/// Sequential baseline (`std` unstable sort, the usual C++ `std::sort`
/// stand-in).
pub fn run_seq(data: &mut [u64]) {
    data.sort_unstable();
}

/// Checks sortedness and that the result is a permutation of `original`.
pub fn verify(original: &[u64], sorted: &[u64]) -> Result<(), SuiteError> {
    if sorted.windows(2).any(|w| w[0] > w[1]) {
        return Err(SuiteError::invariant("sort", "not sorted"));
    }
    let mut a = original.to_vec();
    a.sort_unstable();
    if a != sorted {
        return Err(SuiteError::invariant(
            "sort",
            "not a permutation of the input",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn all_modes_sort_exponential_input() {
        let input = inputs::exponential(100_000);
        let mut want = input.clone();
        run_seq(&mut want);
        for mode in [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync] {
            let mut got = input.clone();
            run_par(&mut got, mode);
            assert_eq!(got, want, "{mode}");
            verify(&input, &got).expect("valid");
        }
    }

    #[test]
    fn checked_and_unsafe_bucket_phases_agree() {
        // One grouping phase, two bucket phases: same output, also when
        // every key lands in one bucket or the input is already sorted.
        let n = 1 << 15;
        let inputs = [
            ("exponential", inputs::exponential(n)),
            ("all equal", vec![7u64; n]),
            ("sorted", (0..n as u64).collect()),
        ];
        for (what, input) in inputs {
            let mut checked = input.clone();
            run_par(&mut checked, ExecMode::Checked);
            let mut unchecked = input.clone();
            run_par(&mut unchecked, ExecMode::Unsafe);
            assert_eq!(checked, unchecked, "{what}");
            verify(&input, &checked).expect(what);
        }
    }

    #[test]
    fn checked_handles_skew() {
        // All-equal keys put everything in one bucket.
        let mut v = vec![42u64; 50_000];
        run_par(&mut v, ExecMode::Checked);
        assert!(v.iter().all(|&x| x == 42));
    }

    #[test]
    fn small_input() {
        let mut v = vec![3u64, 1, 2];
        run_par(&mut v, ExecMode::Checked);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
