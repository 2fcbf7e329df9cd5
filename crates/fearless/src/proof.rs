//! Validation proofs — validate once, iterate many times.
//!
//! The hot call sites of the indirect-write patterns (isort passes,
//! suffix-array ranking rounds, bench repetitions) reuse one offsets array
//! across many rounds, yet re-validate it on every round. A proof token
//! amortizes the check to ~zero:
//!
//! * [`validate_offsets_cached`] runs the `SngInd` uniqueness check once
//!   and returns a [`ValidatedOffsets`] borrowing the offsets array.
//! * [`validate_chunk_offsets_cached`] does the same for the `RngInd`
//!   monotonicity check, returning a [`ValidatedChunks`].
//! * [`ParIndProvedExt`] constructs the indirect iterators from a proof,
//!   skipping validation entirely.
//!
//! Soundness rests on the shared borrow: the proof holds `&'a [usize]`, so
//! safe code cannot mutate the offsets while any proof is alive — the
//! borrow checker extends the run-time check's verdict across rounds. As a
//! second line of defence against *unsafe* mutation (raw pointers, foreign
//! code), debug builds fingerprint the offsets at validation time and
//! re-check the fingerprint whenever an iterator is built from the proof.

use crate::rng_ind::{validate_chunk_offsets, IndChunksError, ParIndChunksMut, ParIndChunksMutExt};
use crate::snd_ind::{
    validate_offsets, IndOffsetsError, ParIndIterMut, ParIndIterMutExt, UniquenessCheck,
};

/// FNV-1a over the offsets contents and the validated target length.
/// Debug-build insurance against unsafe mutation behind a live proof.
fn fingerprint(offsets: &[usize], len: usize) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut step = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    };
    step(len as u64);
    for &o in offsets {
        step(o as u64);
    }
    h
}

/// Proof that an offsets array passed the `SngInd` uniqueness check
/// against a target length.
///
/// Holds a shared borrow of the offsets, so the array cannot change (in
/// safe code) while the proof is alive; the proof also captures the
/// array's pointer and length, plus a content fingerprint in debug builds.
pub struct ValidatedOffsets<'a> {
    offsets: &'a [usize],
    /// Target-slice length the offsets were validated against.
    len: usize,
    #[cfg(debug_assertions)]
    fingerprint: u64,
}

impl<'a> ValidatedOffsets<'a> {
    /// The validated offsets array.
    #[inline]
    pub fn offsets(&self) -> &'a [usize] {
        self.offsets
    }

    /// The target-slice length the offsets were validated against. Any
    /// slice at least this long can be scattered into through this proof.
    #[inline]
    pub fn target_len(&self) -> usize {
        self.len
    }

    /// Pointer identity of the validated array (what the proof is *about*).
    #[inline]
    pub fn as_ptr(&self) -> *const usize {
        self.offsets.as_ptr()
    }

    fn assert_untampered(&self) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            fingerprint(self.offsets, self.len),
            self.fingerprint,
            "offsets mutated after validation: the ValidatedOffsets proof is stale"
        );
    }

    /// Constructs a proof with a caller-supplied fingerprint, skipping
    /// validation. Exists so tests can simulate a stale proof (unsafe
    /// mutation behind the borrow).
    ///
    /// # Safety
    /// The caller asserts that `offsets` contains unique indices, all
    /// `< len` — exactly the contract [`validate_offsets_cached`] proves.
    /// A proof built from unvalidated offsets reaches
    /// [`ParIndIterMutExt::par_ind_iter_mut_unchecked`] through
    /// [`ParIndProvedExt::par_ind_iter_mut_proved`]: duplicates alias
    /// `&mut`, out-of-bounds offsets write past the slice — undefined
    /// behaviour. The debug-only fingerprint re-check is *insurance*, not
    /// a guard: release builds skip it entirely.
    #[doc(hidden)]
    pub unsafe fn from_parts_for_tests(
        offsets: &'a [usize],
        len: usize,
        fingerprint: u64,
    ) -> ValidatedOffsets<'a> {
        let _ = fingerprint;
        ValidatedOffsets {
            offsets,
            len,
            #[cfg(debug_assertions)]
            fingerprint,
        }
    }
}

/// Fingerprint of `(offsets, len)` as captured by proofs in debug builds.
#[doc(hidden)]
pub fn fingerprint_for_tests(offsets: &[usize], len: usize) -> u64 {
    fingerprint(offsets, len)
}

/// Runs the `SngInd` uniqueness check once and returns a reusable proof.
///
/// Equivalent to [`validate_offsets`] (same strategy resolution, same
/// [`IndOffsetsError`] values) but the verdict is carried by the returned
/// token instead of being consumed by a single iterator construction.
pub fn validate_offsets_cached(
    offsets: &[usize],
    len: usize,
    strategy: UniquenessCheck,
) -> Result<ValidatedOffsets<'_>, IndOffsetsError> {
    validate_offsets(offsets, len, strategy)?;
    rpb_obs::metrics::SNGIND_PROOF_BUILDS.add(1);
    Ok(ValidatedOffsets {
        offsets,
        len,
        #[cfg(debug_assertions)]
        fingerprint: fingerprint(offsets, len),
    })
}

/// Proof that a boundary array passed the `RngInd` monotonicity check
/// against a target length.
pub struct ValidatedChunks<'a> {
    offsets: &'a [usize],
    len: usize,
    #[cfg(debug_assertions)]
    fingerprint: u64,
}

impl<'a> ValidatedChunks<'a> {
    /// The validated chunk boundaries.
    #[inline]
    pub fn offsets(&self) -> &'a [usize] {
        self.offsets
    }

    /// The target-slice length the boundaries were validated against.
    #[inline]
    pub fn target_len(&self) -> usize {
        self.len
    }

    /// Pointer identity of the validated array.
    #[inline]
    pub fn as_ptr(&self) -> *const usize {
        self.offsets.as_ptr()
    }

    fn assert_untampered(&self) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            fingerprint(self.offsets, self.len),
            self.fingerprint,
            "boundaries mutated after validation: the ValidatedChunks proof is stale"
        );
    }
}

/// Runs the `RngInd` monotonicity check once and returns a reusable proof.
pub fn validate_chunk_offsets_cached(
    offsets: &[usize],
    len: usize,
) -> Result<ValidatedChunks<'_>, IndChunksError> {
    validate_chunk_offsets(offsets, len)?;
    rpb_obs::metrics::RNGIND_PROOF_BUILDS.add(1);
    Ok(ValidatedChunks {
        offsets,
        len,
        #[cfg(debug_assertions)]
        fingerprint: fingerprint(offsets, len),
    })
}

/// Proof-consuming constructors for the indirect iterators: validation is
/// skipped, its verdict supplied by the token.
pub trait ParIndProvedExt<T: Send> {
    /// [`ParIndIterMutExt::par_ind_iter_mut`] minus the check: the offsets
    /// were validated when `proof` was created.
    ///
    /// # Panics
    /// Panics if `self` is shorter than the length the proof validated
    /// against (the proof promises `offset < proof.target_len()` only).
    fn par_ind_iter_mut_proved<'a>(
        &'a mut self,
        proof: &ValidatedOffsets<'a>,
    ) -> ParIndIterMut<'a, T>;

    /// [`ParIndChunksMutExt::par_ind_chunks_mut`] minus the check.
    ///
    /// # Panics
    /// Panics if `self` is shorter than the length the proof validated
    /// against.
    fn par_ind_chunks_mut_proved<'a>(
        &'a mut self,
        proof: &ValidatedChunks<'a>,
    ) -> ParIndChunksMut<'a, T>;
}

impl<T: Send> ParIndProvedExt<T> for [T] {
    fn par_ind_iter_mut_proved<'a>(
        &'a mut self,
        proof: &ValidatedOffsets<'a>,
    ) -> ParIndIterMut<'a, T> {
        assert!(
            self.len() >= proof.target_len(),
            "par_ind_iter_mut_proved: target of length {} is shorter than the \
             validated length {}",
            self.len(),
            proof.target_len()
        );
        proof.assert_untampered();
        rpb_obs::metrics::SNGIND_PROOF_REUSES.add(1);
        // SAFETY: the proof certifies unique offsets `< target_len() <=
        // self.len()`, and its shared borrow keeps the array unchanged
        // since validation.
        unsafe { self.par_ind_iter_mut_unchecked(proof.offsets()) }
    }

    fn par_ind_chunks_mut_proved<'a>(
        &'a mut self,
        proof: &ValidatedChunks<'a>,
    ) -> ParIndChunksMut<'a, T> {
        assert!(
            self.len() >= proof.target_len(),
            "par_ind_chunks_mut_proved: target of length {} is shorter than the \
             validated length {}",
            self.len(),
            proof.target_len()
        );
        proof.assert_untampered();
        rpb_obs::metrics::SNGIND_PROOF_REUSES.add(1);
        // SAFETY: the proof certifies monotone boundaries `<= target_len()
        // <= self.len()`, unchanged since validation.
        unsafe { self.par_ind_chunks_mut_unchecked(proof.offsets()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;
    use rpb_parlay::seqdata::random_permutation;

    #[test]
    fn proof_scatter_matches_direct_scatter() {
        let n = if cfg!(miri) { 256 } else { 40_000 };
        let offsets = random_permutation(n, 13);
        let proof = validate_offsets_cached(&offsets, n, UniquenessCheck::Adaptive)
            .expect("permutation validates");
        assert_eq!(proof.target_len(), n);
        assert_eq!(proof.as_ptr(), offsets.as_ptr());
        let mut out = vec![0u64; n];
        // Several rounds through one proof — the amortized hot loop shape.
        for round in 1..=3u64 {
            out.par_ind_iter_mut_proved(&proof)
                .enumerate()
                .for_each(|(i, slot)| *slot = round * i as u64);
        }
        for i in 0..n {
            assert_eq!(out[offsets[i]], 3 * i as u64);
        }
    }

    #[test]
    fn invalid_offsets_never_yield_a_proof() {
        let err = validate_offsets_cached(&[1, 1], 4, UniquenessCheck::MarkTable).err();
        assert!(matches!(
            err,
            Some(IndOffsetsError::Duplicate { offset: 1, .. })
        ));
        let err = validate_offsets_cached(&[9], 4, UniquenessCheck::MarkTable).err();
        assert!(matches!(
            err,
            Some(IndOffsetsError::OutOfBounds { offset: 9, .. })
        ));
    }

    #[test]
    fn chunk_proof_round_trips() {
        let offsets = vec![0usize, 3, 3, 8, 10];
        let proof = validate_chunk_offsets_cached(&offsets, 10).expect("monotone");
        let mut v = vec![0u32; 10];
        v.par_ind_chunks_mut_proved(&proof)
            .enumerate()
            .for_each(|(i, c)| c.fill(i as u32 + 1));
        assert_eq!(v, vec![1, 1, 1, 3, 3, 3, 3, 3, 4, 4]);
    }

    #[test]
    fn non_monotone_never_yields_a_chunk_proof() {
        let err = validate_chunk_offsets_cached(&[0, 5, 4], 10).err();
        assert_eq!(err, Some(IndChunksError::NotMonotone { index: 2 }));
    }

    #[test]
    #[should_panic(expected = "shorter than the validated length")]
    fn proof_rejects_shorter_target() {
        let offsets = vec![0usize, 1, 2];
        let proof =
            validate_offsets_cached(&offsets, 3, UniquenessCheck::MarkTable).expect("valid");
        let mut out = [0u8; 2];
        out.par_ind_iter_mut_proved(&proof).for_each(|o| *o = 1);
    }

    #[test]
    fn proof_accepts_longer_target() {
        let offsets = vec![0usize, 1, 2];
        let proof =
            validate_offsets_cached(&offsets, 3, UniquenessCheck::MarkTable).expect("valid");
        let mut out = vec![0u8; 8];
        out.par_ind_iter_mut_proved(&proof).for_each(|o| *o = 1);
        assert_eq!(out, vec![1, 1, 1, 0, 0, 0, 0, 0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn stale_proof_is_caught_in_debug_builds() {
        // Simulate unsafe mutation behind a live proof: fingerprint the
        // pristine array, inject a duplicate, then build a proof claiming
        // the pristine fingerprint (the hidden ctor stands in for the
        // borrow a real tamperer would have bypassed).
        let mut offsets: Vec<usize> = (0..16).collect();
        let pristine = fingerprint_for_tests(&offsets, 16);
        offsets[7] = 3; // duplicate injected "after validation"
                        // SAFETY: deliberately violated — that is the property under test.
                        // The fingerprint re-check must panic before the iterator is built,
                        // so the unchecked scatter is never reached.
        let proof = unsafe { ValidatedOffsets::from_parts_for_tests(&offsets, 16, pristine) };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = [0u8; 16];
            // Construction alone must panic; the iterator is never consumed.
            let _unreached = out.par_ind_iter_mut_proved(&proof);
        }));
        assert!(
            result.is_err(),
            "debug build must reject an iterator built from a stale proof"
        );
    }
}
