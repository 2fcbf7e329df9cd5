//! `bw` — Burrows–Wheeler decode (Table 1 row 1).
//!
//! Pipeline: LF mapping by blocked stable counting (`Block` + `Stride`),
//! parallel list ranking over the LF chain (irregular reads), then the
//! output scatter `out[m-1-rank] = bwt[row]` — a `SngInd` write through
//! the rank permutation, expressed per the selected [`ExecMode`].

use rayon::prelude::*;

use rpb_fearless::{
    validate_offsets_cached, ExecMode, ParIndProvedExt, SharedMutSlice, UniquenessCheck,
};
use rpb_parlay::list_rank::{list_order, NIL};
use rpb_text::bwt::{lf_mapping, SENTINEL};

use crate::error::SuiteError;

/// Finds the sentinel row, rejecting inputs that are not the BWT of any
/// text (no sentinel, or more than one).
fn sentinel_pos(bwt: &[u8]) -> Result<usize, SuiteError> {
    match bwt.iter().position(|&c| c == SENTINEL) {
        None => Err(SuiteError::malformed(
            "bw",
            "the sentinel byte is missing from the BWT",
        )),
        Some(p) if bwt[p + 1..].contains(&SENTINEL) => Err(SuiteError::malformed(
            "bw",
            "the sentinel byte occurs more than once in the BWT",
        )),
        Some(p) => Ok(p),
    }
}

/// Parallel BWT decode in the given mode. The input must contain the
/// sentinel byte exactly once; returns the text without sentinel, or a
/// [`SuiteError::MalformedInput`] for byte strings that are not the BWT
/// of any text.
pub fn run_par(bwt: &[u8], mode: ExecMode) -> Result<Vec<u8>, SuiteError> {
    let p0 = sentinel_pos(bwt)?;
    let m = bwt.len();
    if m == 1 {
        return Ok(Vec::new());
    }
    let mut next = lf_mapping(bwt);
    // The LF mapping is a permutation by construction, so some row maps
    // back to the sentinel row; break the cycle there.
    let back = next.par_iter().position_any(|&t| t == p0).ok_or_else(|| {
        SuiteError::malformed("bw", "no row of the LF mapping leads back to the sentinel")
    })?;
    next[back] = NIL;
    // order[k] = the row visited at step k; text index m-1-k.
    let order = list_order(&next, p0);
    if order.len() != m {
        return Err(SuiteError::malformed(
            "bw",
            format!(
                "the LF chain covers {} of {m} rows — not the BWT of any text",
                order.len()
            ),
        ));
    }
    // Scatter: out[m-1-k] = bwt[order[k]]. The offsets m-1-k over k are a
    // permutation (SngInd); we skip k = 0 (the sentinel slot).
    let mut out = vec![0u8; m - 1];
    match mode {
        ExecMode::Unsafe => {
            let view = SharedMutSlice::new(&mut out);
            (1..m).into_par_iter().for_each(|k| {
                // SAFETY: m-1-k unique per k.
                unsafe { view.write(m - 1 - k, bwt[order[k]]) };
            });
        }
        ExecMode::Checked => {
            // Only the checked iterator needs the offsets as an array.
            let offsets: Vec<usize> = (1..m).map(|k| m - 1 - k).collect();
            let proof = validate_offsets_cached(&offsets, out.len(), UniquenessCheck::Adaptive)
                .map_err(|e| {
                    SuiteError::invariant("bw", format!("scatter offsets rejected: {e}"))
                })?;
            out.par_ind_iter_mut_proved(&proof)
                .enumerate()
                .for_each(|(j, slot)| *slot = bwt[order[j + 1]]);
        }
        ExecMode::Sync => {
            use std::sync::atomic::{AtomicU8, Ordering};
            // SAFETY: exclusive borrow as atomics, through a pointer with
            // write permission (`as_mut_ptr`); relaxed stores placate
            // rustc (the paper's Listing 6(e)).
            let atomic: &[AtomicU8] = unsafe {
                std::slice::from_raw_parts(out.as_mut_ptr() as *const AtomicU8, out.len())
            };
            (1..m).into_par_iter().for_each(|k| {
                atomic[m - 1 - k].store(bwt[order[k]], Ordering::Relaxed);
            });
        }
    }
    Ok(out)
}

/// Sequential baseline. Validates the sentinel precondition like
/// [`run_par`]; a single-sentinel input that is nevertheless not a real
/// BWT yields an arbitrary byte string, which [`verify`] rejects.
pub fn run_seq(bwt: &[u8]) -> Result<Vec<u8>, SuiteError> {
    sentinel_pos(bwt)?;
    rpb_text::bwt::bwt_decode_seq(bwt).map_err(|e| SuiteError::malformed("bw", e.to_string()))
}

/// Round-trip invariant: `decoded` is the text whose BWT is `bwt`.
///
/// The BWT of a sentinel-terminated text is unique, so re-encoding the
/// decoded text and comparing byte-for-byte is a complete check — any
/// corruption of the decode output changes the re-encoded transform.
pub fn verify(bwt: &[u8], decoded: &[u8]) -> Result<(), SuiteError> {
    let want_len = bwt.len().saturating_sub(1);
    if decoded.len() != want_len {
        return Err(SuiteError::invariant(
            "bw",
            format!("decoded {} bytes, want {want_len}", decoded.len()),
        ));
    }
    if decoded.contains(&SENTINEL) {
        return Err(SuiteError::invariant(
            "bw",
            "decoded text contains the sentinel byte",
        ));
    }
    if rpb_text::bwt_encode(decoded, ExecMode::Checked) != bwt {
        return Err(SuiteError::invariant(
            "bw",
            "re-encoding the decoded text does not reproduce the input BWT",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn all_modes_round_trip() {
        let text = inputs::wiki(30_000);
        let bwt = rpb_text::bwt_encode(&text, ExecMode::Unsafe);
        for mode in [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync] {
            let got = run_par(&bwt, mode).expect("decode");
            assert_eq!(got, text, "{mode}");
            verify(&bwt, &got).expect("round trip");
        }
        assert_eq!(run_seq(&bwt).expect("decode"), text);
    }

    #[test]
    fn tiny_input() {
        let bwt = rpb_text::bwt_encode(b"abracadabra", ExecMode::Checked);
        assert_eq!(
            run_par(&bwt, ExecMode::Checked).expect("decode"),
            b"abracadabra".to_vec()
        );
    }

    #[test]
    fn empty() {
        assert!(run_par(&[SENTINEL], ExecMode::Checked)
            .expect("decode")
            .is_empty());
    }

    #[test]
    fn missing_sentinel_is_a_typed_error() {
        let err = run_par(b"abc", ExecMode::Checked).unwrap_err();
        assert!(matches!(err, SuiteError::MalformedInput { .. }), "{err}");
        assert_eq!(err.benchmark(), "bw");
        let err = run_seq(b"").unwrap_err();
        assert!(matches!(err, SuiteError::MalformedInput { .. }), "{err}");
    }

    #[test]
    fn duplicate_sentinel_is_a_typed_error() {
        let err = run_par(&[1, SENTINEL, 2, SENTINEL], ExecMode::Unsafe).unwrap_err();
        assert!(matches!(err, SuiteError::MalformedInput { .. }), "{err}");
    }

    #[test]
    fn broken_lf_chain_is_a_typed_error() {
        // One sentinel, but the byte multiset cannot close a single LF
        // cycle over all rows: "aa\0a" decodes a 2-cycle + fixed points.
        let bogus = [b'a', b'a', SENTINEL, b'a'];
        match run_par(&bogus, ExecMode::Checked) {
            Err(SuiteError::MalformedInput { .. }) => {}
            Err(e) => panic!("wrong error kind: {e}"),
            // Some near-BWT strings still decode; the round trip must
            // then reject the output.
            Ok(out) => assert!(verify(&bogus, &out).is_err()),
        }
    }

    #[test]
    fn verify_catches_corruption() {
        let text = inputs::wiki(2_000);
        let bwt = rpb_text::bwt_encode(&text, ExecMode::Checked);
        let mut out = run_par(&bwt, ExecMode::Checked).expect("decode");
        verify(&bwt, &out).expect("clean output passes");
        let mid = out.len() / 2;
        out[mid] = if out[mid] == b'z' { b'y' } else { b'z' };
        assert!(verify(&bwt, &out).is_err());
        out.truncate(10);
        assert!(verify(&bwt, &out).is_err());
    }
}
