//! Burrows–Wheeler transform: encode (input preparation) and the parallel
//! decode pipeline of the `bw` benchmark.
//!
//! Decoding follows PBBS: build the LF mapping with a blocked stable
//! counting pass (per-block histograms + column-major scan — the `Block`
//! and `SngInd` phases of Table 1), then recover the text order by
//! *parallel list ranking* over the LF chain (the `D&C`/irregular-read
//! phase), and finally emit the text with a `Stride` gather.

use std::fmt;
use std::ops::Range;

use rayon::prelude::*;

use rpb_fearless::ExecMode;
use rpb_parlay::counting::CountingPass;
use rpb_parlay::list_rank::{list_order, NIL};

use crate::suffix_array::suffix_array;

/// Sentinel byte appended by [`bwt_encode`]; must not occur in the input.
pub const SENTINEL: u8 = 0;

/// Why a byte string cannot be decoded as a BWT.
///
/// Both decoders ([`bwt_decode`] and [`bwt_decode_seq`]) reject malformed
/// input with this error instead of panicking, so callers feeding
/// untrusted or corrupted transforms get a diagnosable failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BwtError {
    /// The sentinel byte ([`SENTINEL`]) does not occur in the input, so
    /// there is no row to anchor the LF walk.
    MissingSentinel,
    /// Following the LF mapping from the sentinel row revisits a row after
    /// covering only `covered` of `rows` rows — the chain is not a single
    /// cycle, so the input is not the BWT of any text.
    BrokenLfChain { covered: usize, rows: usize },
}

impl fmt::Display for BwtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BwtError::MissingSentinel => {
                write!(f, "the sentinel byte is missing from the BWT")
            }
            BwtError::BrokenLfChain { covered, rows } => write!(
                f,
                "malformed LF chain: covers {covered} of {rows} rows — not the BWT of any text"
            ),
        }
    }
}

impl std::error::Error for BwtError {}

/// Encodes `text` (sentinel-free) into its BWT, including the sentinel.
///
/// # Panics
/// Panics if `text` contains byte 0.
pub fn bwt_encode(text: &[u8], mode: ExecMode) -> Vec<u8> {
    assert!(
        !text.contains(&SENTINEL),
        "bwt_encode input must not contain the 0 sentinel byte"
    );
    let mut s = Vec::with_capacity(text.len() + 1);
    s.extend_from_slice(text);
    s.push(SENTINEL);
    let sa = suffix_array(&s, mode);
    let m = s.len();
    sa.par_iter()
        .map(|&i| {
            let i = i as usize;
            if i == 0 {
                s[m - 1]
            } else {
                s[i - 1]
            }
        })
        .collect()
}

/// Computes the LF mapping of a BWT string: `lf[i]` is the row of the
/// rotation obtained by prepending `bwt[i]`, i.e.
/// `C[bwt[i]] + rank(bwt[i], i)`.
///
/// One blocked stable counting pass ([`CountingPass`]) over the 256 byte
/// values: a row's LF target is its destination under a stable sort by
/// byte.
pub fn lf_mapping(bwt: &[u8]) -> Vec<usize> {
    let bytes = |rows: Range<usize>| bwt[rows].iter().map(|&c| c as usize);
    let mut pass = CountingPass::new(bwt.len(), 256);
    pass.count(bytes);
    pass.scan();
    pass.destinations(bytes)
}

/// Decodes a BWT string (must contain the sentinel exactly once) back to
/// the original text, in parallel, returning the text without sentinel.
///
/// # Errors
/// Returns [`BwtError::MissingSentinel`] when no sentinel byte is present
/// and [`BwtError::BrokenLfChain`] when the LF chain does not form a
/// single cycle over all rows (the input is not the BWT of any text).
pub fn bwt_decode(bwt: &[u8]) -> Result<Vec<u8>, BwtError> {
    let m = bwt.len();
    if m <= 1 {
        if m == 1 && bwt[0] != SENTINEL {
            return Err(BwtError::MissingSentinel);
        }
        return Ok(Vec::new());
    }
    let lf = lf_mapping(bwt);
    let p0 = bwt
        .iter()
        .position(|&c| c == SENTINEL)
        .ok_or(BwtError::MissingSentinel)?;
    // Break the LF cycle at the row that maps back to the start. The LF
    // mapping is a permutation by construction, so a back edge always
    // exists; a defensive error beats a panic if that ever changes.
    let mut next = lf;
    let back = next
        .par_iter()
        .position_any(|&t| t == p0)
        .ok_or(BwtError::BrokenLfChain {
            covered: 0,
            rows: m,
        })?;
    next[back] = NIL;
    let order = list_order(&next, p0);
    if order.len() != m {
        return Err(BwtError::BrokenLfChain {
            covered: order.len(),
            rows: m,
        });
    }
    // T[m-1-k] = bwt[order[k]] — emit forward with a Stride write.
    let mut out: Vec<u8> = (0..m - 1)
        .into_par_iter()
        .map(|k| bwt[order[m - 1 - k]])
        .collect();
    debug_assert_eq!(bwt[order[0]], SENTINEL);
    out.truncate(m - 1);
    Ok(out)
}

/// Sequential decode baseline (direct LF walk).
///
/// # Errors
/// Same contract as [`bwt_decode`]: [`BwtError::MissingSentinel`] without
/// a sentinel byte, [`BwtError::BrokenLfChain`] when the walk revisits a
/// row before covering every row.
pub fn bwt_decode_seq(bwt: &[u8]) -> Result<Vec<u8>, BwtError> {
    let m = bwt.len();
    if m <= 1 {
        if m == 1 && bwt[0] != SENTINEL {
            return Err(BwtError::MissingSentinel);
        }
        return Ok(Vec::new());
    }
    // Sequential LF mapping.
    let mut counts = [0usize; 256];
    for &c in bwt {
        counts[c as usize] += 1;
    }
    let mut c_cum = [0usize; 256];
    let mut acc = 0;
    for c in 0..256 {
        c_cum[c] = acc;
        acc += counts[c];
    }
    let mut occ = [0usize; 256];
    let mut lf = vec![0usize; m];
    for (i, &c) in bwt.iter().enumerate() {
        lf[i] = c_cum[c as usize] + occ[c as usize];
        occ[c as usize] += 1;
    }
    let mut t = bwt
        .iter()
        .position(|&c| c == SENTINEL)
        .ok_or(BwtError::MissingSentinel)?;
    let mut out = vec![0u8; m];
    let mut seen = vec![false; m];
    for k in (0..m).rev() {
        if seen[t] {
            // The walk closed a cycle early: rows m-1-k..m were emitted,
            // the rest are unreachable from the sentinel row.
            return Err(BwtError::BrokenLfChain {
                covered: m - 1 - k,
                rows: m,
            });
        }
        seen[t] = true;
        out[k] = bwt[t];
        t = lf[t];
    }
    out.truncate(m - 1);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_banana() {
        let t = b"banana".to_vec();
        let bwt = bwt_encode(&t, ExecMode::Checked);
        assert_eq!(bwt_decode(&bwt).expect("decode"), t);
        assert_eq!(bwt_decode_seq(&bwt).expect("decode"), t);
    }

    #[test]
    fn known_bwt_of_banana() {
        // With a 0 sentinel, BWT("banana") = "annb\0aa".
        let bwt = bwt_encode(b"banana", ExecMode::Unsafe);
        assert_eq!(bwt, b"annb\0aa".to_vec());
    }

    #[test]
    fn round_trip_wiki_like() {
        let t = crate::gen::wiki_like_text(80_000, 4);
        let bwt = bwt_encode(&t, ExecMode::Unsafe);
        assert_eq!(bwt_decode(&bwt).expect("decode"), t);
    }

    #[test]
    fn parallel_and_seq_decode_agree() {
        let t = crate::gen::wiki_like_text(40_000, 8);
        let bwt = bwt_encode(&t, ExecMode::Unsafe);
        assert_eq!(
            bwt_decode(&bwt).expect("par decode"),
            bwt_decode_seq(&bwt).expect("seq decode")
        );
    }

    #[test]
    fn lf_mapping_is_a_permutation() {
        let t = crate::gen::wiki_like_text(10_000, 2);
        let bwt = bwt_encode(&t, ExecMode::Unsafe);
        let lf = lf_mapping(&bwt);
        let mut seen = vec![false; lf.len()];
        for &x in &lf {
            assert!(!seen[x], "LF not a permutation");
            seen[x] = true;
        }
    }

    #[test]
    fn lf_mapping_of_nothing_is_empty() {
        assert!(lf_mapping(&[]).is_empty());
    }

    #[test]
    fn lf_matches_sequential_definition() {
        let bwt = bwt_encode(b"abracadabra", ExecMode::Checked);
        let lf = lf_mapping(&bwt);
        // Sequential definition.
        let mut counts = [0usize; 256];
        for &c in &bwt {
            counts[c as usize] += 1;
        }
        let mut cum = [0usize; 256];
        let mut acc = 0;
        for c in 0..256 {
            cum[c] = acc;
            acc += counts[c];
        }
        let mut occ = [0usize; 256];
        for (i, &c) in bwt.iter().enumerate() {
            assert_eq!(lf[i], cum[c as usize] + occ[c as usize], "row {i}");
            occ[c as usize] += 1;
        }
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn encode_rejects_sentinel_in_input() {
        bwt_encode(&[1, 2, 0, 3], ExecMode::Checked);
    }

    #[test]
    fn empty_text() {
        let bwt = bwt_encode(b"", ExecMode::Checked);
        assert_eq!(bwt, vec![SENTINEL]);
        assert!(bwt_decode(&bwt).expect("decode").is_empty());
        assert!(bwt_decode_seq(&bwt).expect("decode").is_empty());
    }

    #[test]
    fn missing_sentinel_is_a_typed_error() {
        let mut bwt = bwt_encode(b"banana", ExecMode::Checked);
        bwt.retain(|&c| c != SENTINEL);
        assert_eq!(bwt_decode(&bwt), Err(BwtError::MissingSentinel));
        assert_eq!(bwt_decode_seq(&bwt), Err(BwtError::MissingSentinel));
        assert_eq!(bwt_decode(b"x"), Err(BwtError::MissingSentinel));
        assert_eq!(bwt_decode_seq(b"x"), Err(BwtError::MissingSentinel));
    }

    #[test]
    fn broken_lf_chain_is_a_typed_error() {
        // One sentinel, but the LF chain closes a short cycle: "aa\0a"
        // covers only 3 of its 4 rows starting from the sentinel row.
        let corrupt = [b'a', b'a', SENTINEL, b'a'];
        assert_eq!(
            bwt_decode(&corrupt),
            Err(BwtError::BrokenLfChain {
                covered: 3,
                rows: 4
            })
        );
        assert_eq!(
            bwt_decode_seq(&corrupt),
            Err(BwtError::BrokenLfChain {
                covered: 3,
                rows: 4
            })
        );
    }

    #[test]
    fn corrupted_real_bwt_is_rejected_not_panicked() {
        // Corrupt single bytes of a genuine transform: every outcome must
        // be a typed error or a clean (possibly wrong) decode — no panic.
        let bwt = bwt_encode(&crate::gen::wiki_like_text(2_000, 3), ExecMode::Checked);
        for pos in [0, bwt.len() / 3, bwt.len() - 1] {
            let mut bad = bwt.clone();
            bad[pos] = if bad[pos] == b'q' { b'r' } else { b'q' };
            if !bad.contains(&SENTINEL) {
                assert_eq!(bwt_decode(&bad), Err(BwtError::MissingSentinel));
                assert_eq!(bwt_decode_seq(&bad), Err(BwtError::MissingSentinel));
            } else {
                assert_eq!(bwt_decode(&bad).is_ok(), bwt_decode_seq(&bad).is_ok());
            }
        }
    }

    #[test]
    fn bwt_error_messages_name_the_failure() {
        assert!(BwtError::MissingSentinel.to_string().contains("sentinel"));
        let chain = BwtError::BrokenLfChain {
            covered: 3,
            rows: 7,
        };
        let msg = chain.to_string();
        assert!(msg.contains("3 of 7"), "{msg}");
    }
}
