//! Property-based tests for the text substrate.

use rpb_fearless::ExecMode;
use rpb_parlay::prop::{check, Gen};
use rpb_text::*;

const CASES: usize = 40;

/// Sentinel-free text: bytes in `1..=255`, `len` of them.
fn sentinel_free(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<u8> {
    g.vec(len, |g| g.in_range(1..256) as u8)
}

/// Parallel SA equals the naive sorted-suffix order on arbitrary
/// bytes, for all three modes.
#[test]
fn sa_matches_naive() {
    check("sa_matches_naive", CASES, |g| {
        let v = g.vec(0..300, |g| g.in_range(0..256) as u8);
        let want = suffix_array_naive(&v);
        for mode in [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync] {
            assert_eq!(suffix_array(&v, mode), want);
        }
        assert_eq!(suffix_array_seq(&v), want);
    });
}

/// The LCP array truly is the longest common prefix of SA neighbours.
#[test]
fn lcp_is_exact() {
    check("lcp_is_exact", CASES, |g| {
        let v = g.vec(0..400, |g| g.in_range(0..4) as u8);
        let sa = suffix_array(&v, ExecMode::Checked);
        let lcp = lcp_from_sa(&v, &sa);
        for j in 1..sa.len() {
            let (a, b) = (sa[j - 1] as usize, sa[j] as usize);
            let l = lcp[j] as usize;
            assert_eq!(&v[a..a + l], &v[b..b + l], "match shorter than claimed");
            // Maximality: the next byte differs or a suffix ends.
            let (an, bn) = (a + l, b + l);
            assert!(
                an >= v.len() || bn >= v.len() || v[an] != v[bn],
                "claimed LCP {l} not maximal at rank {j}"
            );
        }
    });
}

/// BWT encode/decode round-trips arbitrary sentinel-free bytes.
#[test]
fn bwt_round_trip() {
    check("bwt_round_trip", CASES, |g| {
        let v = sentinel_free(g, 0..400);
        let bwt = bwt_encode(&v, ExecMode::Checked);
        assert_eq!(bwt.len(), v.len() + 1);
        assert_eq!(bwt_decode(&bwt), Ok(v.clone()));
        assert_eq!(bwt::bwt_decode_seq(&bwt), Ok(v));
    });
}

/// The BWT is a permutation of text + sentinel.
#[test]
fn bwt_is_permutation() {
    check("bwt_is_permutation", CASES, |g| {
        let v = sentinel_free(g, 0..400);
        let bwt = bwt_encode(&v, ExecMode::Unsafe);
        let mut a = bwt.clone();
        let mut b = v.clone();
        b.push(0);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    });
}

/// LF mapping is always a permutation.
#[test]
fn lf_is_permutation() {
    check("lf_is_permutation", CASES, |g| {
        let v = sentinel_free(g, 1..400);
        let bwt = bwt_encode(&v, ExecMode::Unsafe);
        let lf = lf_mapping(&bwt);
        let mut seen = vec![false; lf.len()];
        for &x in &lf {
            assert!(!seen[x]);
            seen[x] = true;
        }
    });
}
