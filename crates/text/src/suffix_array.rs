//! Parallel suffix array construction by prefix doubling.
//!
//! Each round sorts the suffixes by their first `2k` characters using the
//! pair `(rank[i], rank[i+k])` as a radix key, then rebuilds ranks with an
//! adjacent-compare + scan. The rebuild scatters `rank[sa[j]] = r_j`
//! through the suffix-array permutation — a textbook `SngInd` write
//! (`sa` is a permutation, so offsets are unique by construction), and the
//! spot where the paper measures the cost of the uniqueness check
//! (Fig. 5a, up to 2.8× on `lrs`/`sa`).
//!
//! Complexity: `O(n log n)` per the doubling rounds with linear-work radix
//! sorts. PBBS also ships a doubling-family SA; SA-IS-style linear
//! construction is out of scope (see DESIGN.md non-goals).

use rayon::prelude::*;

use rpb_fearless::{validate_offsets_cached, ExecMode, ParIndProvedExt, UniquenessCheck};
use rpb_parlay::radix_sort_by_key;
use rpb_parlay::scan::scan_inplace_exclusive;

/// Builds the suffix array of `text` (positions of suffixes in
/// lexicographic order) with the given safety mode for the `SngInd`
/// rank-scatter phases.
///
/// * `ExecMode::Unsafe` — raw scatter (C++-equivalent),
/// * `ExecMode::Checked` — `par_ind_iter_mut` with its uniqueness check,
/// * `ExecMode::Sync` — relaxed atomic stores.
pub fn suffix_array(text: &[u8], mode: ExecMode) -> Vec<u32> {
    let n = text.len();
    assert!(n < u32::MAX as usize, "text too large for u32 suffix array");
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }
    // Initial ranks from the first byte; ranks in 1..=256 (0 = past-end).
    let mut rank: Vec<u32> = text.par_iter().map(|&c| c as u32 + 1).collect();
    // sa as (key, position) pairs, re-sorted each round.
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut pairs: Vec<(u64, u32)> = vec![(0, 0); n];
    // Checked-mode scratch: the usize copy of `sa` that par_ind_iter_mut
    // validates, hoisted so the doubling rounds reuse one allocation.
    let mut offsets_buf: Vec<usize> = Vec::new();
    let mut k = 1usize;
    loop {
        // Compose 2k-prefix keys: high 32 bits rank[i], low rank[i+k].
        pairs.clear();
        pairs.par_extend((0..n).into_par_iter().map(|i| {
            let r1 = rank[i] as u64;
            let r2 = if i + k < n { rank[i + k] as u64 } else { 0 };
            ((r1 << 32) | r2, i as u32)
        }));
        // Sort by key. Ranks are <= n+256, so 2*ceil(log2(n+257)) bits.
        let half_bits = 64 - (n as u64 + 257).leading_zeros();
        radix_sort_by_key(&mut pairs, 32 + half_bits, |p| p.0);
        // New ranks: 1 + inclusive prefix count of key changes up to j.
        let flag = |j: usize| -> usize { usize::from(j > 0 && pairs[j].0 != pairs[j - 1].0) };
        let mut new_rank_by_pos: Vec<usize> = (0..n).into_par_iter().map(flag).collect();
        let changes = scan_inplace_exclusive(&mut new_rank_by_pos, 0, |a, b| a + b);
        let distinct = changes + 1;
        new_rank_by_pos
            .par_iter_mut()
            .enumerate()
            .for_each(|(j, r)| *r += flag(j) + 1);
        // Scatter: rank[sa[j]] = new_rank_by_pos[j]  — SngInd via the
        // suffix permutation.
        sa.clear();
        sa.par_extend(pairs.par_iter().map(|&(_, i)| i));
        scatter_ranks(&mut rank, &sa, &new_rank_by_pos, &mut offsets_buf, mode);
        if distinct as usize == n || k >= n {
            break;
        }
        k *= 2;
    }
    sa
}

/// The `SngInd` write `rank[sa[j]] = new_ranks[j]` in the selected mode.
/// `offsets_buf` is caller-owned scratch reused across doubling rounds
/// (only touched in `Checked` mode).
fn scatter_ranks(
    rank: &mut [u32],
    sa: &[u32],
    new_ranks: &[usize],
    offsets_buf: &mut Vec<usize>,
    mode: ExecMode,
) {
    match mode {
        ExecMode::Unsafe => {
            let view = rpb_fearless::SharedMutSlice::new(rank);
            sa.par_iter()
                .zip(new_ranks.par_iter())
                .for_each(|(&pos, &r)| {
                    // SAFETY: `sa` is a permutation of 0..n — unique offsets.
                    unsafe { view.write(pos as usize, r as u32) };
                });
        }
        ExecMode::Checked => {
            // par_ind_iter_mut wants usize offsets; refill the hoisted
            // buffer (no allocation after the first round), validate once
            // with the adaptive strategy (in pooled mark bitmaps), and
            // scatter through the proof.
            offsets_buf.clear();
            offsets_buf.par_extend(sa.par_iter().map(|&x| x as usize));
            match validate_offsets_cached(offsets_buf, rank.len(), UniquenessCheck::Adaptive) {
                Ok(proof) => rank
                    .par_ind_iter_mut_proved(&proof)
                    .zip(new_ranks.par_iter())
                    .for_each(|(slot, &r)| *slot = r as u32),
                Err(e) => panic!("suffix array rank scatter: {e}"),
            }
        }
        ExecMode::Sync => {
            use std::sync::atomic::{AtomicU32, Ordering};
            // SAFETY: exclusive borrow reinterpreted as atomics (same
            // layout) through a pointer with write permission
            // (`as_mut_ptr`); the paper's "placate rustc with relaxed stores".
            let atomic: &[AtomicU32] = unsafe {
                std::slice::from_raw_parts(rank.as_mut_ptr() as *const AtomicU32, rank.len())
            };
            sa.par_iter()
                .zip(new_ranks.par_iter())
                .for_each(|(&pos, &r)| {
                    atomic[pos as usize].store(r as u32, Ordering::Relaxed);
                });
        }
    }
}

/// Sequential prefix-doubling baseline (same algorithm, `std` sort).
pub fn suffix_array_seq(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    if n == 0 {
        return Vec::new();
    }
    let mut rank: Vec<u32> = text.iter().map(|&c| c as u32 + 1).collect();
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut k = 1usize;
    loop {
        let key = |i: usize| -> (u32, u32) { (rank[i], if i + k < n { rank[i + k] } else { 0 }) };
        sa.sort_unstable_by_key(|&i| key(i as usize));
        let mut new_rank = vec![0u32; n];
        let mut r = 1u32;
        new_rank[sa[0] as usize] = 1;
        for j in 1..n {
            if key(sa[j] as usize) != key(sa[j - 1] as usize) {
                r += 1;
            }
            new_rank[sa[j] as usize] = r;
        }
        rank = new_rank;
        if r as usize == n || k >= n {
            break;
        }
        k *= 2;
    }
    sa
}

/// Quadratic-ish reference for tests: sorts suffix slices directly.
pub fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [ExecMode; 3] = [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync];

    #[test]
    fn banana() {
        let t = b"banana";
        let want = suffix_array_naive(t);
        assert_eq!(want, vec![5, 3, 1, 0, 4, 2]);
        for mode in MODES {
            assert_eq!(suffix_array(t, mode), want, "{mode}");
        }
        assert_eq!(suffix_array_seq(t), want);
    }

    #[test]
    fn mississippi() {
        let t = b"mississippi";
        let want = suffix_array_naive(t);
        for mode in MODES {
            assert_eq!(suffix_array(t, mode), want, "{mode}");
        }
        assert_eq!(suffix_array_seq(t), want);
    }

    #[test]
    fn all_same_character() {
        let t = vec![b'a'; 500];
        let want: Vec<u32> = (0..500u32).rev().collect();
        assert_eq!(suffix_array(&t, ExecMode::Checked), want);
        assert_eq!(suffix_array_seq(&t), want);
    }

    #[test]
    fn empty_and_single() {
        assert!(suffix_array(b"", ExecMode::Checked).is_empty());
        assert_eq!(suffix_array(b"x", ExecMode::Checked), vec![0]);
    }

    #[test]
    fn random_bytes_match_naive() {
        let t: Vec<u8> = (0..3000u64)
            .map(|i| (rpb_parlay::random::hash64(i) % 4) as u8 + b'a')
            .collect();
        let want = suffix_array_naive(&t);
        for mode in MODES {
            assert_eq!(suffix_array(&t, mode), want, "{mode}");
        }
        assert_eq!(suffix_array_seq(&t), want);
    }

    #[test]
    fn larger_text_parallel_equals_seq() {
        let t = crate::gen::wiki_like_text(60_000, 11);
        let par = suffix_array(&t, ExecMode::Unsafe);
        let seq = suffix_array_seq(&t);
        assert_eq!(par, seq);
    }

    #[test]
    fn result_is_a_permutation() {
        let t = crate::gen::wiki_like_text(10_000, 5);
        let sa = suffix_array(&t, ExecMode::Checked);
        let mut seen = vec![false; t.len()];
        for &i in &sa {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
    }

    #[test]
    fn suffixes_are_sorted() {
        let t = crate::gen::wiki_like_text(5_000, 9);
        let sa = suffix_array(&t, ExecMode::Checked);
        for w in sa.windows(2) {
            assert!(t[w[0] as usize..] < t[w[1] as usize..]);
        }
    }
}
