//! Property-based tests on the cross-crate invariants of the public API.

use rayon::prelude::*;
use rpb::fearless::{ParIndChunksMutExt, ParIndIterMutExt, UniquenessCheck};
use rpb::parlay::prop::check;
use rpb::ExecMode;

const CASES: usize = 48;

/// Scan is the sequential prefix sum for any input.
#[test]
fn scan_matches_reference() {
    check("scan_matches_reference", CASES, |g| {
        let v = g.vec(0..5000, |g| g.in_range(0..1000));
        let (pre, tot) = rpb::parlay::scan_exclusive(&v, 0, |a, b| a + b);
        let mut acc = 0u64;
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(pre[i], acc);
            acc += x;
        }
        assert_eq!(tot, acc);
    });
}

/// Pack keeps exactly the flagged elements in order.
#[test]
fn pack_is_order_preserving_filter() {
    check("pack_is_order_preserving_filter", CASES, |g| {
        let v = g.vec(0..3000, |g| g.u64() as u32);
        let seed = g.u64();
        // `is_multiple_of` is Rust 1.87; README's MSRV is 1.85.
        #[allow(clippy::manual_is_multiple_of)]
        let flags: Vec<bool> = (0..v.len())
            .map(|i| rpb::parlay::random::hash64(seed ^ i as u64) % 2 == 0)
            .collect();
        let got = rpb::parlay::pack(&v, &flags);
        let want: Vec<u32> = v
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| f)
            .map(|(&x, _)| x)
            .collect();
        assert_eq!(got, want);
    });
}

/// Sample sort sorts any input (permutation + order).
#[test]
fn sample_sort_sorts() {
    check("sample_sort_sorts", CASES, |g| {
        let v = g.vec(0..4000, |g| g.u64());
        let mut got = v.clone();
        rpb::parlay::sample_sort(&mut got, |a, b| a.cmp(b));
        let mut want = v;
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

/// Radix sort agrees with std sort for any key width used.
#[test]
fn radix_sort_sorts() {
    check("radix_sort_sorts", CASES, |g| {
        let v = g.vec(0..4000, |g| g.u64());
        let mut got = v.clone();
        rpb::parlay::radix_sort_u64(&mut got);
        let mut want = v;
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

/// The suffix array of arbitrary bytes is the sorted suffix order, in
/// every mode.
#[test]
fn suffix_array_is_sorted_suffixes() {
    check("suffix_array_is_sorted_suffixes", CASES, |g| {
        let v = g.vec(0..400, |g| g.in_range(0..256) as u8);
        let want = rpb::text::suffix_array_naive(&v);
        for mode in [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync] {
            assert_eq!(rpb::text::suffix_array(&v, mode), want);
        }
    });
}

/// BWT round-trips for any sentinel-free text.
#[test]
fn bwt_round_trips() {
    check("bwt_round_trips", CASES, |g| {
        let v = g.vec(0..500, |g| g.in_range(1..256) as u8);
        let bwt = rpb::text::bwt_encode(&v, ExecMode::Unsafe);
        assert_eq!(rpb::text::bwt_decode(&bwt), Ok(v));
    });
}

/// par_ind_iter_mut accepts every permutation and scatters correctly.
#[test]
fn ind_iter_scatters_any_permutation() {
    check("ind_iter_scatters_any_permutation", CASES, |g| {
        let (seed, n) = (g.u64(), g.size(1..2000));
        let offsets = rpb::parlay::seqdata::random_permutation(n, seed);
        let mut out = vec![0usize; n];
        out.par_ind_iter_mut(&offsets)
            .enumerate()
            .for_each(|(i, slot)| *slot = i + 1);
        for i in 0..n {
            assert_eq!(out[offsets[i]], i + 1);
        }
    });
}

/// A single planted duplicate is always detected by both strategies.
#[test]
fn planted_duplicate_always_detected() {
    check("planted_duplicate_always_detected", CASES, |g| {
        let (seed, n) = (g.u64(), g.size(2..2000));
        let mut offsets = rpb::parlay::seqdata::random_permutation(n, seed);
        let i = g.in_range(1..n as u64) as usize;
        offsets[i] = offsets[0];
        let mut out = vec![0u8; n];
        for strat in [UniquenessCheck::MarkTable, UniquenessCheck::Sort] {
            assert!(out.try_par_ind_iter_mut(&offsets, strat).is_err());
        }
    });
}

/// par_ind_chunks_mut covers exactly the described ranges.
#[test]
fn ind_chunks_cover_exact_ranges() {
    check("ind_chunks_cover_exact_ranges", CASES, |g| {
        let mut cuts = g.vec(2..40, |g| g.in_range(0..1000) as usize);
        cuts.sort_unstable();
        let len = *cuts.last().unwrap();
        let mut out = vec![usize::MAX; len];
        out.par_ind_chunks_mut(&cuts)
            .enumerate()
            .for_each(|(i, chunk)| chunk.fill(i));
        // Every position below cuts[0] untouched; the rest labeled by
        // its chunk index.
        for (pos, &val) in out.iter().enumerate() {
            if pos < cuts[0] {
                assert_eq!(val, usize::MAX);
            } else {
                let chunk = cuts.partition_point(|&c| c <= pos) - 1;
                assert_eq!(val, chunk, "position {pos}");
            }
        }
    });
}

/// Concurrent union-find agrees with a sequential DSU on random edge
/// lists.
#[test]
fn union_find_matches_dsu() {
    check("union_find_matches_dsu", CASES, |g| {
        let edges = g.vec(0..500, |g| {
            (g.in_range(0..200) as u32, g.in_range(0..200) as u32)
        });
        let uf = rpb::concurrent::ConcurrentUnionFind::new(200);
        edges.par_iter().for_each(|&(u, v)| {
            uf.unite(u as usize, v as usize);
        });
        let mut parent: Vec<usize> = (0..200).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        for &(u, v) in &edges {
            let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
            if ru != rv {
                parent[ru] = rv;
            }
        }
        for u in (0..200).step_by(7) {
            for v in (0..200).step_by(11) {
                let want = find(&mut parent, u) == find(&mut parent, v);
                assert_eq!(uf.same_set(u, v), want, "({u}, {v})");
            }
        }
    });
}

/// MultiQueue never loses or duplicates elements.
#[test]
fn multiqueue_conserves_elements() {
    check("multiqueue_conserves_elements", CASES, |g| {
        let items = g.vec(0..500, |g| g.u64());
        let queues = g.in_range(1..8) as usize;
        let mq: rpb::multiqueue::MultiQueue<usize> = rpb::multiqueue::MultiQueue::new(queues);
        for (i, &p) in items.iter().enumerate() {
            mq.push(p, i);
        }
        let mut seen = vec![false; items.len()];
        while let Some((_, i)) = mq.pop() {
            assert!(!seen[i], "duplicate pop");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b), "lost element");
    });
}
