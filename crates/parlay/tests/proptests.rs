//! Property-based tests for the parlay primitives.

use rpb_parlay::prop::check;
use rpb_parlay::*;

const CASES: usize = 64;

/// Exclusive scan + total equals the running prefix sum.
#[test]
fn scan_exclusive_is_prefix_sum() {
    check("scan_exclusive_is_prefix_sum", CASES, |g| {
        let v = g.vec(0..6000, |g| g.in_range(0..1_000_000));
        let (pre, tot) = scan_exclusive(&v, 0, |a, b| a + b);
        let mut acc = 0u64;
        for (p, &x) in pre.iter().zip(&v) {
            assert_eq!(*p, acc);
            acc += x;
        }
        assert_eq!(tot, acc);
    });
}

/// Inclusive scan of max is the running maximum.
#[test]
fn scan_inclusive_running_max() {
    check("scan_inclusive_running_max", CASES, |g| {
        let v64 = g.vec(1..6000, |g| u64::from(g.u64() as u32));
        let got = scan_inclusive(&v64, 0, |a, b| a.max(b));
        let mut m = 0u64;
        for (g, &x) in got.iter().zip(&v64) {
            m = m.max(x);
            assert_eq!(*g, m);
        }
    });
}

/// Scan distributes over concatenation: scanning a ++ b equals
/// scanning a, then scanning b seeded with a's total.
#[test]
fn scan_is_compositional() {
    check("scan_is_compositional", CASES, |g| {
        let a = g.vec(0..3000, |g| g.in_range(0..1000));
        let b = g.vec(0..3000, |g| g.in_range(0..1000));
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        let (pre_ab, tot_ab) = scan_exclusive(&ab, 0, |x, y| x + y);
        let (pre_a, tot_a) = scan_exclusive(&a, 0, |x, y| x + y);
        assert_eq!(&pre_ab[..a.len()], &pre_a[..]);
        let (pre_b, tot_b) = scan_exclusive(&b, 0, |x, y| x + y);
        for i in 0..b.len() {
            assert_eq!(pre_ab[a.len() + i], tot_a + pre_b[i]);
        }
        assert_eq!(tot_ab, tot_a + tot_b);
    });
}

/// reduce agrees with the sequential fold for min.
#[test]
fn reduce_min() {
    check("reduce_min", CASES, |g| {
        let v = g.vec(0..6000, |g| g.u64());
        let got = reduce(&v, u64::MAX, |a, b| a.min(b));
        assert_eq!(got, v.iter().copied().min().unwrap_or(u64::MAX));
    });
}

/// pack + its complement partition the input.
#[test]
fn pack_partitions() {
    check("pack_partitions", CASES, |g| {
        let v = g.vec(0..4000, |g| g.u64() as u16);
        let flags: Vec<bool> = v.iter().map(|&x| x % 3 == 0).collect();
        let yes = pack(&v, &flags);
        let inv: Vec<bool> = flags.iter().map(|&f| !f).collect();
        let no = pack(&v, &inv);
        assert_eq!(yes.len() + no.len(), v.len());
        assert!(yes.iter().all(|&x| x % 3 == 0));
        assert!(no.iter().all(|&x| x % 3 != 0));
    });
}

/// Merge sort is stable and sorted for any pair payload.
#[test]
fn merge_sort_stable() {
    check("merge_sort_stable", CASES, |g| {
        let v = g.vec(0..5000, |g| g.in_range(0..8) as u8);
        let mut pairs: Vec<(u8, usize)> = v.iter().copied().zip(0..).collect();
        merge_sort(&mut pairs, |a, b| a.0.cmp(&b.0));
        for w in pairs.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    });
}

/// Radix sort by partial key bits sorts by exactly those bits, stably.
#[test]
fn radix_partial_bits_stable() {
    check("radix_partial_bits_stable", CASES, |g| {
        let v = g.vec(0..5000, |g| g.u64());
        let mut pairs: Vec<(u64, usize)> = v.iter().copied().zip(0..).collect();
        radix_sort_by_key(&mut pairs, 8, |p| p.0 & 0xFF);
        for w in pairs.windows(2) {
            let (ka, kb) = (w[0].0 & 0xFF, w[1].0 & 0xFF);
            assert!(ka <= kb);
            if ka == kb {
                assert!(w[0].1 < w[1].1);
            }
        }
    });
}

/// A counting pass's destinations are the ranks of a stable sort by
/// bucket, and its boundaries the bucket prefix sums.
#[test]
fn counting_pass_is_a_stable_sort_by_bucket() {
    check("counting_pass_is_a_stable_sort_by_bucket", CASES, |g| {
        let keys = g.vec(0..5000, |g| g.in_range(0..37) as usize);
        let buckets = |items: std::ops::Range<usize>| keys[items].iter().copied();
        let mut pass = CountingPass::new(keys.len(), 37);
        pass.count(buckets);
        let bounds = pass.scan();
        let dest = pass.destinations(buckets);
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        for (rank, &i) in order.iter().enumerate() {
            assert_eq!(dest[i], rank);
        }
        assert_eq!(bounds[0], 0);
        for d in 0..37 {
            let in_bucket = keys.iter().filter(|&&k| k == d).count();
            assert_eq!(bounds[d + 1] - bounds[d], in_bucket);
        }
    });
}

/// flatten(chunked(v)) == v for any chunking.
#[test]
fn flatten_inverts_chunking() {
    check("flatten_inverts_chunking", CASES, |g| {
        let v = g.vec(0..4000, |g| g.u64() as u32);
        let chunk = g.in_range(1..97) as usize;
        let seqs: Vec<Vec<u32>> = v.chunks(chunk).map(|c| c.to_vec()).collect();
        assert_eq!(flatten(&seqs), v);
    });
}

/// list ranking recovers any randomly-permuted chain.
#[test]
fn list_order_recovers_chain() {
    check("list_order_recovers_chain", CASES, |g| {
        let (seed, n) = (g.u64(), g.size(1..3000));
        let perm = seqdata::random_permutation(n, seed);
        let mut next = vec![list_rank::NIL; n];
        for w in perm.windows(2) {
            next[w[0]] = w[1];
        }
        assert_eq!(list_rank::list_order(&next, perm[0]), perm);
    });
}

/// collect_reduce_sparse totals match a direct sum.
#[test]
fn collect_reduce_conserves_mass() {
    check("collect_reduce_conserves_mass", CASES, |g| {
        let pairs = g.vec(0..3000, |g| (g.in_range(0..100), g.in_range(0..1000)));
        let grouped = collect_reduce_sparse(&pairs, 0u64, |a, b| a + b);
        let total: u64 = grouped.iter().map(|&(_, v)| v).sum();
        let want: u64 = pairs.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, want);
    });
}
