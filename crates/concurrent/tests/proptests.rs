//! Property-based tests for the concurrent substrate.

// Too slow for Miri (hundreds of cases through rayon); the library's
// cfg(miri)-sized unit tests cover the same structures under the
// interpreter.
#![cfg(not(miri))]

use rayon::prelude::*;
use rpb_concurrent::*;
use rpb_parlay::prop::check;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const CASES: usize = 48;

/// The hash set equals a HashSet model after arbitrary parallel
/// inserts.
#[test]
fn hashset_model() {
    check("hashset_model", CASES, |g| {
        let keys = g.vec(1..3000, |g| g.in_range(0..10_000));
        let set = ConcurrentHashSet::with_capacity(keys.len());
        keys.par_iter().for_each(|&k| {
            set.insert(k);
        });
        let want: std::collections::HashSet<u64> = keys.iter().copied().collect();
        let got: std::collections::HashSet<u64> = set.elements().into_iter().collect();
        assert_eq!(got, want);
        for &k in &keys {
            assert!(set.contains(k));
        }
    });
}

/// write_min over any parallel schedule lands on the true minimum,
/// and the number of "improved" returns is bounded by... at least 1.
#[test]
fn write_min_is_min() {
    check("write_min_is_min", CASES, |g| {
        let values = g.vec(1..3000, |g| g.u64());
        let cell = AtomicU64::new(u64::MAX);
        let improvements = AtomicUsize::new(0);
        values.par_iter().for_each(|&v| {
            if write_min_u64(&cell, v) {
                improvements.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(cell.load(Ordering::Relaxed), *values.iter().min().unwrap());
        assert!(improvements.load(Ordering::Relaxed) >= 1);
    });
}

/// Union-find connectivity equals a sequential DSU for arbitrary
/// parallel union schedules.
#[test]
fn unionfind_model() {
    check("unionfind_model", CASES, |g| {
        let n = g.size(1..300);
        let edges: Vec<(usize, usize)> = g.vec(0..600, |g| {
            let (u, v) = (g.u64() as u32, g.u64() as u32);
            ((u as usize) % n, (v as usize) % n)
        });
        let uf = ConcurrentUnionFind::new(n);
        edges.par_iter().for_each(|&(u, v)| {
            uf.unite(u, v);
        });
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        for &(u, v) in &edges {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru] = rv;
            }
        }
        let seq_sets = {
            let mut c = 0;
            for x in 0..n {
                if find(&mut parent, x) == x {
                    c += 1;
                }
            }
            c
        };
        assert_eq!(uf.count_sets(), seq_sets);
    });
}

/// speculative_for with per-iteration unique cells completes every
/// iteration in one attempt regardless of granularity.
#[test]
fn speculative_for_no_conflicts() {
    check("speculative_for_no_conflicts", CASES, |g| {
        let (n, gran) = (g.size(1..2000), g.in_range(1..512) as usize);
        let station = ReservationStation::new(n);
        let done: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let status = speculative_for(
            0..n,
            gran,
            |i| {
                station.reserve(i, i);
                true
            },
            |i| {
                assert!(station.holds(i, i));
                done[i].fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        assert_eq!(status.retries, 0);
        for d in &done {
            assert_eq!(d.load(Ordering::Relaxed), 1);
        }
    });
}

/// All-contending speculative iterations serialize in priority order:
/// with one shared cell, the winner sequence is 0, 1, 2, … and every
/// iteration eventually commits exactly once.
#[test]
fn speculative_for_total_conflict() {
    check("speculative_for_total_conflict", CASES, |g| {
        let (n, gran) = (g.size(1..200), g.in_range(1..64) as usize);
        let station = ReservationStation::new(1);
        let commits = AtomicUsize::new(0);
        speculative_for(
            0..n,
            gran,
            |i| {
                station.reserve(0, i);
                true
            },
            |i| {
                if station.holds(0, i) {
                    commits.fetch_add(1, Ordering::Relaxed);
                    station.check_reset(0, i);
                    true
                } else {
                    false
                }
            },
        );
        assert_eq!(commits.load(Ordering::Relaxed), n);
    });
}
