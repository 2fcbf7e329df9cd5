//! Concurrent union-find with atomic hooking and path halving.
//!
//! The engine of the `sf` (spanning forest) and `msf` (minimum spanning
//! forest) benchmarks. Roots hook onto other roots with a single
//! `compare_exchange`; `find` compresses paths with benign relaxed stores
//! (path halving). This is the classic lock-free DSU whose correctness
//! argument — every CAS only ever redirects a *root*, so the parent forest
//! stays acyclic — lives entirely outside the type system: Rust keeps it
//! race-free but, per the paper's Observation 5, cannot keep the
//! programmer from hooking in the wrong direction. `AW` pattern.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A lock-free disjoint-set forest over `0..n`.
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicUsize>,
}

impl ConcurrentUnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        ConcurrentUnionFind {
            parent: (0..n).map(AtomicUsize::new).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x].load(Ordering::Relaxed);
            if p == x {
                return x;
            }
            let gp = self.parent[p].load(Ordering::Relaxed);
            if p == gp {
                return p;
            }
            // Path halving; racing stores are benign (any value on the
            // root path is valid).
            let _ =
                self.parent[x].compare_exchange_weak(p, gp, Ordering::Relaxed, Ordering::Relaxed);
            x = gp;
        }
    }

    /// Merges the sets of `u` and `v`. Returns `true` iff they were
    /// previously disjoint (i.e., this call performed the link) — the
    /// property `sf` uses to claim an edge for the forest.
    pub fn unite(&self, u: usize, v: usize) -> bool {
        loop {
            let ru = self.find(u);
            let rv = self.find(v);
            if ru == rv {
                return false;
            }
            // Deterministic direction: hook the smaller-id root under the
            // larger. Only a *current* root may be redirected, enforced by
            // the CAS expected value.
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            if self.parent[lo]
                .compare_exchange(lo, hi, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
            // Lost the race: someone re-rooted lo; retry from fresh finds.
        }
    }

    /// True if `u` and `v` are currently in the same set. Racy with
    /// concurrent `unite`s (phase-concurrent usage intended).
    pub fn same_set(&self, u: usize, v: usize) -> bool {
        // Standard double-check loop to get a consistent snapshot.
        loop {
            let ru = self.find(u);
            let rv = self.find(v);
            if ru == rv {
                return true;
            }
            // If ru is still a root, the answer "different" was stable at
            // the moment we checked.
            if self.parent[ru].load(Ordering::Acquire) == ru {
                return false;
            }
        }
    }

    /// Number of distinct sets (sequential phase).
    pub fn count_sets(&self) -> usize {
        (0..self.parent.len())
            .filter(|&x| self.parent[x].load(Ordering::Relaxed) == x)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn basic_union_and_find() {
        let uf = ConcurrentUnionFind::new(10);
        assert!(uf.unite(1, 2));
        assert!(uf.unite(2, 3));
        assert!(!uf.unite(1, 3));
        assert!(uf.same_set(1, 3));
        assert!(!uf.same_set(0, 1));
        assert_eq!(uf.count_sets(), 8);
    }

    #[test]
    fn exactly_n_minus_components_unions_succeed() {
        use std::sync::atomic::AtomicUsize as Counter;
        // A cycle over n nodes has n edges; exactly n-1 unites must win.
        let n = if cfg!(miri) { 256 } else { 10_000 };
        let uf = ConcurrentUnionFind::new(n);
        let wins = Counter::new(0);
        (0..n).into_par_iter().for_each(|i| {
            if uf.unite(i, (i + 1) % n) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), n - 1);
        assert_eq!(uf.count_sets(), 1);
    }

    #[test]
    fn parallel_matches_sequential_dsu() {
        // Random edge set; compare component structure to a sequential DSU.
        let n = if cfg!(miri) { 128 } else { 5000 };
        let n_edges: u64 = if cfg!(miri) { 200 } else { 8000 };
        let edges: Vec<(usize, usize)> = (0..n_edges)
            .map(|i| {
                let h = rpb_parlay::random::hash64(i);
                ((h % n as u64) as usize, ((h >> 20) % n as u64) as usize)
            })
            .collect();
        let uf = ConcurrentUnionFind::new(n);
        edges.par_iter().for_each(|&(u, v)| {
            uf.unite(u, v);
        });
        // Sequential reference.
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
        for i in 0..n {
            for j in [0, n / 2, n - 1] {
                let seq_same = find(&mut parent, i) == find(&mut parent, j);
                assert_eq!(uf.same_set(i, j), seq_same, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn singleton_properties() {
        let uf = ConcurrentUnionFind::new(3);
        assert_eq!(uf.find(2), 2);
        assert_eq!(uf.count_sets(), 3);
        assert!(uf.same_set(1, 1));
    }
}
