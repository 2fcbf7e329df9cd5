//! Sequential reference algorithms used to validate the parallel
//! benchmarks and as the 1-thread baselines of Fig. 4.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::csr::{Graph, WeightedGraph};

/// Unreachable marker in distance arrays.
pub const INF: u64 = u64::MAX;

/// Sequential BFS hop distances from `src`.
pub fn bfs(g: &Graph, src: usize) -> Vec<u64> {
    let mut dist = vec![INF; g.num_vertices()];
    let mut q = VecDeque::new();
    dist[src] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u];
        for &v in g.neighbors(u) {
            if dist[v as usize] == INF {
                dist[v as usize] = du + 1;
                q.push_back(v as usize);
            }
        }
    }
    dist
}

/// Sequential Dijkstra shortest-path distances from `src`.
pub fn dijkstra(g: &WeightedGraph, src: usize) -> Vec<u64> {
    let mut dist = vec![INF; g.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[src] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            let nd = d + w as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v as usize)));
            }
        }
    }
    dist
}

/// Sequential greedy maximal independent set in vertex-priority order.
///
/// `priority[v]` gives each vertex's rank; the greedy processes vertices
/// from the lowest priority value upward — the order the deterministic
/// parallel version must agree with.
pub fn greedy_mis(g: &Graph, priority: &[u64]) -> Vec<bool> {
    let n = g.num_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (priority[v], v));
    let mut in_set = vec![false; n];
    let mut blocked = vec![false; n];
    for v in order {
        if !blocked[v] {
            in_set[v] = true;
            blocked[v] = true;
            for &u in g.neighbors(v) {
                blocked[u as usize] = true;
            }
        }
    }
    in_set
}

/// Kruskal MSF over an explicit edge list; returns the chosen edge
/// indices and the total weight.
pub fn kruskal(n: usize, edges: &[(u32, u32, u32)]) -> (Vec<usize>, u64) {
    let mut idx: Vec<usize> = (0..edges.len()).collect();
    idx.sort_by_key(|&i| (edges[i].2, i));
    let mut uf = UnionFind::new(n);
    let mut chosen = Vec::new();
    let mut total = 0u64;
    for i in idx {
        let (u, v, w) = edges[i];
        if uf.union(u as usize, v as usize) {
            chosen.push(i);
            total += w as u64;
        }
    }
    (chosen, total)
}

/// Number of connected components (sequential union-find).
pub fn num_components(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for u in 0..n {
        for &v in g.neighbors(u) {
            uf.union(u, v as usize);
        }
    }
    uf.roots()
}

/// Sequential union-find over `0..n` with path halving. The `sf` and
/// `msf` baselines of Fig. 4 call it across crates and the workspace
/// builds without LTO, hence the `#[inline]`s.
pub struct UnionFind(Vec<usize>);

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind((0..n).collect())
    }

    /// The root of `x`'s set.
    #[inline]
    fn find(&mut self, mut x: usize) -> usize {
        let p = self.0.as_mut_slice();
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }

    /// Links `u`'s root under `v`'s; false when they already share one.
    #[inline]
    pub fn union(&mut self, u: usize, v: usize) -> bool {
        let (ru, rv) = (self.find(u), self.find(v));
        if ru != rv {
            self.0[ru] = rv;
        }
        ru != rv
    }

    /// The number of sets.
    pub fn roots(&mut self) -> usize {
        (0..self.0.len()).filter(|&x| self.find(x) == x).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{add_weights, grid_road, uniform_random};

    #[test]
    fn bfs_on_path() {
        let g = Graph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::undirected_from_edges(4, &[(0, 1)]);
        let d = bfs(&g, 0);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    fn dijkstra_prefers_light_path() {
        // 0 -10-> 1; 0 -1-> 2 -1-> 1: shortest 0->1 is 2.
        let wg = WeightedGraph::from_edges(3, &[(0, 1, 10), (0, 2, 1), (2, 1, 1)]);
        assert_eq!(dijkstra(&wg, 0), vec![0, 2, 1]);
    }

    #[test]
    fn dijkstra_equals_bfs_on_unit_weights() {
        let g = grid_road(400, 1);
        let wg = add_weights(g.clone(), 1, 2); // all weights 1
        let db = bfs(&g, 0);
        let dd = dijkstra(&wg, 0);
        assert_eq!(db, dd);
    }

    #[test]
    fn mis_is_independent_and_maximal() {
        let g = uniform_random(200, 600, 3);
        let pri: Vec<u64> = (0..g.num_vertices() as u64)
            .map(rpb_parlay::random::hash64)
            .collect();
        let mis = greedy_mis(&g, &pri);
        for u in 0..g.num_vertices() {
            if mis[u] {
                for &v in g.neighbors(u) {
                    assert!(
                        !(u != v as usize && mis[v as usize]),
                        "adjacent pair in MIS"
                    );
                }
            } else {
                let has_neighbor_in = g
                    .neighbors(u)
                    .iter()
                    .any(|&v| mis[v as usize] && v as usize != u);
                // Isolated self-loop-only vertices can only be excluded by
                // a neighbour; otherwise maximality is violated.
                assert!(has_neighbor_in, "vertex {u} could join the MIS");
            }
        }
    }

    #[test]
    fn kruskal_on_triangle() {
        let edges = vec![(0u32, 1u32, 1u32), (1, 2, 2), (0, 2, 3)];
        let (chosen, total) = kruskal(3, &edges);
        assert_eq!(chosen, vec![0, 1]);
        assert_eq!(total, 3);
    }

    #[test]
    fn components_counted() {
        let g = Graph::undirected_from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(num_components(&g), 3); // {0,1,2}, {3}, {4,5}
    }

    #[test]
    fn components_of_edgeless_and_empty_graphs() {
        assert_eq!(num_components(&Graph::from_edges(5, &[])), 5);
        assert_eq!(num_components(&Graph::from_edges(0, &[])), 0);
    }

    #[test]
    fn kruskal_spans_a_forest_on_disconnected_input() {
        // Components {0,1,2} (a triangle), {3,4} and {5}.
        let edges = vec![(0u32, 1u32, 4u32), (1, 2, 2), (0, 2, 1), (3, 4, 7)];
        let (chosen, total) = kruskal(6, &edges);
        assert_eq!(chosen.len(), 6 - 3);
        assert_eq!(chosen, vec![2, 1, 3]);
        assert_eq!(total, 1 + 2 + 7);
        let sum: u64 = chosen.iter().map(|&i| edges[i].2 as u64).sum();
        assert_eq!(total, sum);
    }

    #[test]
    fn kruskal_breaks_weight_ties_by_edge_index() {
        let edges = vec![(0u32, 2u32, 1u32), (0, 1, 1), (1, 2, 1)];
        let (chosen, total) = kruskal(3, &edges);
        assert_eq!(chosen, vec![0, 1]);
        assert_eq!(total, 2);
    }

    #[test]
    fn greedy_mis_on_a_clique_takes_the_lowest_priority() {
        let edges: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|u| (u + 1..4).map(move |v| (u, v)))
            .collect();
        let g = Graph::undirected_from_edges(4, &edges);
        assert_eq!(
            greedy_mis(&g, &[3, 1, 2, 0]),
            vec![false, false, false, true]
        );
        // Equal priorities fall back to the vertex id.
        assert_eq!(
            greedy_mis(&g, &[5, 5, 5, 5]),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn dijkstra_leaves_unreachable_at_inf() {
        // Directed: 0 reaches 1, nothing reaches 0, 2 is isolated.
        let wg = WeightedGraph::from_edges(3, &[(0, 1, 4)]);
        assert_eq!(dijkstra(&wg, 0), vec![0, 4, INF]);
        assert_eq!(dijkstra(&wg, 1), vec![INF, 0, INF]);
    }

    #[test]
    fn bfs_distances_are_certified_by_the_arcs() {
        let g = crate::gen::rmat(2048, 4000, 6);
        let dist = bfs(&g, 0);
        for u in 0..g.num_vertices() {
            if dist[u] == INF {
                // Nothing reached reaches an unreached vertex.
                continue;
            }
            for &v in g.neighbors(u) {
                assert!(dist[v as usize] <= dist[u] + 1, "arc ({u},{v})");
            }
            if dist[u] > 0 {
                let parent = g
                    .neighbors(u)
                    .iter()
                    .any(|&v| dist[v as usize] + 1 == dist[u]);
                assert!(parent, "vertex {u} has no neighbour one level up");
            }
        }
    }

    #[test]
    fn dijkstra_distances_are_certified_by_the_arcs() {
        let wg = crate::gen::GraphKind::Rmat.build_weighted(1024, 100, 7);
        let dist = dijkstra(&wg, 0);
        for u in 0..wg.num_vertices() {
            if dist[u] == INF {
                continue;
            }
            for (v, w) in wg.neighbors(u) {
                assert!(dist[v as usize] <= dist[u] + w as u64, "arc ({u},{v})");
            }
            if u != 0 {
                // Undirected: the tight arc into `u` is the reverse of one out of it.
                let tight = wg.neighbors(u).any(|(v, w)| {
                    dist[v as usize] != INF && dist[v as usize] + w as u64 == dist[u]
                });
                assert!(tight, "vertex {u} has no tight predecessor");
            }
        }
    }
}
