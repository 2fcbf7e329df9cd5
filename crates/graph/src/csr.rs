//! Compressed sparse row graphs, unweighted and weighted.
//!
//! The CSR layout is itself an instance of the paper's `RngInd` pattern:
//! vertex `v`'s neighbours live at `adj[offsets[v]..offsets[v+1]]`, a
//! contiguous chunk addressed through a run-time offsets array. Builders
//! here use parlay's scan + scatter machinery.

use rayon::prelude::*;
use std::ops::Range;

use rpb_fearless::atomic_view;
use rpb_parlay::scan::scan_inplace_exclusive;

/// An unweighted directed graph in CSR form. For undirected graphs both
/// arc directions are stored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `n+1` boundaries into `adj`.
    pub offsets: Vec<usize>,
    /// Concatenated adjacency lists.
    pub adj: Vec<u32>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of stored arcs (2× edges for undirected graphs).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adj.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Average degree (arcs per vertex).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Builds a CSR graph from an arc list over `n` vertices, in parallel
    /// (counts → scan → scatter). Duplicate arcs and self-loops are kept.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut counts = vec![0usize; n + 1];
        // Parallel per-chunk counting into per-chunk histograms would need
        // n-sized buffers per chunk; for graph building PBBS uses a sort or
        // atomic counts. Atomic fetch_add per arc is simple and scales.
        {
            use std::sync::atomic::Ordering;
            let acounts = atomic_view(&mut counts);
            edges.par_iter().for_each(|&(u, _)| {
                acounts[u as usize].fetch_add(1, Ordering::Relaxed);
            });
        }
        scan_inplace_exclusive(&mut counts, 0, |a, b| a + b);
        let offsets = counts;
        let mut adj = vec![0u32; edges.len()];
        {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let cursors: Vec<AtomicUsize> =
                offsets[..n].iter().map(|&o| AtomicUsize::new(o)).collect();
            // Each fetch_add hands out a unique slot of u's CSR range, so
            // the relaxed stores never meet; the atomics only tell rustc.
            let slots = atomic_view(&mut adj);
            edges.par_iter().for_each(|&(u, v)| {
                let slot = cursors[u as usize].fetch_add(1, Ordering::Relaxed);
                slots[slot].store(v, Ordering::Relaxed);
            });
        }
        // Sort each adjacency list for deterministic iteration order.
        let mut g = Graph { offsets, adj };
        g.sort_adjacency();
        g
    }

    /// Builds the undirected version (arcs in both directions) from an
    /// edge list.
    pub fn undirected_from_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut arcs = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            arcs.push((u, v));
            arcs.push((v, u));
        }
        Graph::from_edges(n, &arcs)
    }

    /// Sorts every adjacency list (parallel over vertices via `RngInd`).
    /// CSR boundaries are monotone and bounded by construction, so the
    /// checked iterator's `O(n)` monotonicity validation is the paper's
    /// ~free comfort tier.
    pub fn sort_adjacency(&mut self) {
        use rpb_fearless::ParIndChunksMutExt;
        self.adj
            .par_ind_chunks_mut(&self.offsets)
            .for_each(|chunk| chunk.sort_unstable());
    }

    /// Partitions the indices of `frontier` into roughly `ntasks`
    /// contiguous, in-order ranges of approximately equal **edge** work.
    ///
    /// Splitting a frontier by vertex count assigns a power-law hub —
    /// R-MAT/link frontiers routinely carry one holding a large share of
    /// all frontier edges — to the same task as thousands of leaves,
    /// serializing the level on that task. Cutting at out-degree
    /// prefix-sum quotas keeps every task's edge total near
    /// `total / ntasks`; a hub larger than the quota gets a dedicated
    /// range. Every vertex also counts one unit of bookkeeping work so
    /// zero-degree runs still split.
    pub fn partition_frontier_by_edges(
        &self,
        frontier: &[u32],
        ntasks: usize,
    ) -> Vec<Range<usize>> {
        let ntasks = ntasks.max(1);
        if frontier.is_empty() {
            return Vec::new();
        }
        let total: usize = frontier.iter().map(|&u| self.degree(u as usize) + 1).sum();
        let quota = total.div_ceil(ntasks);
        let mut ranges = Vec::with_capacity(ntasks + 1);
        let mut start = 0;
        let mut acc = 0;
        for (i, &u) in frontier.iter().enumerate() {
            acc += self.degree(u as usize) + 1;
            if acc >= quota {
                ranges.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < frontier.len() {
            ranges.push(start..frontier.len());
        }
        ranges
    }

    /// The arc list `(u, v)` of this graph.
    pub fn to_edges(&self) -> Vec<(u32, u32)> {
        (0..self.num_vertices())
            .into_par_iter()
            .flat_map_iter(|u| self.neighbors(u).iter().map(move |&v| (u as u32, v)))
            .collect()
    }
}

/// A weighted graph in CSR form; `weights[k]` belongs to arc `adj[k]`.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedGraph {
    /// Topology.
    pub graph: Graph,
    /// Per-arc weights, parallel to `graph.adj`.
    pub weights: Vec<u32>,
}

impl WeightedGraph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.graph.num_arcs()
    }

    /// `(neighbor, weight)` pairs of `v`.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let r = self.graph.offsets[v]..self.graph.offsets[v + 1];
        self.graph.adj[r.clone()]
            .iter()
            .copied()
            .zip(self.weights[r].iter().copied())
    }

    /// Builds from weighted edges `(u, v, w)`, directed.
    pub fn from_edges(n: usize, edges: &[(u32, u32, u32)]) -> WeightedGraph {
        // Pack weight into the adjacency value during construction by
        // building a CSR of (v, w) pairs encoded as u64, then splitting.
        let arcs: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let mut topo = Graph::from_edges(n, &arcs);
        // Re-derive the weights in adjacency order: build a map from (u,v)
        // occurrences. Simplest deterministic approach: rebuild adjacency
        // as (v,w) pairs per-vertex sequentially in parallel per vertex.
        let mut per_vertex: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            per_vertex[u as usize].push((v, w));
        }
        per_vertex.par_iter_mut().for_each(|l| l.sort_unstable());
        let mut adj = Vec::with_capacity(edges.len());
        let mut weights = Vec::with_capacity(edges.len());
        for l in &per_vertex {
            for &(v, w) in l {
                adj.push(v);
                weights.push(w);
            }
        }
        topo.adj = adj;
        WeightedGraph {
            graph: topo,
            weights,
        }
    }

    /// Undirected weighted build: each `(u, v, w)` becomes two arcs with
    /// the same weight.
    pub fn undirected_from_edges(n: usize, edges: &[(u32, u32, u32)]) -> WeightedGraph {
        let mut arcs = Vec::with_capacity(edges.len() * 2);
        for &(u, v, w) in edges {
            arcs.push((u, v, w));
            arcs.push((v, u, w));
        }
        WeightedGraph::from_edges(n, &arcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0-1, 0-2, 1-3, 2-3 undirected
        Graph::undirected_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_shape() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_edges_counts_match() {
        let edges = vec![(0u32, 1u32), (0, 2), (0, 3), (2, 0)];
        let g = Graph::from_edges(4, &edges);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn large_parallel_build_matches_sequential() {
        let n = 2000usize;
        let edges: Vec<(u32, u32)> = (0..30_000u64)
            .map(|i| {
                let h = rpb_parlay::random::hash64(i);
                ((h % n as u64) as u32, ((h >> 24) % n as u64) as u32)
            })
            .collect();
        let g = Graph::from_edges(n, &edges);
        // Sequential reference.
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in &edges {
            lists[u as usize].push(v);
        }
        for l in &mut lists {
            l.sort_unstable();
        }
        for (u, list) in lists.iter().enumerate() {
            assert_eq!(g.neighbors(u), &list[..], "vertex {u}");
        }
    }

    #[test]
    fn round_trip_edges() {
        let g = diamond();
        let edges = g.to_edges();
        let g2 = Graph::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn weighted_neighbors_align() {
        let wg = WeightedGraph::undirected_from_edges(3, &[(0, 1, 10), (1, 2, 20), (0, 2, 30)]);
        let n0: Vec<(u32, u32)> = wg.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 10), (2, 30)]);
        let n2: Vec<(u32, u32)> = wg.neighbors(2).collect();
        assert_eq!(n2, vec![(0, 30), (1, 20)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_arcs(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Graph::from_edges(5, &[(1, 3)]);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn edge_partition_covers_in_order_and_isolates_hubs() {
        // Star: vertex 0 has degree 63, every leaf degree 1.
        let edges: Vec<(u32, u32)> = (1..64).map(|v| (0u32, v)).collect();
        let g = Graph::undirected_from_edges(64, &edges);
        let frontier: Vec<u32> = (0..64).collect();
        let parts = g.partition_frontier_by_edges(&frontier, 4);
        // Contiguous, in-order, complete cover of the frontier indices.
        let mut expect = 0;
        for r in &parts {
            assert_eq!(r.start, expect, "{parts:?}");
            assert!(r.end > r.start, "{parts:?}");
            expect = r.end;
        }
        assert_eq!(expect, frontier.len());
        // The hub's edge share exceeds one quota: it gets a dedicated
        // range instead of dragging a pile of leaves with it.
        assert_eq!(parts[0], 0..1);
        // The leaves still split into several tasks rather than one blob.
        assert!(parts.len() >= 3, "{parts:?}");
    }

    #[test]
    fn edge_partition_handles_degenerate_frontiers() {
        let g = Graph::from_edges(8, &[]);
        let frontier: Vec<u32> = (0..8).collect();
        let parts = g.partition_frontier_by_edges(&frontier, 4);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), 8);
        assert!(parts.len() > 1, "{parts:?}");
        assert!(g.partition_frontier_by_edges(&[], 4).is_empty());
        // ntasks = 0 is treated as 1.
        assert_eq!(g.partition_frontier_by_edges(&frontier, 0), vec![0..8]);
    }

    /// The CSR invariants every builder must keep: offsets start at 0,
    /// never decrease and end at the arc count; targets are vertices; and
    /// each adjacency list is sorted.
    fn assert_well_formed(g: &Graph) {
        let n = g.num_vertices();
        assert_eq!(g.offsets.first(), Some(&0));
        assert!(
            g.offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets decrease"
        );
        assert_eq!(g.offsets[n], g.num_arcs());
        assert!(
            g.adj.iter().all(|&v| (v as usize) < n),
            "target out of range"
        );
        for u in 0..n {
            assert!(
                g.neighbors(u).windows(2).all(|w| w[0] <= w[1]),
                "vertex {u}"
            );
        }
    }

    fn families() -> Vec<Graph> {
        use crate::gen::GraphKind;
        [GraphKind::Link, GraphKind::Rmat, GraphKind::Road]
            .into_iter()
            .map(|kind| kind.build(500, 4))
            .collect()
    }

    #[test]
    fn generated_graphs_are_well_formed_csr() {
        for g in families() {
            assert_well_formed(&g);
        }
    }

    #[test]
    fn to_edges_round_trips_every_generated_family() {
        for g in families() {
            let edges = g.to_edges();
            assert_eq!(edges.len(), g.num_arcs());
            assert_eq!(Graph::from_edges(g.num_vertices(), &edges), g);
        }
    }

    #[test]
    fn undirected_build_stores_both_directions() {
        let edges = [(0u32, 3u32), (1, 2), (3, 1)];
        let g = Graph::undirected_from_edges(4, &edges);
        assert_eq!(g.num_arcs(), 2 * edges.len());
        for &(u, v) in &edges {
            assert!(g.neighbors(u as usize).contains(&v), "({u},{v})");
            assert!(g.neighbors(v as usize).contains(&u), "({v},{u})");
        }
        assert_well_formed(&g);
    }

    #[test]
    fn duplicate_arcs_and_self_loops_are_kept() {
        let g = Graph::from_edges(3, &[(1, 1), (0, 2), (0, 2), (1, 0)]);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.neighbors(0), &[2, 2]);
        assert_eq!(g.neighbors(1), &[0, 1]);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn sort_adjacency_sorts_each_list_and_keeps_offsets() {
        let mut g = Graph {
            offsets: vec![0, 3, 3, 6],
            adj: vec![2, 0, 1, 1, 2, 0],
        };
        g.sort_adjacency();
        assert_eq!(g.offsets, vec![0, 3, 3, 6]);
        assert_eq!(g.adj, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn degrees_sum_to_the_arc_count() {
        for g in families() {
            let sum: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
            assert_eq!(sum, g.num_arcs());
            let avg = g.num_arcs() as f64 / g.num_vertices() as f64;
            assert!((g.avg_degree() - avg).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_build_orders_parallel_arcs_by_weight() {
        let wg = WeightedGraph::from_edges(3, &[(0, 2, 1), (0, 1, 5), (0, 1, 2)]);
        let n0: Vec<(u32, u32)> = wg.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 2), (1, 5), (2, 1)]);
        assert_eq!(wg.weights.len(), wg.num_arcs());
        assert_eq!(wg.graph, Graph::from_edges(3, &[(0, 2), (0, 1), (0, 1)]));
    }

    #[test]
    fn weighted_directed_build_keeps_direction() {
        let wg = WeightedGraph::from_edges(3, &[(0, 1, 7), (1, 2, 9)]);
        assert_eq!(wg.num_vertices(), 3);
        assert_eq!(wg.num_arcs(), 2);
        assert_eq!(wg.neighbors(1).collect::<Vec<_>>(), vec![(2, 9)]);
        assert_eq!(wg.neighbors(2).count(), 0);
    }
}
