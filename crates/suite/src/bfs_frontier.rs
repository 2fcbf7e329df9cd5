//! Level-synchronous frontier BFS — the classic PBBS/Ligra-style
//! scheduler, as an ablation baseline for the MultiQueue-driven
//! [`crate::bfs`].
//!
//! Each round expands the current frontier in parallel: every frontier
//! vertex tries to claim its undiscovered neighbours with a CAS on the
//! parent array (the *priority update* flavour of `AW`), and the winners
//! form the next frontier. Unlike the MultiQueue version this is
//! label-setting: every vertex is relaxed exactly once, at the cost of a
//! global barrier per level — the trade the paper's Sec. 6 schedulers
//! navigate.
//!
//! Each level partitions the frontier by *edge* counts rather than vertex
//! counts ([`Graph::partition_frontier_by_edges`]), so a power-law hub
//! does not serialize its level. The cut decides which task expands a
//! vertex, never the distances.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

use rpb_graph::Graph;

/// Unreachable marker.
pub const INF: u64 = u64::MAX;

/// Expands one BFS level: every neighbour of `frontier` not yet claimed
/// is claimed at `level` (CAS; exactly one parent wins) and returned as
/// the next frontier.
fn expand(g: &Graph, dist: &[AtomicU64], frontier: &[u32], level: u64) -> Vec<u32> {
    let ntasks = rayon::current_num_threads().max(1) * 4;
    g.partition_frontier_by_edges(frontier, ntasks)
        .into_par_iter()
        .flat_map_iter(|r| {
            frontier[r].iter().flat_map(move |&u| {
                g.neighbors(u as usize).iter().filter_map(move |&v| {
                    // Claim v for this level; exactly one parent wins.
                    dist[v as usize]
                        .compare_exchange(INF, level, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                        .then_some(v)
                })
            })
        })
        .collect()
}

/// Parallel frontier BFS hop distances from `src`.
pub fn run_par(g: &Graph, src: usize) -> Vec<u64> {
    let n = g.num_vertices();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    dist[src].store(0, Ordering::Relaxed);
    let mut frontier: Vec<u32> = vec![src as u32];
    let mut level = 0u64;
    while !frontier.is_empty() {
        level += 1;
        frontier = expand(g, &dist, &frontier, level);
    }
    dist.into_iter().map(|d| d.into_inner()).collect()
}

/// Per-round frontier sizes (for the scheduler-comparison example).
pub fn frontier_profile(g: &Graph, src: usize) -> Vec<usize> {
    let n = g.num_vertices();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    dist[src].store(0, Ordering::Relaxed);
    let mut frontier: Vec<u32> = vec![src as u32];
    let mut sizes = vec![1usize];
    let mut level = 0u64;
    while !frontier.is_empty() {
        level += 1;
        frontier = expand(g, &dist, &frontier, level);
        if !frontier.is_empty() {
            sizes.push(frontier.len());
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use rpb_graph::GraphKind;

    #[test]
    fn matches_sequential_bfs() {
        for kind in [GraphKind::Link, GraphKind::Road, GraphKind::Rmat] {
            let g = inputs::graph(kind, 2000);
            assert_eq!(run_par(&g, 0), rpb_graph::seq::bfs(&g, 0), "{kind:?}");
        }
    }

    #[test]
    fn matches_multiqueue_bfs() {
        let g = inputs::graph(GraphKind::Road, 2000);
        let frontier = run_par(&g, 0);
        let mq = crate::bfs::run_par(&g, 0, 4, rpb_fearless::ExecMode::Sync);
        assert_eq!(frontier, mq);
    }

    #[test]
    fn profile_sums_to_reachable_count() {
        let g = inputs::graph(GraphKind::Road, 2000);
        let profile = frontier_profile(&g, 0);
        let reachable = run_par(&g, 0).iter().filter(|&&d| d != INF).count();
        assert_eq!(profile.iter().sum::<usize>(), reachable);
    }

    #[test]
    fn road_graphs_have_many_levels() {
        // High diameter ⇒ long level profile: the regime where frontier
        // BFS underutilizes and relaxed schedulers shine.
        let road = inputs::graph(GraphKind::Road, 5000);
        let link = inputs::graph(GraphKind::Link, 5000);
        let road_levels = frontier_profile(&road, 0).len();
        let link_levels = frontier_profile(&link, 0).len();
        assert!(
            road_levels > 3 * link_levels,
            "road {road_levels} vs link {link_levels} levels"
        );
    }

    #[test]
    fn isolated_source() {
        let g = rpb_graph::Graph::from_edges(3, &[(1, 2)]);
        assert_eq!(run_par(&g, 0), vec![0, INF, INF]);
    }

    #[test]
    fn raw_speed_pass_does_not_change_distances() {
        // Edge partitioning must be invisible in the output on a hubby
        // graph, where one vertex exceeds a task's whole edge quota.
        let g = inputs::graph(GraphKind::Rmat, if cfg!(miri) { 60 } else { 3000 });
        assert_eq!(run_par(&g, 0), rpb_graph::seq::bfs(&g, 0));
    }
}
