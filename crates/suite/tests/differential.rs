//! Differential property tests: the ablation implementations must agree
//! with their siblings on *random* graphs, not just the Table 2 families.
//!
//! BFS distances and SSSP distances are unique fixed points, so every
//! scheduler (MultiQueue, level-synchronous frontier, delta-stepping)
//! must produce the same array as the sequential oracle — no
//! canonicalization needed here.

#![cfg(not(miri))]

use rpb_fearless::ExecMode;
use rpb_graph::{Graph, WeightedGraph};
use rpb_parlay::exec::BackendKind;
use rpb_parlay::prop::{check, Gen};
use rpb_suite::{bfs, bfs_frontier, sssp, sssp_delta};

/// A random undirected graph: `n` vertices, each proposed edge stored as
/// arcs in both directions (self-loops allowed; they are distance no-ops).
fn arb_graph(g: &mut Gen) -> Graph {
    let n = g.size(2..40);
    let edges = g.vec(0..4 * n, |g| {
        (
            g.in_range(0..n as u64) as u32,
            g.in_range(0..n as u64) as u32,
        )
    });
    let mut arcs = Vec::with_capacity(2 * edges.len());
    for (u, v) in edges {
        arcs.push((u, v));
        arcs.push((v, u));
    }
    Graph::from_edges(n, &arcs)
}

/// The weighted analogue, weights in `1..=64` (small enough that
/// duplicate weights — the tie-pressure case — are common).
fn arb_weighted_graph(g: &mut Gen) -> WeightedGraph {
    let n = g.size(2..40);
    let edges = g.vec(0..4 * n, |g| {
        let (u, v) = (
            g.in_range(0..n as u64) as u32,
            g.in_range(0..n as u64) as u32,
        );
        (u, v, g.in_range(1..65) as u32)
    });
    let mut arcs = Vec::with_capacity(2 * edges.len());
    for (u, v, w) in edges {
        arcs.push((u, v, w));
        arcs.push((v, u, w));
    }
    WeightedGraph::from_edges(n, &arcs)
}

const CASES: usize = 40;

#[test]
fn bfs_schedulers_agree_with_oracle() {
    check("bfs_schedulers_agree_with_oracle", CASES, |g| {
        let g = arb_graph(g);
        let want = bfs::run_seq(&g, 0);
        let mq = bfs::run_par(&g, 0, 2, ExecMode::Sync);
        assert_eq!(&mq, &want, "MultiQueue BFS diverged");
        let frontier = bfs_frontier::run_par(&g, 0);
        assert_eq!(&frontier, &want, "frontier BFS diverged");
        bfs::verify(&g, 0, &want).expect("oracle passes its own certificate");
    });
}

#[test]
fn bfs_backends_agree_with_oracle() {
    check("bfs_backends_agree_with_oracle", CASES, |g| {
        let g = arb_graph(g);
        // The scheduling backend (scoped OS threads vs Rayon scope tasks)
        // must be behaviorally invisible: the MultiQueue policy is the
        // same object either way, only the substrate differs.
        let want = bfs::run_seq(&g, 0);
        for backend in [BackendKind::Rayon, BackendKind::Mq] {
            let got = bfs::run_par_on(backend, &g, 0, 2, ExecMode::Sync);
            assert_eq!(&got, &want, "BFS diverged on {}", backend.label());
        }
    });
}

#[test]
fn sssp_backends_agree_with_dijkstra() {
    check("sssp_backends_agree_with_dijkstra", CASES, |g| {
        let g = arb_weighted_graph(g);
        let want = sssp::run_seq(&g, 0);
        for backend in [BackendKind::Rayon, BackendKind::Mq] {
            let got = sssp::run_par_on(backend, &g, 0, 2, ExecMode::Sync);
            assert_eq!(&got, &want, "SSSP diverged on {}", backend.label());
        }
    });
}

#[test]
fn sssp_schedulers_agree_with_dijkstra() {
    check("sssp_schedulers_agree_with_dijkstra", CASES, |g| {
        let g = arb_weighted_graph(g);
        let want = sssp::run_seq(&g, 0);
        let mq = sssp::run_par(&g, 0, 2, ExecMode::Sync);
        assert_eq!(&mq, &want, "MultiQueue SSSP diverged");
        let delta = sssp_delta::default_delta(&g);
        let ds = sssp_delta::run_par(&g, 0, delta).expect("default_delta is non-zero");
        assert_eq!(&ds, &want, "delta-stepping diverged");
        sssp::verify(&g, 0, &want).expect("oracle passes its own certificate");
    });
}
