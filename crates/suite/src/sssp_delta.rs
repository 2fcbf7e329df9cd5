//! Delta-stepping SSSP — the bucketed scheduler (Meyer & Sanders;
//! Julienne-style), as an ablation baseline for the MultiQueue-driven
//! [`crate::sssp`].
//!
//! Vertices are processed in distance buckets of width `delta`: all
//! vertices whose tentative distance falls in the current bucket are
//! relaxed (repeatedly, while light edges re-insert into the same
//! bucket), then the next non-empty bucket opens. `delta` trades
//! priority fidelity (small delta → Dijkstra) for parallel width (large
//! delta → Bellman-Ford-ish) — the same relaxation axis the MultiQueue
//! explores probabilistically.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

use rpb_concurrent::write_min_u64;
use rpb_graph::WeightedGraph;

use crate::error::SuiteError;

/// Unreachable marker.
pub const INF: u64 = u64::MAX;

/// Parallel delta-stepping shortest paths from `src`.
///
/// A zero `delta` would loop forever on an empty bucket width, so it is
/// rejected as a [`SuiteError::DegenerateParameter`].
pub fn run_par(g: &WeightedGraph, src: usize, delta: u64) -> Result<Vec<u64>, SuiteError> {
    if delta == 0 {
        return Err(SuiteError::degenerate(
            "sssp",
            "delta-stepping bucket width must be positive",
        ));
    }
    let n = g.num_vertices();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    dist[src].store(0, Ordering::Relaxed);
    // Waves are split by edge counts so one hub can't serialize a bucket.
    let ntasks = rayon::current_num_threads().max(1) * 4;
    let mut current: Vec<u32> = vec![src as u32];
    let mut bucket = 0u64;
    loop {
        // Settle the current bucket: relax until no vertex re-enters it.
        while !current.is_empty() {
            let bucket_end = (bucket + 1) * delta;
            let dist = &dist;
            let wave = &current;
            let next_wave: Vec<u32> = g
                .graph
                .partition_frontier_by_edges(wave, ntasks)
                .into_par_iter()
                .flat_map_iter(|r| {
                    wave[r].iter().flat_map(move |&u| {
                        let du = dist[u as usize].load(Ordering::Relaxed);
                        let stale = du >= bucket_end;
                        g.neighbors(u as usize).filter_map(move |(v, w)| {
                            if stale {
                                return None;
                            }
                            let nd = du + w as u64;
                            (write_min_u64(&dist[v as usize], nd) && nd < bucket_end).then_some(v)
                        })
                    })
                })
                .collect();
            current = dedup_by_mark(next_wave, n);
        }
        // Open the next non-empty bucket.
        let next = (0..n)
            .into_par_iter()
            .filter_map(|v| {
                let d = dist[v].load(Ordering::Relaxed);
                (d != INF && d >= (bucket + 1) * delta).then_some(d / delta)
            })
            .min();
        match next {
            Some(b) => {
                bucket = b;
                let lo = bucket * delta;
                let hi = lo + delta;
                current = (0..n as u32)
                    .into_par_iter()
                    .filter(|&v| {
                        let d = dist[v as usize].load(Ordering::Relaxed);
                        d != INF && d >= lo && d < hi
                    })
                    .collect();
            }
            None => break,
        }
    }
    Ok(dist.into_iter().map(|d| d.into_inner()).collect())
}

/// Removes duplicate vertex ids (many relaxations may improve the same
/// vertex within one wave).
fn dedup_by_mark(mut v: Vec<u32>, _n: usize) -> Vec<u32> {
    v.par_sort_unstable();
    v.dedup();
    v
}

/// A reasonable default delta: average edge weight (Meyer & Sanders
/// suggest Θ(1/max-degree · max-weight); the average works well on the
/// suite's uniform weights).
pub fn default_delta(g: &WeightedGraph) -> u64 {
    if g.num_arcs() == 0 {
        return 1;
    }
    let sum: u64 = g.weights.iter().map(|&w| w as u64).sum();
    (sum / g.num_arcs() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use rpb_graph::GraphKind;

    #[test]
    fn matches_dijkstra_across_deltas() {
        let g = inputs::weighted_graph(GraphKind::Road, 1500);
        let want = rpb_graph::seq::dijkstra(&g, 0);
        for delta in [1, 16, 64, 100_000] {
            assert_eq!(run_par(&g, 0, delta).expect("sssp"), want, "delta={delta}");
        }
    }

    #[test]
    fn matches_multiqueue_sssp() {
        let g = inputs::weighted_graph(GraphKind::Link, 1200);
        let delta = default_delta(&g);
        let ds = run_par(&g, 0, delta).expect("sssp");
        let mq = crate::sssp::run_par(&g, 0, 4, rpb_fearless::ExecMode::Sync);
        assert_eq!(ds, mq);
    }

    #[test]
    fn huge_delta_degenerates_to_bellman_ford() {
        // One bucket holds everything: still correct.
        let g = inputs::weighted_graph(GraphKind::Rmat, 800);
        assert_eq!(
            run_par(&g, 0, u64::MAX / 4).expect("sssp"),
            rpb_graph::seq::dijkstra(&g, 0)
        );
    }

    #[test]
    fn zero_delta_is_a_typed_error() {
        let g = rpb_graph::WeightedGraph::from_edges(2, &[(0, 1, 1)]);
        let err = run_par(&g, 0, 0).unwrap_err();
        assert!(
            matches!(err, SuiteError::DegenerateParameter { .. }),
            "{err}"
        );
    }

    #[test]
    fn default_delta_is_sane() {
        let g = inputs::weighted_graph(GraphKind::Road, 500);
        let d = default_delta(&g);
        assert!((1..=255).contains(&d), "delta {d}");
    }

    #[test]
    fn raw_speed_pass_does_not_change_distances() {
        // Edge-partitioned waves on a hubby graph at the default delta.
        let g = inputs::weighted_graph(GraphKind::Rmat, if cfg!(miri) { 60 } else { 2000 });
        let delta = default_delta(&g);
        assert_eq!(
            run_par(&g, 0, delta).expect("sssp"),
            rpb_graph::seq::dijkstra(&g, 0)
        );
    }

    #[test]
    fn disconnected_vertices_stay_inf() {
        let g = rpb_graph::WeightedGraph::from_edges(4, &[(0, 1, 3)]);
        let d = run_par(&g, 0, 2).expect("sssp");
        assert_eq!(d, vec![0, 3, INF, INF]);
    }
}
