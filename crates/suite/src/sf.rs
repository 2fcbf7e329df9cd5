//! `sf` — spanning forest (Table 1 row 7).
//!
//! Concurrent union-find hooking over the edge list: an edge joins the
//! forest iff its `unite` call is the one that merged two components —
//! the `AW` pattern on the parent array. Any interleaving yields *a*
//! valid spanning forest; the structure (not the edge set) is verified
//! against a sequential union-find.

use rayon::prelude::*;

use rpb_concurrent::ConcurrentUnionFind;
use rpb_fearless::ExecMode;
use rpb_graph::seq::UnionFind;

use crate::error::SuiteError;

/// Parallel spanning forest; returns the indices of forest edges. The
/// mode is ignored: the parent array is atomic in every mode, as in
/// [`crate::mis::run_par`].
pub fn run_par(n: usize, edges: &[(u32, u32)], _mode: ExecMode) -> Vec<usize> {
    let uf = ConcurrentUnionFind::new(n);
    let flags: Vec<bool> = edges
        .par_iter()
        .map(|&(u, v)| u != v && uf.unite(u as usize, v as usize))
        .collect();
    rpb_parlay::pack_index(&flags)
}

/// Sequential baseline.
pub fn run_seq(n: usize, edges: &[(u32, u32)]) -> Vec<usize> {
    let mut uf = UnionFind::new(n);
    let mut out = Vec::new();
    for (i, &(u, v)) in edges.iter().enumerate() {
        if uf.union(u as usize, v as usize) {
            out.push(i);
        }
    }
    out
}

/// Verifies `forest` is a spanning forest of the graph: acyclic, and with
/// exactly `n - #components` edges (so it spans every component).
///
/// Size plus acyclicity pins the partition: an acyclic edge set of that
/// size must merge exactly the components the full graph merges, so two
/// valid forests always span the same vertex partition.
pub fn verify(n: usize, edges: &[(u32, u32)], forest: &[usize]) -> Result<(), SuiteError> {
    let mut uf = UnionFind::new(n);
    for &i in forest {
        if i >= edges.len() {
            return Err(SuiteError::invariant(
                "sf",
                format!("forest index {i} out of range for {} edges", edges.len()),
            ));
        }
        let (u, v) = edges[i];
        if !uf.union(u as usize, v as usize) {
            return Err(SuiteError::invariant(
                "sf",
                format!("forest edge {i} creates a cycle"),
            ));
        }
    }
    let expected = n - components(n, edges);
    if forest.len() != expected {
        return Err(SuiteError::invariant(
            "sf",
            format!("forest has {} edges, want {expected}", forest.len()),
        ));
    }
    Ok(())
}

fn components(n: usize, edges: &[(u32, u32)]) -> usize {
    let mut uf = UnionFind::new(n);
    for &(u, v) in edges {
        uf.union(u as usize, v as usize);
    }
    uf.roots()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use rpb_graph::GraphKind;

    #[test]
    fn forest_is_valid_on_all_inputs() {
        for kind in [GraphKind::Link, GraphKind::Road] {
            let (n, edges) = inputs::edges(kind, 1500);
            let forest = run_par(n, &edges, ExecMode::Checked);
            verify(n, &edges, &forest).expect("valid");
            // Sequential forest has the same size (spanning the same
            // components) even if a different edge set.
            assert_eq!(forest.len(), run_seq(n, &edges).len(), "{kind:?}");
        }
    }

    #[test]
    fn cycle_gets_n_minus_one_edges() {
        let edges: Vec<(u32, u32)> = (0..10u32).map(|i| (i, (i + 1) % 10)).collect();
        let forest = run_par(10, &edges, ExecMode::Checked);
        assert_eq!(forest.len(), 9);
        verify(10, &edges, &forest).expect("valid");
    }

    #[test]
    fn self_loops_ignored() {
        let edges = vec![(0u32, 0u32), (0, 1), (1, 1)];
        let forest = run_par(2, &edges, ExecMode::Checked);
        assert_eq!(forest, vec![1]);
    }
}
