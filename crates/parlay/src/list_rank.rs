//! Sampling-based parallel list ranking.
//!
//! The Burrows–Wheeler decoder (`bw`) produces a successor array
//! `next[i]` that threads all positions into one linked list; emitting the
//! output requires traversing it, which is inherently sequential unless a
//! list-ranking primitive breaks the chain. PBBS uses the classic sampling
//! technique: choose a deterministic ~`n/segment` subset of nodes as
//! *splitters*, walk each splitter's segment in parallel until it hits the
//! next splitter, then stitch the segments together sequentially (only
//! `O(n/segment)` of them) and flatten.
//!
//! The traversal reads `next` irregularly (data-dependent gather), which is
//! the read-side analogue of the paper's `SngInd`: safe in Rust because the
//! reads are immutable — `aliasing XOR mutability` allows arbitrary shared
//! reads.

use rayon::prelude::*;

use crate::pack::flatten;
use crate::random::hash64;

/// Terminator marker inside `next` arrays.
pub const NIL: usize = usize::MAX;

/// Returns the nodes of the list starting at `head` in traversal order.
///
/// `next[i]` is the successor of node `i`, or [`NIL`] for the tail. The
/// chain starting at `head` must be acyclic (a chain over at most
/// `next.len()` nodes); nodes not on the chain are ignored.
///
/// # Panics
/// Panics if the chain revisits a node (cycle) — detected by walking more
/// than `next.len()` steps in total.
///
/// # Examples
/// ```
/// use rpb_parlay::list_rank::{list_order, NIL};
/// // 2 -> 0 -> 1 -> end
/// let next = vec![1, NIL, 0];
/// assert_eq!(list_order(&next, 2), vec![2, 0, 1]);
/// ```
pub fn list_order(next: &[usize], head: usize) -> Vec<usize> {
    let n = next.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(head < n, "head out of bounds");
    if n < 1 << 14 {
        return seq_order(next, head, n);
    }
    // Deterministic splitter set: head plus ~n/SEG pseudo-random nodes.
    const SEG: u64 = 512;
    // `is_multiple_of` is Rust 1.87; README's MSRV is 1.85.
    #[allow(clippy::manual_is_multiple_of)]
    let is_splitter = |i: usize| i == head || hash64(i as u64) % SEG == 0;

    // Phase 1: walk each splitter's segment in parallel until the next
    // splitter (exclusive) or the tail.
    #[derive(Clone)]
    struct Segment {
        nodes: Vec<usize>,
        next_splitter: usize, // NIL at the tail
    }
    let splitters: Vec<usize> = (0..n).filter(|&i| is_splitter(i)).collect();
    let segments: Vec<Segment> = splitters
        .par_iter()
        .map(|&s| {
            let mut nodes = vec![s];
            let mut cur = next[s];
            // A segment longer than n means `next` has a cycle.
            while cur != NIL && !is_splitter(cur) {
                nodes.push(cur);
                assert!(nodes.len() <= n, "list_order: cycle detected in next[]");
                cur = next[cur];
            }
            Segment {
                nodes,
                next_splitter: cur,
            }
        })
        .collect();
    // Map node id -> segment index for stitching.
    let mut seg_of = vec![NIL; n];
    for (k, &s) in splitters.iter().enumerate() {
        seg_of[s] = k;
    }
    // Phase 2: stitch segments starting from head's segment.
    let mut ordered: Vec<&Segment> = Vec::with_capacity(segments.len());
    let mut cur = seg_of[head];
    let mut visited = 0usize;
    while cur != NIL {
        let seg = &segments[cur];
        visited += seg.nodes.len();
        assert!(visited <= n, "list_order: cycle detected among splitters");
        ordered.push(seg);
        cur = if seg.next_splitter == NIL {
            NIL
        } else {
            seg_of[seg.next_splitter]
        };
    }
    // Phase 3: flatten in parallel.
    let seqs: Vec<Vec<usize>> = ordered.into_iter().map(|s| s.nodes.clone()).collect();
    flatten(&seqs)
}

/// Rank (distance from `head`) of every node on the chain; nodes off the
/// chain get [`NIL`].
pub fn list_rank(next: &[usize], head: usize) -> Vec<usize> {
    let order = list_order(next, head);
    let mut rank = vec![NIL; next.len()];
    // Stride pattern via scatter; order elements are distinct nodes.
    for (r, &node) in order.iter().enumerate() {
        rank[node] = r;
    }
    rank
}

fn seq_order(next: &[usize], head: usize, n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    let mut cur = head;
    while cur != NIL {
        out.push(cur);
        assert!(out.len() <= n, "list_order: cycle detected in next[]");
        cur = next[cur];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::SeqRng;

    /// Builds a random permutation chain over n nodes; returns (next, head,
    /// expected order).
    fn random_chain(n: usize, seed: u64) -> (Vec<usize>, usize, Vec<usize>) {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = SeqRng::new(seed);
        for i in (1..n).rev() {
            let j = rng.next_bounded(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let mut next = vec![NIL; n];
        for w in perm.windows(2) {
            next[w[0]] = w[1];
        }
        (next, perm[0], perm)
    }

    #[test]
    fn tiny_chain() {
        let next = vec![1, 2, NIL];
        assert_eq!(list_order(&next, 0), vec![0, 1, 2]);
    }

    #[test]
    fn random_chain_small() {
        let (next, head, want) = random_chain(1000, 1);
        assert_eq!(list_order(&next, head), want);
    }

    #[test]
    fn random_chain_large_uses_parallel_path() {
        let (next, head, want) = random_chain(100_000, 2);
        assert_eq!(list_order(&next, head), want);
    }

    #[test]
    fn rank_is_inverse_of_order() {
        let (next, head, want) = random_chain(50_000, 3);
        let rank = list_rank(&next, head);
        for (r, &node) in want.iter().enumerate() {
            assert_eq!(rank[node], r);
        }
    }

    #[test]
    fn partial_chain_ignores_other_nodes() {
        // Nodes 0..5; chain is 3 -> 1 -> 4, nodes 0,2 detached.
        let mut next = vec![NIL; 5];
        next[3] = 1;
        next[1] = 4;
        let order = list_order(&next, 3);
        assert_eq!(order, vec![3, 1, 4]);
        let rank = list_rank(&next, 3);
        assert_eq!(rank[0], NIL);
        assert_eq!(rank[2], NIL);
    }

    #[test]
    #[should_panic(expected = "cycle detected")]
    fn cycle_panics() {
        let next = vec![1, 2, 0];
        list_order(&next, 0);
    }

    #[test]
    fn single_node() {
        let next = vec![NIL];
        assert_eq!(list_order(&next, 0), vec![0]);
    }
}
