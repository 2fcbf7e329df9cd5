//! Input-graph generators reproducing the paper's Table 2 families.

use rayon::prelude::*;

use rpb_parlay::random::Random;

use crate::csr::{Graph, WeightedGraph};

/// Which Table 2 family a generated graph imitates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// `link`: high-skew power-law web graph, avg degree ~20.
    Link,
    /// `rmat`: standard R-MAT, avg degree ~6.
    Rmat,
    /// `road`: low-degree high-diameter road network, avg degree ~2.4.
    Road,
}

impl GraphKind {
    /// The paper's shorthand name.
    pub fn shorthand(self) -> &'static str {
        match self {
            GraphKind::Link => "link",
            GraphKind::Rmat => "rmat",
            GraphKind::Road => "road",
        }
    }

    /// Builds the graph at a given vertex scale.
    pub fn build(self, n: usize, seed: u64) -> Graph {
        match self {
            // Hyperlink-like: skewed R-MAT with avg degree 20.
            GraphKind::Link => rmat_with(n, n * 10, 0.62, 0.17, 0.17, seed),
            GraphKind::Rmat => rmat(n, n * 3, seed),
            GraphKind::Road => grid_road(n, seed),
        }
    }

    /// Weighted version (uniform weights in `1..=max_w`).
    pub fn build_weighted(self, n: usize, max_w: u32, seed: u64) -> WeightedGraph {
        add_weights(self.build(n, seed), max_w, seed ^ 0xA5A5_5A5A)
    }
}

/// Standard R-MAT (Chakrabarti et al., a=0.57 b=0.19 c=0.19 d=0.05) over
/// `n` vertices (rounded up to a power of two) with `m` undirected edges.
pub fn rmat(n: usize, m: usize, seed: u64) -> Graph {
    rmat_with(n, m, 0.57, 0.19, 0.19, seed)
}

/// R-MAT with explicit quadrant probabilities (d = 1-a-b-c).
pub fn rmat_with(n: usize, m: usize, a: f64, b: f64, c: f64, seed: u64) -> Graph {
    let levels = (n.max(2) as f64).log2().ceil() as u32;
    let size = 1usize << levels;
    let r = Random::new(seed);
    let edges: Vec<(u32, u32)> = (0..m as u64)
        .into_par_iter()
        .map(|e| {
            let (mut u, mut v) = (0usize, 0usize);
            for l in 0..levels {
                // Independent draw per level, counter-based.
                let x = r.ith_rand_f64(e * 64 + l as u64);
                let (du, dv) = if x < a {
                    (0, 0)
                } else if x < a + b {
                    (0, 1)
                } else if x < a + b + c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            ((u % size) as u32, (v % size) as u32)
        })
        .collect();
    Graph::undirected_from_edges(size, &edges)
}

/// Road-like graph: a √n × √n grid, **connected by construction** — a
/// comb backbone (every vertical street, plus the full southern
/// east-west road) with a ~20% sprinkle of other horizontal segments and
/// a few diagonal shortcuts. Average degree lands near the paper's 2.4
/// arcs/vertex; diameter is Θ(√n), matching road networks'
/// high-diameter regime.
pub fn grid_road(n: usize, seed: u64) -> Graph {
    let side = (n as f64).sqrt().ceil() as usize;
    let side = side.max(2);
    let n = side * side;
    let idx = |x: usize, y: usize| (x * side + y) as u32;
    let r = Random::new(seed);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n + n / 4);
    for x in 0..side {
        for y in 0..side {
            // Backbone: all vertical streets (connects each column)...
            if y + 1 < side {
                edges.push((idx(x, y), idx(x, y + 1)));
            }
            if x + 1 < side {
                // ...plus the southern road (connects the columns), and a
                // thin random selection of other horizontal segments.
                if y == 0 || r.ith_rand(idx(x, y) as u64) % 10 < 2 {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
            }
        }
    }
    // Diagonal shortcuts: ~2% of vertices.
    for k in 0..(n / 50).max(1) as u64 {
        let x = (r.ith_rand(1_000_000 + 2 * k) % (side as u64 - 1)) as usize;
        let y = (r.ith_rand(1_000_001 + 2 * k) % (side as u64 - 1)) as usize;
        edges.push((idx(x, y), idx(x + 1, y + 1)));
    }
    Graph::undirected_from_edges(n, &edges)
}

/// Erdős–Rényi-style uniform random graph with `m` undirected edges.
pub fn uniform_random(n: usize, m: usize, seed: u64) -> Graph {
    let r = Random::new(seed);
    let edges: Vec<(u32, u32)> = (0..m as u64)
        .into_par_iter()
        .map(|e| {
            let u = (r.ith_rand(2 * e) % n as u64) as u32;
            let v = (r.ith_rand(2 * e + 1) % n as u64) as u32;
            (u, v)
        })
        .collect();
    Graph::undirected_from_edges(n, &edges)
}

/// Attaches deterministic uniform weights in `1..=max_w` to a graph,
/// symmetric for undirected arc pairs (weight depends on the unordered
/// endpoints).
pub fn add_weights(g: Graph, max_w: u32, seed: u64) -> WeightedGraph {
    let r = Random::new(seed);
    let weights: Vec<u32> = (0..g.num_vertices())
        .into_par_iter()
        .flat_map_iter(|u| {
            g.neighbors(u).iter().map(move |&v| {
                let (a, b) = if (u as u32) < v {
                    (u as u32, v)
                } else {
                    (v, u as u32)
                };
                (r.ith_rand(((a as u64) << 32) | b as u64) % max_w as u64) as u32 + 1
            })
        })
        .collect();
    WeightedGraph { graph: g, weights }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_has_requested_size() {
        let g = rmat(1000, 3000, 1);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_arcs(), 6000);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(4096, 40_000, 2);
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        let avg = g.avg_degree();
        assert!(
            max_deg as f64 > 8.0 * avg,
            "not skewed: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn road_has_low_degree_and_high_diameter_proxy() {
        let g = grid_road(10_000, 3);
        let avg = g.avg_degree();
        assert!(
            avg > 1.5 && avg < 3.5,
            "road avg degree {avg} out of family range"
        );
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg <= 10, "road max degree {max_deg} too high");
    }

    #[test]
    fn road_is_connected_with_large_diameter() {
        let g = grid_road(10_000, 3);
        assert_eq!(
            crate::seq::num_components(&g),
            1,
            "road graph must be connected"
        );
        let dist = crate::seq::bfs(&g, 0);
        let ecc = dist
            .iter()
            .filter(|&&d| d != crate::seq::INF)
            .max()
            .copied()
            .unwrap();
        // Grid diameter is Θ(√n) = Θ(100) here.
        assert!(ecc >= 50, "eccentricity {ecc} too small for a road graph");
    }

    #[test]
    fn link_family_is_denser_than_rmat() {
        let link = GraphKind::Link.build(2048, 1);
        let rm = GraphKind::Rmat.build(2048, 1);
        assert!(link.avg_degree() > rm.avg_degree());
    }

    #[test]
    fn generators_are_deterministic() {
        let a = rmat(512, 2000, 9);
        let b = rmat(512, 2000, 9);
        assert_eq!(a, b);
        let c = grid_road(400, 5);
        let d = grid_road(400, 5);
        assert_eq!(c, d);
    }

    #[test]
    fn weights_are_symmetric_and_in_range() {
        let wg = GraphKind::Road.build_weighted(400, 100, 7);
        for u in 0..wg.num_vertices() {
            for (v, w) in wg.neighbors(u) {
                assert!((1..=100).contains(&w));
                // Find the reverse arc weight.
                let back = wg
                    .neighbors(v as usize)
                    .find(|&(x, _)| x as usize == u)
                    .map(|(_, w2)| w2);
                assert_eq!(back, Some(w), "asymmetric weight on ({u},{v})");
            }
        }
    }

    #[test]
    fn uniform_random_shape() {
        let g = uniform_random(100, 500, 1);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_arcs(), 1000);
    }
}
