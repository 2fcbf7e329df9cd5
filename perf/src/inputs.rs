//! Seeded inputs for the batch and streaming workloads.
//!
//! `--seed` feeds the layers' seeded generators directly. A run sets up
//! several times (`engine`), and every set-up draws its own inputs from the
//! seed: the time of some kernels depends on the drawn input (`dr`'s doubles
//! from one point set to another), and a run that times several draws says
//! more about the code and less about one draw. The first set-up of seed 0
//! uses the seeds pinned in `rpb_suite::inputs`, so that [`Inputs`] equals
//! what `rpb_bench::Workloads::build` produces at the same scale (tested in
//! `tests/inputs.rs`). Sizes never depend on the seed.

use std::sync::atomic::{AtomicUsize, Ordering};

use rpb_fearless::ExecMode;
use rpb_geom::Point;
use rpb_graph::{Graph, GraphKind, WeightedGraph};
use rpb_parlay::random::hash64;
use rpb_suite::verify::SuiteInputs;
use rpb_suite::Scale;

use crate::trace::Tracer;

/// The scale the batch workloads measure at: twice `Scale::small()` for
/// text, sequence and graphs, so that one round over every timed cell of the
/// largest workload takes about half a second on two cores. The point set
/// is half of `small`'s: `dr`'s time swings by 30 % with the point set at a
/// fixed size, and at 4 000 points it was half of `total_ms`.
pub const PERF_SCALE: Scale = Scale {
    text_len: 100_000,
    seq_len: 400_000,
    graph_n: 20_000,
    points_n: 1_000,
};

/// Maximum edge weight, as in `rpb_suite::inputs::weighted_graph`.
const MAX_WEIGHT: u32 = 255;

/// Point sets one set-up draws. `dr`'s time doubles from one point set to
/// the next at any size, and a point set costs microseconds to generate, so
/// every round of an epoch refines another one ([`Inputs::next_points`]).
pub const POINT_SETS: usize = 8;

/// The generator seeds one benchmark seed expands to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    pub text: u64,
    pub seq: u64,
    pub points: u64,
    pub graph: u64,
}

impl Seeds {
    /// The seeds `rpb_suite::inputs` pins.
    pub const PINNED: Seeds = Seeds {
        text: 0xA11CE,
        seq: 0xE4B,
        points: 0x4222,
        graph: 0x917A,
    };

    /// The generator seeds of set-up number `setup` of benchmark seed `seed`.
    pub fn from_seed(seed: u64, setup: usize) -> Seeds {
        if seed == 0 && setup == 0 {
            return Seeds::PINNED;
        }
        let base = hash64(seed).wrapping_add(4 * setup as u64);
        let derive = |salt: u64| hash64(base.wrapping_add(salt));
        Seeds {
            text: derive(0),
            seq: derive(1),
            points: derive(2),
            graph: derive(3),
        }
    }
}

/// Every input shape the suite's benchmarks take (the fields of
/// `rpb_bench::Workloads`).
pub struct Inputs {
    pub scale: Scale,
    pub text: Vec<u8>,
    pub bwt: Vec<u8>,
    pub seq: Vec<u64>,
    point_sets: Vec<Vec<Point>>,
    point_turn: AtomicUsize,
    pub link: Graph,
    pub rmat: Graph,
    pub road: Graph,
    pub wlink: WeightedGraph,
    pub wroad: WeightedGraph,
    pub link_edges: (usize, Vec<(u32, u32)>),
    pub rmat_edges: (usize, Vec<(u32, u32)>),
    pub road_edges: (usize, Vec<(u32, u32)>),
    pub rmat_wedges: (usize, Vec<(u32, u32, u32)>),
    pub road_wedges: (usize, Vec<(u32, u32, u32)>),
}

impl Inputs {
    /// Generates everything for set-up number `setup` of `seed`; each
    /// generator call is one span.
    pub fn build(scale: Scale, seed: u64, setup: usize, t: &mut Tracer) -> Inputs {
        let s = Seeds::from_seed(seed, setup);
        let text = t.span("text", "gen", 0, || {
            rpb_text::wiki_like_text(scale.text_len, s.text)
        });
        let bwt = t.span("text", "bwt_encode", 0, || {
            rpb_text::bwt_encode(&text, ExecMode::Unsafe)
        });
        let seq = t.span("parlay", "seq_gen", 0, || {
            rpb_parlay::seqdata::exponential_u64(scale.seq_len, scale.seq_len as u64, s.seq)
        });
        let point_sets = (0..POINT_SETS as u64)
            .map(|k| {
                // Set 0 is the suite's pinned one when the seeds are.
                let seed = if k == 0 {
                    s.points
                } else {
                    hash64(s.points.wrapping_add(k))
                };
                t.span("geom", "points_gen", k, || {
                    rpb_geom::kuzmin_points(scale.points_n, seed)
                })
            })
            .collect();
        let link_n = scale.graph_n / 4;
        let link = t.span("graph", "build_link", 0, || {
            GraphKind::Link.build(link_n, s.graph)
        });
        let rmat = t.span("graph", "build_rmat", 0, || {
            GraphKind::Rmat.build(scale.graph_n, s.graph)
        });
        let road = t.span("graph", "build_road", 0, || {
            GraphKind::Road.build(scale.graph_n, s.graph)
        });
        let weighted = |kind: GraphKind, n: usize| kind.build_weighted(n, MAX_WEIGHT, s.graph);
        let (wlink, wrmat, wroad) = t.span("graph", "build_weighted", 0, || {
            (
                weighted(GraphKind::Link, link_n),
                weighted(GraphKind::Rmat, scale.graph_n),
                weighted(GraphKind::Road, scale.graph_n),
            )
        });
        t.span("graph", "edge_lists", 0, || Inputs {
            scale,
            link_edges: edges(&link),
            rmat_edges: edges(&rmat),
            road_edges: edges(&road),
            rmat_wedges: weighted_edges(&wrmat),
            road_wedges: weighted_edges(&wroad),
            text,
            bwt,
            seq,
            point_sets,
            point_turn: AtomicUsize::new(0),
            link,
            rmat,
            road,
            wlink,
            wroad,
        })
    }

    /// The point set of the current round.
    pub fn points(&self) -> &[Point] {
        &self.point_sets[self.point_turn.load(Ordering::Relaxed) % POINT_SETS]
    }

    /// Moves on to the next point set; the engine's rounds call this.
    pub fn next_points(&self) {
        self.point_turn.fetch_add(1, Ordering::Relaxed);
    }

    /// `isort`'s key width for this sequence (as `rpb_bench::run_case`).
    pub fn key_bits(&self) -> u32 {
        64 - (self.seq.len() as u64).leading_zeros()
    }

    /// The borrowed view `rpb_suite::verify` checks against.
    pub fn suite(&self) -> SuiteInputs<'_> {
        SuiteInputs {
            text: &self.text,
            bwt: &self.bwt,
            seq: &self.seq,
            points: self.points(),
            link: &self.link,
            road: &self.road,
            wlink: &self.wlink,
            wroad: &self.wroad,
            link_edges: (self.link_edges.0, &self.link_edges.1),
            road_edges: (self.road_edges.0, &self.road_edges.1),
            rmat_wedges: (self.rmat_wedges.0, &self.rmat_wedges.1),
            road_wedges: (self.road_wedges.0, &self.road_wedges.1),
        }
    }
}

/// Canonical undirected edge list of `g` (`rpb_suite::inputs::edges`).
fn edges(g: &Graph) -> (usize, Vec<(u32, u32)>) {
    let mut edges: Vec<(u32, u32)> = g
        .to_edges()
        .into_iter()
        .filter(|&(u, v)| u != v)
        .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    (g.num_vertices(), edges)
}

/// Canonical weighted edge list (`rpb_suite::inputs::weighted_edges`).
fn weighted_edges(wg: &WeightedGraph) -> (usize, Vec<(u32, u32, u32)>) {
    let mut out = Vec::with_capacity(wg.num_arcs() / 2);
    for u in 0..wg.num_vertices() {
        for (v, w) in wg.neighbors(u) {
            if (u as u32) < v {
                out.push((u as u32, v, w));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    (wg.num_vertices(), out)
}
