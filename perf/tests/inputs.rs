//! Seeded inputs: seed 0 is the suite's pinned inputs, byte for byte; any
//! seed is reproducible; sizes do not depend on the seed.

use rpb_graph::GraphKind;
use rpb_perf::inputs::{Inputs, Seeds};
use rpb_perf::trace::Tracer;
use rpb_suite::{inputs, Scale};

const TINY: Scale = Scale {
    text_len: 3_000,
    seq_len: 10_000,
    graph_n: 600,
    points_n: 200,
};

fn build(seed: u64) -> Inputs {
    Inputs::build(TINY, seed, 0, &mut Tracer::disabled())
}

/// Everything `rpb_bench::Workloads::build(scale)` is made of.
#[test]
fn seed_zero_reproduces_the_pinned_workloads() {
    assert_eq!(Seeds::from_seed(0, 0), Seeds::PINNED);
    let w = build(0);
    let n = TINY.graph_n;
    assert_eq!(w.text, inputs::wiki(TINY.text_len));
    assert_eq!(w.bwt, inputs::wiki_bwt(TINY.text_len));
    assert_eq!(w.seq, inputs::exponential(TINY.seq_len));
    assert_eq!(w.points(), inputs::kuzmin(TINY.points_n));
    assert_eq!(
        w.link.to_edges(),
        inputs::graph(GraphKind::Link, n / 4).to_edges()
    );
    assert_eq!(
        w.rmat.to_edges(),
        inputs::graph(GraphKind::Rmat, n).to_edges()
    );
    assert_eq!(
        w.road.to_edges(),
        inputs::graph(GraphKind::Road, n).to_edges()
    );
    assert_eq!(w.link_edges, inputs::edges(GraphKind::Link, n / 4));
    assert_eq!(w.rmat_edges, inputs::edges(GraphKind::Rmat, n));
    assert_eq!(w.road_edges, inputs::edges(GraphKind::Road, n));
    assert_eq!(w.rmat_wedges, inputs::weighted_edges(GraphKind::Rmat, n));
    assert_eq!(w.road_wedges, inputs::weighted_edges(GraphKind::Road, n));
    // The weighted graphs, through the edge lists they expand to.
    let weighted = |g: &rpb_graph::WeightedGraph| -> Vec<(usize, u32, u32)> {
        (0..g.num_vertices())
            .flat_map(|u| g.neighbors(u).map(move |(v, w)| (u, v, w)))
            .collect()
    };
    assert_eq!(
        weighted(&w.wlink),
        weighted(&inputs::weighted_graph(GraphKind::Link, n / 4))
    );
    assert_eq!(
        weighted(&w.wroad),
        weighted(&inputs::weighted_graph(GraphKind::Road, n))
    );
}

#[test]
fn a_seed_gives_the_same_inputs_twice_and_other_seeds_differ() {
    let (a, b, c) = (build(7), build(7), build(8));
    assert_eq!(a.text, b.text);
    assert_eq!(a.seq, b.seq);
    assert_eq!(a.points(), b.points());
    a.next_points();
    assert_ne!(
        a.points(),
        b.points(),
        "every round refines another point set"
    );
    b.next_points();
    assert_eq!(a.points(), b.points());
    assert_eq!(a.road_wedges, b.road_wedges);
    assert_eq!(a.rmat_edges, b.rmat_edges);
    assert_ne!(a.text, c.text);
    assert_ne!(a.seq, c.seq);
    assert_ne!(a.rmat_edges, c.rmat_edges);
    // Sizes are a property of the scale, not of the seed.
    assert_eq!(a.text.len(), c.text.len());
    assert_eq!(a.seq.len(), c.seq.len());
    assert_eq!(a.points().len(), c.points().len());
    assert_eq!(a.road.num_vertices(), c.road.num_vertices());
}
