//! Pre-built inputs shared across a harness run (built once per scale,
//! excluded from all timings).

use rpb_geom::Point;
use rpb_graph::{Graph, GraphKind, WeightedGraph};
use rpb_suite::inputs;

use crate::Scale;

/// All inputs for one scale.
pub struct Workloads {
    /// The scale these were built at.
    pub scale: Scale,
    /// Wiki-like text.
    pub text: Vec<u8>,
    /// BWT of the text (input to `bw`).
    pub bwt: Vec<u8>,
    /// Exponential integer sequence.
    pub seq: Vec<u64>,
    /// Kuzmin points.
    pub points: Vec<Point>,
    /// `link` graph + weighted version.
    pub link: Graph,
    /// `rmat` graph.
    pub rmat: Graph,
    /// `road` graph.
    pub road: Graph,
    /// Weighted `link`.
    pub wlink: WeightedGraph,
    /// Weighted `road`.
    pub wroad: WeightedGraph,
    /// Canonical edge lists per family (for `mm`, `sf`).
    pub link_edges: (usize, Vec<(u32, u32)>),
    /// `rmat` edges.
    pub rmat_edges: (usize, Vec<(u32, u32)>),
    /// `road` edges.
    pub road_edges: (usize, Vec<(u32, u32)>),
    /// Weighted edges for `msf`.
    pub rmat_wedges: (usize, Vec<(u32, u32, u32)>),
    /// Weighted `road` edges.
    pub road_wedges: (usize, Vec<(u32, u32, u32)>),
}

impl Workloads {
    /// Builds every input at the given scale (deterministic).
    pub fn build(scale: Scale) -> Workloads {
        let text = inputs::wiki(scale.text_len);
        let bwt = rpb_text::bwt_encode(&text, rpb_fearless::ExecMode::Unsafe);
        Workloads {
            scale,
            bwt,
            text,
            seq: inputs::exponential(scale.seq_len),
            points: inputs::kuzmin(scale.points_n),
            link: inputs::graph(GraphKind::Link, scale.graph_n / 4),
            rmat: inputs::graph(GraphKind::Rmat, scale.graph_n),
            road: inputs::graph(GraphKind::Road, scale.graph_n),
            wlink: inputs::weighted_graph(GraphKind::Link, scale.graph_n / 4),
            wroad: inputs::weighted_graph(GraphKind::Road, scale.graph_n),
            link_edges: inputs::edges(GraphKind::Link, scale.graph_n / 4),
            rmat_edges: inputs::edges(GraphKind::Rmat, scale.graph_n),
            road_edges: inputs::edges(GraphKind::Road, scale.graph_n),
            rmat_wedges: inputs::weighted_edges(GraphKind::Rmat, scale.graph_n),
            road_wedges: inputs::weighted_edges(GraphKind::Road, scale.graph_n),
        }
    }

    /// Inputs well below the gate scale, so the in-crate gate and verify
    /// tests stay fast; CI's jobs exercise the real gate scale through
    /// the binary.
    #[cfg(test)]
    pub(crate) fn tiny() -> Workloads {
        Workloads::build(Scale {
            text_len: 2_000,
            seq_len: 8_000,
            graph_n: 400,
            points_n: 200,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workloads_build() {
        let w = Workloads::build(Scale::small());
        assert_eq!(w.text.len(), Scale::small().text_len);
        assert_eq!(w.bwt.len(), w.text.len() + 1);
        assert!(w.link.avg_degree() > w.road.avg_degree());
        assert!(!w.rmat_wedges.1.is_empty());
    }
}
