//! The timed-call table: one row per Fig. 4 benchmark-input pair, mapping it
//! to the suite's `run_par` / `run_seq` on the matching [`Inputs`] fields.
//!
//! `rpb_bench::run_case` does the same dispatch but hides its samples behind
//! `time_best` and re-warms on every call, so the benchmark keeps its own
//! table and times single calls. The rows follow `rpb_bench::ALL_PAIRS`
//! (`tests/table.rs` checks names, order and the Fig. 5 subsets against the
//! source of `crates/bench/src/runner.rs`).

use std::hint::black_box;

use rpb_fearless::ExecMode;
use rpb_parlay::exec::BackendKind;
use rpb_suite::{bfs, bw, dedup, dr, hist, isort, lrs, mis, mm, msf, sa, sf, sort, sssp};

use crate::inputs::Inputs;

/// Which end-to-end family of the suite a pair belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Text,
    Geom,
    Graph,
    Seq,
    Mq,
}

pub struct Pair {
    /// Label as in Fig. 4 (`"mis-link"`, `"sort"`, ...).
    pub name: &'static str,
    /// The benchmark's name in `rpb_suite::verify::SUITE_BENCHES`.
    pub bench: &'static str,
    pub family: Family,
    /// One parallel run in `mode`; `threads` sizes the MultiQueue pairs'
    /// own workers, the rest use the ambient pool.
    pub par: fn(&Inputs, ExecMode, usize),
    /// One run of the sequential baseline.
    pub seq: fn(&Inputs),
    /// Input items one run consumes (characters, keys, points, arcs/edges).
    pub items: fn(&Inputs) -> usize,
}

/// hist's bucket count in the suite's "large structs" configuration.
pub const HIST_BUCKETS: usize = 256;

pub const PAIRS: [Pair; 20] = [
    Pair {
        name: "bw",
        bench: "bw",
        family: Family::Text,
        par: |w, mode, _| {
            black_box(bw::run_par(&w.bwt, mode).expect("workload BWT is well-formed"));
        },
        seq: |w| {
            black_box(bw::run_seq(&w.bwt).expect("workload BWT is well-formed"));
        },
        items: |w| w.bwt.len(),
    },
    Pair {
        name: "lrs",
        bench: "lrs",
        family: Family::Text,
        par: |w, mode, _| {
            black_box(lrs::run_par(&w.text, mode));
        },
        seq: |w| {
            black_box(lrs::run_seq(&w.text));
        },
        items: |w| w.text.len(),
    },
    Pair {
        name: "sa",
        bench: "sa",
        family: Family::Text,
        par: |w, mode, _| {
            black_box(sa::run_par(&w.text, mode));
        },
        seq: |w| {
            black_box(sa::run_seq(&w.text));
        },
        items: |w| w.text.len(),
    },
    Pair {
        name: "dr",
        bench: "dr",
        family: Family::Geom,
        par: |w, mode, _| {
            black_box(dr::run_par(w.points(), mode));
        },
        seq: |w| {
            black_box(dr::run_seq(w.points()));
        },
        items: |w| w.points().len(),
    },
    Pair {
        name: "mis-link",
        bench: "mis",
        family: Family::Graph,
        par: |w, mode, _| {
            black_box(mis::run_par(&w.link, mode));
        },
        seq: |w| {
            black_box(mis::run_seq(&w.link));
        },
        items: |w| w.link.num_arcs(),
    },
    Pair {
        name: "mis-road",
        bench: "mis",
        family: Family::Graph,
        par: |w, mode, _| {
            black_box(mis::run_par(&w.road, mode));
        },
        seq: |w| {
            black_box(mis::run_seq(&w.road));
        },
        items: |w| w.road.num_arcs(),
    },
    Pair {
        name: "mm-road",
        bench: "mm",
        family: Family::Graph,
        par: |w, mode, _| {
            black_box(mm::run_par(w.road_edges.0, &w.road_edges.1, mode));
        },
        seq: |w| {
            black_box(mm::run_seq(w.road_edges.0, &w.road_edges.1));
        },
        items: |w| w.road_edges.1.len(),
    },
    Pair {
        name: "mm-rmat",
        bench: "mm",
        family: Family::Graph,
        par: |w, mode, _| {
            black_box(mm::run_par(w.rmat_edges.0, &w.rmat_edges.1, mode));
        },
        seq: |w| {
            black_box(mm::run_seq(w.rmat_edges.0, &w.rmat_edges.1));
        },
        items: |w| w.rmat_edges.1.len(),
    },
    Pair {
        name: "sf-link",
        bench: "sf",
        family: Family::Graph,
        par: |w, mode, _| {
            black_box(sf::run_par(w.link_edges.0, &w.link_edges.1, mode));
        },
        seq: |w| {
            black_box(sf::run_seq(w.link_edges.0, &w.link_edges.1));
        },
        items: |w| w.link_edges.1.len(),
    },
    Pair {
        name: "sf-road",
        bench: "sf",
        family: Family::Graph,
        par: |w, mode, _| {
            black_box(sf::run_par(w.road_edges.0, &w.road_edges.1, mode));
        },
        seq: |w| {
            black_box(sf::run_seq(w.road_edges.0, &w.road_edges.1));
        },
        items: |w| w.road_edges.1.len(),
    },
    Pair {
        name: "msf-rmat",
        bench: "msf",
        family: Family::Graph,
        par: |w, mode, _| {
            black_box(msf::run_par(w.rmat_wedges.0, &w.rmat_wedges.1, mode));
        },
        seq: |w| {
            black_box(msf::run_seq(w.rmat_wedges.0, &w.rmat_wedges.1));
        },
        items: |w| w.rmat_wedges.1.len(),
    },
    Pair {
        name: "msf-road",
        bench: "msf",
        family: Family::Graph,
        par: |w, mode, _| {
            black_box(msf::run_par(w.road_wedges.0, &w.road_wedges.1, mode));
        },
        seq: |w| {
            black_box(msf::run_seq(w.road_wedges.0, &w.road_wedges.1));
        },
        items: |w| w.road_wedges.1.len(),
    },
    Pair {
        name: "sort",
        bench: "sort",
        family: Family::Seq,
        par: |w, mode, _| {
            let mut v = w.seq.clone();
            sort::run_par(&mut v, mode);
            black_box(v);
        },
        seq: |w| {
            let mut v = w.seq.clone();
            sort::run_seq(&mut v);
            black_box(v);
        },
        items: |w| w.seq.len(),
    },
    Pair {
        name: "dedup",
        bench: "dedup",
        family: Family::Seq,
        par: |w, mode, _| {
            black_box(dedup::run_par(&w.seq, mode));
        },
        seq: |w| {
            black_box(dedup::run_seq(&w.seq));
        },
        items: |w| w.seq.len(),
    },
    Pair {
        name: "hist",
        bench: "hist",
        family: Family::Seq,
        par: |w, mode, _| {
            black_box(
                hist::run_large(&w.seq, HIST_BUCKETS, w.seq.len() as u64, mode)
                    .expect("256 buckets over a non-zero range is valid"),
            );
        },
        seq: |w| {
            black_box(
                hist::run_large_seq(&w.seq, HIST_BUCKETS, w.seq.len() as u64)
                    .expect("256 buckets over a non-zero range is valid"),
            );
        },
        items: |w| w.seq.len(),
    },
    Pair {
        name: "isort",
        bench: "isort",
        family: Family::Seq,
        par: |w, mode, _| {
            let mut v = w.seq.clone();
            isort::run_par(&mut v, w.key_bits(), mode);
            black_box(v);
        },
        seq: |w| {
            let mut v = w.seq.clone();
            isort::run_seq(&mut v, w.key_bits());
            black_box(v);
        },
        items: |w| w.seq.len(),
    },
    Pair {
        name: "bfs-road",
        bench: "bfs",
        family: Family::Mq,
        par: |w, mode, threads| {
            black_box(bfs::run_par_on(
                BackendKind::Rayon,
                &w.road,
                0,
                threads,
                mode,
            ));
        },
        seq: |w| {
            black_box(bfs::run_seq(&w.road, 0));
        },
        items: |w| w.road.num_arcs(),
    },
    Pair {
        name: "bfs-link",
        bench: "bfs",
        family: Family::Mq,
        par: |w, mode, threads| {
            black_box(bfs::run_par_on(
                BackendKind::Rayon,
                &w.link,
                0,
                threads,
                mode,
            ));
        },
        seq: |w| {
            black_box(bfs::run_seq(&w.link, 0));
        },
        items: |w| w.link.num_arcs(),
    },
    Pair {
        name: "sssp-link",
        bench: "sssp",
        family: Family::Mq,
        par: |w, mode, threads| {
            black_box(sssp::run_par_on(
                BackendKind::Rayon,
                &w.wlink,
                0,
                threads,
                mode,
            ));
        },
        seq: |w| {
            black_box(sssp::run_seq(&w.wlink, 0));
        },
        items: |w| w.wlink.num_arcs(),
    },
    Pair {
        name: "sssp-road",
        bench: "sssp",
        family: Family::Mq,
        par: |w, mode, threads| {
            black_box(sssp::run_par_on(
                BackendKind::Rayon,
                &w.wroad,
                0,
                threads,
                mode,
            ));
        },
        seq: |w| {
            black_box(sssp::run_seq(&w.wroad, 0));
        },
        items: |w| w.wroad.num_arcs(),
    },
];

/// Fig. 5(a): the pairs dominated by the `SngInd` uniqueness check, plus
/// `isort`, whose `Checked` mode runs the `RngInd` check.
pub const CHECKED_PAIRS: [&str; 4] = ["bw", "lrs", "sa", "isort"];

/// Fig. 5(b): the pairs with a `Sync` variant that synchronizes needlessly
/// (`rpb_bench::FIG5B_PAIRS`).
pub const SYNC_PAIRS: [&str; 12] = [
    "bw", "lrs", "sa", "mis-link", "mis-road", "mm-rmat", "mm-road", "msf-rmat", "msf-road",
    "sf-link", "sf-road", "hist",
];

pub fn pair(name: &str) -> &'static Pair {
    PAIRS
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark pair: {name}"))
}

/// The paper's recommended mode per pair (Sec. 7.3), as
/// `rpb_bench::recommended_mode`: checked where the check is ~free
/// (`sort`'s `RngInd`), `Sync` for the inherently synchronized MultiQueue
/// pairs, `Unsafe` elsewhere.
pub fn recommended_mode(pair: &Pair) -> ExecMode {
    match pair.family {
        Family::Mq => ExecMode::Sync,
        _ if pair.name == "sort" => ExecMode::Checked,
        _ => ExecMode::Unsafe,
    }
}
