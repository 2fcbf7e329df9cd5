//! # RPB-rs — the Rust Parallel Benchmarks
//!
//! A from-scratch reproduction of *"When Is Parallelism Fearless and
//! Zero-Cost with Rust?"* (Abdi, Posluns, Zhang, Wang, Jeffrey —
//! SPAA 2024): the paper's proposed indirect parallel iterators, the 14
//! RPB benchmarks with unsafe/checked/synchronized mode switches, and
//! every substrate they need.
//!
//! ## Crate map
//!
//! | Facade module | Crate | Contents |
//! |---|---|---|
//! | [`fearless`] | `rpb-fearless` | `par_ind_iter_mut`, `par_ind_chunks_mut`, pattern taxonomy, fear spectrum |
//! | [`parlay`] | `rpb-parlay` | scan/reduce/pack/sorts/list-ranking primitives |
//! | [`concurrent`] | `rpb-concurrent` | CAS hash table, priority updates, union-find, deterministic reservations |
//! | [`multiqueue`] | `rpb-multiqueue` | MultiQueue relaxed priority scheduler + executor |
//! | [`graph`] | `rpb-graph` | CSR graphs and the Table 2 input generators |
//! | [`text`] | `rpb-text` | suffix arrays, LCP, BWT, corpus generator |
//! | [`geom`] | `rpb-geom` | Delaunay triangulation and refinement |
//! | [`suite`] | `rpb-suite` | the 14 benchmarks (`bw` … `sssp`) |
//! | [`obs`] | `rpb-obs` | lock-free telemetry: counters, duration histograms, JSON reports |
//!
//! ## Quickstart
//!
//! ```
//! use rayon::prelude::*;
//! use rpb::fearless::ParIndIterMutExt;
//!
//! // SngInd — out[offsets[i]] = f(i) — with a run-time uniqueness check:
//! let offsets = vec![2usize, 0, 3, 1];
//! let input = vec![10u32, 20, 30, 40];
//! let mut out = vec![0u32; 4];
//! out.par_ind_iter_mut(&offsets)
//!     .zip(input.par_iter())
//!     .for_each(|(slot, &v)| *slot = v);
//! assert_eq!(out, vec![20, 40, 10, 30]);
//! ```

#![forbid(unsafe_code)]

pub use rpb_concurrent as concurrent;
pub use rpb_fearless as fearless;
pub use rpb_geom as geom;
pub use rpb_graph as graph;
pub use rpb_multiqueue as multiqueue;
pub use rpb_obs as obs;
pub use rpb_parlay as parlay;
pub use rpb_suite as suite;
pub use rpb_text as text;

pub use rpb_fearless::{ExecMode, Fearlessness, Pattern};
