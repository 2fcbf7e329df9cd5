//! # rpb-graph
//!
//! Graph substrate for the RPB suite: compressed sparse row (CSR) graphs,
//! the paper's three input-graph families re-created as generators
//! (Table 2), and sequential reference algorithms that the parallel
//! benchmarks are validated against.
//!
//! | Paper input | Generator here | Properties preserved |
//! |---|---|---|
//! | `link` (Hyperlink2012-hosts) | high-skew R-MAT, avg deg ~20 | power-law degrees, low diameter |
//! | `rmat` (Chakrabarti R-MAT) | standard R-MAT, avg deg 6 | same model, reduced scale |
//! | `road` (Full USA roads) | 2D grid + diagonals, avg deg ~2.4 | low degree, high diameter |

#![forbid(unsafe_code)]

pub mod csr;
pub mod gen;
pub mod seq;

pub use csr::{Graph, WeightedGraph};
pub use gen::{grid_road, rmat, uniform_random, GraphKind};
