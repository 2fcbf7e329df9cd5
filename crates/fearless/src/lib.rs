//! # rpb-fearless
//!
//! The primary contribution of *"When Is Parallelism Fearless and Zero-Cost
//! with Rust?"* (SPAA '24): parallel iterators for **indirect write
//! patterns**, plus the paper's taxonomy of parallel access patterns and its
//! fearlessness spectrum.
//!
//! ## The problem
//!
//! Rust + Rayon make *regular* parallelism fearless: `par_iter_mut`
//! (`Stride`) and `par_chunks_mut` (`Block`) statically constrain each task
//! to disjoint parts of a shared collection. But two patterns ubiquitous in
//! irregular benchmarks have no safe expression:
//!
//! * **`SngInd`** — `out[offsets[i]] = f(i)`: tasks write through an
//!   indirection array that the *algorithm* guarantees has unique entries,
//!   but neither `rustc` nor cheap static checks can prove it.
//! * **`RngInd`** — `out[offsets[i]..offsets[i+1]] = f(i)`: tasks write
//!   contiguous chunks whose boundaries come from run-time data.
//!
//! ## The solution (Sec. 5.1 of the paper)
//!
//! * [`ParIndIterMutExt::par_ind_iter_mut`] validates offset **uniqueness**
//!   at run time, then hands each task a mutable reference to its unique
//!   element: *comfortable* (errors surface at run time, near their cause)
//!   but the check costs real work.
//! * [`ParIndIterMutExt::par_ind_iter_mut_unchecked`] skips the check:
//!   *scary*, equivalent to the C++ original.
//! * [`ParIndChunksMutExt::par_ind_chunks_mut`] validates that the chunk
//!   boundaries are **monotone** — an `O(k)` check that is effectively
//!   free — and yields disjoint `&mut [T]` chunks: *comfortable at ~zero
//!   cost*.
//!
//! Both are genuine Rayon [`IndexedParallelIterator`]s, so they compose with
//! `enumerate`, `zip`, `map`, etc.
//!
//! [`IndexedParallelIterator`]: rayon::iter::IndexedParallelIterator

pub mod listings;
pub mod mode;
pub mod pool;
pub mod proof;
pub mod registry;
pub mod rng_ind;
pub mod snd_ind;
pub mod taxonomy;

/// The raw-pointer view and the atomic view this crate's iterators are built
/// on, defined in `rpb-parlay` so that its counting pass shares them.
pub use rpb_parlay::shared;

pub use mode::{ExecMode, ParseExecModeError, ALL_MODES};
pub use pool::PoolStats;
pub use proof::{
    validate_chunk_offsets_cached, validate_offsets_cached, ParIndProvedExt, ValidatedChunks,
    ValidatedOffsets, ValidatedRuns,
};
pub use registry::{PatternCensus, PatternCount};
pub use rng_ind::{IndChunksError, ParIndChunksMut, ParIndChunksMutExt};
pub use shared::{atomic_view, SharedMutSlice};
pub use snd_ind::{IndOffsetsError, ParIndIterMut, ParIndIterMutExt, UniquenessCheck};
pub use taxonomy::{DataStructure, Dispatch, Fearlessness, Operator, Pattern};
