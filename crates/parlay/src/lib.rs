//! # rpb-parlay
//!
//! PBBS/ParlayLib-style parallel primitives used as the substrate of the
//! Rust Parallel Benchmarks (RPB) suite from *"When Is Parallelism Fearless
//! and Zero-Cost with Rust?"* (SPAA '24).
//!
//! The crate provides the building blocks that the original C++ benchmarks
//! obtained from ParlayLib, re-expressed in idiomatic Rust on top of
//! [Rayon](https://docs.rs/rayon):
//!
//! * [`mod@scan`] — inclusive/exclusive prefix sums over arbitrary monoids,
//! * [`mod@reduce`] — parallel reductions,
//! * [`mod@pack`] — pack/filter/flatten,
//! * [`mod@counting`] — the blocked stable counting pass (per-block
//!   histogram → column-major scan → scatter; ParlayLib's `count_sort`
//!   core), shared by the radix sort, the sample sort, the `isort`
//!   benchmark and the BWT's LF mapping, which hands out its destinations
//!   and boundaries as sealed proofs (`Permutation`, `Bounds`),
//! * [`mod@sort`] — stable LSD radix sort, group refinement, sample sort,
//!   and merge sort,
//! * [`mod@list_rank`] — sampling-based parallel list ranking (used by `bw`),
//! * [`mod@random`] — the PBBS 64-bit hash / counter-based RNG,
//! * [`mod@prop`] — the seeded property-test harness the workspace's
//!   property suites run on,
//! * [`mod@seqdata`] — the PBBS `exponential` sequence and random permutations,
//! * [`mod@shared`] — the workspace's one raw-pointer view
//!   (`SharedMutSlice`) and its one atomic reinterpretation
//!   (`atomic_view`), which `rpb-fearless` re-exports,
//! * [`mod@slice_util`] — chunking helpers shared by the suite.
//!
//! Most of this crate is *regular* parallelism in the paper's taxonomy:
//! each task's write set is statically disjoint (`Stride` / `Block` /
//! `D&C`), or carved off a buffer with `split_at_mut` at scanned offsets
//! (pack, flatten, the sample sort's buckets), so it is safe Rust over
//! Rayon. The exceptions are few and named: [`mod@shared`] itself; the
//! counting pass's scatter, whose destinations are data-dependent
//! (`SngInd`) and which writes through a `SharedMutSlice`, each write
//! bounded by its (block, bucket) range; the `set_len` that ends pack and
//! flatten; and the radix sort's `MaybeUninit` buffer casts and AVX2
//! digit histogram.

pub mod collect_reduce;
pub mod counting;
pub mod exec;
pub mod list_rank;
pub mod pack;
pub mod panics;
pub mod prop;
pub mod random;
pub mod reduce;
pub mod scan;
pub mod select;
pub mod seqdata;
pub mod shared;
pub mod simd;
pub mod slice_util;
pub mod sort;

pub use collect_reduce::{collect_reduce_dense, collect_reduce_sparse, count_by_key};
pub use counting::{Bounds, CountingPass, Permutation};
pub use exec::{default_backend, BackendKind, Executor};
pub use pack::{filter, flatten, pack, pack_index};
pub use panics::panic_message;
pub use random::Random;
pub use reduce::{max_index, reduce, reduce_with};
pub use scan::{scan_exclusive, scan_inclusive, scan_inplace_exclusive};
pub use select::Selector;
pub use sort::{
    merge_sort, radix_sort_by_key, radix_sort_u32, radix_sort_u64, sample_sort, ChangedRuns,
    Refinement,
};

/// Granularity below which parallel primitives fall back to sequential code.
///
/// PBBS uses a comparable per-task grain (~2k elements) to amortize
/// work-stealing overheads; Rayon's adaptive splitting makes the exact value
/// non-critical.
pub const SEQ_THRESHOLD: usize = 2048;

/// Returns the number of blocks a length-`n` slice is divided into by the
/// blocked primitives, for a given block size.
#[inline]
pub fn num_blocks(n: usize, block_size: usize) -> usize {
    n.div_ceil(block_size.max(1))
}
