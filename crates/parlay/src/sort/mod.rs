//! Parallel sorting algorithms used across the suite.
//!
//! * [`radix`] — stable LSD radix sort (the workhorse behind the
//!   suffix-array construction; the `isort` benchmark keeps a pass loop of
//!   its own so that it can materialize every pass's destinations),
//! * [`sample`] — sample sort (the `sort` benchmark, PBBS's comparison
//!   sort of choice),
//! * [`merge`] — divide-and-conquer merge sort (the paper's Listing 9).
//!
//! Radix and sample sort both move their elements with the one blocked
//! counting pass of [`crate::counting`]; neither has a scatter of its own.

pub mod merge;
pub mod radix;
pub mod sample;

pub use merge::merge_sort;
pub use radix::{radix_sort_by_key, radix_sort_u32, radix_sort_u64};
pub use sample::{sample_sort, sample_sort_with};
