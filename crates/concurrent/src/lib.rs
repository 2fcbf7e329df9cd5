//! # rpb-concurrent
//!
//! Shared-memory substrate for the *arbitrary read-write* (`AW`) phases of
//! the RPB suite — the patterns Sec. 5.2 of the paper shows Rust cannot
//! make fearless, only race-free:
//!
//! * [`atomics`] — priority-update CAS loops (`write_min`/`write_max`,
//!   Shun et al.) used by `msf`, `bfs`, and `sssp`,
//! * [`hashtable`] — the phase-concurrent CAS hash table of the paper's
//!   Listing 8, used by `dedup` (and `dr` for point lookup),
//! * [`unionfind`] — concurrent union-find with atomic hooking, used by
//!   `sf` and `msf`,
//! * [`reservations`] — PBBS *deterministic reservations*
//!   (`speculative_for`), the engine of `mis`, `mm`, and `dr`.

#![forbid(unsafe_code)]

pub mod atomics;
pub mod hashtable;
pub mod reservations;
pub mod unionfind;

pub use atomics::{write_max_u64, write_min_u64};
pub use hashtable::ConcurrentHashSet;
pub use reservations::{speculative_for, ReservationStation, SpecStatus};
pub use unionfind::ConcurrentUnionFind;
