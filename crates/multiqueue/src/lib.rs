//! # rpb-multiqueue
//!
//! The MultiQueue relaxed concurrent priority scheduler (Rihani, Sanders &
//! Dementiev, SPAA'15) and a worker-thread executor, as used by the `bfs`
//! and `sssp` benchmarks of the RPB suite (Sec. 6 of the paper).
//!
//! A MultiQueue wraps `c × threads` sequential priority queues, each
//! guarded by a lock. `push` inserts into a random queue; `pop` compares
//! the tops of two random queues and pops from the better one — giving
//! *probabilistic* rank guarantees that in practice scale far better than
//! a strict concurrent heap. As in Williams & Sanders' engineered
//! MultiQueue, the executor's workers make those random choices with
//! generators of their own and keep them for several operations, batch a
//! task's children into one locked insertion, and count termination
//! mostly in private (module docs of [`mq`] and [`executor`]): a typical
//! task touches its own worker's state and one queue lock.
//!
//! The paper's observations reproduced here:
//!
//! * Rust `Mutex`es encapsulate the sequential queues (bucket queues
//!   with an overflow heap, module docs of [`mq`]), ruling out
//!   unsynchronized access and atomicity violations on them, and the
//!   RAII `MutexGuard` makes forgetting an unlock impossible.
//! * Nothing prevents deadlock or livelock — the *implementer* of the
//!   scheduler stays scared; the *user* of the safe API does not.

#![forbid(unsafe_code)]

pub mod backend;
pub mod executor;
pub mod mq;
pub mod stats;

pub use backend::{ensure_registered, MqExecutor};
pub use executor::{
    execute, execute_on, panic_message, try_execute, try_execute_on, ExecutorError, ExecutorStats,
    Handle,
};
pub use mq::MultiQueue;
pub use stats::{measure_rank_error, rank_error_sweep, RankErrorStats};
