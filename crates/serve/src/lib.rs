//! # rpb-serve
//!
//! The suite as a *resident service*: where `rpb-bench` builds its inputs,
//! times one batch, and exits, this crate keeps the datasets and executor
//! pools alive and answers a stream of benchmark jobs over a socket — the
//! steady-state regime the paper's amortized-validation claims are about.
//! The built-in `Checked`-mode jobs validate nothing at run time: `isort`
//! and `sort` scatter through the proofs their counting pass issues, so
//! the validation pool sees neither a hit nor a miss (the `serve-*`
//! perf-gate cells hard-check both counters, and `rpb serve --self-test`
//! checks that they stay flat across its steady phase).
//!
//! Layers, bottom up:
//!
//! * [`datasets`] — inputs preloaded once at a [`rpb_suite::Scale`],
//!   shared read-only by every job.
//! * [`jobs`] — the job vocabulary (`sort`/`isort`/`dedup`/`hist`/
//!   `bfs`/`sssp`), each returning a deterministic result digest and
//!   recording a per-endpoint SLO latency histogram.
//! * [`farm`] — the emitter → N workers dispatch loop (the PPL "farm"
//!   shape): a bounded queue with admission control (typed shed at the
//!   depth cap, never an unbounded backlog), persistent workers each
//!   holding a resident executor pool from the [`rpb_parlay::exec`]
//!   backend registry, and graceful drain.
//! * [`proto`] — the `rpb-jobs-v1` wire format: 4-byte length-prefixed
//!   JSON frames over TCP.
//! * [`server`] / [`load`] — the TCP front end (one reader thread per
//!   connection; a reply is written, under the connection's lock and a
//!   write timeout, by the reader or the worker that has it) and the
//!   bundled load generator (`rpb serve` / `rpb load`).
//! * [`trace`] — pinned deterministic admission traces; the perf gate's
//!   `serve-steady` / `serve-burst` cells hard-gate their counters.
//! * [`cli`] — the `rpb serve` / `rpb load` subcommand grammars.

#![forbid(unsafe_code)]

pub mod cli;
pub mod datasets;
pub mod farm;
pub mod jobs;
pub mod load;
pub mod proto;
pub mod server;
pub mod trace;

pub use datasets::Datasets;
pub use farm::{Admission, Farm, FarmConfig, FarmStats};
pub use jobs::JobKind;

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that run jobs: the validation pool
    /// (`rpb_fearless::pool`) and the per-endpoint latency histograms are
    /// process-global, so a concurrent holder — or a test that clears the
    /// pool — turns another test's zero-miss window or sample count into a
    /// race. Poisoning is ignored; a panicked holder already failed its
    /// own test.
    pub fn pool_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}
