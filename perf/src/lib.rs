//! rpb-perf: the repo's benchmark — end-to-end and per-layer measurements of
//! the rpb stack on seeded inputs. See README.md.
#![forbid(unsafe_code)]

pub mod cells;
pub mod cli;
pub mod engine;
pub mod inputs;
pub mod metrics;
pub mod pool;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;
