//! # rpb-pipeline
//!
//! Streaming pipeline skeletons for the RPB suite: typed multi-stage
//! pipelines (source → transform farms → sink) over pluggable bounded
//! channels, dispatched through the executor registry of
//! [`rpb_parlay::exec`].
//!
//! The paper's benchmarks are in-core batch kernels; this crate opens
//! the *bounded-memory streaming* scenario class on the same kernels
//! (the pipeline/farm skeleton shape of task-based middleware like PPL
//! and Kvik). Two orthogonal axes are swappable at run time:
//!
//! * **Channel backend** ([`ChannelKind`]): the crate's own bounded link
//!   (`mpsc`: yield, then park) or `crossbeam`, selectable via
//!   `--channel`/`RPB_CHANNEL` exactly as executor backends are via
//!   `--backend`/`RPB_BACKEND`.
//! * **Executor backend** ([`rpb_parlay::exec::BackendKind`]): the farm
//!   workers run as one batch on Rayon or the MultiQueue substrate.
//!
//! Both axes are *behaviorally invisible* by contract: `rpb verify
//! --streaming` cross-checks every streaming benchmark against its
//! batch counterpart on every combination, and the `pipeline-*` perf
//! gate cells hard-gate counter equality across channel backends.
//!
//! Panic safety: a panicking stage never deadlocks the pipeline — see
//! the [`pipeline`] module docs for the ownership-driven shutdown
//! cascade and [`PipelineError::StagePanicked`] for what callers get.

#![forbid(unsafe_code)]

pub mod channel;
pub mod pipeline;

pub use channel::{
    bounded, default_channel, set_default_channel, BoxReceiver, BoxSender, ChannelKind, Receiver,
    RecvError, SendError, Sender, ALL_CHANNELS,
};
pub use pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineStats, DEFAULT_CAPACITY};
