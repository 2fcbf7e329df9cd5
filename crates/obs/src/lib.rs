//! # rpb-obs
//!
//! Lock-free telemetry for the RPB suite, compiled into every build.
//!
//! The paper's central claim is that its recommended Rust configuration is
//! *zero-cost*; the instrumentation that attributes that cost must
//! therefore be cheap enough to leave on in the build that is timed. This
//! crate provides:
//!
//! * [`Counter`] — sharded relaxed-atomic event counters,
//! * [`MaxCounter`] — a running maximum (`fetch_max`),
//! * [`PerThreadCounter`] — per-thread-slot counters for imbalance analysis,
//! * [`DurationHisto`] — power-of-two-bucket duration histograms,
//! * [`ScopedTimer`] / [`span!`] — RAII timers recording into a histogram,
//! * [`metrics`] — the suite-wide named metric statics plus
//!   [`metrics::snapshot`] / [`metrics::reset`] and the per-run
//!   attribution bracket [`metrics::capture`],
//! * [`json`] — a dependency-free JSON writer/parser (gate baselines,
//!   the `rpb serve` wire format).
//!
//! ## The cost of observing
//!
//! Every write is a relaxed atomic, sharded by thread to avoid cache-line
//! ping-pong. Call sites count once per call or per parallel leaf, never
//! once per element: a hot loop tallies into a local and adds the total
//! when it ends (the MultiQueue worker cursor, the pipeline stage loops).
//! EXPERIMENTS.md, "The cost of observing", measures the end-to-end
//! difference against a build with no counters.
//!
//! ## Usage
//!
//! ```
//! use rpb_obs::{metrics, span};
//!
//! {
//!     span!(metrics::SNGIND_CHECK_NS); // records scope duration on drop
//!     metrics::SNGIND_OFFSETS_VALIDATED.add(1024);
//! }
//! let snap = metrics::snapshot();
//! assert!(snap.counter("sngind_offsets_validated") >= 1024);
//! ```

#![forbid(unsafe_code)]

pub mod counter;
pub mod histo;
pub mod json;
pub mod metrics;
pub mod snapshot;
pub mod timer;

pub use counter::{Counter, MaxCounter, PerThreadCounter};
pub use histo::DurationHisto;
pub use json::Json;
pub use snapshot::{HistoSnapshot, Snapshot};
pub use timer::ScopedTimer;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_records_and_snapshot_carries_the_schema() {
        static C: Counter = Counter::new();
        C.add(3);
        let h = DurationHisto::new();
        h.record(std::time::Duration::from_micros(5));
        let snap = metrics::snapshot();
        assert_eq!(C.get(), 3);
        assert_eq!(h.snapshot().count, 1);
        // Snapshot always carries the full schema, so JSON reports are
        // shape-stable whatever ran.
        assert!(snap.counters.iter().any(|(n, _)| *n == "mq_pushes"));
    }
}
