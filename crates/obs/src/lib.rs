//! # rpb-obs
//!
//! Lock-free, feature-gated telemetry for the RPB suite.
//!
//! The paper's central claim is that its recommended Rust configuration is
//! *zero-cost*; an instrumentation layer must therefore cost **nothing**
//! unless explicitly enabled, or it would invalidate the very numbers it
//! measures. This crate provides:
//!
//! * [`Counter`] — sharded relaxed-atomic event counters,
//! * [`MaxCounter`] — a running maximum (`fetch_max`),
//! * [`PerThreadCounter`] — per-thread-slot counters for imbalance analysis,
//! * [`DurationHisto`] — power-of-two-bucket duration histograms,
//! * [`ScopedTimer`] / [`span!`] — RAII timers recording into a histogram,
//! * [`metrics`] — the suite-wide named metric statics plus
//!   [`metrics::snapshot`] / [`metrics::reset`] and the per-run
//!   attribution bracket [`metrics::capture`],
//! * [`json`] — a dependency-free JSON writer/parser used by the bench
//!   harness for `--json` run reports.
//!
//! ## Zero cost when off
//!
//! Without the `obs` cargo feature every telemetry type is a zero-sized
//! struct whose methods are empty `#[inline]` bodies: no atomics, no clock
//! reads, no allocation — the optimizer erases every call site. A unit test
//! below pins the zero-size property. With `--features obs` the same API
//! records for real; all writes are relaxed atomics sharded to avoid
//! cache-line ping-pong, so enabling telemetry perturbs timings as little
//! as possible.
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
//! // With `obs` off both reads are 0; with it on they reflect the adds.
//! let _ = snap.counter("sngind_offsets_validated");
//! ```

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

/// True when this build records telemetry (the `obs` feature is enabled).
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_when_off_is_structural() {
        // With the feature off, every telemetry type is zero-sized: there
        // is literally no state to update in the hot path.
        if !enabled() {
            assert_eq!(std::mem::size_of::<Counter>(), 0);
            assert_eq!(std::mem::size_of::<MaxCounter>(), 0);
            assert_eq!(std::mem::size_of::<PerThreadCounter>(), 0);
            assert_eq!(std::mem::size_of::<DurationHisto>(), 0);
        }
    }

    #[test]
    fn api_is_callable_regardless_of_feature() {
        static C: Counter = Counter::new();
        C.add(3);
        let h = DurationHisto::new();
        h.record(std::time::Duration::from_micros(5));
        let snap = metrics::snapshot();
        if enabled() {
            assert_eq!(C.get(), 3);
            assert_eq!(h.snapshot().count, 1);
        } else {
            assert_eq!(C.get(), 0);
            assert_eq!(h.snapshot().count, 0);
        }
        // Snapshot always carries the full schema, so JSON reports are
        // shape-stable across both builds.
        assert!(snap.counters.iter().any(|(n, _)| *n == "mq_pushes"));
    }
}
