//! # rpb-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. 7 and Appendix A). The `rpb` binary drives it:
//!
//! ```text
//! rpb table1            # benchmark × pattern matrix
//! rpb table2            # input graph characteristics
//! rpb table3            # pattern → expression → fearlessness
//! rpb fig3              # access-pattern distribution (+ §7.2 headline)
//! rpb fig4  [opts]      # parallel vs sequential, 1 and N threads
//! rpb fig5a [opts]      # par_ind_iter_mut check overhead (bw, lrs, sa)
//! rpb fig5b [opts]      # synchronization overhead (12 pairs)
//! rpb fig6  [opts]      # Rayon-justification microbenchmark
//! rpb all   [opts]      # everything
//! rpb verify [opts]     # cross-mode differential verification matrix
//! rpb gate  <record|compare|check> [opts]   # deterministic perf gate
//! ```
//!
//! Options: `--scale gate|small|medium|large`, `--threads N`, `--reps N`,
//! `--json PATH` (the timed figures), and one value of `--backend` /
//! `--channel` to set the process default. `verify` additionally takes
//! `--suite a,b,...`, `--mode m,...`, `--workers n,...`, `--inject bench`,
//! `--streaming`, and comma lists for the `--kernel-impl`, `--backend` and
//! `--channel` axes (see [`verifier`]; README "Run-time axes" has the
//! values, aliases and environment variables).
//!
//! See EXPERIMENTS.md for the mapping to the paper's numbers and the
//! substitutions (this machine is not a 24-core `c5.metal`; the *shape*
//! of each comparison is the reproduction target).

pub mod fig6;
pub mod figures;
pub mod gate;
pub mod record;
pub mod runner;
pub mod verifier;
pub mod workloads;

pub use record::{EnvInfo, RunRecord};
pub use rpb_suite::Scale;
pub use runner::ALL_PAIRS;
pub use workloads::Workloads;

use std::time::{Duration, Instant};

/// Writes pre-rendered text to stdout — the one way the `rpb` binary and
/// the gate CLI print. A closed pipe (`rpb … | head`) is not a failure:
/// the reader has what it asked for, so the text is dropped and the
/// command goes on to the exit code it would have had. Any other write
/// error panics, as `print!` does.
pub fn emit(text: &str) {
    use std::io::{ErrorKind, Write};
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => panic!("failed printing to stdout: {e}"),
        _ => {}
    }
}

/// Result of one timed measurement: best, mean, and robust order
/// statistics (median and median absolute deviation) over the measured
/// repetitions (warmup excluded).
///
/// The harness prints `best` (the lower-variance choice for a noisy shared
/// container; changes no ratios vs. the paper's means over 10 runs) and the
/// `--json` run records carry all four, so the `BENCH_*.json` perf
/// trajectory can track any statistic. `median`/`mad` are what the perf
/// gate's soft wall-clock comparison uses: the median ignores one-off
/// scheduler hiccups entirely, and the MAD gives a scale-free noise bound
/// that stays meaningful on shared CI runners.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingStats {
    /// Minimum measured repetition.
    pub best: Duration,
    /// Mean over the measured repetitions.
    pub mean: Duration,
    /// Median measured repetition (upper-middle element for even `reps`).
    pub median: Duration,
    /// Median absolute deviation from `median` (same upper-middle
    /// convention); 0 for a single repetition.
    pub mad: Duration,
    /// Number of measured repetitions (≥ 1; warmup not counted).
    pub reps: usize,
}

impl TimingStats {
    /// `best` in whole nanoseconds.
    pub fn best_ns(&self) -> u128 {
        self.best.as_nanos()
    }

    /// `mean` in whole nanoseconds.
    pub fn mean_ns(&self) -> u128 {
        self.mean.as_nanos()
    }

    /// `median` in whole nanoseconds.
    pub fn median_ns(&self) -> u128 {
        self.median.as_nanos()
    }

    /// `mad` in whole nanoseconds.
    pub fn mad_ns(&self) -> u128 {
        self.mad.as_nanos()
    }

    /// Builds the statistics from raw per-repetition samples.
    ///
    /// # Panics
    /// Panics on an empty sample set.
    pub fn from_samples(samples: &[Duration]) -> TimingStats {
        assert!(!samples.is_empty(), "TimingStats needs at least one sample");
        let best = *samples.iter().min().expect("non-empty");
        let total: Duration = samples.iter().sum();
        let median = median_of(samples);
        let deviations: Vec<Duration> = samples.iter().map(|&s| s.abs_diff(median)).collect();
        TimingStats {
            best,
            mean: total / samples.len() as u32,
            median,
            mad: median_of(&deviations),
            reps: samples.len(),
        }
    }
}

/// Upper-middle median (element at `len / 2` of the sorted samples for
/// even lengths — no averaging, so the value is always one that was
/// actually measured).
fn median_of(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Times `f` with one warmup and `reps` measured repetitions.
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> TimingStats {
    f(); // warmup
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed());
    }
    TimingStats::from_samples(&samples)
}

/// Geometric mean of ratios.
pub fn gmean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return f64::NAN;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_identity() {
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(gmean(&[]).is_nan());
    }

    #[test]
    fn time_best_returns_consistent_stats() {
        let ts = time_best(3, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert_eq!(ts.reps, 3);
        assert!(
            ts.best <= ts.mean,
            "best {:?} > mean {:?}",
            ts.best,
            ts.mean
        );
        assert!(ts.best <= ts.median);
        assert!(ts.mean < Duration::from_secs(1));
    }

    #[test]
    fn from_samples_computes_robust_statistics() {
        let ns = |v: u64| Duration::from_nanos(v);
        // Odd count with one wild outlier: the median and MAD ignore it.
        let ts = TimingStats::from_samples(&[ns(100), ns(110), ns(90), ns(105), ns(10_000)]);
        assert_eq!(ts.best, ns(90));
        assert_eq!(ts.median, ns(105));
        // Deviations from 105: [5, 5, 15, 0, 9895] -> median 5.
        assert_eq!(ts.mad, ns(5));
        assert_eq!(ts.reps, 5);

        // Even count: upper-middle convention, no averaging.
        let ts = TimingStats::from_samples(&[ns(10), ns(20), ns(30), ns(40)]);
        assert_eq!(ts.median, ns(30));

        // Single sample: degenerate but defined.
        let ts = TimingStats::from_samples(&[ns(7)]);
        assert_eq!((ts.best, ts.median, ts.mad), (ns(7), ns(7), Duration::ZERO));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn from_samples_rejects_empty() {
        TimingStats::from_samples(&[]);
    }
}
