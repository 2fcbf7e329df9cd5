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
//! rpb gate  <record|compare|check> [opts]   # deterministic counter gate
//! ```
//!
//! Options: `--scale gate|small|medium|large`, `--threads N`, `--reps N`,
//! and one value of `--backend` / `--channel` to set the process default.
//! `verify` additionally takes `--suite a,b,...`, `--mode m,...`,
//! `--workers n,...`, `--inject bench`, `--streaming`, and comma lists for
//! the `--backend` and `--channel` axes (see
//! [`verifier`]; README "Run-time axes" has the values, aliases and
//! environment variables).
//!
//! The gate counts and `rpb-perf` (`perf/`) times: the figures here print
//! a best-of-`reps` reading, and the recorded numbers a later PR compares
//! against come from `rpb-perf`. See EXPERIMENTS.md for the mapping to the
//! paper's numbers and the substitutions (this machine is not a 24-core
//! `c5.metal`; the *shape* of each comparison is the reproduction target).

#![forbid(unsafe_code)]

pub mod fig6;
pub mod figures;
pub mod gate;
pub mod runner;
pub mod verifier;
pub mod workloads;

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

/// Times `f` with one warm-up and `reps` measured repetitions (at least
/// one) and returns the fastest: the lower-variance statistic on a noisy
/// shared machine, and it changes no ratio against the paper's means over
/// 10 runs. Medians and quartiles over alternating runs are `rpb-perf`'s
/// (`perf/`); the figures print this.
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    f(); // warmup
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("at least one repetition")
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
        let mut runs = 0;
        let best = time_best(3, || {
            runs += 1;
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert_eq!(runs, 4, "one warm-up plus three measured repetitions");
        assert!(best < Duration::from_secs(1));
        runs = 0;
        time_best(0, || runs += 1);
        assert_eq!(runs, 2, "zero reps still measures once");
    }
}
