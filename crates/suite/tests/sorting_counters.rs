//! What the two sorting benchmarks validate in `Checked` mode, pinned to
//! the counting pass they share: `sort` checks the `nbuckets + 1` bucket
//! boundaries its scan returns, once; `isort` checks every pass's `n`
//! destinations — all passes, also those whose digit is constant (the
//! radix sort of `rpb-parlay` skips such passes; the benchmark, whose
//! per-pass check is the exhibit, must not).
//!
//! A single test in a binary of its own, because `metrics::capture`
//! reads a process-global registry that a concurrent run in the same
//! process would also write.

use rpb_fearless::ExecMode;
use rpb_obs::metrics;
use rpb_parlay::random::hash64;
use rpb_suite::{isort, sort};

#[test]
fn checked_sorts_validate_what_the_counting_pass_hands_them() {
    let n = 1usize << 16;
    let input: Vec<u64> = (0..n as u64).map(hash64).collect();
    let mut want = input.clone();
    want.sort_unstable();
    let mut got = input.clone();
    let ((), snap) = metrics::capture(|| sort::run_par(&mut got, ExecMode::Checked));
    assert_eq!(got, want);
    if rpb_obs::enabled() {
        // sample_sort's bucket count for 2^16 keys: ceil(sqrt(n) / 8).
        let nbuckets = 32;
        assert_eq!(snap.counter("rngind_checks"), 1);
        assert_eq!(snap.counter("rngind_boundaries_validated"), nbuckets + 1);
    }

    // Keys below 256 under key_bits = 24: digits 1 and 2 are constant.
    let input: Vec<u64> = (0..n as u64).map(|i| hash64(i) % 256).collect();
    let mut want = input.clone();
    want.sort_unstable();
    let mut got = input.clone();
    let ((), snap) = metrics::capture(|| isort::run_par(&mut got, 24, ExecMode::Checked));
    assert_eq!(got, want);
    if rpb_obs::enabled() {
        assert_eq!(snap.counter("sngind_offsets_validated"), 3 * n as u64);
    }
}
