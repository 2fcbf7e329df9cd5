//! `hist` — histogram (Table 1 row 11).
//!
//! Counting variants matching the paper's Fig. 5(b) discussion:
//!
//! * [`ExecMode::Unsafe`]/[`ExecMode::Checked`] — blocked per-task local
//!   histograms merged with a tree reduction (`Block` + `Stride`; safe,
//!   no synchronization),
//! * [`ExecMode::Sync`] — direct `fetch_add` on shared atomic counters:
//!   "almost zero-cost but scary" per the paper when the bin is a word.
//!   With few buckets the shared counters become a handful of hot cache
//!   lines, so the atomic arm shards them into per-thread stripes folded
//!   after the parallel loop.
//!
//! The paper's headline Fig. 5(b) outlier is the **large-struct** bin:
//! types without atomic support must fall back to `Mutex`es, costing ~4×.
//! [`run_large`] reproduces that variant with a multi-word accumulator
//! ([`LargeBin`]).
//!
//! Raw-speed pass: bucket assignment is `min(x / width, nbuckets - 1)`,
//! and the per-element `u64` division is strength-reduced at construction
//! time to a shift (power-of-two width) or an exact Granlund–Montgomery
//! multiply-shift ([`Bucketer`]).
//!
//! A zero bucket count is a degenerate parameter: every entry point
//! returns [`SuiteError::DegenerateParameter`] for it instead of
//! panicking, so the verify matrix reports it as a failed cell.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use rpb_fearless::ExecMode;

use crate::error::SuiteError;

/// Number of elements per local-histogram block.
const BLOCK: usize = 1 << 14;

/// Bucket-count ceiling below which the atomic [`ExecMode::Sync`] arm
/// shards its counters into per-thread stripes. Above it the buckets
/// already spread across enough cache lines that plain shared atomics
/// don't serialize.
const SYNC_STRIPE_MAX_BUCKETS: usize = 64;

/// Precomputed equal-width bucket map: `min(x / width, nbuckets - 1)`,
/// with the per-element division strength-reduced at construction time.
#[derive(Clone, Copy, Debug)]
struct Bucketer {
    nbuckets: usize,
    width: u64,
    div: DivKind,
}

/// How `x / width` is evaluated.
#[derive(Clone, Copy, Debug)]
enum DivKind {
    /// `width` is a power of two: plain shift.
    Shift(u32),
    /// Granlund–Montgomery round-up multiply-shift, exact for every
    /// `u64` numerator: `t = mulhi(x, magic)`, then
    /// `(t + ((x - t) >> 1)) >> (shift - 1)`.
    MulShift { magic: u64, shift: u32 },
    /// Hardware division. Only reachable for `nbuckets == 1` (where the
    /// index is 0 regardless): any wider split gives `width <= range/2
    /// < 2^63`, which the multiply-shift covers.
    Plain,
}

impl Bucketer {
    fn new(nbuckets: usize, range: u64) -> Self {
        let width = (range / nbuckets as u64).max(1);
        let div = if width.is_power_of_two() {
            DivKind::Shift(width.trailing_zeros())
        } else if width < 1 << 63 {
            // ceil(log2(width)); non-power-of-two width >= 3 puts it in
            // 2..=63, so the u128 shifts below stay in range.
            let shift = 64 - (width - 1).leading_zeros();
            let magic =
                ((1u128 << (64 + shift)).div_ceil(u128::from(width)) - (1u128 << 64)) as u64;
            DivKind::MulShift { magic, shift }
        } else {
            DivKind::Plain
        };
        Bucketer {
            nbuckets,
            width,
            div,
        }
    }

    /// `x / width` via the precomputed strategy.
    #[inline]
    fn divide(&self, x: u64) -> u64 {
        match self.div {
            DivKind::Shift(s) => x >> s,
            DivKind::MulShift { magic, shift } => {
                let t = ((u128::from(x) * u128::from(magic)) >> 64) as u64;
                // t <= x, so neither the subtraction nor the sum wraps.
                (t + ((x - t) >> 1)) >> (shift - 1)
            }
            DivKind::Plain => x / self.width,
        }
    }

    /// Bucket index of `x` (out-of-range values clamp to the last bucket).
    #[inline]
    fn index(&self, x: u64) -> usize {
        (self.divide(x) as usize).min(self.nbuckets - 1)
    }
}

fn bucketer(nbuckets: usize, range: u64) -> Result<Bucketer, SuiteError> {
    if nbuckets == 0 {
        return Err(SuiteError::degenerate(
            "hist",
            "bucket count must be positive",
        ));
    }
    Ok(Bucketer::new(nbuckets, range))
}

/// Parallel histogram of `data` into `nbuckets` equal-width buckets over
/// `[0, range)`.
pub fn run_par(
    data: &[u64],
    nbuckets: usize,
    range: u64,
    mode: ExecMode,
) -> Result<Vec<u64>, SuiteError> {
    let bucket_of = bucketer(nbuckets, range)?;
    Ok(match mode {
        ExecMode::Unsafe | ExecMode::Checked => {
            // Per-block locals + merge: fearless safe Rust.
            data.par_chunks(BLOCK)
                .map(|chunk| {
                    let mut local = vec![0u64; nbuckets];
                    for &x in chunk {
                        local[bucket_of.index(x)] += 1;
                    }
                    local
                })
                .reduce(
                    || vec![0u64; nbuckets],
                    |mut a, b| {
                        for (s, x) in a.iter_mut().zip(b) {
                            *s += x;
                        }
                        a
                    },
                )
        }
        ExecMode::Sync => {
            let threads = rayon::current_num_threads().max(1);
            if nbuckets < SYNC_STRIPE_MAX_BUCKETS && threads > 1 {
                // Few buckets, many threads: every `fetch_add` lands on
                // the same few cache lines. Shard the counters into one
                // stripe per worker (padded to a cache line so stripes
                // never share one) and fold after the parallel loop.
                let stride = nbuckets.next_multiple_of(8);
                let counts: Vec<AtomicU64> =
                    (0..threads * stride).map(|_| AtomicU64::new(0)).collect();
                data.par_iter().for_each(|&x| {
                    let stripe = rayon::current_thread_index().unwrap_or(0) % threads;
                    counts[stripe * stride + bucket_of.index(x)].fetch_add(1, Ordering::Relaxed);
                });
                let raw: Vec<u64> = counts.into_iter().map(AtomicU64::into_inner).collect();
                (0..nbuckets)
                    .map(|b| (0..threads).map(|s| raw[s * stride + b]).sum())
                    .collect()
            } else {
                let counts: Vec<AtomicU64> = (0..nbuckets).map(|_| AtomicU64::new(0)).collect();
                data.par_iter().for_each(|&x| {
                    counts[bucket_of.index(x)].fetch_add(1, Ordering::Relaxed);
                });
                counts.into_iter().map(AtomicU64::into_inner).collect()
            }
        }
    })
}

/// Sequential baseline.
pub fn run_seq(data: &[u64], nbuckets: usize, range: u64) -> Result<Vec<u64>, SuiteError> {
    let bucket_of = bucketer(nbuckets, range)?;
    let mut counts = vec![0u64; nbuckets];
    for &x in data {
        counts[bucket_of.index(x)] += 1;
    }
    Ok(counts)
}

/// Mass-conservation invariant: one bucket per requested bin, and the
/// counts sum to the element count (every element lands in exactly one
/// bucket — the property the atomic and merge variants must both keep).
pub fn verify(data: &[u64], nbuckets: usize, counts: &[u64]) -> Result<(), SuiteError> {
    if counts.len() != nbuckets {
        return Err(SuiteError::invariant(
            "hist",
            format!("{} buckets returned, want {nbuckets}", counts.len()),
        ));
    }
    let total: u64 = counts.iter().sum();
    if total != data.len() as u64 {
        return Err(SuiteError::invariant(
            "hist",
            format!("counts sum to {total}, want {} elements", data.len()),
        ));
    }
    Ok(())
}

/// A multi-word accumulator with no atomic equivalent — the "large
/// structs in hist cannot use atomics, requiring Mutexes" case of
/// Sec. 7.4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LargeBin {
    /// Element count.
    pub count: u64,
    /// Sum of values.
    pub sum: u64,
    /// Minimum value (`u64::MAX` when empty).
    pub min: u64,
    /// Maximum value.
    pub max: u64,
    /// Sum of squares (wrapping).
    pub sum_sq: u64,
}

impl Default for LargeBin {
    fn default() -> Self {
        LargeBin {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            sum_sq: 0,
        }
    }
}

impl LargeBin {
    fn add(&mut self, x: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum_sq = self.sum_sq.wrapping_add(x.wrapping_mul(x));
    }

    fn merge(&mut self, o: &LargeBin) {
        self.count += o.count;
        self.sum = self.sum.wrapping_add(o.sum);
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
        self.sum_sq = self.sum_sq.wrapping_add(o.sum_sq);
    }
}

/// Large-struct histogram.
///
/// * non-`Sync` modes: per-block locals + merge,
/// * [`ExecMode::Sync`]: one `Mutex<LargeBin>` per bucket — the 4×
///   configuration of Fig. 5(b).
pub fn run_large(
    data: &[u64],
    nbuckets: usize,
    range: u64,
    mode: ExecMode,
) -> Result<Vec<LargeBin>, SuiteError> {
    let bucket_of = bucketer(nbuckets, range)?;
    Ok(match mode {
        ExecMode::Unsafe | ExecMode::Checked => data
            .par_chunks(BLOCK)
            .map(|chunk| {
                let mut local = vec![LargeBin::default(); nbuckets];
                for &x in chunk {
                    local[bucket_of.index(x)].add(x);
                }
                local
            })
            .reduce(
                || vec![LargeBin::default(); nbuckets],
                |mut a, b| {
                    for (s, x) in a.iter_mut().zip(&b) {
                        s.merge(x);
                    }
                    a
                },
            ),
        ExecMode::Sync => {
            let bins: Vec<Mutex<LargeBin>> = (0..nbuckets)
                .map(|_| Mutex::new(LargeBin::default()))
                .collect();
            data.par_iter().for_each(|&x| {
                bins[bucket_of.index(x)].lock().add(x);
            });
            bins.into_iter().map(|m| m.into_inner()).collect()
        }
    })
}

/// Sequential large-bin baseline.
pub fn run_large_seq(
    data: &[u64],
    nbuckets: usize,
    range: u64,
) -> Result<Vec<LargeBin>, SuiteError> {
    let bucket_of = bucketer(nbuckets, range)?;
    let mut bins = vec![LargeBin::default(); nbuckets];
    for &x in data {
        bins[bucket_of.index(x)].add(x);
    }
    Ok(bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn all_modes_match_sequential() {
        let data = inputs::exponential(200_000);
        let range = 200_000;
        let want = run_seq(&data, 256, range).expect("hist");
        assert_eq!(want.iter().sum::<u64>(), data.len() as u64);
        for mode in [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync] {
            let got = run_par(&data, 256, range, mode).expect("hist");
            assert_eq!(got, want, "{mode}");
            verify(&data, 256, &got).expect("mass conserved");
        }
    }

    #[test]
    fn large_bins_match_sequential() {
        let data = inputs::exponential(100_000);
        let range = 100_000;
        let want = run_large_seq(&data, 64, range).expect("hist");
        for mode in [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync] {
            assert_eq!(
                run_large(&data, 64, range, mode).expect("hist"),
                want,
                "{mode}"
            );
        }
    }

    #[test]
    fn single_bucket_counts_everything() {
        let data = vec![1u64, 2, 3];
        assert_eq!(
            run_par(&data, 1, 10, ExecMode::Sync).expect("hist"),
            vec![3]
        );
    }

    #[test]
    fn out_of_range_values_clamp_to_last_bucket() {
        let data = vec![999u64];
        let h = run_par(&data, 4, 100, ExecMode::Checked).expect("hist");
        assert_eq!(h[3], 1);
    }

    #[test]
    fn empty_input() {
        let h = run_par(&[], 8, 100, ExecMode::Unsafe).expect("hist");
        assert_eq!(h, vec![0; 8]);
    }

    #[test]
    fn zero_buckets_is_a_typed_error() {
        for result in [
            run_par(&[1], 0, 10, ExecMode::Checked).map(|_| ()),
            run_seq(&[1], 0, 10).map(|_| ()),
            run_large(&[1], 0, 10, ExecMode::Sync).map(|_| ()),
            run_large_seq(&[1], 0, 10).map(|_| ()),
        ] {
            let err = result.unwrap_err();
            assert!(
                matches!(err, SuiteError::DegenerateParameter { .. }),
                "{err}"
            );
            assert_eq!(err.benchmark(), "hist");
        }
    }

    #[test]
    fn verify_catches_lost_and_invented_counts() {
        let data = vec![5u64; 100];
        let mut h = run_seq(&data, 4, 10).expect("hist");
        verify(&data, 4, &h).expect("clean");
        // Every key lands in one bucket; an empty one has no count to lose.
        let occupied = h.iter().position(|&c| c == 100).expect("one full bucket");
        h[occupied] += 1;
        assert!(verify(&data, 4, &h).is_err());
        h[occupied] -= 2;
        assert!(verify(&data, 4, &h).is_err());
        assert!(verify(&data, 3, &run_seq(&data, 4, 10).expect("hist")).is_err());
    }

    #[test]
    fn bucketer_strength_reduction_matches_division_on_edges() {
        // Deterministic sweep (Miri-friendly): widths around powers of
        // two exercise both the shift and multiply-shift dividers,
        // values span the full u64 range.
        let mut widths = vec![1u64, 2, 3, 5, 7, 100];
        for p in [1u32, 2, 7, 31, 32, 62] {
            let w = 1u64 << p;
            widths.extend([w - 1, w, w + 1]);
        }
        for &width in &widths {
            for nbuckets in [1usize, 2, 3, 256] {
                let range = width.saturating_mul(nbuckets as u64);
                let b = Bucketer::new(nbuckets, range);
                for x in [
                    0u64,
                    1,
                    width.saturating_sub(1),
                    width,
                    width.saturating_add(1),
                    u64::MAX - 1,
                    u64::MAX,
                ] {
                    assert_eq!(b.divide(x), x / b.width, "width {width} x {x}");
                    assert_eq!(
                        b.index(x),
                        ((x / b.width) as usize).min(nbuckets - 1),
                        "width {width} nbuckets {nbuckets} x {x}"
                    );
                }
            }
        }
        // Largest multiply-shift width: 2^63 - 1 (shift lands on 63).
        let b = Bucketer::new(2, u64::MAX - 1);
        assert_eq!(b.width, (1u64 << 63) - 1);
        for x in [0, b.width - 1, b.width, b.width + 1, u64::MAX] {
            assert_eq!(b.divide(x), x / b.width, "x {x}");
        }
        // Hardware-division fallback: a single bucket with a huge
        // non-power-of-two width.
        let plain = Bucketer::new(1, u64::MAX);
        assert!(matches!(plain.div, DivKind::Plain));
        for x in [0, 1, u64::MAX - 1, u64::MAX] {
            assert_eq!(plain.divide(x), x / plain.width);
            assert_eq!(plain.index(x), 0);
        }
    }

    #[test]
    fn sync_striping_matches_sequential_on_hot_buckets() {
        // Every element lands in bucket 0 of a tiny bucket array — the
        // contention case the striped Sync arm shards. The fold must
        // reproduce the sequential counts exactly.
        let n = if cfg!(miri) { 300 } else { 100_000 };
        let hot = vec![3u64; n];
        for nbuckets in [1usize, 2, 7, 63] {
            let want = run_seq(&hot, nbuckets, 1_000).expect("hist");
            let got = run_par(&hot, nbuckets, 1_000, ExecMode::Sync).expect("hist");
            assert_eq!(got, want, "nbuckets {nbuckets}");
            assert_eq!(got[0], n as u64);
        }
        // Mixed occupancy below the striping threshold.
        let data = inputs::exponential(n);
        let want = run_seq(&data, 16, n as u64).expect("hist");
        assert_eq!(
            run_par(&data, 16, n as u64, ExecMode::Sync).expect("hist"),
            want
        );
    }

    #[cfg(not(miri))]
    mod divider_props {
        use super::super::Bucketer;
        use rpb_parlay::prop::check;

        #[test]
        fn strength_reduction_equals_division() {
            check("strength_reduction_equals_division", 256, |g| {
                let (x, range) = (g.u64(), g.u64());
                let nbuckets = g.in_range(1..4097) as usize;
                let b = Bucketer::new(nbuckets, range);
                assert_eq!(b.divide(x), x / b.width);
                assert_eq!(b.index(x), ((x / b.width) as usize).min(nbuckets - 1));
            });
        }
    }
}
