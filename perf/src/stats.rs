//! Summary statistics over timing samples: median, quartiles, the
//! percentile rule, and the geometric mean.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, linearly interpolated between
/// order statistics. `sorted` must be non-empty and ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Median with its quartiles and the sample count — how every timing in the
/// report is summarised.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

/// The `p`-th percentile (0 < p < 100), reported only if at least ten
/// samples lie beyond it; with fewer the tail is not resolved and the
/// answer is `None`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
    if beyond < 10 {
        return None;
    }
    let s = sorted(samples);
    Some(s[s.len() - 1 - beyond])
}

/// The highest of the usual percentiles that [`percentile`] can report.
pub fn highest_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|p| percentile(samples, p).map(|v| (p, v)))
}

/// Geometric mean; `NaN` for an empty slice or a non-positive value.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || v.is_nan()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: 10 lie beyond p99, only 1 beyond p99.9.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(highest_percentile(&v), Some((99.0, 990.0)));
        // 999 samples: 9.99 → 9 beyond p99, not enough.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(highest_percentile(&v[..999]).map(|(p, _)| p), Some(95.0));
        // 39 samples cannot even resolve the upper quartile.
        assert_eq!(highest_percentile(&v[..39]), None);
        assert_eq!(highest_percentile(&v[..40]).map(|(p, _)| p), Some(75.0));
    }

    #[test]
    fn gmean_is_the_log_average() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(gmean(&[]).is_nan());
        assert!(gmean(&[1.0, 0.0]).is_nan());
    }
}
