//! Point-in-time copies of the metric registry, convertible to JSON.

use crate::json::Json;

/// Copied-out state of one [`crate::DurationHisto`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded duration in nanoseconds.
    pub max_ns: u64,
    /// `(bucket_index, count)` for every non-empty power-of-two bucket.
    pub buckets: Vec<(u32, u64)>,
}

impl HistoSnapshot {
    /// Mean recorded duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (in nanoseconds) of the bucket containing the `q`
    /// quantile (`0.0 ≤ q ≤ 1.0`), or 0 when empty. Resolution is the
    /// power-of-two bucket width — coarse, but monotone and cheap, which
    /// is all the serve SLO report needs from p50/p99.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return crate::histo::bucket_upper_ns(bucket as usize);
            }
        }
        self.max_ns
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::from_u64(self.count)),
            ("sum_ns".into(), Json::from_u64(self.sum_ns)),
            ("mean_ns".into(), Json::from_u64(self.mean_ns())),
            ("max_ns".into(), Json::from_u64(self.max_ns)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(b, c)| Json::Arr(vec![Json::from_u64(b as u64), Json::from_u64(c)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A copy of every metric in [`crate::metrics`] at one instant.
///
/// The schema (set of names) is identical whether or not the `obs` feature
/// is on — values are simply all zero when it is off — so downstream JSON
/// consumers never need to branch on build configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter and max-counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, state)` for every duration histogram.
    pub histos: Vec<(&'static str, HistoSnapshot)>,
    /// `(name, non-zero per-thread values)` for every per-thread counter.
    pub per_thread: Vec<(&'static str, Vec<u64>)>,
}

impl Snapshot {
    /// Value of a named counter (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// State of a named histogram, if present.
    pub fn histo(&self, name: &str) -> Option<&HistoSnapshot> {
        self.histos.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Non-zero per-thread values of a named per-thread counter.
    pub fn per_thread(&self, name: &str) -> &[u64] {
        self.per_thread
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[][..], |(_, v)| v.as_slice())
    }

    /// True when no counter fired and no histogram recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0) && self.histos.iter().all(|(_, h)| h.count == 0)
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {...}, "histos": {...}, "per_thread": {...}}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|&(n, v)| (n.to_string(), Json::from_u64(v)))
                        .collect(),
                ),
            ),
            (
                "histos".into(),
                Json::Obj(
                    self.histos
                        .iter()
                        .map(|(n, h)| (n.to_string(), h.to_json()))
                        .collect(),
                ),
            ),
            (
                "per_thread".into(),
                Json::Obj(
                    self.per_thread
                        .iter()
                        .map(|(n, vs)| {
                            (
                                n.to_string(),
                                Json::Arr(vs.iter().map(|&v| Json::from_u64(v)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_helpers() {
        let snap = Snapshot {
            counters: vec![("a", 3), ("b", 0)],
            histos: vec![(
                "h",
                HistoSnapshot {
                    count: 2,
                    sum_ns: 10,
                    max_ns: 7,
                    buckets: vec![(3, 2)],
                },
            )],
            per_thread: vec![("p", vec![1, 2])],
        };
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.histo("h").unwrap().mean_ns(), 5);
        assert_eq!(snap.per_thread("p"), &[1, 2]);
        assert!(!snap.is_empty());
    }

    #[test]
    fn quantiles_walk_buckets() {
        let empty = HistoSnapshot::default();
        assert_eq!(empty.quantile_ns(0.99), 0);

        // 90 samples in bucket 3, 10 in bucket 10: p50 lands in the low
        // bucket, p99 in the high one.
        let h = HistoSnapshot {
            count: 100,
            sum_ns: 0,
            max_ns: 1024,
            buckets: vec![(3, 90), (10, 10)],
        };
        assert_eq!(h.quantile_ns(0.50), crate::histo::bucket_upper_ns(3));
        assert_eq!(h.quantile_ns(0.99), crate::histo::bucket_upper_ns(10));
        assert_eq!(h.quantile_ns(0.0), crate::histo::bucket_upper_ns(3));
        assert_eq!(h.quantile_ns(1.0), crate::histo::bucket_upper_ns(10));
    }

    #[test]
    fn json_round_trip() {
        let snap = Snapshot {
            counters: vec![("mq_pushes", 42)],
            histos: vec![(
                "check_ns",
                HistoSnapshot {
                    count: 1,
                    sum_ns: 100,
                    max_ns: 100,
                    buckets: vec![(7, 1)],
                },
            )],
            per_thread: vec![("items", vec![5])],
        };
        let text = snap.to_json().to_string();
        let parsed = Json::parse(&text).expect("parse back");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("mq_pushes"))
                .and_then(Json::as_u64),
            Some(42)
        );
        assert_eq!(
            parsed
                .get("histos")
                .and_then(|h| h.get("check_ns"))
                .and_then(|h| h.get("mean_ns"))
                .and_then(Json::as_u64),
            Some(100)
        );
    }
}
