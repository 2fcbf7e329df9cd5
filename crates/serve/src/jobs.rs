//! The job vocabulary: which kernels a request can invoke, how each runs
//! against the preloaded [`Datasets`], and the per-endpoint SLO latency
//! histograms behind the serve report's p50/p99 columns.
//!
//! Every job returns a small JSON result whose digest is a pure function
//! of `(scale, kind, mode)` — deterministic inputs in, deterministic
//! checksum out — so a client (or the differential self-test) can assert
//! result stability across requests, workers, and backends without
//! shipping whole output vectors over the wire.

use std::time::Duration;

use rpb_fearless::ExecMode;
use rpb_obs::{metrics, Json};
use rpb_parlay::exec::BackendKind;
use rpb_suite::{bfs, dedup, hist, isort, sort, sssp};

use crate::datasets::Datasets;

/// One benchmark endpoint of the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Comparison (sample) sort over a clone of the sequence.
    Sort,
    /// Integer (radix) sort — in `Checked` mode every scatter pass
    /// validates in pooled mark bitmaps, making this the
    /// endpoint that proves the steady-state zero-alloc claim.
    Isort,
    /// Remove duplicates.
    Dedup,
    /// 256-bucket histogram.
    Hist,
    /// MultiQueue BFS over the road graph.
    Bfs,
    /// MultiQueue SSSP over the weighted road graph.
    Sssp,
}

/// Every job kind, in the deterministic trace's rotation order.
pub const ALL_KINDS: [JobKind; 6] = [
    JobKind::Isort,
    JobKind::Sort,
    JobKind::Dedup,
    JobKind::Hist,
    JobKind::Bfs,
    JobKind::Sssp,
];

impl JobKind {
    /// Wire label (`"sort"`, `"isort"`, …).
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Sort => "sort",
            JobKind::Isort => "isort",
            JobKind::Dedup => "dedup",
            JobKind::Hist => "hist",
            JobKind::Bfs => "bfs",
            JobKind::Sssp => "sssp",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<JobKind> {
        ALL_KINDS.into_iter().find(|k| k.label() == s)
    }

    /// The mode a request gets when it names none: `Checked` — the
    /// service exists to exercise the validated steady state.
    pub fn default_mode(self) -> ExecMode {
        ExecMode::Checked
    }

    /// This endpoint's SLO latency histogram (admission → response).
    pub fn latency_histo(self) -> &'static rpb_obs::DurationHisto {
        match self {
            JobKind::Sort => &metrics::SERVE_SORT_NS,
            JobKind::Isort => &metrics::SERVE_ISORT_NS,
            JobKind::Dedup => &metrics::SERVE_DEDUP_NS,
            JobKind::Hist => &metrics::SERVE_HIST_NS,
            JobKind::Bfs => &metrics::SERVE_BFS_NS,
            JobKind::Sssp => &metrics::SERVE_SSSP_NS,
        }
    }

    /// Records one completed service time for this endpoint.
    pub fn record_latency(self, elapsed: Duration) {
        self.latency_histo().record(elapsed);
    }
}

/// FNV-1a over a u64 stream: the result digest jobs report instead of
/// their (potentially megabyte-sized) output vectors.
pub fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs one job against the preloaded datasets inside the caller's
/// ambient executor pool (`bfs`/`sssp` additionally take the scheduling
/// backend and worker width for their MultiQueue substrate). Returns the
/// job's JSON result object, or a typed job-level error message.
pub fn run_job(
    kind: JobKind,
    mode: ExecMode,
    backend: BackendKind,
    kernel_threads: usize,
    data: &Datasets,
) -> Result<Json, String> {
    let result = match kind {
        JobKind::Sort => {
            let mut v = data.seq.clone();
            sort::run_par(&mut v, mode);
            vec![
                ("n".to_string(), Json::from_u64(v.len() as u64)),
                ("digest".to_string(), Json::from_u64(digest(v))),
            ]
        }
        JobKind::Isort => {
            let mut v = data.seq.clone();
            isort::run_par(&mut v, data.key_bits, mode);
            vec![
                ("n".to_string(), Json::from_u64(v.len() as u64)),
                ("digest".to_string(), Json::from_u64(digest(v))),
            ]
        }
        JobKind::Dedup => {
            let out = dedup::run_par(&data.seq, mode);
            vec![
                ("n_in".to_string(), Json::from_u64(data.seq.len() as u64)),
                ("n_out".to_string(), Json::from_u64(out.len() as u64)),
                ("digest".to_string(), Json::from_u64(digest(out))),
            ]
        }
        JobKind::Hist => {
            let counts = hist::run_par(&data.seq, 256, data.seq.len().max(1) as u64, mode)
                .map_err(|e| format!("hist failed: {e}"))?;
            vec![
                ("buckets".to_string(), Json::from_u64(counts.len() as u64)),
                ("digest".to_string(), Json::from_u64(digest(counts))),
            ]
        }
        JobKind::Bfs => {
            let dist = bfs::run_par_on(backend, &data.road, 0, kernel_threads, mode);
            let reached = dist.iter().filter(|&&d| d != u64::MAX).count() as u64;
            vec![
                ("reached".to_string(), Json::from_u64(reached)),
                ("digest".to_string(), Json::from_u64(digest(dist))),
            ]
        }
        JobKind::Sssp => {
            let dist = sssp::run_par_on(backend, &data.wroad, 0, kernel_threads, mode);
            let reached = dist.iter().filter(|&&d| d != u64::MAX).count() as u64;
            vec![
                ("reached".to_string(), Json::from_u64(reached)),
                ("digest".to_string(), Json::from_u64(digest(dist))),
            ]
        }
    };
    let mut fields = vec![("kind".to_string(), Json::Str(kind.label().to_string()))];
    fields.extend(result);
    Ok(Json::Obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpb_suite::Scale;

    fn tiny_data() -> Datasets {
        Datasets::preload(Scale {
            text_len: 100,
            seq_len: 600,
            graph_n: 80,
            points_n: 16,
        })
    }

    #[test]
    fn labels_round_trip() {
        for k in ALL_KINDS {
            assert_eq!(JobKind::parse(k.label()), Some(k));
        }
        assert_eq!(JobKind::parse("frobnicate"), None);
    }

    #[test]
    fn every_kind_runs_and_digests_deterministically() {
        let _pool = crate::testutil::pool_lock();
        let data = tiny_data();
        for kind in ALL_KINDS {
            let a = run_job(kind, ExecMode::Checked, BackendKind::Rayon, 1, &data)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            let b = run_job(kind, ExecMode::Checked, BackendKind::Rayon, 1, &data)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(
                a.get("digest").and_then(Json::as_u64),
                b.get("digest").and_then(Json::as_u64),
                "{} digest unstable",
                kind.label()
            );
        }
    }

    #[test]
    fn modes_agree_on_digests() {
        // Unsafe and Checked are differentially equal — the suite-wide
        // invariant, re-checked here through the service's digest lens.
        let _pool = crate::testutil::pool_lock();
        let data = tiny_data();
        for kind in [JobKind::Sort, JobKind::Isort, JobKind::Dedup, JobKind::Hist] {
            let a = run_job(kind, ExecMode::Unsafe, BackendKind::Rayon, 1, &data).unwrap();
            let b = run_job(kind, ExecMode::Checked, BackendKind::Rayon, 1, &data).unwrap();
            assert_eq!(
                a.get("digest").and_then(Json::as_u64),
                b.get("digest").and_then(Json::as_u64),
                "{} modes diverge",
                kind.label()
            );
        }
    }
}
