//! The metrics the benchmark declares, by name and unit, and the report a
//! run fills in. `BENCHMARK.json` lists the same names (`tests/contract.rs`
//! keeps the two in step).

use std::collections::BTreeMap;

use crate::cells::PAIRS;
use crate::engine::EndToEnd;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
    }
}

/// What a user of the system sees; every workload reports all of them.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("setup_s", "s"),
        metric("op_ms", "ms"),
        metric("total_ms", "ms"),
        metric("over_baseline", "ratio"),
    ]
}

/// The streaming cases, as named in metrics.
pub const STREAM_CASES: [&str; 4] = ["hist", "dedup", "bfs_road", "bfs_link"];

/// The six job kinds of `rpb serve`, as named in metrics.
pub const JOB_KINDS: [&str; 6] = ["sort", "isort", "dedup", "hist", "bfs", "sssp"];

/// Per-layer probes. A workload reports 0 for the layers it does not
/// exercise (README.md says which workload measures which).
pub fn per_layer() -> Vec<Metric> {
    let mut m = Vec::new();
    for p in &PAIRS {
        m.push(metric(format!("suite.{}.ms", p.name), "ms"));
        m.push(metric(format!("suite.{}.over_baseline", p.name), "ratio"));
    }
    for family in ["text", "geom", "graph", "seq", "mq"] {
        m.push(metric(format!("suite.{family}_ms"), "ms"));
    }
    m.push(metric("suite.worst_over_baseline", "ratio"));
    m.push(metric("suite.scaling", "ratio"));
    m.push(metric("suite.checked_fresh_over_amortized", "ratio"));
    for name in [
        "validate_dense_ns",
        "validate_fresh_ns",
        "validate_sparse_ns",
        "validate_sort_ns",
        "validate_bitset_ns",
        "scatter_checked_ns",
        "scatter_proved_ns",
        "chunks_validate_ns",
        "chunks_scatter_ns",
    ] {
        m.push(metric(format!("fearless.{name}"), "ns"));
    }
    m.push(metric("fearless.pool_miss_share", "ratio"));
    for name in [
        "scan_ns",
        "pack_ns",
        "reduce_ns",
        "radix_sort_ns",
        "sample_sort_ns",
        "collect_reduce_ns",
    ] {
        m.push(metric(format!("parlay.{name}"), "ns"));
    }
    for name in [
        "install_rayon_us",
        "install_mq_us",
        "batch_rayon_us",
        "batch_mq_us",
    ] {
        m.push(metric(format!("parlay.{name}"), "us"));
    }
    for name in [
        "hash_insert_ns",
        "unionfind_unite_ns",
        "write_min_ns",
        "reserve_commit_ns",
    ] {
        m.push(metric(format!("concurrent.{name}"), "ns"));
    }
    for name in ["push_ns", "pop_ns", "execute_task_ns"] {
        m.push(metric(format!("mq.{name}"), "ns"));
    }
    m.push(metric("mq.rank_error_mean", "count"));
    m.push(metric("mq.bfs_over_frontier", "ratio"));
    for name in [
        "graph.build_rmat_ms",
        "graph.build_road_ms",
        "text.gen_ms",
        "text.bwt_encode_ms",
        "text.suffix_array_ms",
        "geom.points_gen_ms",
        "geom.delaunay_ms",
    ] {
        m.push(metric(name, "ms"));
    }
    for case in STREAM_CASES {
        m.push(metric(format!("pipeline.{case}_melems_per_s"), "M/s"));
        m.push(metric(format!("pipeline.{case}_over_batch"), "ratio"));
    }
    m.push(metric("pipeline.chan_mpsc_ns", "ns"));
    m.push(metric("pipeline.chan_crossbeam_ns", "ns"));
    m.push(metric("pipeline.skeleton_item_ns", "ns"));
    m.push(metric("pipeline.skeleton_start_us", "us"));
    m.push(metric("pipeline.fine_chunk_melems_per_s", "M/s"));
    m.push(metric("pipeline.cap1_melems_per_s", "M/s"));
    m.push(metric("pipeline.crossbeam_melems_per_s", "M/s"));
    m.push(metric("pipeline.max_inflight", "count"));
    m.push(metric("pipeline.bfs_levels", "count"));
    m.push(metric("serve.p50_ms", "ms"));
    m.push(metric("serve.tail_ms", "ms"));
    m.push(metric("serve.jobs_per_s", "1/s"));
    for name in ["preload_ms", "boot_ms", "drain_ms", "burst_answer_ms"] {
        m.push(metric(format!("serve.{name}"), "ms"));
    }
    for name in [
        "frame_write_ns",
        "frame_read_ns",
        "request_parse_ns",
        "response_build_ns",
    ] {
        m.push(metric(format!("serve.{name}"), "ns"));
    }
    for name in [
        "farm_roundtrip_us",
        "stats_rtt_us",
        "overhead_us",
        "overhead_prompt_us",
    ] {
        m.push(metric(format!("serve.{name}"), "us"));
    }
    for kind in JOB_KINDS {
        m.push(metric(format!("serve.job_{kind}_us"), "us"));
    }
    m.push(metric("serve.queue_wait_share", "ratio"));
    m.push(metric("serve.burst_shed_share", "ratio"));
    m.push(metric("obs.json_parse_mb_s", "MB/s"));
    m.push(metric("obs.json_write_mb_s", "MB/s"));
    m.push(metric("trace.overhead_share", "ratio"));
    m
}

/// Values measured by one run, keyed by metric name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Fills in the four metrics of [`end_to_end`].
    pub fn set_end_to_end(&mut self, setup_s: f64, e: EndToEnd) {
        self.set("setup_s", setup_s);
        self.set("op_ms", e.op_ms);
        self.set("total_ms", e.total_ms);
        self.set("over_baseline", e.over_baseline);
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let previous = self.values.insert(name.clone(), value);
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn into_values(self) -> Vec<(String, f64)> {
        self.values.into_iter().collect()
    }

    /// The value of every metric in `declared`, in order; a per-layer metric
    /// the run did not measure reads 0.
    ///
    /// # Panics
    /// If the run reported a name that is not declared, reported a
    /// non-finite value, or (`require_all`) left a declared one out.
    pub fn resolve(
        &self,
        declared: &[Metric],
        require_all: bool,
    ) -> Vec<(String, f64, &'static str)> {
        for name in self.values.keys() {
            assert!(
                declared.iter().any(|m| &m.name == name),
                "metric {name} is not declared"
            );
        }
        declared
            .iter()
            .map(|m| {
                let value = match self.values.get(&m.name) {
                    Some(&v) => v,
                    None if require_all => panic!("metric {} was not measured", m.name),
                    None => 0.0,
                };
                assert!(value.is_finite(), "metric {} is {value}", m.name);
                (m.name.clone(), value, m.unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        assert!(
            per_layer().len() <= 128,
            "{} per-layer metrics",
            per_layer().len()
        );
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn unmeasured_layers_read_zero_but_strangers_are_refused() {
        let mut r = Report::default();
        r.set("mq.push_ns", 12.5);
        let resolved = r.resolve(&per_layer(), false);
        assert_eq!(resolved.len(), per_layer().len());
        assert!(resolved
            .iter()
            .any(|(n, v, u)| n == "mq.push_ns" && *v == 12.5 && *u == "ns"));
        assert!(resolved.iter().filter(|(_, v, _)| *v == 0.0).count() == per_layer().len() - 1);
        let mut bad = Report::default();
        bad.set("mq.bogus", 1.0);
        assert!(std::panic::catch_unwind(|| bad.resolve(&per_layer(), false)).is_err());
    }
}
