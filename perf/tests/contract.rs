//! `BENCHMARK.json` and the benchmark agree on workloads and metrics.

use rpb_obs::Json;
use rpb_perf::metrics::{end_to_end, per_layer, Metric};
use rpb_perf::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}"))
}

fn assert_same_metrics(listed: &[Json], declared: &[Metric], what: &str) {
    let listed: Vec<(&str, &str)> = listed
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect();
    let declared: Vec<(&str, &str)> = declared.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    assert_eq!(
        listed, declared,
        "{what} metrics differ between BENCHMARK.json and metrics.rs"
    );
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    assert_eq!(listed, WORKLOADS.to_vec());
    assert!(WORKLOADS
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
}

#[test]
fn metrics_match() {
    let doc = benchmark_json();
    let e2e = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_same_metrics(e2e, &end_to_end(), "end-to-end");
    let layers = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert_same_metrics(layers, &per_layer(), "per-layer");
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            str_of(m, "name")
        );
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
    }
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
}

#[test]
fn command_and_paths_stay_inside_the_benchmark() {
    let doc = benchmark_json();
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perf"]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .expect("command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command[0] == "cargo");
    assert!(command.contains(&"perf/Cargo.toml"));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}
