//! End-to-end test of the `--json` record pipeline: run a tiny Fig. 5(a)
//! measurement, write the report file, parse it back with the rpb-obs JSON
//! parser, and validate the schema the README documents.

use rpb_bench::record::{self, EnvInfo};
use rpb_bench::{figures, RunRecord, Scale, Workloads};
use rpb_obs::Json;

/// The metrics registry is global and `figures` resets it around every
/// timed case, so the tests in this binary must not overlap.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn json_report_round_trips_through_a_file() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tiny = Scale {
        text_len: 3000,
        seq_len: 10_000,
        graph_n: 500,
        points_n: 200,
    };
    let w = Workloads::build(tiny);
    let mut recs: Vec<RunRecord> = Vec::new();
    let rendered = figures::fig5a(&w, 2, 1, &mut recs);
    assert!(rendered.contains("bw"));
    assert_eq!(
        recs.len(),
        9,
        "3 runs (unsafe, checked-fresh, checked-amortized) x 3 Fig. 5(a) pairs"
    );

    let env = EnvInfo::collect();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("rpb-json-records-{}.json", std::process::id()));
    record::write_json(&path, &recs, tiny, &env).expect("write report");
    let text = std::fs::read_to_string(&path).expect("read report back");
    std::fs::remove_file(&path).ok();

    let doc = Json::parse(&text).expect("parse report");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(record::SCHEMA)
    );
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .expect("records array");
    assert_eq!(records.len(), 9);

    for r in records {
        // Every documented field is present and well-typed.
        for key in ["figure", "name", "kind", "mode"] {
            assert!(
                r.get(key).and_then(Json::as_str).is_some(),
                "str field {key}"
            );
        }
        for key in ["threads", "reps", "best_ns", "mean_ns"] {
            assert!(
                r.get(key).and_then(Json::as_u64).is_some(),
                "num field {key}"
            );
        }
        assert_eq!(r.get("figure").unwrap().as_str(), Some("fig5a"));
        assert!(r.get("best_ns").unwrap().as_u64().unwrap() > 0);

        let scale = r.get("scale").expect("scale object");
        assert_eq!(scale.get("seq_len").and_then(Json::as_u64), Some(10_000));

        let env = r.get("env").expect("env object");
        assert!(env.get("git_sha").and_then(Json::as_str).is_some());
        assert!(env.get("cpu_count").and_then(Json::as_u64).unwrap_or(0) >= 1);
        assert!(env.get("rustc").and_then(Json::as_str).is_some());

        let telemetry = r.get("telemetry").expect("telemetry object");
        assert!(telemetry.get("counters").is_some());
        assert!(telemetry.get("histos").is_some());

        // The `check` tag round-trips exactly where it was emitted:
        // checked runs are bracketed fresh/amortized, unsafe runs carry
        // no tag (and no key at all — the field is optional).
        let mode = r.get("mode").unwrap().as_str().unwrap();
        let check = r.get("check").and_then(Json::as_str);
        match mode {
            "checked" => assert!(
                check == Some("fresh") || check == Some("amortized"),
                "checked record missing check tag: {check:?}"
            ),
            _ => assert!(check.is_none(), "unsafe record must not carry a check tag"),
        }
    }

    // The runs cycle unsafe / checked-fresh / checked-amortized per pair.
    let modes: Vec<&str> = records
        .iter()
        .map(|r| r.get("mode").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        modes,
        [
            "unsafe", "checked", "checked", "unsafe", "checked", "checked", "unsafe", "checked",
            "checked"
        ]
    );
    let checks: Vec<Option<&str>> = records
        .iter()
        .map(|r| r.get("check").and_then(Json::as_str))
        .collect();
    assert_eq!(
        checks,
        [
            None,
            Some("fresh"),
            Some("amortized"),
            None,
            Some("fresh"),
            Some("amortized"),
            None,
            Some("fresh"),
            Some("amortized"),
        ]
    );

    // And the summary renderer accepts the parsed document and attributes
    // the fresh/amortized brackets separately.
    let summary = record::render_report(&doc).expect("render summary");
    assert!(summary.contains("Check-overhead attribution"));
    assert!(summary.contains("fresh"));
    assert!(summary.contains("amortized"));
    assert!(summary.contains("Amortized-check speedup"));
}

#[cfg(feature = "obs")]
#[test]
fn telemetry_is_populated_when_obs_is_on() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tiny = Scale {
        text_len: 3000,
        seq_len: 10_000,
        graph_n: 500,
        points_n: 200,
    };
    let w = Workloads::build(tiny);
    let mut recs: Vec<RunRecord> = Vec::new();
    figures::fig5a(&w, 2, 1, &mut recs);

    // The checked-mode runs must carry SngInd check telemetry: bw/lrs/sa
    // all exercise par_ind_iter_mut, bracketed fresh + amortized per pair.
    let checked: Vec<&RunRecord> = recs.iter().filter(|r| r.mode == "checked").collect();
    assert_eq!(checked.len(), 6);
    for r in &checked {
        let checks =
            r.telemetry.counter("sngind_checks_mark") + r.telemetry.counter("sngind_checks_sort");
        assert!(checks > 0, "{}: no SngInd checks recorded", r.name);
        let h = r
            .telemetry
            .histo("sngind_check_ns")
            .expect("check histogram");
        assert!(h.count > 0, "{}: empty check histogram", r.name);
        assert!(
            r.telemetry.counter("sngind_offsets_validated") > 0,
            "{}",
            r.name
        );
    }
    // Fresh runs disable the pool: every acquisition allocates (misses,
    // never hits). Amortized runs reuse pooled mark bitmaps (hits).
    for r in &checked {
        match r.check {
            Some("fresh") => {
                assert_eq!(
                    r.telemetry.counter("sngind_pool_hits"),
                    0,
                    "{}: fresh bracket must not hit the pool",
                    r.name
                );
                assert!(
                    r.telemetry.counter("sngind_pool_misses") > 0,
                    "{}: fresh bracket must allocate per validation",
                    r.name
                );
            }
            Some("amortized") => assert!(
                r.telemetry.counter("sngind_pool_hits") > 0,
                "{}: amortized bracket must reuse pooled tables",
                r.name
            ),
            other => panic!("{}: unexpected check tag {other:?}", r.name),
        }
    }
    // Unsafe-mode runs skip the checks entirely.
    for r in recs.iter().filter(|r| r.mode == "unsafe") {
        assert_eq!(
            r.telemetry.counter("sngind_checks_mark") + r.telemetry.counter("sngind_checks_sort"),
            0,
            "{}: unsafe mode must not validate",
            r.name
        );
    }
    // The instrumented Rayon pool reported its workers.
    assert!(recs
        .iter()
        .any(|r| r.telemetry.counter("pool_threads_started") > 0));
}
