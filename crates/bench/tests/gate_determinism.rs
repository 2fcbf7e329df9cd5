//! The perf gate's acceptance properties, end to end:
//!
//! 1. `record` twice on the same machine produces **byte-identical**
//!    baselines (the determinism claim behind hard gating), and
//! 2. `rpb gate check` against a tampered baseline exits non-zero and
//!    prints a per-metric diff table (driven through the real binary).

#![cfg(not(miri))]

use std::process::Command;

use rpb_bench::gate::{self, EXIT_HARD};
use rpb_bench::{Scale, Workloads};

/// `lrs/checked`, `sa/checked`: scatters through the suffix sort's proofs.
const PROVED_FIG5A_CELLS: usize = 2;
/// bfs-link, bfs-road, sssp-link, sssp-road.
const MQ_PAIRS: usize = 4;

/// The metrics registry and the mark-table pool are process-global and
/// `gate::record` resets both around every matrix cell, so the tests
/// in this binary must not overlap.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn record_twice_is_byte_identical_on_counters() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workloads::build(Scale::gate());
    let a = gate::record(&w);
    let b = gate::record(&w);

    assert_eq!(a.cases.len(), b.cases.len());
    let mut nonzero_cells = 0usize;
    for (ca, cb) in a.cases.iter().zip(&b.cases) {
        assert_eq!(ca.key(), cb.key(), "matrix order is part of the contract");
        // The acceptance test verbatim: the counter *sections* of
        // the two baselines are byte-identical.
        assert_eq!(
            ca.counters_json().to_string(),
            cb.counters_json().to_string(),
            "counter section drifted between two records of {}",
            ca.key()
        );
        if ca.counters.iter().any(|&(_, v)| v > 0) {
            nonzero_cells += 1;
        }
    }
    // Determinism of all-zero sections would be vacuous: the proved
    // checked cells and the MultiQueue pairs must actually record events.
    assert!(
        nonzero_cells >= PROVED_FIG5A_CELLS + MQ_PAIRS,
        "only {nonzero_cells} matrix cells recorded any events"
    );

    // A baseline is counters and their keys only, so the whole file
    // is byte-identical too — and it round-trips through that form.
    let text = format!("{}\n", a.to_json());
    assert_eq!(text, format!("{}\n", b.to_json()));
    let parsed =
        gate::Baseline::parse(&rpb_obs::Json::parse(&text).expect("parse")).expect("valid");
    assert_eq!(a, parsed);
}

#[test]
fn invisible_axes_leave_hard_counters_identical() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workloads::build(Scale::gate());
    let b = gate::record(&w);

    let keys: Vec<String> = b.cases.iter().map(|c| c.key()).collect();
    assert_eq!(keys.len(), 41, "cells of the gate matrix");
    for (i, k) in keys.iter().enumerate() {
        assert!(!keys[..i].contains(k), "duplicate cell key {k}");
    }

    // Each family below varies one pin the rest of the stack must not
    // be able to see: the scheduling backend (at the 1-worker counter
    // pass the MultiQueue policy and the serve admission arithmetic
    // are substrate-independent) and the channel backend. So a group
    // — the rows sharing a name — must
    // record *identical* counter sections; any inequality means the
    // pin changed behavior, not just speed. Every group must also
    // record the events the family exists to gate, or the equality is
    // vacuous.
    for (prefix, axis, groups, nonzero) in [
        ("backend-", ["rayon", "mq"], 4, "mq_pushes"),
        ("serve-", ["rayon", "mq"], 2, "serve_jobs_admitted"),
        ("pipeline-", ["mpsc", "crossbeam"], 3, "pipeline_items_in"),
    ] {
        let family: Vec<&gate::GateCase> = b
            .cases
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .collect();
        assert_eq!(family.len(), groups * axis.len(), "{prefix}* cells");
        for group in family.chunks(axis.len()) {
            let first = group[0];
            for (cell, want_mode) in group.iter().zip(axis) {
                assert_eq!(cell.name, first.name, "{prefix}* groups are adjacent");
                assert_eq!(cell.mode, want_mode, "{}", cell.key());
                assert_eq!(
                    cell.counters_json().to_string(),
                    first.counters_json().to_string(),
                    "{} and {} disagree on hard counters",
                    cell.key(),
                    first.key()
                );
                assert!(
                    cell.counter(nonzero) > 0,
                    "{} recorded no {nonzero}",
                    cell.key()
                );
            }
        }
    }
    // One skeleton per pass (the BFS keeps its own resident across
    // levels), and every item that entered it left it.
    for cell in b.cases.iter().filter(|c| c.name.starts_with("pipeline-")) {
        let key = cell.key();
        assert_eq!(cell.counter("pipeline_runs"), 1, "{key}");
        assert_eq!(
            cell.counter("pipeline_items_in"),
            cell.counter("pipeline_items_out"),
            "{key}"
        );
        assert_eq!(cell.counter("pipeline_stage_panics"), 0, "{key}");
    }
    // `sort`'s checked scatter runs on the counting pass's proof of
    // its bucket boundaries: through the proved iterator, with no
    // RngInd sweep in front of it.
    let key = "sort/checked";
    let cell = b.cases.iter().find(|c| c.key() == key);
    let proved = cell.map_or(0, |c| c.counter("sngind_proof_reuses"));
    assert!(proved > 0, "{key} scattered through no proof");
    let validated = cell.map_or(1, |c| c.counter("rngind_boundaries_validated"));
    assert_eq!(
        validated, 0,
        "{key} validated boundaries its producer proved"
    );
}

#[test]
fn check_against_feature_mismatched_baseline_is_a_schema_mismatch() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workloads::build(Scale::gate());
    let baseline = gate::record(&w);

    // Simulate a baseline committed from a build with a different cell
    // matrix: one recorded cell the current build also records is
    // missing, and one cell the current build can't produce is extra.
    let mut mismatched = baseline.clone();
    let dropped = mismatched
        .cases
        .pop()
        .expect("baseline records at least one cell");
    let mut extra = dropped.clone();
    extra.name = "backend-avx512-only".into();
    mismatched.cases.push(extra);

    let dir = std::env::temp_dir().join(format!("rpb-gate-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mismatched.json");
    std::fs::write(&path, format!("{}\n", mismatched.to_json())).expect("write baseline");

    let output = Command::new(env!("CARGO_BIN_EXE_rpb"))
        .args(["gate", "check", "--baseline"])
        .arg(&path)
        .output()
        .expect("spawn rpb gate check");
    std::fs::remove_dir_all(&dir).ok();

    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    // Exit 2 (schema mismatch), never 4: a cell-set difference must not
    // read as counter drift.
    assert_eq!(
        output.status.code(),
        Some(gate::EXIT_USAGE),
        "cell-set mismatch must exit {}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        gate::EXIT_USAGE
    );
    assert!(stderr.contains("SCHEMA MISMATCH"), "{stderr}");
    // Both offending cells are named.
    assert!(
        stderr.contains("backend-avx512-only") && stderr.contains(&dropped.key()),
        "offending cells named\n{stderr}"
    );
    assert!(!stderr.contains("HARD FAIL"), "{stderr}");
}

#[test]
fn check_against_tampered_baseline_hard_fails_through_the_cli() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let w = Workloads::build(Scale::gate());
    let baseline = gate::record(&w);

    // Tamper with the first nonzero hard counter — the forged baseline
    // claims the code performs one more event than it does.
    let mut tampered = baseline.clone();
    let (key, metric) = {
        let (key, slot) = tampered
            .cases
            .iter_mut()
            .find_map(|c| {
                let key = c.key();
                c.counters
                    .iter_mut()
                    .find(|(_, v)| *v > 0)
                    .map(|slot| (key, slot))
            })
            .expect("some matrix cell records events");
        slot.1 += 1;
        (key, slot.0.clone())
    };

    let dir = std::env::temp_dir().join(format!("rpb-gate-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tampered_path = dir.join("tampered.json");
    std::fs::write(&tampered_path, format!("{}\n", tampered.to_json())).expect("write baseline");

    let output = Command::new(env!("CARGO_BIN_EXE_rpb"))
        .args(["gate", "check", "--baseline"])
        .arg(&tampered_path)
        .output()
        .expect("spawn rpb gate check");
    std::fs::remove_dir_all(&dir).ok();

    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(EXIT_HARD),
        "tampered counter must hard-fail\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // The per-metric diff table names the drifted counter and its cell.
    assert!(stdout.contains("Drifted metrics:"), "diff table\n{stdout}");
    assert!(stdout.contains(&metric), "metric {metric} named\n{stdout}");
    assert!(stdout.contains(&key), "cell {key} named\n{stdout}");
    assert!(stderr.contains("HARD FAIL"), "verdict on stderr\n{stderr}");
}
