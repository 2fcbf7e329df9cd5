//! Tiny-scale runs of every workload: each declared metric is reported once
//! with a finite value, nothing undeclared is, corrupted outputs fail the
//! run, and traced runs leave a well-formed span tree.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use rpb_perf::cli::print_outcome;
use rpb_perf::metrics::{end_to_end, per_layer};
use rpb_perf::trace::root_coverage;
use rpb_perf::workloads::{self, Opts, Outcome, WORKLOADS};
use rpb_suite::Scale;

const TINY: Scale = Scale {
    text_len: 3_000,
    seq_len: 40_000,
    graph_n: 600,
    points_n: 200,
};

/// The layers keep process-wide state (validation pool, default backend),
/// so the runs of this file take turns.
fn turn() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tiny(workload: &str, trace: bool, inject: bool) -> Outcome {
    // A request takes 88 ms at this commit (see README.md), so the service
    // needs seconds, not fractions, to see every job kind.
    let seconds = if workload == "serve_socket" { 5.0 } else { 0.3 };
    let mut opts = Opts::new(workload, 3, seconds, trace);
    opts.scale = Some(TINY);
    opts.setups = 2;
    opts.inject = inject;
    workloads::run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let _turn = turn();
    for (workload, _) in WORKLOADS {
        let outcome = tiny(workload, false, false);
        assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
        assert!(outcome.attempted >= 1, "{workload}");
        assert!(
            outcome.spans.is_empty(),
            "{workload}: untraced runs record nothing"
        );
        // `resolve` panics on an undeclared, missing or non-finite metric.
        let values = outcome.report.resolve(&end_to_end(), true);
        assert_eq!(values.len(), end_to_end().len());
        for (name, value, unit) in values {
            assert!(value > 0.0, "{workload}: {name} = {value}");
            assert!(!unit.is_empty());
        }
    }
}

#[test]
fn every_workload_reports_per_layer_metrics_and_a_sound_trace() {
    let _turn = turn();
    for (workload, _) in WORKLOADS {
        let outcome = tiny(workload, true, false);
        assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
        let values = outcome.report.resolve(&per_layer(), false);
        assert_eq!(values.len(), per_layer().len());
        let measured = values.iter().filter(|(_, v, _)| *v != 0.0).count();
        assert!(
            measured >= 10,
            "{workload}: only {measured} per-layer metrics measured"
        );
        assert!(
            outcome.report.get("trace.overhead_share").is_some(),
            "{workload}"
        );

        let spans = &outcome.spans;
        assert!(!spans.is_empty(), "{workload}: traced runs record spans");
        let ids: BTreeSet<(u32, u32)> = spans.iter().map(|s| (s.thread, s.id)).collect();
        assert_eq!(
            ids.len(),
            spans.len(),
            "{workload}: span ids are unique per thread"
        );
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
            assert!(
                s.parent == 0 || ids.contains(&(s.thread, s.parent)),
                "{workload}: span {} names no parent",
                s.name
            );
        }
        // Threads whose roots include rounds or requests generate the load;
        // their roots (set-up, gate, warm-up, rounds / requests) tile the window.
        let generators: BTreeSet<u32> = spans
            .iter()
            .filter(|s| s.parent == 0 && matches!(s.name.as_str(), "round" | "request"))
            .map(|s| s.thread)
            .collect();
        assert!(!generators.is_empty(), "{workload}");
        for thread in generators {
            let coverage = root_coverage(spans, thread);
            assert!(
                coverage >= 0.98,
                "{workload}: thread {thread} roots cover {coverage:.3}"
            );
        }
    }
}

#[test]
fn a_corrupted_output_fails_the_run() {
    let _turn = turn();
    for workload in ["batch_checked", "serve_socket", "stream_pipeline"] {
        let outcome = tiny(workload, false, true);
        assert!(
            outcome.failed > 0,
            "{workload}: injected corruption went unnoticed"
        );
        let mut opts = Opts::new(workload, 3, 0.3, false);
        opts.inject = true;
        assert_ne!(print_outcome(&opts, &outcome), 0, "{workload}: exit code");
    }
    let clean = tiny("batch_checked", false, false);
    assert_eq!(
        print_outcome(&Opts::new("batch_checked", 3, 0.3, false), &clean),
        0
    );
}
