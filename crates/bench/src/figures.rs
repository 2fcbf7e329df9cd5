//! Emitters for every table and figure of the paper's evaluation.
//!
//! Each function returns the rendered text so the `rpb` binary, tests,
//! and EXPERIMENTS.md generation share one implementation.

use std::fmt::Write as _;
use std::time::Duration;

use rpb_fearless::ExecMode;
use rpb_parlay::exec::{default_backend, BackendKind};
use rpb_suite::meta::{all_benchmarks, suite_census};

use crate::runner::{recommended_mode, run_case_on, run_seq_case, FIG5A_PAIRS, FIG5B_PAIRS};
use crate::workloads::Workloads;
use crate::{fig6, gmean, time_best, ALL_PAIRS};

/// Runs `f` with `backend`'s ambient pool of `threads` workers installed,
/// resolved through the executor registry (per-thread pool telemetry
/// lives in `rpb_parlay::exec`). Shared with the
/// verifier and the perf gate, whose counter pass pins `threads` to 1 for
/// determinism. Registration is ensured here so library tests work under
/// `RPB_BACKEND=mq` without the binary's startup hook.
pub(crate) fn in_pool_on<T: Send>(
    backend: BackendKind,
    threads: usize,
    f: impl FnOnce() -> T + Send,
) -> T {
    rpb_multiqueue::backend::ensure_registered();
    rpb_parlay::exec::run_in(rpb_parlay::exec::executor(backend), threads, f)
}

/// Best-of-`reps` time of one parallel case on `threads` workers of the
/// process-default backend.
fn time_par(name: &str, w: &Workloads, mode: ExecMode, threads: usize, reps: usize) -> Duration {
    let backend = default_backend();
    in_pool_on(backend, threads, || {
        time_best(reps, || run_case_on(backend, name, w, mode, threads))
    })
}

/// Sequential-baseline counterpart of [`time_par`].
fn time_seq(name: &str, w: &Workloads, reps: usize) -> Duration {
    in_pool_on(default_backend(), 1, || {
        time_best(reps, || run_seq_case(name, w))
    })
}

/// Table 1: ported benchmarks and their parallel access patterns.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: Ported benchmarks and their parallel access patterns"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<28} {:<14} {:>3} {:>7} {:>6} {:>4} {:>7} {:>7} {:>3} {:>7} {:>8}",
        "Abbrv",
        "Benchmark",
        "Inputs",
        "RO",
        "Stride",
        "Block",
        "D&C",
        "SngInd",
        "RngInd",
        "AW",
        "static",
        "dynamic"
    );
    for b in all_benchmarks() {
        let marks = b.checkmarks();
        let mark = |on: bool| if on { "x" } else { "" };
        let _ = writeln!(
            out,
            "{:<6} {:<28} {:<14} {:>3} {:>7} {:>6} {:>4} {:>7} {:>7} {:>3} {:>7} {:>8}",
            b.abbrev,
            b.name,
            b.inputs.join(","),
            mark(marks[0]),
            mark(marks[1]),
            mark(marks[2]),
            mark(marks[3]),
            mark(marks[4]),
            mark(marks[5]),
            mark(marks[6]),
            mark(marks[7]),
            mark(marks[8]),
        );
    }
    out
}

/// Table 2: input graphs and their characteristics (at the scale the
/// workloads were built with).
pub fn table2(w: &Workloads) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: Input graphs (generated stand-ins; see DESIGN.md)"
    );
    let _ = writeln!(
        out,
        "{:<28} {:<10} {:>10} {:>12} {:>8}",
        "Name", "Shorthand", "|V|", "|E|", "|E|/|V|"
    );
    for (name, short, g) in [
        ("Hyperlink-like (skewed RMAT)", "link", &w.link),
        ("R-MAT graph", "rmat", &w.rmat),
        ("Road-like grid", "road", &w.road),
    ] {
        let _ = writeln!(
            out,
            "{:<28} {:<10} {:>10} {:>12} {:>8.1}",
            name,
            short,
            g.num_vertices(),
            g.num_arcs() / 2,
            g.avg_degree()
        );
    }
    out
}

/// Table 3: studied patterns and their safety levels.
pub fn table3() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: Studied patterns and their safety levels");
    let _ = writeln!(
        out,
        "{:<7} {:<28} {:<32} Fearlessness",
        "Abbr.", "Write pattern", "Parallel expression"
    );
    for p in rpb_fearless::taxonomy::ALL_PATTERNS {
        let _ = writeln!(
            out,
            "{:<7} {:<28} {:<32} {}",
            p.abbrev(),
            p.description(),
            p.expression(),
            p.fearlessness().code()
        );
    }
    out
}

/// Fig. 3: distribution of access patterns + the §7.2 headline.
pub fn fig3() -> String {
    let census = suite_census();
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 3: Distribution of access patterns in RPB-rs");
    let _ = writeln!(
        out,
        "(paper: RO 11%, Stride 52%, Block 3%, D&C 5%, SngInd 13%, RngInd 7%, AW 9%)"
    );
    for (p, count, share) in census.rows() {
        let bar = "#".repeat((share * 100.0 / 2.0) as usize);
        let _ = writeln!(
            out,
            "  {:<7} {:>3} accesses {:>5.1}%  {}",
            p.abbrev(),
            count,
            share * 100.0,
            bar
        );
    }
    let _ = writeln!(
        out,
        "irregular (SngInd+RngInd+AW): {:.1}% of accesses  (paper: 29%)",
        census.irregular_share() * 100.0
    );
    let aw = all_benchmarks()
        .iter()
        .filter(|b| b.uses(rpb_fearless::Pattern::AW))
        .count();
    let _ = writeln!(out, "benchmarks with AW: {aw} of 14  (paper: 7 of 14)");
    out
}

/// Fig. 4: parallel RPB vs baselines at 1 and `threads` threads.
///
/// Substitution note (DESIGN.md): the paper compares Rust RPB to the C++
/// PBBS originals; without OpenCilk we compare each benchmark's
/// recommended-mode parallel implementation to its sequential Rust
/// baseline — Fig. 4(a)'s question ("does the parallel abstraction cost
/// anything at 1 thread?") and Fig. 4(b)'s scaling dots carry over
/// directly.
pub fn fig4(w: &Workloads, threads: usize, reps: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 4: execution time, parallel (recommended mode) vs sequential baseline"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>8} {:>12} {:>9}",
        "pair",
        "seq",
        "par@1",
        "par/seq",
        format!("par@{threads}"),
        "scaling"
    );
    let mut ratios1 = Vec::new();
    let mut scalings = Vec::new();
    for name in ALL_PAIRS {
        let mode = recommended_mode(name);
        let t_seq = time_seq(name, w, reps);
        let t_p1 = time_par(name, w, mode, 1, reps);
        let t_pn = time_par(name, w, mode, threads, reps);
        let ratio = t_p1.div_duration_f64(t_seq);
        let scale = t_p1.div_duration_f64(t_pn);
        ratios1.push(ratio);
        scalings.push(scale);
        let _ = writeln!(
            out,
            "{:<10} {:>12.2?} {:>12.2?} {:>8.2} {:>12.2?} {:>8.2}x",
            name, t_seq, t_p1, ratio, t_pn, scale
        );
    }
    let _ = writeln!(
        out,
        "gmean par@1/seq: {:.2}  (paper's Rust/C++ 1-thread gmean: ~0.92, i.e. Rust 1.09x faster)",
        gmean(&ratios1)
    );
    let _ = writeln!(out, "gmean scaling @{threads}: {:.2}x", gmean(&scalings));
    out
}

/// Fig. 5(a): overhead of the checked `par_ind_iter_mut` vs unsafe. No
/// checked arm of the three pairs validates at run time: `lrs` and `sa`
/// scatter through the suffix sort's proofs and `bw`'s is a plain walk.
pub fn fig5a(w: &Workloads, threads: usize, reps: usize) -> String {
    overhead_table(
        "Fig. 5a: dynamic offset checking for SngInd (checked / unsafe)",
        &FIG5A_PAIRS,
        ExecMode::Checked,
        "(checked = producer proofs, no run-time check; \
         paper: negligible for bw, up to ~2.8x for lrs/sa)",
        |name, mode| time_par(name, w, mode, threads, reps),
    )
}

/// Fig. 5(b): overhead of unnecessary synchronization vs unsafe.
pub fn fig5b(w: &Workloads, threads: usize, reps: usize) -> String {
    overhead_table(
        "Fig. 5b: unnecessary synchronization for SngInd and AW (sync / unsafe)",
        &FIG5B_PAIRS,
        ExecMode::Sync,
        "(paper: ~1x for relaxed-atomic benchmarks, ~4x for hist's Mutex<large struct>)",
        |name, mode| time_par(name, w, mode, threads, reps),
    )
}

/// One row per pair: its time in `mode` against its time in `Unsafe`.
fn overhead_table(
    title: &str,
    pairs: &[&str],
    mode: ExecMode,
    note: &str,
    time: impl Fn(&str, ExecMode) -> Duration,
) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>9}",
        "pair",
        "unsafe",
        mode.label(),
        "overhead"
    );
    for &name in pairs {
        let (t_u, t_m) = (time(name, ExecMode::Unsafe), time(name, mode));
        let ratio = t_m.div_duration_f64(t_u);
        let _ = writeln!(out, "{name:<10} {t_u:>12.2?} {t_m:>12.2?} {ratio:>8.2}x");
    }
    out + note + "\n"
}

/// Fig. 6: the Rayon-justification microbenchmark (Appendix A).
pub fn fig6_report(n: usize, reps: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 6: run times of Listing 11-15 implementations ({n} elements)"
    );
    let _ = writeln!(out, "{:<22} {:>12} {:>6}  note", "variant", "time", "LoC");
    let fresh = || (0..n).collect::<Vec<usize>>();

    let t = time_best(reps, || {
        let mut v = fresh();
        fig6::serial_hash(&mut v);
        std::hint::black_box(v);
    });
    let _ = writeln!(
        out,
        "{:<22} {:>12.2?} {:>6}",
        fig6::VARIANTS[0].0,
        t,
        fig6::VARIANTS[0].1
    );

    // Thread-per-task: measure a 2000-element slice and extrapolate.
    let cap = 2000.min(n);
    let t_cap = time_best(reps, || {
        let mut v = fresh();
        fig6::par_hash_thread_per_task(&mut v, cap);
        std::hint::black_box(v);
    });
    let extrapolated = t_cap.mul_f64(n as f64 / cap as f64);
    let _ = writeln!(
        out,
        "{:<22} {:>12.2?} {:>6}  extrapolated from {cap} tasks; full size panics (paper: same)",
        fig6::VARIANTS[1].0,
        extrapolated,
        fig6::VARIANTS[1].1
    );

    let t = time_best(reps, || {
        let mut v = fresh();
        fig6::par_hash_thread_per_core(&mut v);
        std::hint::black_box(v);
    });
    let _ = writeln!(
        out,
        "{:<22} {:>12.2?} {:>6}",
        fig6::VARIANTS[2].0,
        t,
        fig6::VARIANTS[2].1
    );

    let t = time_best(reps, || {
        let mut v = fresh();
        fig6::par_hash_job_queue(&mut v);
        std::hint::black_box(v);
    });
    let _ = writeln!(
        out,
        "{:<22} {:>12.2?} {:>6}",
        fig6::VARIANTS[3].0,
        t,
        fig6::VARIANTS[3].1
    );

    let t = time_best(reps, || {
        let mut v = fresh();
        fig6::par_hash_rayon(&mut v);
        std::hint::black_box(v);
    });
    let _ = writeln!(
        out,
        "{:<22} {:>12.2?} {:>6}",
        fig6::VARIANTS[4].0,
        t,
        fig6::VARIANTS[4].1
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert_eq!(t1.lines().count(), 16); // header x2 + 14 rows
        assert!(t1.contains("sssp"));
        let t3 = table3();
        assert!(t3.contains("par_ind_iter_mut"));
        let f3 = fig3();
        assert!(f3.contains("irregular"));
    }

    #[test]
    fn dynamic_tables_render_at_tiny_scale() {
        let tiny = Scale {
            text_len: 3000,
            seq_len: 10_000,
            graph_n: 500,
            points_n: 200,
        };
        let w = Workloads::build(tiny);
        let t2 = table2(&w);
        assert!(t2.contains("road"));
        let f5a = fig5a(&w, 2, 1);
        // A header, a column line, one row per pair and a note line.
        assert_eq!(f5a.lines().count(), 3 + FIG5A_PAIRS.len(), "{f5a}");
        for name in FIG5A_PAIRS {
            assert!(f5a.lines().any(|l| l.starts_with(name)), "{f5a}");
        }
        let f6 = fig6_report(50_000, 1);
        assert!(f6.contains("par_rayon"));
    }
}
