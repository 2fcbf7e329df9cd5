//! The engine behind `rpb verify`: drives the suite's differential
//! verification ([`rpb_suite::verify`]) across execution modes and
//! worker-pool sizes, and renders the pass/fail matrix.
//!
//! Each cell is one `(benchmark, mode)` pair, run once per requested
//! worker count inside a dedicated Rayon pool of that size. A cell
//! fails on the first typed [`rpb_suite::SuiteError`] — or on a panic,
//! which is caught and reported as a failure rather than killing the
//! sweep. The harness exits [`EXIT_DIVERGENCE`] when any cell fails, so
//! CI can block on it.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rpb_fearless::{ExecMode, ALL_MODES};
use rpb_parlay::exec::{default_backend, BackendKind};
use rpb_parlay::simd::KernelImpl;
use rpb_pipeline::{default_channel, ChannelKind};
use rpb_suite::streaming::{verify_streaming, StreamConfig, STREAMING_BENCHES};
use rpb_suite::verify::{verify_pair_on, SuiteInputs, SUITE_BENCHES};

use crate::figures::in_pool_on;
use crate::workloads::Workloads;

/// Every cell agreed.
pub const EXIT_OK: i32 = 0;
/// At least one cell diverged, violated an invariant, or panicked.
pub const EXIT_DIVERGENCE: i32 = 1;

/// Largest accepted worker-pool size. Requests past this are config
/// typos, not capacity plans — rejected as a usage error at parse time
/// instead of letting a pool build fail deep inside the matrix engine.
pub const MAX_WORKERS: usize = 4096;

/// What to run: which benchmarks, modes, and pool sizes.
pub struct VerifyConfig {
    /// Benchmark abbreviations; empty means the full suite.
    pub benches: Vec<String>,
    /// Execution modes to cover.
    pub modes: Vec<ExecMode>,
    /// Worker-pool sizes each cell runs under.
    pub workers: Vec<usize>,
    /// Kernel implementations each cell runs under (the scalar-vs-simd
    /// differential axis; `--kernel-impl scalar,simd`). The default is
    /// `[Auto]` — let runtime detection decide, one run per cell.
    pub kernel_impls: Vec<KernelImpl>,
    /// Scheduling backends each cell runs under (the backend
    /// differential axis; `--backend rayon,mq`). The default is the
    /// process default — one run per cell.
    pub backends: Vec<BackendKind>,
    /// Corrupt this benchmark's parallel output before checking — a
    /// testing hook proving the failure path (FAIL cell, nonzero exit)
    /// works end to end.
    pub inject: Option<String>,
    /// Run the streaming matrix (`--streaming`) instead of the batch
    /// one: benchmarks default to [`STREAMING_BENCHES`], columns are
    /// channel backends, and each cell asserts streaming-vs-batch
    /// agreement plus the bounded in-flight memory claim. The `modes`
    /// and `kernel_impls` axes don't apply (streaming runs the
    /// sequential kernel per chunk).
    pub streaming: bool,
    /// Channel backends each streaming cell runs under (the channel
    /// differential axis; `--channel mpsc,crossbeam`). Only consulted
    /// with `streaming`; the default is the process default channel.
    pub channels: Vec<ChannelKind>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            benches: Vec::new(),
            modes: ALL_MODES.to_vec(),
            workers: vec![1, 2],
            kernel_impls: vec![KernelImpl::Auto],
            backends: vec![default_backend()],
            inject: None,
            streaming: false,
            channels: vec![default_channel()],
        }
    }
}

/// Result of a matrix sweep.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// The rendered matrix + failure details + summary line.
    pub rendered: String,
    /// One line per failed `(bench, mode, workers)` run.
    pub failures: Vec<String>,
    /// Number of `(bench, mode)` cells executed.
    pub cells: usize,
}

/// Borrows a [`Workloads`] as the suite's verification input set.
pub fn suite_inputs(w: &Workloads) -> SuiteInputs<'_> {
    SuiteInputs {
        text: &w.text,
        bwt: &w.bwt,
        seq: &w.seq,
        points: &w.points,
        link: &w.link,
        road: &w.road,
        wlink: &w.wlink,
        wroad: &w.wroad,
        link_edges: (w.link_edges.0, &w.link_edges.1),
        road_edges: (w.road_edges.0, &w.road_edges.1),
        rmat_wedges: (w.rmat_wedges.0, &w.rmat_wedges.1),
        road_wedges: (w.road_wedges.0, &w.road_wedges.1),
    }
}

/// Checks a worker-count list: non-empty, every entry in
/// `1..=`[`MAX_WORKERS`]. The error lists the offending values in
/// ascending order — deterministic regardless of CLI argument order —
/// together with the valid range. Shared by `rpb`'s flag parsing (so
/// `--workers 0` dies at parse time) and [`run_matrix`] (so programmatic
/// configs get the same contract).
pub fn validate_workers(workers: &[usize]) -> Result<(), String> {
    if workers.is_empty() {
        return Err(format!(
            "worker counts must be a non-empty list of integers in 1..={MAX_WORKERS}"
        ));
    }
    let mut bad: Vec<usize> = workers
        .iter()
        .copied()
        .filter(|&n| n == 0 || n > MAX_WORKERS)
        .collect();
    bad.sort_unstable();
    bad.dedup();
    if !bad.is_empty() {
        let list: Vec<String> = bad.iter().map(|n| n.to_string()).collect();
        return Err(format!(
            "invalid worker count{} {} (valid range: 1..={MAX_WORKERS})",
            if list.len() == 1 { "" } else { "s" },
            list.join(", ")
        ));
    }
    Ok(())
}

/// Runs the configured matrix. `Err` is a usage problem (unknown
/// benchmark name, empty mode/worker list, out-of-range worker count,
/// a kernel impl or backend this build can't honor) — distinct from
/// verification failures, which are reported inside the `Ok` outcome.
pub fn run_matrix(w: &Workloads, cfg: &VerifyConfig) -> Result<VerifyOutcome, String> {
    if cfg.streaming {
        return run_streaming_matrix(w, cfg);
    }
    let benches: Vec<&str> = if cfg.benches.is_empty() {
        SUITE_BENCHES.to_vec()
    } else {
        cfg.benches
            .iter()
            .map(|b| {
                SUITE_BENCHES
                    .iter()
                    .find(|&&s| s == b)
                    .copied()
                    .ok_or_else(|| {
                        format!(
                            "unknown benchmark `{b}` (valid: {})",
                            SUITE_BENCHES.join(", ")
                        )
                    })
            })
            .collect::<Result<_, _>>()?
    };
    if let Some(inj) = &cfg.inject {
        if !SUITE_BENCHES.contains(&inj.as_str()) {
            return Err(format!(
                "cannot inject into unknown benchmark `{inj}` (valid: {})",
                SUITE_BENCHES.join(", ")
            ));
        }
    }
    if cfg.modes.is_empty() {
        return Err("no execution modes selected".into());
    }
    validate_workers(&cfg.workers)?;
    if cfg.kernel_impls.is_empty() {
        return Err("no kernel implementations selected".into());
    }
    if cfg.kernel_impls.contains(&KernelImpl::Simd) && !rpb_parlay::simd::simd_compiled() {
        return Err(
            "kernel impl `simd` requires a binary built with `--features simd`: this build \
             compiled only the scalar paths, so the scalar-vs-simd differential would \
             vacuously compare scalar against itself"
                .into(),
        );
    }
    if cfg.backends.is_empty() {
        return Err("no backends selected".into());
    }

    let inputs = suite_inputs(w);
    let mut rendered = String::new();
    let mut failures: Vec<String> = Vec::new();
    let mut cells = 0usize;

    write!(rendered, "{:<8}", "bench").expect("write to string");
    for mode in &cfg.modes {
        write!(rendered, " {:<8}", mode.label()).expect("write to string");
    }
    rendered.push('\n');
    for &bench in &benches {
        write!(rendered, "{bench:<8}").expect("write to string");
        for &mode in &cfg.modes {
            cells += 1;
            let mut cell_ok = true;
            'cell: for &kimpl in &cfg.kernel_impls {
                for &backend in &cfg.backends {
                    for &workers in &cfg.workers {
                        let inject = cfg.inject.as_deref() == Some(bench);
                        if let Err(detail) =
                            run_cell(&inputs, bench, mode, workers, kimpl, backend, inject)
                        {
                            failures.push(format!(
                                "{bench}/{} @{workers} workers [{}/{}]: {detail}",
                                mode.label(),
                                kimpl.label(),
                                backend.label()
                            ));
                            cell_ok = false;
                            break 'cell;
                        }
                    }
                }
            }
            write!(rendered, " {:<8}", if cell_ok { "ok" } else { "FAIL" })
                .expect("write to string");
        }
        rendered.push('\n');
    }
    rendered.push('\n');
    for f in &failures {
        writeln!(rendered, "FAIL {f}").expect("write to string");
    }
    let workers: Vec<String> = cfg.workers.iter().map(|n| n.to_string()).collect();
    let impls: Vec<&str> = cfg.kernel_impls.iter().map(|k| k.label()).collect();
    let backends: Vec<&str> = cfg.backends.iter().map(|b| b.label()).collect();
    writeln!(
        rendered,
        "verify: {cells} cells ({} ok, {} FAIL) across workers {{{}}} and kernel impls {{{}}} \
         and backends {{{}}}",
        cells - failures.len(),
        failures.len(),
        workers.join(","),
        impls.join(","),
        backends.join(",")
    )
    .expect("write to string");
    Ok(VerifyOutcome {
        rendered,
        failures,
        cells,
    })
}

/// The streaming counterpart of the batch matrix: rows are the
/// benchmarks with streaming variants, columns are channel backends, and
/// each cell sweeps the executor backends and worker counts. A cell runs
/// [`verify_streaming`] — streaming output must agree exactly with the
/// batch oracles and honor the `capacity × channels` in-flight bound —
/// and fails on the first typed error or panic.
fn run_streaming_matrix(w: &Workloads, cfg: &VerifyConfig) -> Result<VerifyOutcome, String> {
    let benches: Vec<&str> = if cfg.benches.is_empty() {
        STREAMING_BENCHES.to_vec()
    } else {
        cfg.benches
            .iter()
            .map(|b| {
                STREAMING_BENCHES
                    .iter()
                    .find(|&&s| s == b)
                    .copied()
                    .ok_or_else(|| {
                        format!(
                            "benchmark `{b}` has no streaming variant (valid: {})",
                            STREAMING_BENCHES.join(", ")
                        )
                    })
            })
            .collect::<Result<_, _>>()?
    };
    if let Some(inj) = &cfg.inject {
        if !STREAMING_BENCHES.contains(&inj.as_str()) {
            return Err(format!(
                "cannot inject into `{inj}`: no streaming variant (valid: {})",
                STREAMING_BENCHES.join(", ")
            ));
        }
    }
    validate_workers(&cfg.workers)?;
    if cfg.channels.is_empty() {
        return Err("no channel backends selected".into());
    }
    if cfg.backends.is_empty() {
        return Err("no backends selected".into());
    }

    let inputs = suite_inputs(w);
    let mut rendered = String::new();
    let mut failures: Vec<String> = Vec::new();
    let mut cells = 0usize;

    write!(rendered, "{:<8}", "bench").expect("write to string");
    for channel in &cfg.channels {
        write!(rendered, " {:<10}", channel.label()).expect("write to string");
    }
    rendered.push('\n');
    for &bench in &benches {
        write!(rendered, "{bench:<8}").expect("write to string");
        for &channel in &cfg.channels {
            cells += 1;
            let mut cell_ok = true;
            'cell: for &backend in &cfg.backends {
                for &workers in &cfg.workers {
                    let inject = cfg.inject.as_deref() == Some(bench);
                    if let Err(detail) =
                        run_streaming_cell(&inputs, bench, channel, backend, workers, inject)
                    {
                        failures.push(format!(
                            "{bench}/streaming @{workers} workers [{}/{}]: {detail}",
                            channel.label(),
                            backend.label()
                        ));
                        cell_ok = false;
                        break 'cell;
                    }
                }
            }
            write!(rendered, " {:<10}", if cell_ok { "ok" } else { "FAIL" })
                .expect("write to string");
        }
        rendered.push('\n');
    }
    rendered.push('\n');
    for f in &failures {
        writeln!(rendered, "FAIL {f}").expect("write to string");
    }
    let workers: Vec<String> = cfg.workers.iter().map(|n| n.to_string()).collect();
    let channels: Vec<&str> = cfg.channels.iter().map(|c| c.label()).collect();
    let backends: Vec<&str> = cfg.backends.iter().map(|b| b.label()).collect();
    writeln!(
        rendered,
        "verify --streaming: {cells} cells ({} ok, {} FAIL) across workers {{{}}} and channels \
         {{{}}} and backends {{{}}}",
        cells - failures.len(),
        failures.len(),
        workers.join(","),
        channels.join(","),
        backends.join(",")
    )
    .expect("write to string");
    Ok(VerifyOutcome {
        rendered,
        failures,
        cells,
    })
}

/// One streaming `(bench, channel, backend, workers)` run,
/// panic-isolated. The pipeline builds its own executor batch (one
/// worker thread per blocking stage task), so no ambient pool pinning
/// is needed — `workers` sizes the transform-stage farm.
fn run_streaming_cell(
    inputs: &SuiteInputs<'_>,
    bench: &str,
    channel: ChannelKind,
    backend: BackendKind,
    workers: usize,
    inject: bool,
) -> Result<(), String> {
    // Registration is ensured here (not just in the binary's startup
    // hook) so library tests can sweep the mq backend too.
    rpb_multiqueue::backend::ensure_registered();
    let cfg = StreamConfig {
        channel,
        backend,
        workers,
        ..StreamConfig::default()
    };
    match catch_unwind(AssertUnwindSafe(|| {
        verify_streaming(bench, inputs, cfg, inject)
    })) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!(
            "panicked: {}",
            rpb_parlay::panics::panic_message(&*payload)
        )),
    }
}

/// One `(bench, mode, workers, kernel impl, backend)` run inside its own
/// pool, panic-isolated. A non-[`KernelImpl::Auto`] impl pins the
/// dispatch for the duration of the run (serialized via the global force
/// lock so concurrent matrices can't trample each other's pin) and
/// restores auto dispatch afterwards — panics included.
fn run_cell(
    inputs: &SuiteInputs<'_>,
    bench: &str,
    mode: ExecMode,
    workers: usize,
    kimpl: KernelImpl,
    backend: BackendKind,
    inject: bool,
) -> Result<(), String> {
    let _pin = (kimpl != KernelImpl::Auto).then(|| {
        let guard = rpb_parlay::simd::force_lock();
        rpb_parlay::simd::set_forced(kimpl);
        guard
    });
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        in_pool_on(backend, workers, || {
            verify_pair_on(backend, bench, inputs, mode, workers, inject)
        })
    }));
    if kimpl != KernelImpl::Auto {
        rpb_parlay::simd::set_forced(KernelImpl::Auto);
    }
    match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!(
            "panicked: {}",
            rpb_parlay::panics::panic_message(&*payload)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn tiny_workloads() -> Workloads {
        let mut scale = Scale::gate();
        // Shrink below gate so the in-crate matrix tests stay fast; the
        // CLI regression test exercises the real gate scale.
        scale.text_len = 2_000;
        scale.seq_len = 8_000;
        scale.graph_n = 400;
        scale.points_n = 200;
        Workloads::build(scale)
    }

    #[test]
    fn clean_subset_matrix_passes() {
        let w = tiny_workloads();
        let cfg = VerifyConfig {
            benches: vec!["hist".into(), "sort".into(), "bfs".into()],
            workers: vec![1, 2],
            ..VerifyConfig::default()
        };
        let out = run_matrix(&w, &cfg).expect("usage ok");
        assert_eq!(out.cells, 9, "3 benches x 3 modes");
        assert!(out.failures.is_empty(), "{}", out.rendered);
        assert!(
            out.rendered.contains("9 cells (9 ok, 0 FAIL)"),
            "{}",
            out.rendered
        );
    }

    // Requesting the simd impl in a build without the compiled-in
    // vectorized kernels is a usage error (see
    // `simd_impl_without_the_feature_is_a_usage_error`), so the
    // both-paths sweep only exists where `simd_compiled()` is true.
    #[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
    #[test]
    fn kernel_impl_axis_runs_both_paths() {
        let w = tiny_workloads();
        let cfg = VerifyConfig {
            benches: vec!["hist".into(), "dedup".into()],
            modes: vec![ExecMode::Checked],
            workers: vec![2],
            kernel_impls: vec![KernelImpl::Scalar, KernelImpl::Simd],
            ..VerifyConfig::default()
        };
        let out = run_matrix(&w, &cfg).expect("usage ok");
        assert_eq!(out.cells, 2, "{}", out.rendered);
        assert!(out.failures.is_empty(), "{}", out.rendered);
        assert!(
            out.rendered.contains("kernel impls {scalar,simd}"),
            "{}",
            out.rendered
        );
    }

    #[test]
    fn empty_kernel_impl_list_is_a_usage_error() {
        let w = tiny_workloads();
        let none = VerifyConfig {
            kernel_impls: Vec::new(),
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &none).is_err());
    }

    #[test]
    fn injection_renders_fail_cells() {
        let w = tiny_workloads();
        let cfg = VerifyConfig {
            benches: vec!["hist".into(), "sort".into()],
            modes: vec![ExecMode::Checked],
            workers: vec![2],
            inject: Some("hist".into()),
            ..VerifyConfig::default()
        };
        let out = run_matrix(&w, &cfg).expect("usage ok");
        assert_eq!(out.failures.len(), 1, "{}", out.rendered);
        assert!(out.failures[0].contains("hist"), "{}", out.failures[0]);
        assert!(out.rendered.contains("FAIL"), "{}", out.rendered);
    }

    #[test]
    fn backend_axis_runs_both_backends() {
        let w = tiny_workloads();
        let cfg = VerifyConfig {
            benches: vec!["bfs".into(), "sssp".into()],
            modes: vec![ExecMode::Sync],
            workers: vec![1, 2],
            backends: vec![BackendKind::Rayon, BackendKind::Mq],
            ..VerifyConfig::default()
        };
        let out = run_matrix(&w, &cfg).expect("usage ok");
        assert_eq!(out.cells, 2, "{}", out.rendered);
        assert!(out.failures.is_empty(), "{}", out.rendered);
        assert!(
            out.rendered.contains("backends {rayon,mq}"),
            "{}",
            out.rendered
        );
        // An empty backend list is a usage error.
        let none = VerifyConfig {
            backends: Vec::new(),
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &none).is_err());
    }

    #[test]
    fn streaming_matrix_passes_on_both_channels_and_backends() {
        let w = tiny_workloads();
        let cfg = VerifyConfig {
            streaming: true,
            channels: vec![ChannelKind::Mpsc, ChannelKind::Crossbeam],
            backends: vec![BackendKind::Rayon, BackendKind::Mq],
            workers: vec![1, 2],
            ..VerifyConfig::default()
        };
        let out = run_matrix(&w, &cfg).expect("usage ok");
        assert_eq!(out.cells, 6, "3 streaming benches x 2 channels");
        assert!(out.failures.is_empty(), "{}", out.rendered);
        assert!(
            out.rendered
                .contains("channels {mpsc,crossbeam} and backends {rayon,mq}"),
            "{}",
            out.rendered
        );
    }

    #[test]
    fn streaming_injection_renders_fail_cells() {
        let w = tiny_workloads();
        let cfg = VerifyConfig {
            streaming: true,
            benches: vec!["hist".into(), "dedup".into()],
            workers: vec![1],
            inject: Some("dedup".into()),
            ..VerifyConfig::default()
        };
        let out = run_matrix(&w, &cfg).expect("usage ok");
        assert_eq!(out.failures.len(), 1, "{}", out.rendered);
        assert!(out.failures[0].contains("dedup"), "{}", out.failures[0]);
        assert!(out.rendered.contains("FAIL"), "{}", out.rendered);
    }

    #[test]
    fn streaming_usage_errors_are_typed() {
        let w = tiny_workloads();
        // `sort` has no streaming variant.
        let no_variant = VerifyConfig {
            streaming: true,
            benches: vec!["sort".into()],
            ..VerifyConfig::default()
        };
        let err = run_matrix(&w, &no_variant).unwrap_err();
        assert!(err.contains("no streaming variant"), "{err}");
        let bad_inject = VerifyConfig {
            streaming: true,
            inject: Some("sort".into()),
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &bad_inject).is_err());
        let no_channels = VerifyConfig {
            streaming: true,
            channels: Vec::new(),
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &no_channels).is_err());
    }

    #[test]
    fn usage_errors_are_not_failures() {
        let w = tiny_workloads();
        let unknown = VerifyConfig {
            benches: vec!["quicksort".into()],
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &unknown).unwrap_err().contains("quicksort"));
        let bad_inject = VerifyConfig {
            inject: Some("quicksort".into()),
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &bad_inject).is_err());
        let zero_workers = VerifyConfig {
            workers: vec![0],
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &zero_workers).is_err());
        let no_modes = VerifyConfig {
            modes: Vec::new(),
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &no_modes).is_err());
    }

    #[test]
    fn worker_range_errors_are_typed_and_ordered() {
        assert!(validate_workers(&[1, 2, MAX_WORKERS]).is_ok());
        assert!(validate_workers(&[]).is_err());
        // Offenders listed ascending regardless of input order, with the
        // valid range spelled out.
        let err = validate_workers(&[9000, 2, 0, 5000, 9000]).unwrap_err();
        assert!(err.contains("0, 5000, 9000"), "{err}");
        assert!(err.contains("1..=4096"), "{err}");
        let err = validate_workers(&[0]).unwrap_err();
        assert!(err.contains("invalid worker count 0"), "{err}");
    }

    #[cfg(not(feature = "simd"))]
    #[test]
    fn simd_impl_without_the_feature_is_a_usage_error() {
        let w = tiny_workloads();
        let cfg = VerifyConfig {
            benches: vec!["hist".into()],
            modes: vec![ExecMode::Checked],
            kernel_impls: vec![KernelImpl::Simd],
            ..VerifyConfig::default()
        };
        let err = run_matrix(&w, &cfg).unwrap_err();
        assert!(err.contains("--features simd"), "{err}");
    }
}
