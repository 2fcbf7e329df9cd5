//! The engine behind `rpb verify`: drives the suite's differential
//! verification ([`rpb_suite::verify`]) across execution modes and
//! worker-pool sizes, and renders the pass/fail matrix.
//!
//! A matrix is rows (benchmarks) × columns × an inner sweep of every
//! cell over kernel impls, backends and worker counts; the batch matrix
//! (columns = execution modes) and the `--streaming` one (columns =
//! channel backends) are two configurations of one engine ([`Matrix`]).
//! A cell fails on the first typed [`rpb_suite::SuiteError`] — or on a
//! panic, which is caught and reported as a failure rather than killing
//! the sweep. The harness exits [`EXIT_DIVERGENCE`] when any cell fails,
//! so CI can block on it.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rpb_fearless::{ExecMode, ALL_MODES};
use rpb_parlay::exec::{default_backend, BackendKind};
use rpb_parlay::simd::{self, KernelImpl};
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

/// One point of a cell's inner sweep.
#[derive(Clone, Copy)]
struct Point {
    kimpl: KernelImpl,
    backend: BackendKind,
    workers: usize,
}

/// One configuration of the matrix engine. `FAIL` lines read
/// `bench/<what> @N workers [<variant>/<backend>]` and the summary
/// `<title>: … across workers {…} and <axis> {…} and backends {…}`.
struct Matrix<'a> {
    /// Summary prefix.
    title: &'static str,
    /// Row labels: the validated benchmark names.
    rows: Vec<&'static str>,
    /// Column labels, each padded to `width`.
    cols: Vec<&'static str>,
    width: usize,
    /// Kernel impls every cell sweeps, outside backends × workers.
    kernel_impls: &'a [KernelImpl],
    /// The axis the summary names besides workers and backends.
    axis: (&'static str, Vec<&'static str>),
    /// `(what, variant)` of a `FAIL` line for `(column, point)`.
    tag: Box<dyn Fn(usize, Point) -> (&'static str, &'static str) + 'a>,
    run: Box<RunCell<'a>>,
}

/// One run of `(bench, column, point, inject)`; the engine isolates its
/// panics.
type RunCell<'a> = dyn Fn(&str, usize, Point, bool) -> Result<(), String> + 'a;

impl Matrix<'_> {
    /// Sweeps every cell — stopping a cell at its first failing point —
    /// and renders header, `ok`/`FAIL` cells, `FAIL …` lines and summary.
    fn sweep(&self, cfg: &VerifyConfig) -> VerifyOutcome {
        let width = self.width;
        let mut rendered = String::new();
        let mut failures: Vec<String> = Vec::new();
        let mut cells = 0usize;

        write!(rendered, "{:<8}", "bench").expect("write to string");
        for col in &self.cols {
            write!(rendered, " {col:<width$}").expect("write to string");
        }
        rendered.push('\n');
        for &bench in &self.rows {
            write!(rendered, "{bench:<8}").expect("write to string");
            let inject = cfg.inject.as_deref() == Some(bench);
            for col in 0..self.cols.len() {
                cells += 1;
                let mut points = self.kernel_impls.iter().flat_map(|&kimpl| {
                    cfg.backends.iter().flat_map(move |&backend| {
                        cfg.workers.iter().map(move |&workers| Point {
                            kimpl,
                            backend,
                            workers,
                        })
                    })
                });
                let failure = points.find_map(|p| {
                    let outcome = isolated(|| (self.run)(bench, col, p, inject));
                    outcome.err().map(|detail| (p, detail))
                });
                if let Some((p, detail)) = &failure {
                    let (what, variant) = (self.tag)(col, *p);
                    failures.push(format!(
                        "{bench}/{what} @{} workers [{variant}/{}]: {detail}",
                        p.workers,
                        p.backend.label()
                    ));
                }
                let verdict = if failure.is_none() { "ok" } else { "FAIL" };
                write!(rendered, " {verdict:<width$}").expect("write to string");
            }
            rendered.push('\n');
        }
        rendered.push('\n');
        for f in &failures {
            writeln!(rendered, "FAIL {f}").expect("write to string");
        }
        let workers: Vec<String> = cfg.workers.iter().map(|n| n.to_string()).collect();
        let backends: Vec<&str> = cfg.backends.iter().map(|b| b.label()).collect();
        writeln!(
            rendered,
            "{}: {cells} cells ({} ok, {} FAIL) across workers {{{}}} and {} {{{}}} and backends \
             {{{}}}",
            self.title,
            cells - failures.len(),
            failures.len(),
            workers.join(","),
            self.axis.0,
            self.axis.1.join(","),
            backends.join(",")
        )
        .expect("write to string");
        VerifyOutcome {
            rendered,
            failures,
            cells,
        }
    }
}

/// Runs `f`, mapping a typed error or a panic to the cell's failure
/// detail.
fn isolated(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(format!(
            "panicked: {}",
            rpb_parlay::panics::panic_message(&*payload)
        ))
    })
}

/// The rows of a matrix: the requested benchmarks (all of `universe` when
/// none are named), after checking them and the `--inject` target against
/// `universe`. `unknown` / `no_inject` word the two complaints; the valid
/// names are appended.
fn select_benches(
    cfg: &VerifyConfig,
    universe: &'static [&'static str],
    unknown: impl Fn(&str) -> String,
    no_inject: impl Fn(&str) -> String,
) -> Result<Vec<&'static str>, String> {
    let find = |b: &str| universe.iter().find(|&&s| s == b).copied();
    let valid = || format!("(valid: {})", universe.join(", "));
    let rows = if cfg.benches.is_empty() {
        universe.to_vec()
    } else {
        let named = cfg.benches.iter();
        named
            .map(|b| find(b).ok_or_else(|| format!("{} {}", unknown(b), valid())))
            .collect::<Result<_, _>>()?
    };
    match &cfg.inject {
        Some(inj) if find(inj).is_none() => Err(format!("{} {}", no_inject(inj), valid())),
        _ => Ok(rows),
    }
}

/// An axis with nothing selected is a usage error.
fn non_empty<T>(axis: &[T], what: &str) -> Result<(), String> {
    if axis.is_empty() {
        return Err(format!("no {what} selected"));
    }
    Ok(())
}

/// Runs the configured matrix. `Err` is a usage problem (unknown
/// benchmark name, empty mode/worker list, out-of-range worker count,
/// a kernel impl or backend this build can't honor) — distinct from
/// verification failures, which are reported inside the `Ok` outcome.
pub fn run_matrix(w: &Workloads, cfg: &VerifyConfig) -> Result<VerifyOutcome, String> {
    let inputs = suite_inputs(w);
    let matrix = if cfg.streaming {
        streaming_matrix(&inputs, cfg)?
    } else {
        batch_matrix(&inputs, cfg)?
    };
    Ok(matrix.sweep(cfg))
}

/// The batch matrix: columns are execution modes and each cell runs
/// [`verify_pair_on`] inside its own pool. A non-[`KernelImpl::Auto`]
/// impl pins the dispatch for the duration of the run.
fn batch_matrix<'a>(
    inputs: &'a SuiteInputs<'a>,
    cfg: &'a VerifyConfig,
) -> Result<Matrix<'a>, String> {
    let rows = select_benches(
        cfg,
        &SUITE_BENCHES,
        |b| format!("unknown benchmark `{b}`"),
        |inj| format!("cannot inject into unknown benchmark `{inj}`"),
    )?;
    non_empty(&cfg.modes, "execution modes")?;
    validate_workers(&cfg.workers)?;
    non_empty(&cfg.kernel_impls, "kernel implementations")?;
    if cfg.kernel_impls.contains(&KernelImpl::Simd) && !simd::simd_compiled() {
        return Err(
            "kernel impl `simd` requires a binary built with `--features simd`: this build \
             compiled only the scalar paths, so the scalar-vs-simd differential would \
             vacuously compare scalar against itself"
                .into(),
        );
    }
    non_empty(&cfg.backends, "backends")?;
    Ok(Matrix {
        title: "verify",
        rows,
        cols: cfg.modes.iter().map(|m| m.label()).collect(),
        width: 8,
        kernel_impls: &cfg.kernel_impls,
        axis: (
            "kernel impls",
            cfg.kernel_impls.iter().map(|k| k.label()).collect(),
        ),
        tag: Box::new(|col, p| (cfg.modes[col].label(), p.kimpl.label())),
        run: Box::new(|bench, col, p, inject| {
            let _pin = (p.kimpl != KernelImpl::Auto).then(|| simd::pin(p.kimpl));
            let mode = cfg.modes[col];
            in_pool_on(p.backend, p.workers, || {
                verify_pair_on(p.backend, bench, inputs, mode, p.workers, inject)
            })
            .map_err(|e| e.to_string())
        }),
    })
}

/// The streaming matrix: rows are the benchmarks with streaming
/// variants, columns are channel backends, and the modes and kernel-impl
/// axes don't apply. A cell runs [`verify_streaming`] — streaming output
/// must agree exactly with the batch oracles and honor the `capacity ×
/// channels` in-flight bound. The pipeline builds its own executor batch
/// (one worker thread per blocking stage task), so no ambient pool
/// pinning is needed — `workers` sizes the transform-stage farm.
fn streaming_matrix<'a>(
    inputs: &'a SuiteInputs<'a>,
    cfg: &'a VerifyConfig,
) -> Result<Matrix<'a>, String> {
    let rows = select_benches(
        cfg,
        &STREAMING_BENCHES,
        |b| format!("benchmark `{b}` has no streaming variant"),
        |inj| format!("cannot inject into `{inj}`: no streaming variant"),
    )?;
    validate_workers(&cfg.workers)?;
    non_empty(&cfg.channels, "channel backends")?;
    non_empty(&cfg.backends, "backends")?;
    let channels: Vec<&str> = cfg.channels.iter().map(|c| c.label()).collect();
    Ok(Matrix {
        title: "verify --streaming",
        rows,
        cols: channels.clone(),
        width: 10,
        kernel_impls: &[KernelImpl::Auto],
        axis: ("channels", channels),
        tag: Box::new(|col, _| ("streaming", cfg.channels[col].label())),
        run: Box::new(|bench, col, p, inject| {
            // Registration is ensured here (not just in the binary's
            // startup hook) so library tests can sweep the mq backend too.
            rpb_multiqueue::backend::ensure_registered();
            let stream = StreamConfig {
                channel: cfg.channels[col],
                backend: p.backend,
                workers: p.workers,
                ..StreamConfig::default()
            };
            verify_streaming(bench, inputs, stream, inject).map_err(|e| e.to_string())
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_subset_matrix_passes() {
        let w = Workloads::tiny();
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
        let w = Workloads::tiny();
        let cfg = VerifyConfig {
            benches: vec!["sort".into(), "dedup".into()],
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
        let w = Workloads::tiny();
        let none = VerifyConfig {
            kernel_impls: Vec::new(),
            ..VerifyConfig::default()
        };
        assert!(run_matrix(&w, &none).is_err());
    }

    #[test]
    fn injection_renders_fail_cells() {
        let w = Workloads::tiny();
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
        let w = Workloads::tiny();
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
        let w = Workloads::tiny();
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
        let w = Workloads::tiny();
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
        let w = Workloads::tiny();
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
        let w = Workloads::tiny();
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
        let w = Workloads::tiny();
        let cfg = VerifyConfig {
            benches: vec!["sort".into()],
            modes: vec![ExecMode::Checked],
            kernel_impls: vec![KernelImpl::Simd],
            ..VerifyConfig::default()
        };
        let err = run_matrix(&w, &cfg).unwrap_err();
        assert!(err.contains("--features simd"), "{err}");
    }
}
