//! The benchmark's workloads: what each one runs, and the pieces they share.

pub mod batch;
pub mod serve;
pub mod stream;

use std::time::Instant;

use rpb_parlay::exec::BackendKind;
use rpb_pipeline::ChannelKind;
use rpb_suite::Scale;

use crate::metrics::Report;
use crate::stats::median;
use crate::trace::{Span, Tracer};

/// Name and one-line reason of every workload, as in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "batch_recommended",
        "Fig. 4: the 20 suite pairs in their recommended mode against their sequential baselines; kernels and substrates do all the work. Provisional: rpb on perf/stubs/rayon, re-record on the real crate",
    ),
    (
        "batch_checked",
        "Fig. 5(a): bw, lrs, sa and isort with run-time offset validation against Unsafe; the only batch workload that rpb-fearless checks and the mark-table pool dominate",
    ),
    (
        "batch_sync",
        "Fig. 5(b): the 12 pairs with a Sync variant (atomics, mutexes) against Unsafe; moves with rpb-concurrent and lock cost, bypasses validation",
    ),
    (
        "serve_socket",
        "rpb serve over loopback TCP: 2 closed-loop load::Client connections, 1-worker farm, gate scale. Today a request is two 44 ms Nagle/delayed-ACK waits: re-record once a frame is one segment",
    ),
    (
        "stream_pipeline",
        "hist, dedup and bfs as streaming pipelines against the flat batch kernels at matched width; channel ops and one skeleton start per BFS level set the overhead",
    ),
];

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Epochs of a run: each sets everything up afresh (`setup_s` is the
    /// median set-up time) and measures for its share of `seconds`.
    pub setups: usize,
    /// Test hook: corrupt one output before it is verified.
    pub inject: bool,
    /// Test hook: input scale override (tests run tiny inputs).
    pub scale: Option<Scale>,
}

impl Opts {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Opts {
        Opts {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            setups: 5,
            inject: false,
            scale: None,
        }
    }
}

/// Set-ups a run makes after its epochs for `setup_s` alone, so that the
/// median rests on `setups + SETUP_ONLY` samples.
pub const SETUP_ONLY: usize = 6;

/// Share of a traced run's `--seconds` that the batch and streaming
/// workloads spend in rounds; the rest is left for the probes.
pub const TRACED_SHARE: f64 = 0.6;

/// What one run found.
pub struct Outcome {
    /// Operations whose output was verified.
    pub attempted: u64,
    /// Those that failed verification, errored, or were shed.
    pub failed: u64,
    pub report: Report,
    /// Everything the traced run recorded (empty for end-to-end runs).
    pub spans: Vec<Span>,
    /// Human-readable detail (sample counts, quartiles), one line each.
    pub notes: Vec<String>,
}

/// Worker width of the measured configuration: every core, at most four.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Fixes every process-wide switch the layers read, so that `RPB_BACKEND`,
/// `RPB_CHANNEL` and leftovers of an earlier phase cannot change what is
/// measured. (`RPB_FORCE_SCALAR` has nothing to act on: the build has no
/// `simd` feature.)
pub fn pin_environment() {
    rpb_parlay::exec::set_default_backend(Some(BackendKind::Rayon));
    rpb_pipeline::channel::set_default_channel(Some(ChannelKind::Mpsc));
    rpb_multiqueue::ensure_registered();
    rpb_fearless::pool::set_enabled(true);
    rpb_fearless::pool::clear();
    rpb_fearless::pool::reset_stats();
}

/// Times one call with a span around it; returns nanoseconds.
pub fn timed_span(
    t: &mut Tracer,
    layer: &'static str,
    name: &str,
    op: u64,
    f: impl FnOnce(),
) -> f64 {
    let t0 = Instant::now();
    let open = t.begin(layer, name, op);
    f();
    let recorded = t.end(open);
    if recorded > 0 {
        recorded as f64
    } else {
        t0.elapsed().as_nanos() as f64
    }
}

/// Median nanoseconds of `reps` calls of `f` after one warm-up call, each a
/// span `layer`/`name`.
pub fn probe(
    t: &mut Tracer,
    layer: &'static str,
    name: &str,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|rep| timed_span(t, layer, name, rep as u64, &mut f))
        .collect();
    median(&samples)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    pin_environment();
    match opts.workload.as_str() {
        "batch_recommended" => Ok(batch::run(batch::Figure::Recommended, opts)),
        "batch_checked" => Ok(batch::run(batch::Figure::Checked, opts)),
        "batch_sync" => Ok(batch::run(batch::Figure::Sync, opts)),
        "serve_socket" => serve::run(opts),
        "stream_pipeline" => Ok(stream::run(opts)),
        other => Err(format!(
            "unknown workload `{other}` (valid: {})",
            WORKLOADS.map(|(name, _)| name).join(", ")
        )),
    }
}
