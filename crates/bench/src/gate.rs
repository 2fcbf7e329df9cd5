//! The deterministic perf gate: `rpb gate record|compare|check`.
//!
//! CI cannot gate on raw wall-clock numbers — shared runners are far too
//! noisy — yet the paper's claims are quantitative, so a PR that silently
//! doubles the number of uniqueness checks or defeats the mark-table pool
//! must fail loudly. The gate therefore splits every baseline into two
//! metric classes:
//!
//! * **Hard metrics** — deterministic event counters from [`rpb_obs`]
//!   (checks performed, offsets/boundaries validated, pool hits/misses,
//!   proof builds/reuses, MultiQueue pushes/pops, executor tasks). The
//!   counter pass runs every case on a **1-worker pool with pinned-seed
//!   inputs**, making these pure functions of the code — bit-stable across
//!   machines and runs. Any drift is a real behavioral change (an
//!   algorithm, policy, or fast-path regression) and fails the gate.
//! * **Soft metrics** — wall-clock brackets (`best`/`median`/MAD from
//!   [`TimingStats`]). These are advisory by default on CI: a violation
//!   requires the current median to exceed the baseline median by both a
//!   configurable ratio tolerance *and* a MAD-based noise envelope, so a
//!   one-off scheduler hiccup cannot trip it.
//!
//! The smoke matrix is every Fig. 4 pair in its recommended mode (which
//! includes the MultiQueue `bfs`/`sssp` pairs and `sort`'s RngInd check)
//! plus the SngInd-heavy trio (`bw`, `lrs`, `sa`) in checked mode under
//! both validation-cost brackets (`fresh` = pool disabled, `amortized` =
//! pre-warmed pool), so every check strategy and the pooled fast path are
//! all under the gate. Inputs are built at the pinned [`Scale::gate`];
//! baselines embed the scale and `check` refuses to compare across scales.
//!
//! On top of the smoke matrix, every baseline carries the **kernel
//! cells** ([`kernel_matrix`]): the four vectorized hot kernels of the
//! `simd` feature (histogram bucketing, radix sort, the SngInd
//! uniqueness sweep, the RngInd monotonicity sweep), each recorded twice
//! with the dispatch pinned to `scalar` and to `simd` (pins never exceed
//! what the CPU supports, so the cells degrade gracefully to two scalar
//! runs on non-AVX2 hardware or default-feature builds). Their hard
//! counters must agree across the two pins — the SIMD fast paths are
//! required to be behaviorally invisible — while the wall brackets
//! document the raw-speed win per kernel ([`render_kernel_speedups`]).
//!
//! Every baseline also carries the **backend cells** ([`backend_matrix`]):
//! the four MultiQueue pairs (`bfs-*`/`sssp-*`) recorded once per
//! scheduling backend (`rayon` and `mq`), with the backend label in the
//! cell's `mode` field (keys read `backend-bfs-road/rayon`, …). The
//! scheduling policy is required to be substrate-independent, so the hard
//! counters of a pair must agree across its two backend cells the same
//! way kernel counters agree across dispatch pins.
//!
//! Finally, every baseline carries the **serve cells** ([`serve_matrix`]):
//! the resident service's two pinned admission traces (`serve-steady` and
//! `serve-burst`, see `rpb_serve::trace`) recorded once per scheduling
//! backend, with the backend label in the `mode` field (keys read
//! `serve-steady/rayon`, `serve-burst/mq`, …). The traces pump the job
//! farm inline on a 1-thread pool, so the serve counters — jobs
//! admitted/shed/completed/failed and the queue-depth high-water mark —
//! are exact functions of the pinned trace shape: the steady cell pins
//! the zero-allocation steady state (after warmup, `sngind_pool_misses`
//! stays zero), the burst cell pins admission control shedding exactly
//! the over-cap overflow instead of queueing it.
//!
//! Every baseline also carries the **pipeline cells**
//! ([`pipeline_matrix`]): the three streaming skeletons of
//! `rpb_suite::streaming` (`pipeline-hist`, `pipeline-dedup`,
//! `pipeline-bfs`) recorded once per channel backend, with the channel
//! label in the `mode` field (keys read `pipeline-hist/mpsc`,
//! `pipeline-bfs/crossbeam`, …). Each cell runs one streaming pass at a
//! pinned chunk size, channel capacity, and one worker per stage, so the
//! pipeline counters — runs, items in/out, channel sends/recvs, stage
//! panics — are exact functions of the gate-scale input, and a variant's
//! counters must be equal across its two channel cells: the channel
//! substrate is required to be behaviorally invisible.
//!
//! A baseline whose *cell set or configuration* differs from the current
//! build — e.g. one recorded under a different feature set, so kernel or
//! backend cells are missing or unexpected — is a **schema mismatch**,
//! not counter drift: `compare`/`check` list the offending cells and exit
//! [`EXIT_USAGE`] so CI reads "re-record the baseline with matching
//! features", never "the code regressed".
//!
//! Baselines are versioned JSON (`rpb-baseline-v1`) committed under
//! `baselines/`. After an *intentional* behavioral change, re-record with
//! `rpb gate record` and commit the diff — the diff itself documents the
//! behavioral delta of the PR.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use rpb_fearless::pool;
use rpb_fearless::snd_ind::{self, UniquenessCheck};
use rpb_fearless::{rng_ind, ExecMode};
use rpb_obs::{metrics, Json};
use rpb_parlay::exec::{set_default_backend, BackendKind, ALL_BACKENDS};
use rpb_parlay::simd::KernelImpl;
use rpb_pipeline::{ChannelKind, ALL_CHANNELS};
use rpb_serve::trace::{self as serve_trace, TraceConfig};
use rpb_serve::Datasets as ServeDatasets;
use rpb_suite::hist;
use rpb_suite::streaming::{self, StreamConfig};

use crate::figures::{in_pool, in_pool_on};
use crate::record::EnvInfo;
use crate::runner::{recommended_mode, run_case, run_case_on, ALL_PAIRS, FIG5A_PAIRS};
use crate::scale::Scale;
use crate::workloads::Workloads;
use crate::{time_best, TimingStats};

/// Schema tag of every baseline file the gate writes and reads.
pub const BASELINE_SCHEMA: &str = "rpb-baseline-v1";

/// Worker-thread count of the counter pass. Pinned to 1: with a single
/// worker every counter below is a deterministic function of the
/// pinned-seed inputs (no lock contention, no racy pool acquisitions, no
/// relaxed-scheduling variation in the MultiQueue), which is what lets a
/// baseline recorded on one machine hard-gate every other.
pub const COUNTER_THREADS: usize = 1;

/// The counters a baseline gates *hard* (exact equality).
///
/// Inclusion rule: the value must be reproducible bit-for-bit at
/// [`COUNTER_THREADS`]` = 1` with pinned-seed inputs. Excluded by that
/// rule: contention counters (`mq_push_retries`), idle accounting
/// (`exec_idle_spins`), the rank sampler (arm-time dependent), every
/// duration histogram, and per-thread splits — all scheduling- or
/// clock-dependent even when the algorithm is unchanged.
pub const HARD_COUNTERS: &[&str] = &[
    // SngInd validation: strategy choice, volume, and failures.
    "sngind_checks_mark",
    "sngind_checks_sort",
    "sngind_checks_bitset",
    "sngind_offsets_validated",
    "sngind_mark_table_bytes",
    "sngind_check_failures",
    // The pooled fast path and validation proofs (PR 2's perf claims).
    "sngind_pool_hits",
    "sngind_pool_misses",
    "sngind_proof_builds",
    "sngind_proof_reuses",
    // RngInd validation.
    "rngind_checks",
    "rngind_boundaries_validated",
    "rngind_check_failures",
    "rngind_proof_builds",
    // MultiQueue traffic and executor totals (bfs/sssp pairs).
    "mq_pushes",
    "mq_pops",
    "mq_pop_sweeps",
    "mq_empty_pops",
    "mq_drained_items",
    "exec_runs",
    "exec_tasks",
    "exec_task_panics",
    "exec_tasks_drained",
    // Serve admission arithmetic (the serve-* trace cells): farm traffic
    // and the queue-depth high-water mark of the pinned inline traces.
    "serve_jobs_admitted",
    "serve_jobs_shed",
    "serve_jobs_completed",
    "serve_jobs_failed",
    "serve_queue_depth_max",
    // Pipeline streaming traffic (the pipeline-* cells): runs, items, and
    // channel operations of the pinned 1-worker-per-stage skeletons —
    // exact functions of the input shape, chunking, and stage shape.
    // (`pipeline_max_inflight` is a scheduling-dependent high-water mark,
    // excluded by the inclusion rule; the verifier asserts its bound as
    // an inequality instead.)
    "pipeline_runs",
    "pipeline_items_in",
    "pipeline_items_out",
    "pipeline_sends",
    "pipeline_recvs",
    "pipeline_stage_panics",
];

/// Exit code: baseline and current run agree (soft drift at most advisory).
pub const EXIT_OK: i32 = 0;
/// Exit code: usage / IO / malformed-baseline errors, and baseline schema
/// mismatches (the two baselines record different cell sets or
/// configurations, so no behavioral verdict is possible).
pub const EXIT_USAGE: i32 = 2;
/// Exit code: only soft (wall-clock) metrics exceeded tolerance.
pub const EXIT_SOFT: i32 = 3;
/// Exit code: at least one hard (deterministic-counter) metric drifted.
pub const EXIT_HARD: i32 = 4;

/// Default soft tolerance: current median may be up to this multiple of
/// the baseline median before a soft violation is even considered.
pub const DEFAULT_WALL_TOLERANCE: f64 = 1.5;

/// Noise envelope width: on top of the ratio tolerance, the current
/// median must exceed `base_median + K * (base_mad + cur_mad)`.
const MAD_ENVELOPE_K: u64 = 4;

/// Wall-clock statistics of one gate case (the soft metric class).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WallStats {
    /// Best measured repetition, nanoseconds.
    pub best_ns: u64,
    /// Median repetition, nanoseconds.
    pub median_ns: u64,
    /// Median absolute deviation, nanoseconds.
    pub mad_ns: u64,
    /// Measured repetitions.
    pub reps: u64,
}

impl WallStats {
    fn from_timing(ts: TimingStats) -> WallStats {
        WallStats {
            best_ns: ts.best_ns() as u64,
            median_ns: ts.median_ns() as u64,
            mad_ns: ts.mad_ns() as u64,
            reps: ts.reps as u64,
        }
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("best_ns".into(), Json::from_u64(self.best_ns)),
            ("median_ns".into(), Json::from_u64(self.median_ns)),
            ("mad_ns".into(), Json::from_u64(self.mad_ns)),
            ("reps".into(), Json::from_u64(self.reps)),
        ])
    }

    fn parse(j: &Json) -> Result<WallStats, String> {
        let f = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("wall stats missing \"{k}\""))
        };
        Ok(WallStats {
            best_ns: f("best_ns")?,
            median_ns: f("median_ns")?,
            mad_ns: f("mad_ns")?,
            reps: f("reps")?,
        })
    }
}

/// One benchmark × mode (× check bracket) cell of the smoke matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct GateCase {
    /// Pair label as in Fig. 4 (`"bw"`, `"mis-link"`, …).
    pub name: String,
    /// Exec-mode label (`"unsafe"`, `"checked"`, `"sync"`); kernel cells
    /// carry the dispatch pin (`"scalar"`/`"simd"`) and backend cells the
    /// scheduling backend (`"rayon"`/`"mq"`) here instead.
    pub mode: String,
    /// Validation-cost bracket for the checked SngInd cases
    /// (`"fresh"` / `"amortized"`), `None` elsewhere.
    pub check: Option<String>,
    /// `(counter, value)` for every [`HARD_COUNTERS`] entry, in that
    /// order. Values cover exactly one warmup + one measured execution of
    /// the case on the 1-worker pool.
    pub counters: Vec<(String, u64)>,
    /// Soft wall-clock statistics from the separate timing pass.
    pub wall: WallStats,
}

impl GateCase {
    /// Stable identity of the matrix cell (`name/mode[+check]`).
    pub fn key(&self) -> String {
        match &self.check {
            Some(c) => format!("{}/{}+{c}", self.name, self.mode),
            None => format!("{}/{}", self.name, self.mode),
        }
    }

    /// Value of a named hard counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The counter section as JSON — the part of a baseline that must be
    /// byte-identical across `record` runs.
    pub fn counters_json(&self) -> Json {
        Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::from_u64(*v)))
                .collect(),
        )
    }
}

/// A recorded baseline: the full smoke matrix plus its provenance.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Workload scale the matrix ran at (must match [`Scale::gate`]).
    pub scale: Scale,
    /// Worker threads of the counter pass (always [`COUNTER_THREADS`]).
    pub counter_threads: usize,
    /// Worker threads of the wall-clock pass.
    pub wall_threads: usize,
    /// Measured repetitions of the wall-clock pass.
    pub wall_reps: usize,
    /// Recording environment (informational; never compared).
    pub env: EnvInfo,
    /// One entry per smoke-matrix cell, in matrix order.
    pub cases: Vec<GateCase>,
}

impl Baseline {
    /// Structural equality ignoring provenance (`env`): two baselines are
    /// semantically equal when they would gate identically.
    pub fn semantic_eq(&self, other: &Baseline) -> bool {
        self.scale == other.scale
            && self.counter_threads == other.counter_threads
            && self.wall_threads == other.wall_threads
            && self.wall_reps == other.wall_reps
            && self.cases == other.cases
    }

    /// Renders the versioned baseline document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(BASELINE_SCHEMA.into())),
            (
                "scale".into(),
                Json::Obj(vec![
                    (
                        "text_len".into(),
                        Json::from_u64(self.scale.text_len as u64),
                    ),
                    ("seq_len".into(), Json::from_u64(self.scale.seq_len as u64)),
                    ("graph_n".into(), Json::from_u64(self.scale.graph_n as u64)),
                    (
                        "points_n".into(),
                        Json::from_u64(self.scale.points_n as u64),
                    ),
                ]),
            ),
            (
                "counter_threads".into(),
                Json::from_u64(self.counter_threads as u64),
            ),
            (
                "wall_threads".into(),
                Json::from_u64(self.wall_threads as u64),
            ),
            ("wall_reps".into(), Json::from_u64(self.wall_reps as u64)),
            (
                "env".into(),
                Json::Obj(vec![
                    ("git_sha".into(), Json::Str(self.env.git_sha.clone())),
                    (
                        "cpu_count".into(),
                        Json::from_u64(self.env.cpu_count as u64),
                    ),
                    ("rustc".into(), Json::Str(self.env.rustc.clone())),
                ]),
            ),
            (
                "cases".into(),
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            let mut fields = vec![
                                ("name".into(), Json::Str(c.name.clone())),
                                ("mode".into(), Json::Str(c.mode.clone())),
                            ];
                            if let Some(check) = &c.check {
                                fields.push(("check".into(), Json::Str(check.clone())));
                            }
                            fields.push(("counters".into(), c.counters_json()));
                            fields.push(("wall".into(), c.wall.to_json()));
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a baseline document, rejecting unknown schemas.
    pub fn parse(doc: &Json) -> Result<Baseline, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(BASELINE_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "unknown baseline schema \"{other}\" (expected \"{BASELINE_SCHEMA}\")"
                ))
            }
            None => return Err(format!("not an {BASELINE_SCHEMA} document")),
        }
        let usize_field = |j: &Json, k: &str| -> Result<usize, String> {
            j.get(k)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("baseline missing \"{k}\""))
        };
        let scale_json = doc.get("scale").ok_or("baseline missing \"scale\"")?;
        let scale = Scale {
            text_len: usize_field(scale_json, "text_len")?,
            seq_len: usize_field(scale_json, "seq_len")?,
            graph_n: usize_field(scale_json, "graph_n")?,
            points_n: usize_field(scale_json, "points_n")?,
        };
        let env_json = doc.get("env");
        let env_str = |k: &str| -> String {
            env_json
                .and_then(|e| e.get(k))
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        let env = EnvInfo {
            git_sha: env_str("git_sha"),
            cpu_count: env_json
                .and_then(|e| e.get("cpu_count"))
                .and_then(Json::as_u64)
                .unwrap_or(0) as usize,
            rustc: env_str("rustc"),
        };
        let mut cases = Vec::new();
        for (i, c) in doc
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or("baseline missing \"cases\" array")?
            .iter()
            .enumerate()
        {
            let text = |k: &str| -> Result<String, String> {
                Ok(c.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("case {i} missing \"{k}\""))?
                    .to_string())
            };
            let counters = match c.get("counters") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(n, v)| {
                        v.as_u64()
                            .map(|v| (n.clone(), v))
                            .ok_or_else(|| format!("case {i}: counter \"{n}\" is not a u64"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err(format!("case {i} missing \"counters\" object")),
            };
            cases.push(GateCase {
                name: text("name")?,
                mode: text("mode")?,
                check: c.get("check").and_then(Json::as_str).map(String::from),
                counters,
                wall: WallStats::parse(
                    c.get("wall")
                        .ok_or_else(|| format!("case {i} missing \"wall\""))?,
                )
                .map_err(|e| format!("case {i}: {e}"))?,
            });
        }
        Ok(Baseline {
            scale,
            counter_threads: usize_field(doc, "counter_threads")?,
            wall_threads: usize_field(doc, "wall_threads")?,
            wall_reps: usize_field(doc, "wall_reps")?,
            env,
            cases,
        })
    }
}

/// The smoke matrix: `(pair, mode, check bracket)` in recording order.
pub fn smoke_matrix() -> Vec<(&'static str, ExecMode, Option<&'static str>)> {
    let mut matrix: Vec<(&'static str, ExecMode, Option<&'static str>)> = ALL_PAIRS
        .iter()
        .map(|&name| (name, recommended_mode(name), None))
        .collect();
    for &name in &FIG5A_PAIRS {
        matrix.push((name, ExecMode::Checked, Some("fresh")));
        matrix.push((name, ExecMode::Checked, Some("amortized")));
    }
    matrix
}

/// The hot kernels of the `simd` feature's raw-speed pass, one gate cell
/// per `(kernel, pinned implementation)` pair.
pub const KERNEL_PAIRS: [&str; 4] = [
    "kernel-hist",
    "kernel-radix",
    "kernel-sngind-validate",
    "kernel-rngind-validate",
];

/// The kernel cells: every [`KERNEL_PAIRS`] entry under both dispatch
/// pins, in recording order. The impl label lands in the cell's `mode`
/// field, so keys read `kernel-hist/scalar`, `kernel-hist/simd`, …
pub fn kernel_matrix() -> Vec<(&'static str, KernelImpl)> {
    KERNEL_PAIRS
        .iter()
        .flat_map(|&name| [(name, KernelImpl::Scalar), (name, KernelImpl::Simd)])
        .collect()
}

/// The MultiQueue-sensitive pairs, recorded once per scheduling backend
/// (every other pair ignores the backend entirely).
pub const BACKEND_PAIRS: [&str; 4] = ["bfs-road", "bfs-link", "sssp-link", "sssp-road"];

/// The backend cells: every [`BACKEND_PAIRS`] entry under both scheduling
/// backends, in recording order. The backend label lands in the cell's
/// `mode` field, so keys read `backend-bfs-road/rayon`,
/// `backend-bfs-road/mq`, … At the 1-worker counter pass the MultiQueue
/// scheduling policy is substrate-independent by construction, so a
/// pair's hard counters must be equal across its two cells — the gate
/// pins that claim the way kernel cells pin scalar/simd invisibility.
pub fn backend_matrix() -> Vec<(&'static str, BackendKind)> {
    BACKEND_PAIRS
        .iter()
        .flat_map(|&name| ALL_BACKENDS.map(|b| (name, b)))
        .collect()
}

/// The resident service's pinned admission traces (`rpb_serve::trace`),
/// one gate cell per `(trace, backend)` pair.
pub const SERVE_PAIRS: [&str; 2] = ["serve-steady", "serve-burst"];

/// The serve cells: every [`SERVE_PAIRS`] entry under both scheduling
/// backends, in recording order. The backend label lands in the cell's
/// `mode` field, so keys read `serve-steady/rayon`, `serve-burst/mq`, …
/// Like the backend cells, a trace's serve counters must be equal across
/// its two backend cells — admission arithmetic is substrate-independent.
pub fn serve_matrix() -> Vec<(&'static str, BackendKind)> {
    SERVE_PAIRS
        .iter()
        .flat_map(|&name| ALL_BACKENDS.map(|b| (name, b)))
        .collect()
}

/// The streaming pipeline skeletons (`rpb_suite::streaming`), one gate
/// cell per `(variant, channel backend)` pair.
pub const PIPELINE_PAIRS: [&str; 3] = ["pipeline-hist", "pipeline-dedup", "pipeline-bfs"];

/// The pipeline cells: every [`PIPELINE_PAIRS`] entry under both channel
/// backends, in recording order. The channel label lands in the cell's
/// `mode` field, so keys read `pipeline-hist/mpsc`,
/// `pipeline-hist/crossbeam`, … At one worker per stage the pipeline
/// counters are exact functions of the input shape and chunking, and a
/// variant's hard counters must be equal across its two channel cells —
/// the channel substrate is required to be behaviorally invisible, the
/// way kernel cells pin scalar/simd and serve cells pin rayon/mq.
pub fn pipeline_matrix() -> Vec<(&'static str, ChannelKind)> {
    PIPELINE_PAIRS
        .iter()
        .flat_map(|&name| ALL_CHANNELS.map(|c| (name, c)))
        .collect()
}

/// Chunk size of the pipeline cells, pinned so `pipeline_items_in` (the
/// chunk count) is a fixed function of the gate scale.
const PIPELINE_GATE_CHUNK: usize = 1 << 10;

/// Channel capacity of the pipeline cells.
const PIPELINE_GATE_CAPACITY: usize = 4;

/// The pinned streaming configuration of one pipeline cell: Rayon
/// executor, one worker per stage, fixed chunk and capacity — every
/// counter deterministic, only the channel backend varying across cells.
fn pipeline_stream_config(channel: ChannelKind) -> StreamConfig {
    StreamConfig {
        channel,
        backend: BackendKind::Rayon,
        chunk: PIPELINE_GATE_CHUNK,
        capacity: PIPELINE_GATE_CAPACITY,
        workers: 1,
    }
}

/// Runs one pipeline cell's streaming workload once. The pipeline builds
/// its own executor batch (one thread per blocking stage worker), so no
/// `in_pool` wrapper is involved.
fn run_pipeline_case(name: &str, w: &Workloads, channel: ChannelKind) {
    let cfg = pipeline_stream_config(channel);
    match name {
        "pipeline-hist" => {
            std::hint::black_box(
                streaming::hist_stream(&w.seq, 64, w.seq.len() as u64, cfg)
                    .expect("pipeline-hist: 64 buckets over the gate sequence is valid"),
            );
        }
        "pipeline-dedup" => {
            std::hint::black_box(
                streaming::dedup_stream(&w.seq, cfg)
                    .expect("pipeline-dedup: the pinned config is valid"),
            );
        }
        "pipeline-bfs" => {
            std::hint::black_box(
                streaming::bfs_stream(&w.link, 0, cfg)
                    .expect("pipeline-bfs: source 0 exists in the gate graph"),
            );
        }
        other => panic!("unknown pipeline cell: {other}"),
    }
}

/// Counter pass of one pipeline cell: one streaming run of the pinned
/// configuration inside the capture.
fn pipeline_counter_pass(name: &str, channel: ChannelKind, w: &Workloads) -> Vec<(String, u64)> {
    prepare_pool(None);
    let ((), snap) = metrics::capture(|| run_pipeline_case(name, w, channel));
    HARD_COUNTERS
        .iter()
        .map(|&n| (n.to_string(), snap.counter(n)))
        .collect()
}

/// Counter pass of one backend cell: the pair's recommended (Sync) mode
/// with both the ambient pool and the MultiQueue substrate pinned to
/// `backend`. Like [`counter_pass`] without a validation-cost bracket.
fn backend_counter_pass(name: &str, backend: BackendKind, w: &Workloads) -> Vec<(String, u64)> {
    prepare_pool(None);
    let ((), snap) = metrics::capture(|| {
        in_pool_on(backend, COUNTER_THREADS, || {
            run_case_on(backend, name, w, recommended_mode(name), COUNTER_THREADS, 1);
        });
    });
    HARD_COUNTERS
        .iter()
        .map(|&n| (n.to_string(), snap.counter(n)))
        .collect()
}

/// Runs one serve cell's pinned admission trace once. The trace pins its
/// own 1-thread executor pool ([`TraceConfig::gate`]), so no `in_pool`
/// wrapper is involved — the farm runs inline on the calling thread.
fn run_serve_trace(name: &str, cfg: &TraceConfig, data: &Arc<ServeDatasets>) {
    match name {
        "serve-steady" => {
            std::hint::black_box(serve_trace::steady(cfg, data));
        }
        "serve-burst" => {
            std::hint::black_box(serve_trace::burst(cfg, data));
        }
        other => panic!("unknown serve cell: {other}"),
    }
}

/// Counter pass of one serve cell: a [`serve_trace::warmup`] outside the
/// capture (fills the validation pool and fires every lazy init, so the
/// steady cell's counted validations are pool hits only), then the pinned
/// trace inside it. Inline farm + 1-thread pool make every serve counter
/// an exact function of the trace shape.
fn serve_counter_pass(
    name: &str,
    cfg: &TraceConfig,
    data: &Arc<ServeDatasets>,
) -> Vec<(String, u64)> {
    prepare_pool(None);
    serve_trace::warmup(cfg, data);
    let ((), snap) = metrics::capture(|| run_serve_trace(name, cfg, data));
    HARD_COUNTERS
        .iter()
        .map(|&n| (n.to_string(), snap.counter(n)))
        .collect()
}

/// Executes one kernel cell's workload inside the current Rayon pool.
/// The caller pins the dispatch ([`rpb_parlay::simd::set_forced`]) —
/// this function is impl-agnostic on purpose so both pins time the
/// byte-identical call sequence.
fn run_kernel_case(name: &str, w: &Workloads, reps: usize) -> TimingStats {
    let len = w.seq.len();
    match name {
        // The bucketing sweep (multiply-shift strength reduction + AVX2
        // counting): 256 non-power-of-two-width buckets, the gate's hist
        // configuration.
        "kernel-hist" => time_best(reps, || {
            std::hint::black_box(
                hist::run_par(&w.seq, 256, len as u64, ExecMode::Unsafe)
                    .expect("kernel-hist: 256 buckets over a non-zero range is valid"),
            );
        }),
        // Digit extraction + block counting over every radix pass.
        "kernel-radix" => time_best(reps, || {
            let mut v = w.seq.clone();
            rpb_parlay::radix_sort_u64(&mut v);
            std::hint::black_box(v);
        }),
        // The fused bounds+uniqueness sweep over the shared bitset (the
        // marking strategy with a vectorized fast path; `MarkTable`'s
        // block-private sweep is one scalar loop under either pin). The
        // offsets are a deterministic non-sequential permutation (evens
        // then odds) so the sweep isn't a pure streaming walk.
        "kernel-sngind-validate" => {
            let offsets: Vec<usize> = (0..len).step_by(2).chain((1..len).step_by(2)).collect();
            time_best(reps, || {
                snd_ind::validate_offsets(&offsets, len, UniquenessCheck::Bitset)
                    .expect("kernel-sngind-validate: a permutation validates");
                std::hint::black_box(&offsets);
            })
        }
        // The monotonicity+bounds sweep over maximally fine chunk
        // boundaries (every boundary live, none elided).
        "kernel-rngind-validate" => {
            let offsets: Vec<usize> = (0..=len).collect();
            time_best(reps, || {
                rng_ind::validate_chunk_offsets(&offsets, len)
                    .expect("kernel-rngind-validate: a monotone ramp validates");
                std::hint::black_box(&offsets);
            })
        }
        other => panic!("unknown kernel cell: {other}"),
    }
}

/// Counter pass of one kernel cell: like [`counter_pass`] but without a
/// validation-cost bracket (kernel cells always run with the pool in the
/// default enabled state). The caller holds the dispatch pin.
fn kernel_counter_pass(name: &str, w: &Workloads) -> Vec<(String, u64)> {
    prepare_pool(None);
    let ((), snap) = metrics::capture(|| {
        in_pool(COUNTER_THREADS, || {
            run_kernel_case(name, w, 1);
        });
    });
    HARD_COUNTERS
        .iter()
        .map(|&n| (n.to_string(), snap.counter(n)))
        .collect()
}

/// Puts the global mark-table pool into the deterministic starting state
/// for one matrix cell: empty, stats zeroed, enabled unless the cell is a
/// `fresh` bracket. Without this, a cell's pool hit/miss counters would
/// depend on which cells ran before it.
fn prepare_pool(check: Option<&str>) {
    pool::set_enabled(true);
    pool::clear();
    pool::reset_stats();
    if check == Some("fresh") {
        pool::set_enabled(false);
    }
}

/// Runs one cell's workload once on the pinned 1-worker pool (plus
/// `run_case`'s warmup — two executions total, both counted).
fn counter_pass(
    name: &str,
    w: &Workloads,
    mode: ExecMode,
    check: Option<&str>,
) -> Vec<(String, u64)> {
    prepare_pool(check);
    if check == Some("amortized") {
        // Warm the pool (and proof paths) outside the capture so the
        // counted executions are all steady-state hits.
        in_pool(COUNTER_THREADS, || {
            run_case(name, w, mode, COUNTER_THREADS, 1);
        });
    }
    let ((), snap) = metrics::capture(|| {
        in_pool(COUNTER_THREADS, || {
            run_case(name, w, mode, COUNTER_THREADS, 1);
        });
    });
    HARD_COUNTERS
        .iter()
        .map(|&n| (n.to_string(), snap.counter(n)))
        .collect()
}

/// Records a fresh baseline over `w` (which must be built at
/// [`Scale::gate`] for the result to be comparable with committed
/// baselines).
pub fn record(w: &Workloads, wall_threads: usize, wall_reps: usize) -> Baseline {
    let wall_threads = wall_threads.max(1);
    let wall_reps = wall_reps.max(1);
    let mut cases = Vec::new();
    for (name, mode, check) in smoke_matrix() {
        let counters = counter_pass(name, w, mode, check);
        // Wall pass: same deterministic pool bracket, separate timing so
        // counter capture never sits inside a measured repetition.
        prepare_pool(check);
        if check == Some("amortized") {
            in_pool(wall_threads, || {
                run_case(name, w, mode, wall_threads, 1);
            });
        }
        let ts = in_pool(wall_threads, || {
            run_case(name, w, mode, wall_threads, wall_reps)
        });
        cases.push(GateCase {
            name: name.to_string(),
            mode: mode.label().to_string(),
            check: check.map(String::from),
            counters,
            wall: WallStats::from_timing(ts),
        });
    }
    for (name, kimpl) in kernel_matrix() {
        // Pin the dispatch for both passes (serialized via the global
        // force lock so a concurrent matrix can't trample the pin) and
        // restore auto dispatch before releasing it.
        let guard = rpb_parlay::simd::force_lock();
        rpb_parlay::simd::set_forced(kimpl);
        let counters = kernel_counter_pass(name, w);
        prepare_pool(None);
        let ts = in_pool(wall_threads, || run_kernel_case(name, w, wall_reps));
        rpb_parlay::simd::set_forced(KernelImpl::Auto);
        drop(guard);
        cases.push(GateCase {
            name: name.to_string(),
            mode: kimpl.label().to_string(),
            check: None,
            counters,
            wall: WallStats::from_timing(ts),
        });
    }
    for (name, backend) in backend_matrix() {
        let counters = backend_counter_pass(name, backend, w);
        prepare_pool(None);
        let ts = in_pool_on(backend, wall_threads, || {
            run_case_on(
                backend,
                name,
                w,
                recommended_mode(name),
                wall_threads,
                wall_reps,
            )
        });
        cases.push(GateCase {
            name: format!("backend-{name}"),
            mode: backend.label().to_string(),
            check: None,
            counters,
            wall: WallStats::from_timing(ts),
        });
    }
    // Serve cells time the same pinned 1-thread trace shape the counter
    // pass runs: the cells gate admission arithmetic and the steady-state
    // zero-allocation property, not service throughput.
    let serve_data = Arc::new(ServeDatasets::preload(w.scale));
    for (name, backend) in serve_matrix() {
        let cfg = TraceConfig::gate(backend);
        let counters = serve_counter_pass(name, &cfg, &serve_data);
        prepare_pool(None);
        serve_trace::warmup(&cfg, &serve_data);
        let ts = time_best(wall_reps, || run_serve_trace(name, &cfg, &serve_data));
        cases.push(GateCase {
            name: name.to_string(),
            mode: backend.label().to_string(),
            check: None,
            counters,
            wall: WallStats::from_timing(ts),
        });
    }
    // Pipeline cells run the streaming skeletons at one worker per stage
    // with a pinned chunk/capacity: the cells gate channel traffic and
    // item accounting, and pin that the two channel backends are
    // behaviorally identical.
    for (name, channel) in pipeline_matrix() {
        let counters = pipeline_counter_pass(name, channel, w);
        prepare_pool(None);
        let ts = time_best(wall_reps, || run_pipeline_case(name, w, channel));
        cases.push(GateCase {
            name: name.to_string(),
            mode: channel.label().to_string(),
            check: None,
            counters,
            wall: WallStats::from_timing(ts),
        });
    }
    pool::set_enabled(true);
    Baseline {
        scale: w.scale,
        counter_threads: COUNTER_THREADS,
        wall_threads,
        wall_reps,
        env: EnvInfo::collect(),
        cases,
    }
}

/// Severity of one gate violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Structural incomparability: the two baselines record different
    /// cell sets or configurations (typically a baseline committed under
    /// a different feature set or scale). No behavioral verdict is
    /// possible; the fix is re-recording, so this maps to [`EXIT_USAGE`]
    /// rather than a hard failure.
    Schema,
    /// Deterministic counter drift: always fails.
    Hard,
    /// Wall-clock drift beyond tolerance + noise envelope: fails unless
    /// the gate runs in advisory wall mode.
    Soft,
}

impl Severity {
    /// Reporting order: schema first, then hard, then soft.
    fn rank(self) -> u8 {
        match self {
            Severity::Schema => 0,
            Severity::Hard => 1,
            Severity::Soft => 2,
        }
    }
}

/// One metric that drifted between baseline and current run.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Matrix-cell key (`name/mode[+check]`), or `"<baseline>"` for
    /// structural mismatches.
    pub case: String,
    /// Metric name.
    pub metric: String,
    /// Hard or soft.
    pub severity: Severity,
    /// Baseline value (rendered).
    pub baseline: String,
    /// Current value (rendered).
    pub current: String,
}

/// Outcome of comparing two baselines.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Every drifted metric: schema first, then hard, then soft.
    pub violations: Vec<Violation>,
    /// Per-case summary table (always rendered, even when clean).
    pub table: String,
}

impl Comparison {
    /// True when the baselines are structurally incomparable (different
    /// cell sets or configurations).
    pub fn has_schema(&self) -> bool {
        self.violations
            .iter()
            .any(|v| v.severity == Severity::Schema)
    }

    /// True when any hard metric drifted.
    pub fn has_hard(&self) -> bool {
        self.violations.iter().any(|v| v.severity == Severity::Hard)
    }

    /// True when any soft metric exceeded tolerance.
    pub fn has_soft(&self) -> bool {
        self.violations.iter().any(|v| v.severity == Severity::Soft)
    }

    /// Cell keys (or `"<baseline>"` for config fields) behind a schema
    /// mismatch, deduped in reporting order.
    pub fn schema_cells(&self) -> Vec<String> {
        let mut cells: Vec<String> = Vec::new();
        for v in &self.violations {
            if v.severity == Severity::Schema && !cells.contains(&v.case) {
                cells.push(v.case.clone());
            }
        }
        cells
    }

    /// Maps the outcome to the gate's exit code. `wall_advisory`
    /// downgrades soft violations to reporting-only.
    pub fn exit_code(&self, wall_advisory: bool) -> i32 {
        if self.has_schema() {
            // Structural mismatch outranks counter drift: diffs against an
            // incomparable baseline say nothing about behavior, and the
            // remedy (re-record) is a usage-level action, not a revert.
            EXIT_USAGE
        } else if self.has_hard() {
            EXIT_HARD
        } else if self.has_soft() && !wall_advisory {
            EXIT_SOFT
        } else {
            EXIT_OK
        }
    }
}

/// True when `cur`'s median exceeds `base`'s by more than the ratio
/// tolerance *and* the MAD noise envelope (both must agree that the
/// slowdown is real). Speedups never violate — they suggest re-recording.
fn wall_exceeds(base: WallStats, cur: WallStats, tolerance: f64) -> bool {
    let ratio_bound = (base.median_ns as f64) * tolerance;
    let noise_bound = base.median_ns + MAD_ENVELOPE_K * (base.mad_ns + cur.mad_ns);
    (cur.median_ns as f64) > ratio_bound && cur.median_ns > noise_bound
}

/// Diffs two baselines: `base` (committed) against `cur` (fresh).
///
/// Schema violations: scale/thread/rep configuration mismatch and missing
/// or unexpected matrix cells (typically a baseline recorded under a
/// different feature set) — they make the baselines incomparable and map
/// to [`EXIT_USAGE`]. Hard violations: any hard-counter inequality on the
/// common cells. Soft violations: wall-clock medians beyond
/// [`wall_exceeds`].
pub fn compare(base: &Baseline, cur: &Baseline, tolerance: f64) -> Comparison {
    let mut cmp = Comparison::default();
    let mut push = |case: String, metric: &str, severity: Severity, b: String, c: String| {
        cmp.violations.push(Violation {
            case,
            metric: metric.to_string(),
            severity,
            baseline: b,
            current: c,
        });
    };

    // Configuration must match exactly or no metric is comparable.
    if base.scale != cur.scale {
        push(
            "<baseline>".into(),
            "scale",
            Severity::Schema,
            format!("{:?}", base.scale),
            format!("{:?}", cur.scale),
        );
    }
    for (metric, b, c) in [
        ("counter_threads", base.counter_threads, cur.counter_threads),
        ("wall_reps", base.wall_reps, cur.wall_reps),
    ] {
        if b != c {
            push(
                "<baseline>".into(),
                metric,
                Severity::Schema,
                b.to_string(),
                c.to_string(),
            );
        }
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<22} {:>8} {:>12} {:>12} {:>7}  {}",
        "case", "counters", "base med", "cur med", "ratio", "status"
    );
    for bc in &base.cases {
        let Some(cc) = cur
            .cases
            .iter()
            .find(|c| c.name == bc.name && c.mode == bc.mode && c.check == bc.check)
        else {
            push(
                bc.key(),
                "<case>",
                Severity::Schema,
                "present".into(),
                "missing".into(),
            );
            let _ = writeln!(
                table,
                "{:<22} {:>8} {:>12} {:>12} {:>7}  MISSING",
                bc.key(),
                "-",
                bc.wall.median_ns,
                "-",
                "-"
            );
            continue;
        };
        // Union of counter names so a renamed counter can't dodge the diff.
        let mut names: Vec<&str> = bc.counters.iter().map(|(n, _)| n.as_str()).collect();
        for (n, _) in &cc.counters {
            if !names.contains(&n.as_str()) {
                names.push(n);
            }
        }
        let mut drifted = 0usize;
        for n in names {
            let (b, c) = (bc.counter(n), cc.counter(n));
            if b != c {
                drifted += 1;
                push(bc.key(), n, Severity::Hard, b.to_string(), c.to_string());
            }
        }
        let slow = wall_exceeds(bc.wall, cc.wall, tolerance);
        if slow {
            push(
                bc.key(),
                "wall median_ns",
                Severity::Soft,
                format!("{} (mad {})", bc.wall.median_ns, bc.wall.mad_ns),
                format!("{} (mad {})", cc.wall.median_ns, cc.wall.mad_ns),
            );
        }
        let ratio = if bc.wall.median_ns > 0 {
            cc.wall.median_ns as f64 / bc.wall.median_ns as f64
        } else {
            f64::NAN
        };
        let status = if drifted > 0 {
            format!("HARD ({drifted} counter(s) drifted)")
        } else if slow {
            "SOFT (slower than tolerance)".into()
        } else {
            "ok".into()
        };
        let _ = writeln!(
            table,
            "{:<22} {:>8} {:>12} {:>12} {:>6.2}x  {}",
            bc.key(),
            if drifted > 0 {
                format!("{drifted} drift")
            } else {
                "ok".into()
            },
            bc.wall.median_ns,
            cc.wall.median_ns,
            ratio,
            status
        );
    }
    for cc in &cur.cases {
        let known = base
            .cases
            .iter()
            .any(|b| b.name == cc.name && b.mode == cc.mode && b.check == cc.check);
        if !known {
            push(
                cc.key(),
                "<case>",
                Severity::Schema,
                "missing".into(),
                "present".into(),
            );
            let _ = writeln!(
                table,
                "{:<22} {:>8} {:>12} {:>12} {:>7}  NEW CASE (baseline stale)",
                cc.key(),
                "-",
                "-",
                cc.wall.median_ns,
                "-"
            );
        }
    }
    cmp.violations
        .sort_by_key(|v| (v.severity.rank(), v.case.clone()));
    cmp.table = table;
    cmp
}

/// Renders the scalar-vs-simd wall-clock ratios of a baseline's kernel
/// cells (empty string when the baseline has none — e.g. one recorded
/// before the kernel cells existed). The ratio is informational like
/// every wall metric, but it is the number the `simd` feature's speedup
/// claims are read off of.
pub fn render_kernel_speedups(b: &Baseline) -> String {
    let mut out = String::new();
    for name in KERNEL_PAIRS {
        let cell = |impl_label: &str| {
            b.cases
                .iter()
                .find(|c| c.name == name && c.mode == impl_label)
        };
        let (Some(s), Some(v)) = (cell("scalar"), cell("simd")) else {
            continue;
        };
        if out.is_empty() {
            let _ = writeln!(
                out,
                "{:<24} {:>14} {:>14} {:>8}",
                "kernel cell", "scalar med", "simd med", "speedup"
            );
        }
        let ratio = if v.wall.median_ns > 0 {
            s.wall.median_ns as f64 / v.wall.median_ns as f64
        } else {
            f64::NAN
        };
        let _ = writeln!(
            out,
            "{:<24} {:>12}ns {:>12}ns {:>7.2}x",
            name, s.wall.median_ns, v.wall.median_ns, ratio
        );
    }
    out
}

/// Renders the per-metric violation diff (empty string when clean).
pub fn render_violations(cmp: &Comparison) -> String {
    if cmp.violations.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:<26} {:<6} {:>20} {:>20}",
        "case", "metric", "class", "baseline", "current"
    );
    for v in &cmp.violations {
        let _ = writeln!(
            out,
            "{:<22} {:<26} {:<6} {:>20} {:>20}",
            v.case,
            v.metric,
            match v.severity {
                Severity::Schema => "SCHEMA",
                Severity::Hard => "HARD",
                Severity::Soft => "soft",
            },
            v.baseline,
            v.current
        );
    }
    out
}

fn read_baseline(path: &Path) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    Baseline::parse(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_baseline(path: &Path, baseline: &Baseline) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, format!("{}\n", baseline.to_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn usage() -> String {
    format!(
        "usage: rpb gate record  [--out PATH] [--reps N] [--threads N] [--backend rayon|mq]\n\
         \x20      rpb gate compare BASE CURRENT [--wall-tolerance X]\n\
         \x20      rpb gate check   --baseline PATH [--out PATH] [--reps N] [--threads N]\n\
         \x20                       [--wall gate|advisory] [--wall-tolerance X] [--backend rayon|mq]\n\n\
         record  runs the pinned smoke matrix (plus the scalar/simd kernel\n\
         \x20       cells, the per-backend MultiQueue cells, and the serve-*\n\
         \x20       admission-trace cells) at the gate scale and writes an\n\
         \x20       {BASELINE_SCHEMA} baseline (default out: baselines/smoke.json).\n\
         compare diffs two baseline files (exit {EXIT_HARD} on hard drift, {EXIT_SOFT} on soft).\n\
         check   records a fresh matrix and compares it against --baseline;\n\
         \x20       --wall advisory reports wall-clock drift without failing on it.\n\
         --backend sets the process-default scheduling backend for the smoke\n\
         \x20       cells (one value; the backend-* cells always record both).\n\
         Counters are gated hard (deterministic, 1-worker counter pass);\n\
         wall-clock medians are gated softly with a {DEFAULT_WALL_TOLERANCE}x default tolerance.\n\
         Baselines recording different cell sets or configs (e.g. a feature-set\n\
         mismatch) exit {EXIT_USAGE} (schema mismatch), never {EXIT_HARD}."
    )
}

/// The `rpb gate …` CLI. Returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let Some(sub) = args.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return EXIT_USAGE;
    };
    let mut out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut reps = 3usize;
    let mut threads = 2usize;
    let mut tolerance = DEFAULT_WALL_TOLERANCE;
    let mut wall_advisory = false;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let need = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--out" => match need(i) {
                Some(v) => {
                    out = Some(v.clone());
                    i += 1;
                }
                None => return cli_err("--out needs a path"),
            },
            "--baseline" => match need(i) {
                Some(v) => {
                    baseline_path = Some(v.clone());
                    i += 1;
                }
                None => return cli_err("--baseline needs a path"),
            },
            "--reps" => match need(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    reps = v;
                    i += 1;
                }
                None => return cli_err("--reps needs a number"),
            },
            "--threads" => match need(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    threads = v;
                    i += 1;
                }
                None => return cli_err("--threads needs a number"),
            },
            "--wall-tolerance" => match need(i).and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 1.0 => {
                    tolerance = v;
                    i += 1;
                }
                _ => return cli_err("--wall-tolerance needs a ratio >= 1.0"),
            },
            "--backend" => match need(i).map(|v| v.parse::<BackendKind>()) {
                Some(Ok(k)) => {
                    set_default_backend(Some(k));
                    i += 1;
                }
                _ => {
                    return cli_err(
                        "--backend needs rayon|mq (one value; the backend-* cells \
                         always record both)",
                    )
                }
            },
            "--wall" => match need(i).map(String::as_str) {
                Some("advisory") => {
                    wall_advisory = true;
                    i += 1;
                }
                Some("gate") => {
                    wall_advisory = false;
                    i += 1;
                }
                _ => return cli_err("--wall needs gate|advisory"),
            },
            flag if flag.starts_with('-') => {
                return cli_err(&format!("unknown gate option {flag}"));
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }

    if matches!(sub, "record" | "check") && !rpb_obs::enabled() {
        return cli_err(
            "hard metrics need telemetry recording — rebuild with --features obs \
             (`cargo run --release --features obs -p rpb-bench --bin rpb -- gate …`)",
        );
    }

    match sub {
        "record" => {
            let path = out.unwrap_or_else(|| "baselines/smoke.json".into());
            let w = build_gate_workloads();
            let baseline = record(&w, threads, reps);
            match write_baseline(Path::new(&path), &baseline) {
                Ok(()) => {
                    eprintln!(
                        "wrote {} ({} cases, scale gate, counter pass @1 thread)",
                        path,
                        baseline.cases.len()
                    );
                    print_kernel_speedups(&baseline);
                    EXIT_OK
                }
                Err(e) => cli_err(&e),
            }
        }
        "compare" => {
            if positional.len() != 2 {
                return cli_err("compare needs exactly two baseline paths");
            }
            let (base, cur) = match (
                read_baseline(Path::new(&positional[0])),
                read_baseline(Path::new(&positional[1])),
            ) {
                (Ok(b), Ok(c)) => (b, c),
                (Err(e), _) | (_, Err(e)) => return cli_err(&e),
            };
            let cmp = compare(&base, &cur, tolerance);
            print!("{}", cmp.table);
            print_violations(&cmp);
            print_schema_note(&cmp);
            cmp.exit_code(wall_advisory)
        }
        "check" => {
            let Some(bp) = baseline_path else {
                return cli_err("check needs --baseline PATH");
            };
            let base = match read_baseline(Path::new(&bp)) {
                Ok(b) => b,
                Err(e) => return cli_err(&e),
            };
            let w = build_gate_workloads();
            // Mirror the baseline's wall configuration so the soft metrics
            // compare like with like (hard metrics are config-checked).
            let cur = record(&w, base.wall_threads, base.wall_reps);
            let cmp = compare(&base, &cur, tolerance);
            print!("{}", cmp.table);
            print_violations(&cmp);
            print_schema_note(&cmp);
            print_kernel_speedups(&cur);
            if let Some(out) = out {
                if let Err(e) = write_baseline(Path::new(&out), &cur) {
                    return cli_err(&e);
                }
                eprintln!("wrote fresh baseline to {out}");
            }
            let code = cmp.exit_code(wall_advisory);
            match code {
                EXIT_OK if cmp.has_soft() => {
                    eprintln!("gate: ok (wall-clock drift present but advisory)")
                }
                EXIT_OK => eprintln!("gate: ok"),
                EXIT_SOFT => eprintln!("gate: SOFT FAIL (wall-clock beyond tolerance)"),
                EXIT_USAGE => eprintln!(
                    "gate: SCHEMA MISMATCH (baseline records a different cell set or config)"
                ),
                _ => eprintln!("gate: HARD FAIL (deterministic counters drifted)"),
            }
            code
        }
        other => cli_err(&format!("unknown gate subcommand {other}")),
    }
}

fn cli_err(msg: &str) -> i32 {
    eprintln!("rpb gate: {msg}\n\n{}", usage());
    EXIT_USAGE
}

fn print_violations(cmp: &Comparison) {
    let diff = render_violations(cmp);
    if !diff.is_empty() {
        println!("\nDrifted metrics:");
        print!("{diff}");
    }
}

fn print_schema_note(cmp: &Comparison) {
    if !cmp.has_schema() {
        return;
    }
    eprintln!(
        "\ngate: baselines are structurally incomparable (offending cells: {}).\n\
         This usually means the baseline was recorded under a different feature\n\
         set or scale — re-record it with `rpb gate record` on this build.",
        cmp.schema_cells().join(", ")
    );
}

fn print_kernel_speedups(b: &Baseline) {
    let table = render_kernel_speedups(b);
    if !table.is_empty() {
        println!("\nKernel cells (scalar vs simd dispatch, this run):");
        print!("{table}");
    }
}

fn build_gate_workloads() -> Workloads {
    let scale = Scale::gate();
    eprintln!(
        "building gate workloads (text {}B, seq {}, graph {}, points {})...",
        scale.text_len, scale.seq_len, scale.graph_n, scale.points_n
    );
    Workloads::build(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_baseline() -> Baseline {
        Baseline {
            scale: Scale::gate(),
            counter_threads: 1,
            wall_threads: 2,
            wall_reps: 3,
            env: EnvInfo {
                git_sha: "abc".into(),
                cpu_count: 8,
                rustc: "rustc test".into(),
            },
            cases: vec![
                GateCase {
                    name: "bw".into(),
                    mode: "unsafe".into(),
                    check: None,
                    counters: vec![("sngind_pool_hits".into(), 4), ("mq_pushes".into(), 0)],
                    wall: WallStats {
                        best_ns: 900,
                        median_ns: 1000,
                        mad_ns: 10,
                        reps: 3,
                    },
                },
                GateCase {
                    name: "bw".into(),
                    mode: "checked".into(),
                    check: Some("amortized".into()),
                    counters: vec![("sngind_pool_hits".into(), 9)],
                    wall: WallStats {
                        best_ns: 1100,
                        median_ns: 1200,
                        mad_ns: 20,
                        reps: 3,
                    },
                },
            ],
        }
    }

    #[test]
    fn baseline_round_trips_through_json_text() {
        let b = tiny_baseline();
        let text = b.to_json().to_string();
        let parsed = Baseline::parse(&Json::parse(&text).expect("parse")).expect("baseline");
        assert!(b.semantic_eq(&parsed));
        // env is carried but never gates.
        assert_eq!(parsed.env.git_sha, "abc");
    }

    #[test]
    fn parse_rejects_foreign_schemas() {
        let err = Baseline::parse(&Json::parse("{\"schema\":\"rpb-baseline-v9\"}").unwrap())
            .expect_err("unknown schema");
        assert!(err.contains("rpb-baseline-v9"));
        assert!(Baseline::parse(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn identical_baselines_compare_clean() {
        let b = tiny_baseline();
        let cmp = compare(&b, &b.clone(), DEFAULT_WALL_TOLERANCE);
        assert!(cmp.violations.is_empty(), "{:?}", cmp.violations);
        assert_eq!(cmp.exit_code(false), EXIT_OK);
        assert!(cmp.table.contains("bw/unsafe"));
        assert!(cmp.table.contains("bw/checked+amortized"));
    }

    #[test]
    fn counter_tampering_is_a_hard_violation_with_diff_row() {
        let base = tiny_baseline();
        let mut cur = base.clone();
        cur.cases[0].counters[0].1 += 1; // sngind_pool_hits 4 -> 5
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(cmp.has_hard());
        assert!(!cmp.has_soft());
        // Hard beats soft in the exit code, and advisory mode cannot
        // downgrade it.
        assert_eq!(cmp.exit_code(false), EXIT_HARD);
        assert_eq!(cmp.exit_code(true), EXIT_HARD);
        let diff = render_violations(&cmp);
        assert!(diff.contains("sngind_pool_hits"), "per-metric row: {diff}");
        assert!(diff.contains('4') && diff.contains('5'), "values: {diff}");
    }

    #[test]
    fn wall_slowdown_is_soft_and_advisory_downgrades_it() {
        let base = tiny_baseline();
        let mut cur = base.clone();
        // 10x the median: beyond both the ratio tolerance and the noise
        // envelope.
        cur.cases[0].wall.median_ns *= 10;
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(!cmp.has_hard());
        assert!(cmp.has_soft());
        assert_eq!(cmp.exit_code(false), EXIT_SOFT);
        assert_eq!(cmp.exit_code(true), EXIT_OK);
        assert!(render_violations(&cmp).contains("wall median_ns"));
    }

    #[test]
    fn wall_noise_inside_the_envelope_is_not_a_violation() {
        let base = tiny_baseline();
        let mut cur = base.clone();
        // +8% — beyond nothing: ratio bound is +50%.
        cur.cases[0].wall.median_ns = 1080;
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(!cmp.has_soft(), "{:?}", cmp.violations);

        // Beyond the ratio bound but inside the MAD envelope: a noisy
        // case (huge mad) must not trip the gate either.
        let mut cur = base.clone();
        cur.cases[0].wall.median_ns = 1600;
        cur.cases[0].wall.mad_ns = 400; // envelope: 1000 + 4*(10+400) > 1600
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(!cmp.has_soft(), "{:?}", cmp.violations);
    }

    #[test]
    fn speedups_never_violate() {
        let base = tiny_baseline();
        let mut cur = base.clone();
        cur.cases[0].wall.median_ns /= 10;
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(cmp.violations.is_empty(), "{:?}", cmp.violations);
    }

    #[test]
    fn missing_and_extra_cases_are_a_schema_mismatch() {
        // A baseline recorded under a different feature set (cells the
        // current build can't produce, or vice versa) must read as
        // "re-record", not as hard counter drift.
        let base = tiny_baseline();
        let mut cur = base.clone();
        let dropped = cur.cases.pop().unwrap();
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(cmp.has_schema());
        assert!(!cmp.has_hard(), "{:?}", cmp.violations);
        assert_eq!(cmp.exit_code(false), EXIT_USAGE);
        assert!(cmp.table.contains("MISSING"));
        // The offending cell is named, both in the listing and the diff.
        assert_eq!(cmp.schema_cells(), vec!["bw/checked+amortized"]);
        assert!(render_violations(&cmp).contains("SCHEMA"));

        let mut cur = base.clone();
        let mut extra = dropped;
        extra.name = "zz-new".into();
        cur.cases.push(extra);
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(cmp.has_schema());
        assert_eq!(cmp.exit_code(false), EXIT_USAGE);
        assert!(cmp.table.contains("NEW CASE"));
        assert_eq!(cmp.schema_cells(), vec!["zz-new/checked+amortized"]);
    }

    #[test]
    fn scale_mismatch_is_a_schema_mismatch() {
        let base = tiny_baseline();
        let mut cur = base.clone();
        cur.scale = Scale::small();
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(cmp.has_schema());
        assert_eq!(cmp.exit_code(false), EXIT_USAGE);
        assert!(render_violations(&cmp).contains("scale"));
        assert_eq!(cmp.schema_cells(), vec!["<baseline>"]);
    }

    #[test]
    fn schema_mismatch_outranks_hard_drift_in_the_exit_code() {
        // Counter drift on a common cell is still reported, but the
        // verdict is the schema mismatch: against an incomparable
        // baseline, "the code regressed" is not a conclusion CI may draw.
        let base = tiny_baseline();
        let mut cur = base.clone();
        cur.cases.pop();
        cur.cases[0].counters[0].1 += 1;
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        assert!(cmp.has_schema() && cmp.has_hard());
        assert_eq!(cmp.exit_code(false), EXIT_USAGE);
        assert_eq!(cmp.exit_code(true), EXIT_USAGE);
        // Schema rows sort ahead of the hard row.
        assert_eq!(cmp.violations[0].severity, Severity::Schema);
    }

    #[test]
    fn backend_matrix_records_every_mq_pair_on_both_backends() {
        let m = backend_matrix();
        assert_eq!(m.len(), 2 * BACKEND_PAIRS.len());
        for name in BACKEND_PAIRS {
            // Only the MultiQueue pairs are backend-sensitive, and each
            // records under both scheduling backends.
            assert!(name.starts_with("bfs") || name.starts_with("sssp"));
            for b in ALL_BACKENDS {
                assert!(m.contains(&(name, b)), "{name} missing {}", b.label());
            }
        }
    }

    #[test]
    fn serve_matrix_records_every_trace_on_both_backends() {
        let m = serve_matrix();
        assert_eq!(m.len(), 2 * SERVE_PAIRS.len());
        for name in SERVE_PAIRS {
            for b in ALL_BACKENDS {
                assert!(m.contains(&(name, b)), "{name} missing {}", b.label());
            }
        }
    }

    #[test]
    fn pipeline_matrix_records_every_variant_on_both_channels() {
        let m = pipeline_matrix();
        assert_eq!(m.len(), 2 * PIPELINE_PAIRS.len());
        for name in PIPELINE_PAIRS {
            for c in ALL_CHANNELS {
                assert!(m.contains(&(name, c)), "{name} missing {}", c.label());
            }
        }
    }

    #[test]
    fn pipeline_counter_pass_is_deterministic_and_channel_invariant() {
        // The pinned 1-worker-per-stage cells must report the full hard
        // counter set in gate order, reproduce bit-for-bit across runs,
        // and agree across the two channel backends — the equality the
        // recorded baseline hard-gates.
        let w = tiny_workloads();
        for name in PIPELINE_PAIRS {
            let mpsc = pipeline_counter_pass(name, ChannelKind::Mpsc, &w);
            let names: Vec<&str> = mpsc.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, HARD_COUNTERS, "{name}");
            assert_eq!(
                mpsc,
                pipeline_counter_pass(name, ChannelKind::Mpsc, &w),
                "{name} not reproducible"
            );
            assert_eq!(
                mpsc,
                pipeline_counter_pass(name, ChannelKind::Crossbeam, &w),
                "{name} differs across channels"
            );
            let counter = |k: &str| mpsc.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
            assert_eq!(counter("pipeline_stage_panics"), 0, "{name}");
            if rpb_obs::enabled() {
                // Value claims only mean something when recording is
                // compiled in; without --features obs every counter is 0.
                // One skeleton per pass: the BFS keeps its own resident
                // across levels.
                assert_eq!(counter("pipeline_runs"), 1, "{name}");
                assert_eq!(counter("pipeline_items_in"), counter("pipeline_items_out"));
                assert!(counter("pipeline_items_in") > 0, "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown pipeline cell")]
    fn pipeline_case_rejects_unknown_names() {
        run_pipeline_case("pipeline-typo", &tiny_workloads(), ChannelKind::Mpsc);
    }

    fn tiny_serve_data() -> Arc<ServeDatasets> {
        Arc::new(ServeDatasets::preload(Scale {
            text_len: 100,
            seq_len: 600,
            graph_n: 80,
            points_n: 16,
        }))
    }

    #[test]
    fn serve_counter_pass_reports_the_full_hard_counter_set() {
        // The counter *values* are pinned by rpb-serve's own trace tests
        // and by the recorded baseline; here we pin the pass's shape —
        // every hard counter present, in gate order — end to end through
        // warmup, capture, and both trace kinds.
        let data = tiny_serve_data();
        let cfg = TraceConfig::gate(BackendKind::Rayon);
        for name in SERVE_PAIRS {
            let counters = serve_counter_pass(name, &cfg, &data);
            let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, HARD_COUNTERS, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown serve cell")]
    fn serve_trace_rejects_unknown_names() {
        let cfg = TraceConfig::gate(BackendKind::Rayon);
        run_serve_trace("serve-typo", &cfg, &tiny_serve_data());
    }

    #[test]
    fn kernel_matrix_pins_every_kernel_both_ways() {
        let m = kernel_matrix();
        assert_eq!(m.len(), 2 * KERNEL_PAIRS.len());
        for name in KERNEL_PAIRS {
            for imp in [KernelImpl::Scalar, KernelImpl::Simd] {
                assert!(m.contains(&(name, imp)), "{name} missing {}", imp.label());
            }
        }
        // The Auto pin never records: a kernel cell is meaningful only
        // when its dispatch is explicit.
        assert!(m.iter().all(|&(_, k)| k != KernelImpl::Auto));
    }

    #[test]
    fn kernel_speedup_table_reads_off_the_ratio() {
        let mut b = tiny_baseline();
        // No kernel cells: nothing to render (old baselines stay valid).
        assert!(render_kernel_speedups(&b).is_empty());
        let wall = |median_ns: u64| WallStats {
            best_ns: median_ns,
            median_ns,
            mad_ns: 1,
            reps: 3,
        };
        for (mode, median) in [("scalar", 3000), ("simd", 1500)] {
            b.cases.push(GateCase {
                name: "kernel-hist".into(),
                mode: mode.into(),
                check: None,
                counters: Vec::new(),
                wall: wall(median),
            });
        }
        let table = render_kernel_speedups(&b);
        assert!(table.contains("kernel-hist"), "{table}");
        assert!(table.contains("2.00x"), "{table}");
        // A lone pin (simd cell missing) renders nothing for that kernel.
        b.cases.push(GateCase {
            name: "kernel-radix".into(),
            mode: "scalar".into(),
            check: None,
            counters: Vec::new(),
            wall: wall(9999),
        });
        assert!(!render_kernel_speedups(&b).contains("kernel-radix"));
    }

    fn tiny_workloads() -> Workloads {
        let mut scale = Scale::gate();
        // Shrink below gate so the in-crate tests stay fast; CI's gate
        // jobs exercise the real gate scale through the binary.
        scale.text_len = 2_000;
        scale.seq_len = 8_000;
        scale.graph_n = 400;
        scale.points_n = 200;
        Workloads::build(scale)
    }

    #[test]
    fn kernel_cases_run_and_time_at_tiny_scale() {
        use std::time::Duration;
        let w = tiny_workloads();
        for name in KERNEL_PAIRS {
            let ts = run_kernel_case(name, &w, 1);
            assert!(ts.best > Duration::ZERO, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown kernel cell")]
    fn kernel_case_rejects_unknown_names() {
        run_kernel_case("kernel-typo", &tiny_workloads(), 1);
    }

    #[test]
    fn smoke_matrix_covers_the_documented_cells() {
        let m = smoke_matrix();
        // 20 recommended-mode pairs + 2 brackets for each of the 3
        // SngInd-heavy pairs.
        assert_eq!(m.len(), ALL_PAIRS.len() + 2 * FIG5A_PAIRS.len());
        assert!(m
            .iter()
            .any(|(n, m, c)| *n == "bw" && *m == ExecMode::Checked && *c == Some("fresh")));
        assert!(m
            .iter()
            .any(|(n, m, c)| *n == "sort" && *m == ExecMode::Checked && c.is_none()));
        assert!(m
            .iter()
            .any(|(n, m, c)| *n == "bfs-road" && *m == ExecMode::Sync && c.is_none()));
    }
}
