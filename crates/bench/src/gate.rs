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
//!   counter pass runs every cell on a **1-worker pool with pinned-seed
//!   inputs**, making these pure functions of the code — bit-stable across
//!   machines and runs. Any drift is a real behavioral change (an
//!   algorithm, policy, or fast-path regression) and fails the gate.
//! * **Soft metrics** — wall-clock brackets (`best`/`median`/MAD from
//!   [`TimingStats`]). These are advisory by default on CI: a violation
//!   requires the current median to exceed the baseline median by both a
//!   configurable ratio tolerance *and* a MAD-based noise envelope, so a
//!   one-off scheduler hiccup cannot trip it.
//!
//! A baseline is one [`GateCase`] per row of the cell table ([`cells`]),
//! in table order, and [`record`] runs every row under one bracket: put
//! the mark-table pool into the row's starting state and run its
//! warm-up, capture the counter pass at [`COUNTER_THREADS`], then prepare
//! and warm again and time the wall pass — so no cell sees what the
//! previous one left behind and counter capture never sits inside a
//! measured repetition. Inputs are built at the pinned [`Scale::gate`];
//! baselines embed the scale and `check` refuses to compare across
//! scales. The rows:
//!
//! * **Smoke** — every Fig. 4 pair in its recommended mode (which
//!   includes the MultiQueue `bfs`/`sssp` pairs and `sort`'s RngInd
//!   check), plus the SngInd-heavy trio (`bw`, `lrs`, `sa`) in checked
//!   mode under both validation-cost brackets (`fresh` = pool disabled,
//!   `amortized` = pool warmed outside the capture): every check
//!   strategy and the pooled fast path.
//! * **`kernel-*`** × {`scalar`, `simd`} — the two vectorized hot
//!   kernels of the `simd` feature under each dispatch pin (pins never
//!   exceed what the CPU supports, so on non-AVX2 hardware or
//!   default-feature builds both rows run scalar code).
//! * **`backend-*`** × {`rayon`, `mq`} — the four MultiQueue pairs.
//! * **`serve-*`** × {`rayon`, `mq`} — the service's two pinned admission
//!   traces (`rpb_serve::trace`), pumped inline on a 1-thread pool so
//!   the serve counters are exact functions of the trace shape:
//!   `serve-steady` pins the zero-allocation steady state
//!   (`sngind_pool_misses` stays zero after the warm-up), `serve-burst`
//!   that admission control sheds exactly the over-cap overflow.
//! * **`pipeline-*`** × {`mpsc`, `crossbeam`} — the three streaming
//!   skeletons of `rpb_suite::streaming` at a pinned chunk size, channel
//!   capacity and one worker per stage.
//!
//! The last four families put the varied axis in the cell's `mode` field
//! (keys read `kernel-radix/simd`, `backend-bfs-road/mq`, …) and require
//! it to be *behaviorally invisible*: a group's hard counters must be
//! equal across its rows, which `tests/gate_determinism.rs` asserts over
//! the recorded baseline. The kernel rows' wall brackets document the
//! raw-speed win per kernel ([`render_kernel_speedups`]).
//!
//! A baseline whose *cell set or configuration* differs from the current
//! build — e.g. one recorded under a different feature set — is a
//! **schema mismatch**, not counter drift: `compare`/`check` list the
//! offending cells and exit [`EXIT_USAGE`] so CI reads "re-record the
//! baseline with matching features", never "the code regressed".
//!
//! Baselines are versioned JSON (`rpb-baseline-v1`) committed under
//! `baselines/`. After an *intentional* behavioral change, re-record with
//! `rpb gate record` and commit the diff — the diff itself documents the
//! behavioral delta of the PR.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use rpb_fearless::pool;
use rpb_fearless::{rng_ind, ExecMode};
use rpb_obs::{metrics, Json};
use rpb_parlay::exec::{default_backend, set_default_backend, BackendKind, ALL_BACKENDS};
use rpb_parlay::simd::{self, KernelImpl};
use rpb_pipeline::ALL_CHANNELS;
use rpb_serve::trace::{self as serve_trace, TraceConfig, TraceReport};
use rpb_serve::Datasets as ServeDatasets;
use rpb_suite::streaming::{self, StreamConfig};

use crate::figures::in_pool_on;
use crate::record::{scale_to_json, EnvInfo};
use crate::runner::{recommended_mode, run_case_on, ALL_PAIRS, FIG5A_PAIRS};
use crate::workloads::Workloads;
use crate::{time_best, Scale, TimingStats};

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

/// One recorded cell: a [`cells`] row's identity plus its two metric
/// classes.
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
    /// order, over the executions the cell's row counts (see [`cells`])
    /// on the 1-worker pool.
    pub counters: Vec<(String, u64)>,
    /// Soft wall-clock statistics from the separate timing pass.
    pub wall: WallStats,
}

impl GateCase {
    /// Stable identity of the matrix cell (`name/mode[+check]`).
    pub fn key(&self) -> String {
        cell_key(&self.name, &self.mode, self.check.as_deref())
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

/// A recorded baseline: one case per [`cells`] row plus its provenance.
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
    /// One entry per cell-table row, in table order.
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
            ("scale".into(), scale_to_json(self.scale)),
            (
                "counter_threads".into(),
                Json::from_u64(self.counter_threads as u64),
            ),
            (
                "wall_threads".into(),
                Json::from_u64(self.wall_threads as u64),
            ),
            ("wall_reps".into(), Json::from_u64(self.wall_reps as u64)),
            ("env".into(), self.env.to_json()),
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

/// How a row executes — which also fixes how many executions its counter
/// pass captures. That count is part of every recorded baseline: do not
/// "normalise" it.
enum Work<'a> {
    /// `(threads, reps)`: installs its own pool and times itself through
    /// [`time_best`] (one warm-up plus `reps` repetitions), so the counter
    /// pass — `(COUNTER_THREADS, 1)` — counts **two** executions.
    Timed(Box<dyn Fn(usize, usize) -> TimingStats + 'a>),
    /// One execution on an executor the workload pins itself (the serve
    /// traces and the pipelines): the counter pass counts **one**, the
    /// wall pass wraps it in [`time_best`].
    Once(Box<dyn Fn() + 'a>),
}

/// One row of the cell table: what [`record`] needs to put the cell under
/// the bracket and what identifies it in the baseline.
pub struct Cell<'a> {
    /// The cell's `name` field (`"bw"`, `"backend-bfs-road"`, …).
    pub name: String,
    /// The cell's `mode` field: the exec mode, or the label of the axis
    /// the row's family varies.
    pub mode: &'static str,
    /// Validation-cost bracket: `"fresh"` runs with the mark-table pool
    /// disabled; `"amortized"` rows carry the `warm` that fills it.
    pub check: Option<&'static str>,
    /// Dispatch pin held over both passes.
    pin: Option<KernelImpl>,
    /// Runs at the pass's thread count after the pool is prepared and
    /// before the capture / the timed repetitions.
    warm: Option<Box<dyn Fn(usize) + 'a>>,
    work: Work<'a>,
}

impl<'a> Cell<'a> {
    fn new(name: impl Into<String>, mode: &'static str, work: Work<'a>) -> Cell<'a> {
        Cell {
            name: name.into(),
            mode,
            check: None,
            pin: None,
            warm: None,
            work,
        }
    }

    /// Stable identity of the cell (`name/mode[+check]`).
    pub fn key(&self) -> String {
        cell_key(&self.name, self.mode, self.check)
    }

    /// Puts the global mark-table pool into the row's deterministic
    /// starting state — empty, stats zeroed, enabled unless the row is a
    /// `fresh` bracket — and runs the row's warm-up. Without this, a
    /// cell's pool hit/miss counters would depend on which cells ran
    /// before it.
    fn prepare(&self, threads: usize) {
        pool::set_enabled(true);
        pool::clear();
        pool::reset_stats();
        if self.check == Some("fresh") {
            pool::set_enabled(false);
        }
        if let Some(warm) = &self.warm {
            warm(threads);
        }
    }

    /// The counter pass: `(counter, value)` for every [`HARD_COUNTERS`]
    /// entry, in that order, over the row's counted executions on the
    /// pinned 1-worker pool.
    fn count(&self) -> Vec<(String, u64)> {
        self.prepare(COUNTER_THREADS);
        let ((), snap) = metrics::capture(|| match &self.work {
            Work::Timed(run) => {
                run(COUNTER_THREADS, 1);
            }
            Work::Once(run) => run(),
        });
        HARD_COUNTERS
            .iter()
            .map(|&n| (n.to_string(), snap.counter(n)))
            .collect()
    }

    /// The wall pass: the same deterministic pool bracket, timed
    /// separately so counter capture never sits inside a measured
    /// repetition.
    fn time(&self, threads: usize, reps: usize) -> TimingStats {
        self.prepare(threads);
        match &self.work {
            Work::Timed(run) => run(threads, reps),
            Work::Once(run) => time_best(reps, run),
        }
    }
}

fn cell_key(name: &str, mode: &str, check: Option<&str>) -> String {
    match check {
        Some(c) => format!("{name}/{mode}+{c}"),
        None => format!("{name}/{mode}"),
    }
}

/// A suite pair through [`run_case_on`] inside `backend`'s ambient pool.
/// Only the MultiQueue pairs are sensitive to the backend beyond that.
fn suite_pair<'a>(
    w: &'a Workloads,
    name: &'static str,
    mode: ExecMode,
    backend: BackendKind,
) -> impl Fn(usize, usize) -> TimingStats + Copy + 'a {
    move |threads, reps| {
        in_pool_on(backend, threads, || {
            run_case_on(backend, name, w, mode, threads, reps)
        })
    }
}

/// A kernel body: `reps` timed executions inside the caller's pool.
type Kernel = fn(&Workloads, usize) -> TimingStats;

/// The hot kernels of the `simd` feature's raw-speed pass. Each body is
/// impl-agnostic on purpose — the row holds the dispatch pin — so both
/// pins time the byte-identical call sequence.
const KERNELS: [(&str, Kernel); 2] = [
    // Digit extraction + block counting: every radix pass counts, also
    // the constant-digit ones that both pins then skip — the pins differ
    // in the histogram kernel alone.
    ("kernel-radix", |w, reps| {
        time_best(reps, || {
            let mut v = w.seq.clone();
            rpb_parlay::radix_sort_u64(&mut v);
            black_box(v);
        })
    }),
    // The monotonicity+bounds sweep over maximally fine chunk
    // boundaries (every boundary live, none elided).
    ("kernel-rngind-validate", |w, reps| {
        let len = w.seq.len();
        let offsets: Vec<usize> = (0..=len).collect();
        time_best(reps, || {
            rng_ind::validate_chunk_offsets(&offsets, len)
                .expect("kernel-rngind-validate: a monotone ramp validates");
            black_box(&offsets);
        })
    }),
];

/// The MultiQueue-sensitive pairs, recorded once per scheduling backend
/// (every other pair ignores the backend entirely).
const BACKEND_PAIRS: [&str; 4] = ["bfs-road", "bfs-link", "sssp-link", "sssp-road"];

type Trace = fn(&TraceConfig, &Arc<ServeDatasets>) -> TraceReport;

/// The resident service's pinned admission traces (`rpb_serve::trace`).
const SERVE_TRACES: [(&str, Trace); 2] = [
    ("serve-steady", serve_trace::steady),
    ("serve-burst", serve_trace::burst),
];

type Stream = fn(&Workloads, StreamConfig);

/// The streaming skeletons (`rpb_suite::streaming`), one pass each.
const PIPELINES: [(&str, Stream); 3] = [
    ("pipeline-hist", |w, cfg| {
        black_box(
            streaming::hist_stream(&w.seq, 64, w.seq.len() as u64, cfg)
                .expect("pipeline-hist: 64 buckets over the gate sequence is valid"),
        );
    }),
    ("pipeline-dedup", |w, cfg| {
        black_box(
            streaming::dedup_stream(&w.seq, cfg)
                .expect("pipeline-dedup: the pinned config is valid"),
        );
    }),
    ("pipeline-bfs", |w, cfg| {
        black_box(
            streaming::bfs_stream(&w.link, 0, cfg)
                .expect("pipeline-bfs: source 0 exists in the gate graph"),
        );
    }),
];

/// Chunk size of the pipeline cells, pinned so `pipeline_items_in` (the
/// chunk count) is a fixed function of the gate scale.
const PIPELINE_GATE_CHUNK: usize = 1 << 10;

/// Channel capacity of the pipeline cells.
const PIPELINE_GATE_CAPACITY: usize = 4;

/// The cell table: every row of a baseline, in recording order. `serve`
/// must hold the datasets of `w.scale`.
pub fn cells<'a>(w: &'a Workloads, serve: &'a Arc<ServeDatasets>) -> Vec<Cell<'a>> {
    // Smoke and kernel rows run on the process default (`rpb gate
    // --backend`); the later families name the backend they pin.
    let ambient = default_backend();
    let mut cells = Vec::new();
    for name in ALL_PAIRS {
        let mode = recommended_mode(name);
        let run = suite_pair(w, name, mode, ambient);
        cells.push(Cell::new(name, mode.label(), Work::Timed(Box::new(run))));
    }
    for name in FIG5A_PAIRS {
        let mode = ExecMode::Checked;
        let run = suite_pair(w, name, mode, ambient);
        cells.push(Cell {
            check: Some("fresh"),
            ..Cell::new(name, mode.label(), Work::Timed(Box::new(run)))
        });
        cells.push(Cell {
            check: Some("amortized"),
            // Fill the pool (and the proof paths) outside the capture so
            // the counted executions are all steady-state hits.
            warm: Some(Box::new(move |threads| {
                run(threads, 1);
            })),
            ..Cell::new(name, mode.label(), Work::Timed(Box::new(run)))
        });
    }
    for (name, kernel) in KERNELS {
        for pin in [KernelImpl::Scalar, KernelImpl::Simd] {
            let run = move |threads, reps| in_pool_on(ambient, threads, || kernel(w, reps));
            cells.push(Cell {
                pin: Some(pin),
                ..Cell::new(name, pin.label(), Work::Timed(Box::new(run)))
            });
        }
    }
    for name in BACKEND_PAIRS {
        for backend in ALL_BACKENDS {
            let run = suite_pair(w, name, recommended_mode(name), backend);
            cells.push(Cell::new(
                format!("backend-{name}"),
                backend.label(),
                Work::Timed(Box::new(run)),
            ));
        }
    }
    // Serve rows time the same pinned 1-thread trace shape the counter
    // pass runs: they gate admission arithmetic and the steady-state
    // zero-allocation property, not service throughput.
    for (name, trace) in SERVE_TRACES {
        for backend in ALL_BACKENDS {
            let cfg = TraceConfig::gate(backend);
            cells.push(Cell {
                // Fills the validation pool and fires every lazy init, so
                // the steady trace's counted validations are pool hits.
                warm: Some(Box::new(move |_| serve_trace::warmup(&cfg, serve))),
                ..Cell::new(
                    name,
                    backend.label(),
                    Work::Once(Box::new(move || {
                        black_box(trace(&cfg, serve));
                    })),
                )
            });
        }
    }
    for (name, stream) in PIPELINES {
        for channel in ALL_CHANNELS {
            // Rayon executor, one worker per stage, fixed chunk and
            // capacity: every counter deterministic, only the channel
            // backend varying across a variant's rows.
            let cfg = StreamConfig {
                channel,
                backend: BackendKind::Rayon,
                chunk: PIPELINE_GATE_CHUNK,
                capacity: PIPELINE_GATE_CAPACITY,
                workers: 1,
            };
            let run = move || stream(w, cfg);
            cells.push(Cell::new(name, channel.label(), Work::Once(Box::new(run))));
        }
    }
    cells
}

/// Records a fresh baseline over `w` (which must be built at
/// [`Scale::gate`] for the result to be comparable with committed
/// baselines).
pub fn record(w: &Workloads, wall_threads: usize, wall_reps: usize) -> Baseline {
    let wall_threads = wall_threads.max(1);
    let wall_reps = wall_reps.max(1);
    let serve_data = Arc::new(ServeDatasets::preload(w.scale));
    let mut cases = Vec::new();
    for cell in cells(w, &serve_data) {
        // Held over both passes; restores auto dispatch when it drops, a
        // panicking cell included.
        let _pin = cell.pin.map(simd::pin);
        let counters = cell.count();
        let wall = WallStats::from_timing(cell.time(wall_threads, wall_reps));
        cases.push(GateCase {
            name: cell.name,
            mode: cell.mode.to_string(),
            check: cell.check.map(String::from),
            counters,
            wall,
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

/// Severity of one gate violation, in reporting order (the derived
/// `Ord`): schema first, then hard, then soft.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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

    // Keys run to 29 characters (`kernel-rngind-validate/scalar`): pad
    // to the longest one present so every later column lines up.
    let keys = base.cases.iter().chain(&cur.cases).map(|c| c.key().len());
    let width = keys.max().unwrap_or(0).max("case".len());
    let mut table = String::new();
    let mut row = |key: &str, counters: &str, base: &str, cur: &str, ratio: &str, status: &str| {
        let _ = writeln!(
            table,
            "{key:<width$} {counters:>8} {base:>12} {cur:>12} {ratio:>7}  {status}"
        );
    };
    row("case", "counters", "base med", "cur med", "ratio", "status");
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
            let base_med = bc.wall.median_ns.to_string();
            row(&bc.key(), "-", &base_med, "-", "-", "MISSING");
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
        let counters = if drifted > 0 {
            format!("{drifted} drift")
        } else {
            "ok".into()
        };
        row(
            &bc.key(),
            &counters,
            &bc.wall.median_ns.to_string(),
            &cc.wall.median_ns.to_string(),
            &format!("{ratio:.2}x"),
            &status,
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
            let cur_med = cc.wall.median_ns.to_string();
            row(
                &cc.key(),
                "-",
                "-",
                &cur_med,
                "-",
                "NEW CASE (baseline stale)",
            );
        }
    }
    cmp.violations.sort_by_key(|v| (v.severity, v.case.clone()));
    cmp.table = table;
    cmp
}

/// Renders the "Kernel cells" section `record`/`check` print after a run:
/// the scalar-vs-simd wall-clock ratios of the baseline's kernel cells
/// (empty string when it has none — e.g. one recorded before the kernel
/// cells existed). The ratio is informational like every wall metric, but
/// it is the number the `simd` feature's speedup claims are read off of —
/// so it is printed only when `simd_dispatched`, i.e. when the `simd` pin
/// really ran vector code. Otherwise both pins ran the same scalar code
/// and their ratio is cell order and cache warm-up, not SIMD.
pub fn render_kernel_speedups(b: &Baseline, simd_dispatched: bool) -> String {
    // Only kernel rows carry a dispatch pin in their `mode` field.
    let simd_of = |s: &GateCase| {
        let mut cases = b.cases.iter();
        cases.find(|v| v.name == s.name && v.mode == "simd")
    };
    let scalars = b.cases.iter().filter(|s| s.mode == "scalar");
    let pairs: Vec<(&GateCase, &GateCase)> =
        scalars.filter_map(|s| Some((s, simd_of(s)?))).collect();
    if pairs.is_empty() {
        return String::new();
    }
    if !simd_dispatched {
        return "\nKernel cells: both dispatch pins took the scalar path in this run (no `simd` \
                feature, no AVX2, or RPB_FORCE_SCALAR), so there is no speedup to report.\n"
            .into();
    }
    let mut out = "\nKernel cells (scalar vs simd dispatch, this run):\n".to_string();
    let _ = writeln!(
        out,
        "{:<24} {:>14} {:>14} {:>8}",
        "kernel cell", "scalar med", "simd med", "speedup"
    );
    for (s, v) in pairs {
        let ratio = if v.wall.median_ns > 0 {
            s.wall.median_ns as f64 / v.wall.median_ns as f64
        } else {
            f64::NAN
        };
        let _ = writeln!(
            out,
            "{:<24} {:>12}ns {:>12}ns {:>7.2}x",
            s.name, s.wall.median_ns, v.wall.median_ns, ratio
        );
    }
    out
}

/// Renders the per-metric violation diff (empty string when clean).
pub fn render_violations(cmp: &Comparison) -> String {
    if cmp.violations.is_empty() {
        return String::new();
    }
    let cases = cmp.violations.iter().map(|v| v.case.len());
    let width = cases.max().unwrap_or(0).max("case".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<width$} {:<26} {:<6} {:>20} {:>20}",
        "case", "metric", "class", "baseline", "current"
    );
    for v in &cmp.violations {
        let _ = writeln!(
            out,
            "{:<width$} {:<26} {:<6} {:>20} {:>20}",
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
         record  runs the pinned cell table (the smoke pairs, the scalar/simd\n\
         \x20       kernel-* cells, the per-backend backend-* MultiQueue cells,\n\
         \x20       the serve-* admission-trace cells and the per-channel\n\
         \x20       pipeline-* streaming cells) at the gate scale and writes an\n\
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
    let Some((sub, flags)) = args.split_first() else {
        eprintln!("{}", usage());
        return EXIT_USAGE;
    };
    try_cli(sub, flags).unwrap_or_else(|msg| {
        eprintln!("rpb gate: {msg}\n\n{}", usage());
        EXIT_USAGE
    })
}

/// The value of a flag, parsed; `needs` is the complaint for a missing
/// or malformed one.
fn flag_value<T: std::str::FromStr>(value: Option<&String>, needs: &str) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| needs.to_string())
}

/// [`run_cli`] with usage errors as `Err`.
fn try_cli(sub: &str, flags: &[String]) -> Result<i32, String> {
    let mut out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut reps = 3usize;
    let mut threads = 2usize;
    let mut tolerance = DEFAULT_WALL_TOLERANCE;
    let mut wall_advisory = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = flags.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(flag_value(it.next(), "--out needs a path")?),
            "--baseline" => baseline_path = Some(flag_value(it.next(), "--baseline needs a path")?),
            "--reps" => reps = flag_value(it.next(), "--reps needs a number")?,
            "--threads" => threads = flag_value(it.next(), "--threads needs a number")?,
            "--wall-tolerance" => {
                let needs = "--wall-tolerance needs a ratio >= 1.0";
                tolerance = flag_value(it.next(), needs)?;
                if tolerance.is_nan() || tolerance < 1.0 {
                    return Err(needs.into());
                }
            }
            "--backend" => {
                let needs = "--backend needs rayon|mq (one value; the backend-* cells always \
                             record both)";
                set_default_backend(Some(flag_value::<BackendKind>(it.next(), needs)?));
            }
            "--wall" => {
                wall_advisory = match it.next().map(String::as_str) {
                    Some("advisory") => true,
                    Some("gate") => false,
                    _ => return Err("--wall needs gate|advisory".into()),
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown gate option {flag}")),
            _ => positional.push(arg),
        }
    }

    if matches!(sub, "record" | "check") && !rpb_obs::enabled() {
        return Err(
            "hard metrics need telemetry recording — rebuild with --features obs \
             (`cargo run --release --features obs -p rpb-bench --bin rpb -- gate …`)"
                .into(),
        );
    }

    match sub {
        "record" => {
            let path = out.unwrap_or_else(|| "baselines/smoke.json".into());
            let w = build_gate_workloads();
            let baseline = record(&w, threads, reps);
            write_baseline(Path::new(&path), &baseline)?;
            eprintln!(
                "wrote {} ({} cases, scale gate, counter pass @1 thread)",
                path,
                baseline.cases.len()
            );
            print_kernel_speedups(&baseline);
            Ok(EXIT_OK)
        }
        "compare" => {
            let [base, cur] = positional[..] else {
                return Err("compare needs exactly two baseline paths".into());
            };
            let base = read_baseline(Path::new(base))?;
            let cur = read_baseline(Path::new(cur))?;
            let cmp = compare(&base, &cur, tolerance);
            print_comparison(&cmp);
            Ok(cmp.exit_code(wall_advisory))
        }
        "check" => {
            let bp = baseline_path.ok_or("check needs --baseline PATH")?;
            let base = read_baseline(Path::new(&bp))?;
            let w = build_gate_workloads();
            // Mirror the baseline's wall configuration so the soft metrics
            // compare like with like (hard metrics are config-checked).
            let cur = record(&w, base.wall_threads, base.wall_reps);
            let cmp = compare(&base, &cur, tolerance);
            print_comparison(&cmp);
            print_kernel_speedups(&cur);
            if let Some(out) = out {
                write_baseline(Path::new(&out), &cur)?;
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
            Ok(code)
        }
        other => Err(format!("unknown gate subcommand {other}")),
    }
}

/// Prints the summary table, the per-metric diff and — on stderr — the
/// schema-mismatch note of a comparison.
fn print_comparison(cmp: &Comparison) {
    crate::emit(&cmp.table);
    let diff = render_violations(cmp);
    if !diff.is_empty() {
        crate::emit(&format!("\nDrifted metrics:\n{diff}"));
    }
    if cmp.has_schema() {
        eprintln!(
            "\ngate: baselines are structurally incomparable (offending cells: {}).\n\
             This usually means the baseline was recorded under a different feature\n\
             set or scale — re-record it with `rpb gate record` on this build.",
            cmp.schema_cells().join(", ")
        );
    }
}

/// Prints the kernel section of a baseline this process just recorded.
/// Outside a pin, [`simd::simd_enabled`] is the detection bit — exactly
/// what the `simd` pin dispatched on.
fn print_kernel_speedups(b: &Baseline) {
    crate::emit(&render_kernel_speedups(b, simd::simd_enabled()));
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
    fn long_keys_do_not_shear_the_compare_and_violation_tables() {
        let base = tiny_baseline();
        let mut cur = base.clone();
        for b in [&base, &cur] {
            assert!(b.cases.iter().all(|c| c.key().len() <= 22));
        }
        let mut long = cur.cases[0].clone();
        long.name = "kernel-rngind-validate".into();
        long.mode = "scalar".into();
        let width = long.key().len();
        assert_eq!(width, 29);
        cur.cases.push(long);
        cur.cases[0].counters[0].1 += 1;
        let cmp = compare(&base, &cur, DEFAULT_WALL_TOLERANCE);
        // Every row pads its key to the longest one present, so the
        // column after it starts at the same offset on every line.
        for table in [cmp.table.clone(), render_violations(&cmp)] {
            for line in table.lines() {
                let (key, rest) = line.split_at(width);
                assert!(rest.starts_with(' '), "sheared row: {line:?}");
                assert!(!key.trim_end().contains(' '), "sheared row: {line:?}");
            }
        }
        assert!(cmp.table.contains("kernel-rngind-validate/scalar "));
    }

    /// Runs `f` over the cell table of a tiny workload set.
    fn with_tiny_cells(f: impl FnOnce(Vec<Cell<'_>>)) {
        let w = Workloads::tiny();
        let serve = Arc::new(ServeDatasets::preload(w.scale));
        f(cells(&w, &serve));
    }

    #[test]
    fn cell_table_lists_the_documented_rows_in_order() {
        // The 20 pairs in Fig. 4 order and recommended mode, 2 brackets
        // for each of the 3 SngInd-heavy pairs, then the axis families:
        // every name under every value of its axis, in listing order.
        let mut want: Vec<String> = ALL_PAIRS
            .iter()
            .map(|n| format!("{n}/{}", recommended_mode(n).label()))
            .collect();
        assert_eq!(
            [&want[0], &want[12], &want[16]],
            ["bw/unsafe", "sort/checked", "bfs-road/sync"]
        );
        for name in FIG5A_PAIRS {
            want.push(format!("{name}/checked+fresh"));
            want.push(format!("{name}/checked+amortized"));
        }
        for (family, axis, names) in [
            ("kernel", ["scalar", "simd"], "radix rngind-validate"),
            (
                "backend",
                ["rayon", "mq"],
                "bfs-road bfs-link sssp-link sssp-road",
            ),
            ("serve", ["rayon", "mq"], "steady burst"),
            ("pipeline", ["mpsc", "crossbeam"], "hist dedup bfs"),
        ] {
            for name in names.split(' ') {
                want.extend(axis.map(|value| format!("{family}-{name}/{value}")));
            }
        }
        with_tiny_cells(|cells| {
            let keys: Vec<String> = cells.iter().map(Cell::key).collect();
            assert_eq!(keys, want);
            assert_eq!(keys.len(), 48);
            for c in &cells {
                // A kernel cell is meaningful only under an explicit pin
                // — its mode's, never `Auto` — and nothing else pins.
                let pin = c
                    .name
                    .starts_with("kernel-")
                    .then(|| c.mode.parse().unwrap());
                assert_eq!(c.pin, pin, "{}", c.key());
                assert_ne!(c.pin, Some(KernelImpl::Auto));
            }
        });
    }

    #[test]
    fn axis_family_cells_count_the_full_set_and_time_at_tiny_scale() {
        // The counter *values* are pinned by the crates' own tests and by
        // the recorded baseline; here we pin the passes' shape — every
        // hard counter present, in gate order, and a wall bracket — end
        // to end through pin, warm-up, capture and both kinds of work.
        use std::time::Duration;
        with_tiny_cells(|cells| {
            for cell in &cells[ALL_PAIRS.len() + 2 * FIG5A_PAIRS.len()..] {
                let _pin = cell.pin.map(simd::pin);
                let counters = cell.count();
                let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, HARD_COUNTERS, "{}", cell.key());
                assert!(cell.time(1, 1).best > Duration::ZERO, "{}", cell.key());
            }
        });
    }

    fn with_kernel_cells(mut b: Baseline, cells: &[(&str, &str, u64)]) -> Baseline {
        for &(name, mode, median_ns) in cells {
            let mut case = b.cases[0].clone();
            (case.name, case.mode, case.wall.median_ns) = (name.into(), mode.into(), median_ns);
            b.cases.push(case);
        }
        b
    }

    #[test]
    fn kernel_speedup_table_reads_off_the_ratio() {
        // No kernel cells: nothing to render (old baselines stay valid).
        assert!(render_kernel_speedups(&tiny_baseline(), true).is_empty());
        let b = with_kernel_cells(
            tiny_baseline(),
            &[
                ("kernel-rngind-validate", "scalar", 3000),
                ("kernel-rngind-validate", "simd", 1500),
                // A lone pin (simd cell missing) renders nothing for
                // that kernel.
                ("kernel-radix", "scalar", 9999),
            ],
        );
        let table = render_kernel_speedups(&b, true);
        assert!(table.contains("kernel-rngind-validate"), "{table}");
        assert!(table.contains("2.00x"), "{table}");
        assert!(!table.contains("kernel-radix"), "{table}");
    }

    #[test]
    fn kernel_speedups_are_not_claimed_when_both_pins_ran_scalar() {
        // Cell order and cache warm-up alone produce ratios like 1.73x
        // between two runs of the same scalar code.
        let b = with_kernel_cells(
            tiny_baseline(),
            &[
                ("kernel-radix", "scalar", 35_662),
                ("kernel-radix", "simd", 20_660),
            ],
        );
        let section = render_kernel_speedups(&b, false);
        assert!(section.contains("scalar path"), "{section}");
        assert!(!section.contains("1.73x"), "{section}");
        assert!(!section.contains("35662"), "{section}");
        assert_eq!(section.trim().lines().count(), 1, "{section}");
        // Still nothing at all for a baseline without kernel cells.
        assert!(render_kernel_speedups(&tiny_baseline(), false).is_empty());
    }
}
