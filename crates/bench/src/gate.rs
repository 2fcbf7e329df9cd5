//! The deterministic perf gate: `rpb gate record|compare|check`.
//!
//! CI cannot gate on wall-clock numbers — shared runners are far too
//! noisy — yet the paper's claims are quantitative, so a PR that silently
//! doubles the number of uniqueness checks or defeats the mark-table pool
//! must fail loudly. The gate therefore counts and never times: a baseline
//! holds, per cell, the deterministic event counters of [`rpb_obs`]
//! (checks performed, offsets/boundaries validated, pool hits/misses,
//! proof builds/reuses, MultiQueue pushes/pops, executor tasks, serve
//! admissions, pipeline items). The counter pass runs every cell on a
//! **1-worker pool with pinned-seed inputs**, making these pure functions
//! of the code — bit-stable across machines and runs. Any drift is a real
//! behavioral change (an algorithm, policy, or fast-path regression) and
//! fails the gate. How fast a cell runs is `rpb-perf`'s question
//! (`perf/`): its alternating runs give medians and quartiles, which one
//! pass on a CI runner cannot.
//!
//! A baseline is one [`GateCase`] per row of the cell table ([`cells`]),
//! in table order, and [`record`] runs every row under one bracket: empty
//! the mark-table pool and zero its stats, run the row's warm-up, then
//! capture the row's counted executions at [`COUNTER_THREADS`] — so no
//! cell sees what the previous one left behind. Inputs are built at the
//! pinned [`Scale::gate`]; baselines embed the scale and `check` refuses
//! to compare across scales. Nothing else goes into a baseline, so
//! recording twice writes the same bytes on any machine. The rows:
//!
//! * **Smoke** — every Fig. 4 pair in its recommended mode (which
//!   includes the MultiQueue `bfs`/`sssp` pairs and `sort`'s checked
//!   scatter), plus `bw`, `lrs` and `sa` checked. None validates at run
//!   time (`sort`, `lrs`, `sa` reuse their producers' proofs, `bw`'s
//!   checked arm is a plain walk), so a check that comes back is drift.
//! * **`backend-*`** × {`rayon`, `mq`} — the four MultiQueue pairs.
//! * **`serve-*`** × {`rayon`, `mq`} — the service's two pinned admission
//!   traces (`rpb_serve::trace`), pumped inline on a 1-thread pool so
//!   the serve counters are exact functions of the trace shape:
//!   `serve-steady` pins a steady stream's farm traffic (its `Checked`
//!   jobs reuse proofs; no check or pool counter moves), `serve-burst`
//!   that admission control sheds exactly the over-cap overflow.
//! * **`pipeline-*`** × {`mpsc`, `crossbeam`} — the three streaming
//!   skeletons of `rpb_suite::streaming` at a pinned chunk size, channel
//!   capacity and one worker per stage.
//!
//! The last three families put the varied axis in the cell's `mode` field
//! (keys read `backend-bfs-road/mq`, `pipeline-hist/crossbeam`, …) and
//! require it to be *behaviorally invisible*: a group's hard counters
//! must be equal across its rows, which `tests/gate_determinism.rs`
//! asserts over the recorded baseline.
//!
//! A baseline whose *cell set or scale* differs from the current build —
//! e.g. one recorded before a cell was added or removed — is a **schema
//! mismatch**, not counter drift: `compare`/`check` list the offending
//! cells and exit [`EXIT_USAGE`] so CI reads "re-record the baseline",
//! never "the code regressed".
//!
//! Baselines are versioned JSON ([`BASELINE_SCHEMA`]) committed under
//! `baselines/`. After an *intentional* behavioral change, re-record with
//! `rpb gate record` and commit the diff — the diff itself documents the
//! behavioral delta of the PR.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use rpb_fearless::pool;
use rpb_fearless::ExecMode;
use rpb_obs::{metrics, Json};
use rpb_parlay::exec::{default_backend, set_default_backend, BackendKind, ALL_BACKENDS};
use rpb_pipeline::ALL_CHANNELS;
use rpb_serve::trace::{self as serve_trace, TraceConfig, TraceReport};
use rpb_serve::Datasets as ServeDatasets;
use rpb_suite::streaming::{self, StreamConfig};

use crate::figures::in_pool_on;
use crate::runner::{recommended_mode, run_case_on, ALL_PAIRS, FIG5A_PAIRS};
use crate::workloads::Workloads;
use crate::Scale;

/// Schema tag of every baseline file the gate writes and reads.
pub const BASELINE_SCHEMA: &str = "rpb-baseline-v3";

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
/// (`exec_idle_spins`), every duration histogram, and per-thread splits —
/// all scheduling- or clock-dependent even when the algorithm is
/// unchanged.
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

/// Exit code: baseline and current run agree.
pub const EXIT_OK: i32 = 0;
/// Exit code: usage / IO / malformed-baseline errors, and baseline schema
/// mismatches (the two baselines record different cell sets or scales, so
/// no behavioral verdict is possible).
pub const EXIT_USAGE: i32 = 2;
/// Exit code: at least one hard (deterministic-counter) metric drifted.
pub const EXIT_HARD: i32 = 4;

/// One recorded cell: a [`cells`] row's identity plus its counters.
#[derive(Clone, Debug, PartialEq)]
pub struct GateCase {
    /// Pair label as in Fig. 4 (`"bw"`, `"mis-link"`, …).
    pub name: String,
    /// Exec-mode label (`"unsafe"`, `"checked"`, `"sync"`); the axis
    /// families carry the value of their axis (`"rayon"`/`"mq"`,
    /// `"mpsc"`/`"crossbeam"`) here instead.
    pub mode: String,
    /// `(counter, value)` for every [`HARD_COUNTERS`] entry, in that
    /// order, over the executions the cell's row counts (see [`cells`])
    /// on the 1-worker pool.
    pub counters: Vec<(String, u64)>,
}

impl GateCase {
    /// Stable identity of the matrix cell (`name/mode`).
    pub fn key(&self) -> String {
        format!("{}/{}", self.name, self.mode)
    }

    /// Value of a named hard counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The counter section as JSON.
    pub fn counters_json(&self) -> Json {
        Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::from_u64(*v)))
                .collect(),
        )
    }
}

/// A recorded baseline: one case per [`cells`] row at one scale.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// Workload scale the matrix ran at (must match [`Scale::gate`]).
    pub scale: Scale,
    /// One entry per cell-table row, in table order.
    pub cases: Vec<GateCase>,
}

impl Baseline {
    /// Renders the versioned baseline document.
    pub fn to_json(&self) -> Json {
        let scale = self.scale;
        Json::Obj(vec![
            ("schema".into(), Json::Str(BASELINE_SCHEMA.into())),
            (
                "scale".into(),
                Json::Obj(vec![
                    ("text_len".into(), Json::from_u64(scale.text_len as u64)),
                    ("seq_len".into(), Json::from_u64(scale.seq_len as u64)),
                    ("graph_n".into(), Json::from_u64(scale.graph_n as u64)),
                    ("points_n".into(), Json::from_u64(scale.points_n as u64)),
                ]),
            ),
            (
                "cases".into(),
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(c.name.clone())),
                                ("mode".into(), Json::Str(c.mode.clone())),
                                ("counters".into(), c.counters_json()),
                            ])
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
                    "unknown baseline schema \"{other}\" (expected \"{BASELINE_SCHEMA}\"; \
                     re-record with `rpb gate record`)"
                ))
            }
            None => return Err(format!("not an {BASELINE_SCHEMA} document")),
        }
        let scale_json = doc.get("scale").ok_or("baseline missing \"scale\"")?;
        let scale_field = |k: &str| -> Result<usize, String> {
            scale_json
                .get(k)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("baseline scale missing \"{k}\""))
        };
        let scale = Scale {
            text_len: scale_field("text_len")?,
            seq_len: scale_field("seq_len")?,
            graph_n: scale_field("graph_n")?,
            points_n: scale_field("points_n")?,
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
                counters,
            });
        }
        Ok(Baseline { scale, cases })
    }
}

/// One row of the cell table: what [`record`] needs to put the cell under
/// the bracket and what identifies it in the baseline.
pub struct Cell<'a> {
    /// The cell's `name` field (`"bw"`, `"backend-bfs-road"`, …).
    pub name: String,
    /// The cell's `mode` field: the exec mode, or the label of the axis
    /// the row's family varies.
    pub mode: &'static str,
    /// Runs after the pool is prepared and before the capture.
    warm: Option<Box<dyn Fn() + 'a>>,
    /// The executions the capture counts, on [`COUNTER_THREADS`] workers.
    /// How many is part of every recorded baseline: do not "normalise" it
    /// (see `PAIR_EXECS`).
    run: Box<dyn Fn() + 'a>,
}

impl<'a> Cell<'a> {
    fn new(name: impl Into<String>, mode: &'static str, run: impl Fn() + 'a) -> Cell<'a> {
        Cell {
            name: name.into(),
            mode,
            warm: None,
            run: Box::new(run),
        }
    }

    /// Stable identity of the cell (`name/mode`).
    pub fn key(&self) -> String {
        format!("{}/{}", self.name, self.mode)
    }

    /// The counter pass: puts the global mark-table pool into the row's
    /// deterministic starting state — empty, stats zeroed — runs the
    /// row's warm-up, and returns `(counter, value)` for every
    /// [`HARD_COUNTERS`] entry, in that order, over the row's counted
    /// executions. Without the pool reset, a cell's hit/miss counters
    /// would depend on which cells ran before it.
    fn count(&self) -> Vec<(String, u64)> {
        pool::clear();
        pool::reset_stats();
        if let Some(warm) = &self.warm {
            warm();
        }
        let ((), snap) = metrics::capture(&self.run);
        HARD_COUNTERS
            .iter()
            .map(|&n| (n.to_string(), snap.counter(n)))
            .collect()
    }
}

/// Executions a suite-pair row counts, inside one pool install:
/// the committed baselines count two (a warm-up and one repetition), so
/// changing this moves every such row's counters. Serve and pipeline rows
/// count one.
const PAIR_EXECS: usize = 2;

/// A suite pair through [`run_case_on`] inside `backend`'s ambient pool.
/// Only the MultiQueue pairs are sensitive to the backend beyond that.
fn suite_pair<'a>(
    w: &'a Workloads,
    name: &'static str,
    mode: ExecMode,
    backend: BackendKind,
) -> impl Fn() + Copy + 'a {
    move || {
        in_pool_on(backend, COUNTER_THREADS, || {
            for _ in 0..PAIR_EXECS {
                run_case_on(backend, name, w, mode, COUNTER_THREADS);
            }
        })
    }
}

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
    // Smoke rows run on the process default (`rpb gate --backend`); the
    // later families name the backend they pin.
    let ambient = default_backend();
    let mut cells = Vec::new();
    for name in ALL_PAIRS {
        let mode = recommended_mode(name);
        cells.push(Cell::new(
            name,
            mode.label(),
            suite_pair(w, name, mode, ambient),
        ));
    }
    for name in FIG5A_PAIRS {
        let run = suite_pair(w, name, ExecMode::Checked, ambient);
        cells.push(Cell::new(name, ExecMode::Checked.label(), run));
    }
    for name in BACKEND_PAIRS {
        for backend in ALL_BACKENDS {
            let run = suite_pair(w, name, recommended_mode(name), backend);
            cells.push(Cell::new(format!("backend-{name}"), backend.label(), run));
        }
    }
    // Serve rows gate the admission arithmetic and farm traffic of the
    // pinned 1-thread trace shape, not service throughput.
    for (name, trace) in SERVE_TRACES {
        for backend in ALL_BACKENDS {
            let cfg = TraceConfig::gate(backend);
            cells.push(Cell {
                // Fills the validation pool and fires every lazy init, so
                // the steady trace's counted validations are pool hits.
                warm: Some(Box::new(move || serve_trace::warmup(&cfg, serve))),
                ..Cell::new(name, backend.label(), move || {
                    black_box(trace(&cfg, serve));
                })
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
            cells.push(Cell::new(name, channel.label(), move || stream(w, cfg)));
        }
    }
    cells
}

/// Records a fresh baseline over `w` (which must be built at
/// [`Scale::gate`] for the result to be comparable with committed
/// baselines).
pub fn record(w: &Workloads) -> Baseline {
    let serve_data = Arc::new(ServeDatasets::preload(w.scale));
    let mut cases = Vec::new();
    for cell in cells(w, &serve_data) {
        cases.push(GateCase {
            counters: cell.count(),
            name: cell.name,
            mode: cell.mode.to_string(),
        });
    }
    Baseline {
        scale: w.scale,
        cases,
    }
}

/// Severity of one gate violation, in reporting order (the derived
/// `Ord`): schema first, then hard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Structural incomparability: the two baselines record different
    /// cell sets or scales (typically a baseline committed before the
    /// cell matrix changed). No behavioral verdict is possible; the fix
    /// is re-recording, so this maps to [`EXIT_USAGE`] rather than a hard
    /// failure.
    Schema,
    /// Deterministic counter drift: always fails.
    Hard,
}

/// One metric that drifted between baseline and current run.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Matrix-cell key (`name/mode`), or `"<baseline>"` for
    /// structural mismatches.
    pub case: String,
    /// Metric name.
    pub metric: String,
    /// Schema or hard.
    pub severity: Severity,
    /// Baseline value (rendered).
    pub baseline: String,
    /// Current value (rendered).
    pub current: String,
}

/// Outcome of comparing two baselines.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Every drifted metric: schema first, then hard.
    pub violations: Vec<Violation>,
    /// Per-case summary table (always rendered, even when clean).
    pub table: String,
}

impl Comparison {
    /// True when the baselines are structurally incomparable (different
    /// cell sets or scales).
    pub fn has_schema(&self) -> bool {
        self.violations
            .iter()
            .any(|v| v.severity == Severity::Schema)
    }

    /// True when any hard metric drifted.
    pub fn has_hard(&self) -> bool {
        self.violations.iter().any(|v| v.severity == Severity::Hard)
    }

    /// Cell keys (or `"<baseline>"` for the scale) behind a schema
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

    /// Maps the outcome to the gate's exit code.
    pub fn exit_code(&self) -> i32 {
        if self.has_schema() {
            // Structural mismatch outranks counter drift: diffs against an
            // incomparable baseline say nothing about behavior, and the
            // remedy (re-record) is a usage-level action, not a revert.
            EXIT_USAGE
        } else if self.has_hard() {
            EXIT_HARD
        } else {
            EXIT_OK
        }
    }
}

/// Diffs two baselines: `base` (committed) against `cur` (fresh).
///
/// Schema violations: a scale mismatch and missing or unexpected matrix
/// cells (typically a baseline recorded before the cell matrix changed) —
/// they make the baselines incomparable and map to [`EXIT_USAGE`]. Hard
/// violations: any hard-counter inequality on the common cells.
pub fn compare(base: &Baseline, cur: &Baseline) -> Comparison {
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

    // The scale must match exactly or no counter is comparable.
    if base.scale != cur.scale {
        push(
            "<baseline>".into(),
            "scale",
            Severity::Schema,
            format!("{:?}", base.scale),
            format!("{:?}", cur.scale),
        );
    }

    // Keys run to 24 characters (`pipeline-dedup/crossbeam`): pad to the
    // longest one present so the status column lines up.
    let keys = base.cases.iter().chain(&cur.cases).map(|c| c.key().len());
    let width = keys.max().unwrap_or(0).max("case".len());
    let mut table = String::new();
    let mut row = |key: &str, status: &str| {
        let _ = writeln!(table, "{key:<width$} {status}");
    };
    row("case", "status");
    for bc in &base.cases {
        let Some(cc) = cur
            .cases
            .iter()
            .find(|c| c.name == bc.name && c.mode == bc.mode)
        else {
            push(
                bc.key(),
                "<case>",
                Severity::Schema,
                "present".into(),
                "missing".into(),
            );
            row(&bc.key(), "MISSING");
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
        if drifted > 0 {
            row(&bc.key(), &format!("HARD ({drifted} counter(s) drifted)"));
        } else {
            row(&bc.key(), "ok");
        }
    }
    for cc in &cur.cases {
        let known = base
            .cases
            .iter()
            .any(|b| b.name == cc.name && b.mode == cc.mode);
        if !known {
            push(
                cc.key(),
                "<case>",
                Severity::Schema,
                "missing".into(),
                "present".into(),
            );
            row(&cc.key(), "NEW CASE (baseline stale)");
        }
    }
    cmp.violations.sort_by_key(|v| (v.severity, v.case.clone()));
    cmp.table = table;
    cmp
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
        "usage: rpb gate record  [--out PATH] [--backend rayon|mq]\n\
         \x20      rpb gate compare BASE CURRENT\n\
         \x20      rpb gate check   --baseline PATH [--out PATH] [--backend rayon|mq]\n\n\
         record  runs the pinned cell table (the smoke pairs, the per-backend\n\
         \x20       backend-* MultiQueue cells, the serve-* admission-trace\n\
         \x20       cells and the per-channel pipeline-* streaming cells) at\n\
         \x20       the gate scale and writes an {BASELINE_SCHEMA} baseline\n\
         \x20       (default out: baselines/smoke.json).\n\
         compare diffs two baseline files (exit {EXIT_HARD} on counter drift).\n\
         check   records a fresh table and compares it against --baseline.\n\
         --backend sets the process-default scheduling backend for the smoke\n\
         \x20       cells (one value; the backend-* cells always record both).\n\
         Every hard counter comes from a 1-worker counter pass over pinned-seed\n\
         inputs and must match exactly. The gate times nothing: rpb-perf\n\
         (perf/, BENCHMARK.json) is the timing harness.\n\
         Baselines recording different cell sets or scales exit {EXIT_USAGE}\n\
         (schema mismatch), never {EXIT_HARD}."
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
    let mut positional: Vec<&String> = Vec::new();
    let mut it = flags.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(flag_value(it.next(), "--out needs a path")?),
            "--baseline" => baseline_path = Some(flag_value(it.next(), "--baseline needs a path")?),
            "--backend" => {
                let needs = "--backend needs rayon|mq (one value; the backend-* cells always \
                             record both)";
                set_default_backend(Some(flag_value::<BackendKind>(it.next(), needs)?));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown gate option {flag}")),
            _ => positional.push(arg),
        }
    }

    match sub {
        "record" => {
            let path = out.unwrap_or_else(|| "baselines/smoke.json".into());
            let baseline = record(&build_gate_workloads());
            write_baseline(Path::new(&path), &baseline)?;
            eprintln!(
                "wrote {} ({} cases, scale gate, counter pass @1 thread)",
                path,
                baseline.cases.len()
            );
            Ok(EXIT_OK)
        }
        "compare" => {
            let [base, cur] = positional[..] else {
                return Err("compare needs exactly two baseline paths".into());
            };
            let base = read_baseline(Path::new(base))?;
            let cur = read_baseline(Path::new(cur))?;
            let cmp = compare(&base, &cur);
            print_comparison(&cmp);
            Ok(cmp.exit_code())
        }
        "check" => {
            let bp = baseline_path.ok_or("check needs --baseline PATH")?;
            let base = read_baseline(Path::new(&bp))?;
            let cur = record(&build_gate_workloads());
            let cmp = compare(&base, &cur);
            print_comparison(&cmp);
            if let Some(out) = out {
                write_baseline(Path::new(&out), &cur)?;
                eprintln!("wrote fresh baseline to {out}");
            }
            let code = cmp.exit_code();
            match code {
                EXIT_OK => eprintln!("gate: ok"),
                EXIT_USAGE => eprintln!(
                    "gate: SCHEMA MISMATCH (baseline records a different cell set or scale)"
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
             This usually means the baseline was recorded with a different cell\n\
             matrix or scale — re-record it with `rpb gate record` on this build.",
            cmp.schema_cells().join(", ")
        );
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
            cases: vec![
                GateCase {
                    name: "bw".into(),
                    mode: "unsafe".into(),
                    counters: vec![("sngind_pool_hits".into(), 4), ("mq_pushes".into(), 0)],
                },
                GateCase {
                    name: "bw".into(),
                    mode: "checked".into(),
                    counters: vec![("sngind_pool_hits".into(), 9)],
                },
            ],
        }
    }

    #[test]
    fn baseline_round_trips_through_json_text() {
        let b = tiny_baseline();
        let text = b.to_json().to_string();
        let parsed = Baseline::parse(&Json::parse(&text).expect("parse")).expect("baseline");
        assert_eq!(b, parsed);
        assert_eq!(
            parsed.to_json().to_string(),
            text,
            "re-serialises to the same bytes"
        );
    }

    #[test]
    fn parse_rejects_foreign_schemas() {
        let err = Baseline::parse(&Json::parse("{\"schema\":\"rpb-baseline-v9\"}").unwrap())
            .expect_err("unknown schema");
        assert!(err.contains("rpb-baseline-v9"));
        assert!(Baseline::parse(&Json::parse("{}").unwrap()).is_err());
        // v1 (wall-clock brackets) and v2 (check brackets) read as "re-record".
        for old in ["v1", "v2"] {
            let doc = format!("{{\"schema\":\"rpb-baseline-{old}\"}}");
            let err = Baseline::parse(&Json::parse(&doc).unwrap()).expect_err(old);
            assert!(err.contains("re-record"), "{err}");
        }
    }

    #[test]
    fn identical_baselines_compare_clean() {
        let b = tiny_baseline();
        let cmp = compare(&b, &b.clone());
        assert!(cmp.violations.is_empty(), "{:?}", cmp.violations);
        assert_eq!(cmp.exit_code(), EXIT_OK);
        assert!(cmp.table.contains("bw/unsafe"));
        assert!(cmp.table.contains("bw/checked"));
    }

    #[test]
    fn counter_tampering_is_a_hard_violation_with_diff_row() {
        let base = tiny_baseline();
        let mut cur = base.clone();
        cur.cases[0].counters[0].1 += 1; // sngind_pool_hits 4 -> 5
        let cmp = compare(&base, &cur);
        assert!(cmp.has_hard());
        assert_eq!(cmp.exit_code(), EXIT_HARD);
        let diff = render_violations(&cmp);
        assert!(diff.contains("sngind_pool_hits"), "per-metric row: {diff}");
        assert!(diff.contains('4') && diff.contains('5'), "values: {diff}");
    }

    #[test]
    fn missing_and_extra_cases_are_a_schema_mismatch() {
        // A baseline recorded with a different cell matrix (cells the
        // current build can't produce, or vice versa) must read as
        // "re-record", not as hard counter drift.
        let base = tiny_baseline();
        let mut cur = base.clone();
        let dropped = cur.cases.pop().unwrap();
        let cmp = compare(&base, &cur);
        assert!(cmp.has_schema());
        assert!(!cmp.has_hard(), "{:?}", cmp.violations);
        assert_eq!(cmp.exit_code(), EXIT_USAGE);
        assert!(cmp.table.contains("MISSING"));
        // The offending cell is named, both in the listing and the diff.
        assert_eq!(cmp.schema_cells(), vec!["bw/checked"]);
        assert!(render_violations(&cmp).contains("SCHEMA"));

        let mut cur = base.clone();
        let mut extra = dropped;
        extra.name = "zz-new".into();
        cur.cases.push(extra);
        let cmp = compare(&base, &cur);
        assert!(cmp.has_schema());
        assert_eq!(cmp.exit_code(), EXIT_USAGE);
        assert!(cmp.table.contains("NEW CASE"));
        assert_eq!(cmp.schema_cells(), vec!["zz-new/checked"]);
    }

    #[test]
    fn scale_mismatch_is_a_schema_mismatch() {
        let base = tiny_baseline();
        let mut cur = base.clone();
        cur.scale = Scale::small();
        let cmp = compare(&base, &cur);
        assert!(cmp.has_schema());
        assert_eq!(cmp.exit_code(), EXIT_USAGE);
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
        let cmp = compare(&base, &cur);
        assert!(cmp.has_schema() && cmp.has_hard());
        assert_eq!(cmp.exit_code(), EXIT_USAGE);
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
        long.name = "pipeline-dedup".into();
        long.mode = "crossbeam".into();
        let width = long.key().len();
        assert_eq!(width, 24);
        cur.cases.push(long);
        cur.cases[0].counters[0].1 += 1;
        let cmp = compare(&base, &cur);
        // Every row pads its key to the longest one present, so the
        // column after it starts at the same offset on every line.
        for table in [cmp.table.clone(), render_violations(&cmp)] {
            for line in table.lines() {
                let (key, rest) = line.split_at(width);
                assert!(rest.starts_with(' '), "sheared row: {line:?}");
                assert!(!key.trim_end().contains(' '), "sheared row: {line:?}");
            }
        }
        assert!(cmp.table.contains("pipeline-dedup/crossbeam "));
    }

    /// Runs `f` over the cell table of a tiny workload set.
    fn with_tiny_cells(f: impl FnOnce(Vec<Cell<'_>>)) {
        let w = Workloads::tiny();
        let serve = Arc::new(ServeDatasets::preload(w.scale));
        f(cells(&w, &serve));
    }

    #[test]
    fn cell_table_lists_the_documented_rows_in_order() {
        // The 20 pairs in Fig. 4 order and recommended mode, the 3
        // SngInd-heavy pairs checked, then the axis families:
        // every name under every value of its axis, in listing order.
        let mut want: Vec<String> = ALL_PAIRS
            .iter()
            .map(|n| format!("{n}/{}", recommended_mode(n).label()))
            .collect();
        assert_eq!(
            [&want[0], &want[12], &want[16]],
            ["bw/unsafe", "sort/checked", "bfs-road/sync"]
        );
        want.extend(FIG5A_PAIRS.map(|name| format!("{name}/checked")));
        for (family, axis, names) in [
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
            assert_eq!(keys.len(), 41);
        });
    }

    #[test]
    fn axis_family_cells_count_the_full_set_at_tiny_scale() {
        // The counter *values* are pinned by the crates' own tests and by
        // the recorded baseline; here we pin the pass's shape — every
        // hard counter present, in gate order — end to end through
        // warm-up, capture and every family's kind of work.
        with_tiny_cells(|cells| {
            for cell in &cells[ALL_PAIRS.len() + FIG5A_PAIRS.len()..] {
                let counters = cell.count();
                let names: Vec<&str> = counters.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, HARD_COUNTERS, "{}", cell.key());
            }
        });
    }
}
