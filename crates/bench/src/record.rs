//! Structured run records: the machine-readable output behind
//! `rpb … --json <path>` and the `rpb report` summary.
//!
//! Each timed benchmark run (one pair × mode × thread count) becomes one
//! [`RunRecord`] carrying the timing statistics and a full telemetry
//! snapshot from [`rpb_obs::metrics`]. A report file is a single JSON
//! object `{"schema": "rpb-bench-v2", "records": [...]}` whose records
//! embed the environment (`git_sha`, `cpu_count`, `rustc`) so perf
//! trajectories (`BENCH_0.json`, `BENCH_1.json`, …) stay self-describing.
//!
//! Schema history: `rpb-bench-v2` added the robust wall-clock statistics
//! `median_ns`/`mad_ns` to every record (the noise model behind `rpb
//! gate`'s soft comparisons). `rpb-bench-v1` files remain readable — the
//! summary renderer accepts every tag in [`KNOWN_SCHEMAS`] and warns
//! (rather than silently skipping) on files whose tag it does not know.

use std::io::Write as _;

use rpb_obs::{Json, Snapshot};

use crate::{Scale, TimingStats};

/// Schema tag written into every report file.
pub const SCHEMA: &str = "rpb-bench-v2";

/// The original record schema (no `median_ns`/`mad_ns`); still readable.
pub const SCHEMA_V1: &str = "rpb-bench-v1";

/// Every report schema `rpb report` can render, newest first.
pub const KNOWN_SCHEMAS: &[&str] = &[SCHEMA, SCHEMA_V1];

/// Build/host environment captured once per harness invocation.
#[derive(Clone, Debug)]
pub struct EnvInfo {
    /// `git rev-parse --short HEAD` of the working tree, or `"unknown"`.
    pub git_sha: String,
    /// `std::thread::available_parallelism()`.
    pub cpu_count: usize,
    /// First line of `rustc --version`, or `"unknown"`.
    pub rustc: String,
}

impl EnvInfo {
    /// Collects the environment by probing `git` and `rustc` (each falls
    /// back to `"unknown"` when unavailable).
    pub fn collect() -> EnvInfo {
        EnvInfo {
            git_sha: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            cpu_count: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("git_sha".into(), Json::Str(self.git_sha.clone())),
            ("cpu_count".into(), Json::from_u64(self.cpu_count as u64)),
            ("rustc".into(), Json::Str(self.rustc.clone())),
        ])
    }
}

/// First output line of a command, if it runs successfully.
fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// One benchmark-pair × mode × thread-count run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Which figure/table drove this run (`"fig4"`, `"fig5a"`, `"fig5b"`).
    pub figure: &'static str,
    /// Pair label as in Fig. 4 (`"bw"`, `"mis-link"`, …).
    pub name: String,
    /// `"par"` or `"seq"` (sequential baseline).
    pub kind: &'static str,
    /// Exec-mode label (`"unsafe"`, `"checked"`, `"sync"`) or `"seq"`.
    pub mode: String,
    /// Worker threads the run was given.
    pub threads: usize,
    /// Measured repetitions behind `best`/`mean` (warmup excluded).
    pub reps: usize,
    /// Best measured wall time, nanoseconds.
    pub best_ns: u128,
    /// Mean measured wall time, nanoseconds.
    pub mean_ns: u128,
    /// Median measured wall time, nanoseconds (schema v2).
    pub median_ns: u128,
    /// Median absolute deviation of the wall times, nanoseconds
    /// (schema v2).
    pub mad_ns: u128,
    /// Validation-cost regime for checked-mode runs that vary it:
    /// `"fresh"` (validation pool disabled — every check allocates its
    /// bitmaps, exact-size) or `"amortized"` (pooled bitmaps and
    /// validation proofs). Both regimes use the same strategies (mark
    /// bitmaps, `Adaptive` selection) — the bracket varies storage reuse
    /// only, not the algorithm; neither replays the historical `u8` mark
    /// table. `None` for runs that don't bracket the check.
    pub check: Option<&'static str>,
    /// Telemetry accumulated over warmup + all repetitions (all zeros
    /// unless built with `--features obs`).
    pub telemetry: Snapshot,
}

impl RunRecord {
    /// Builds a record from a finished measurement.
    pub fn new(
        figure: &'static str,
        name: &str,
        kind: &'static str,
        mode: &str,
        threads: usize,
        timing: TimingStats,
        telemetry: Snapshot,
    ) -> RunRecord {
        RunRecord {
            figure,
            name: name.to_string(),
            kind,
            mode: mode.to_string(),
            threads,
            reps: timing.reps,
            best_ns: timing.best_ns(),
            mean_ns: timing.mean_ns(),
            median_ns: timing.median_ns(),
            mad_ns: timing.mad_ns(),
            check: None,
            telemetry,
        }
    }

    /// Tags the record with a validation-cost regime (`"fresh"` /
    /// `"amortized"`); see the `check` field.
    pub fn with_check(mut self, check: &'static str) -> RunRecord {
        self.check = Some(check);
        self
    }

    /// Renders the record, embedding the shared scale and environment.
    /// The `check` key is only present on runs that bracket the
    /// validation cost, so records from other figures are unchanged.
    pub fn to_json(&self, scale: Scale, env: &EnvInfo) -> Json {
        let mut fields = vec![
            ("figure".into(), Json::Str(self.figure.into())),
            ("name".into(), Json::Str(self.name.clone())),
            ("kind".into(), Json::Str(self.kind.into())),
            ("mode".into(), Json::Str(self.mode.clone())),
        ];
        if let Some(check) = self.check {
            fields.push(("check".into(), Json::Str(check.into())));
        }
        fields.extend([
            ("threads".into(), Json::from_u64(self.threads as u64)),
            ("scale".into(), scale_to_json(scale)),
            ("reps".into(), Json::from_u64(self.reps as u64)),
            ("best_ns".into(), Json::from_u128(self.best_ns)),
            ("mean_ns".into(), Json::from_u128(self.mean_ns)),
            ("median_ns".into(), Json::from_u128(self.median_ns)),
            ("mad_ns".into(), Json::from_u128(self.mad_ns)),
            ("telemetry".into(), self.telemetry.to_json()),
            ("env".into(), env.to_json()),
        ]);
        Json::Obj(fields)
    }
}

pub(crate) fn scale_to_json(scale: Scale) -> Json {
    Json::Obj(vec![
        ("text_len".into(), Json::from_u64(scale.text_len as u64)),
        ("seq_len".into(), Json::from_u64(scale.seq_len as u64)),
        ("graph_n".into(), Json::from_u64(scale.graph_n as u64)),
        ("points_n".into(), Json::from_u64(scale.points_n as u64)),
    ])
}

/// Renders a full report document.
pub fn report_to_json(records: &[RunRecord], scale: Scale, env: &EnvInfo) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        (
            "records".into(),
            Json::Arr(records.iter().map(|r| r.to_json(scale, env)).collect()),
        ),
    ])
}

/// Writes a report document to `path` (overwrites).
pub fn write_json(
    path: &std::path::Path,
    records: &[RunRecord],
    scale: Scale,
    env: &EnvInfo,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", report_to_json(records, scale, env))
}

/// The `"schema"` tag of a parsed report document, if it has one.
pub fn doc_schema(doc: &Json) -> Option<&str> {
    doc.get("schema").and_then(Json::as_str)
}

/// Result of rendering a batch of report documents ([`render_report_docs`]).
#[derive(Debug, Default)]
pub struct ReportOutcome {
    /// Concatenated summaries of every renderable document.
    pub rendered: String,
    /// One warning per skipped document (offending path + reason).
    pub warnings: Vec<String>,
    /// Documents successfully rendered.
    pub rendered_files: usize,
    /// Documents skipped (unknown schema or malformed records).
    pub skipped_files: usize,
}

/// Renders `(label, document)` pairs — the multi-file `rpb report` path.
///
/// A document whose `"schema"` tag is not in [`KNOWN_SCHEMAS`] (or is
/// malformed) is *not* silently dropped: it produces a warning naming the
/// offending label and is counted in `skipped_files`, so a trajectory
/// directory mixing old and foreign files reports exactly what it ignored.
pub fn render_report_docs(docs: &[(String, Json)]) -> ReportOutcome {
    use std::fmt::Write as _;

    let mut out = ReportOutcome::default();
    for (label, doc) in docs {
        match render_report(doc) {
            Ok(summary) => {
                if out.rendered_files > 0 {
                    out.rendered.push('\n');
                }
                if docs.len() > 1 {
                    let _ = writeln!(out.rendered, "== {label} ==");
                }
                out.rendered.push_str(&summary);
                out.rendered_files += 1;
            }
            Err(e) => {
                out.warnings.push(format!("skipping {label}: {e}"));
                out.skipped_files += 1;
            }
        }
    }
    if out.skipped_files > 0 {
        out.warnings.push(format!(
            "{} of {} file(s) skipped (unknown schema or malformed); \
             known schemas: {}",
            out.skipped_files,
            docs.len(),
            KNOWN_SCHEMAS.join(", ")
        ));
    }
    out
}

/// Renders the human-readable `rpb report` summary from a parsed report
/// document: per-pair check-overhead attribution (Fig. 5a's question) and
/// MultiQueue behaviour (scheduler health for the Sync pairs).
pub fn render_report(doc: &Json) -> Result<String, String> {
    use std::fmt::Write as _;

    let schema = doc_schema(doc);
    if !schema.is_some_and(|s| KNOWN_SCHEMAS.contains(&s)) {
        return Err(match schema {
            Some(s) => format!(
                "unknown schema \"{s}\" (known: {})",
                KNOWN_SCHEMAS.join(", ")
            ),
            None => format!("not an {SCHEMA} report (missing \"schema\")"),
        });
    }
    let records = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("report has no \"records\" array")?;

    let mut out = String::new();
    if records.is_empty() {
        // A zero-record document is a valid "nothing ran" report, not a
        // rendering failure: note it and skip the per-record sections.
        let _ = writeln!(out, "rpb report — no records");
        return Ok(out);
    }
    let _ = writeln!(out, "rpb report — {} records", records.len());

    let field = |r: &Json, k: &str| -> Result<u64, String> {
        r.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("record missing {k}"))
    };
    let text = |r: &Json, k: &str| -> Result<String, String> {
        Ok(r.get(k)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record missing {k}"))?
            .into())
    };
    let counter = |r: &Json, name: &str| -> u64 {
        r.get("telemetry")
            .and_then(|t| t.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let histo_sum_ns = |r: &Json, name: &str| -> u64 {
        r.get("telemetry")
            .and_then(|t| t.get("histos"))
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("sum_ns"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };

    // Check-overhead attribution: for each checked run, how much of the
    // measured time went into the dynamic checks? Telemetry accumulates
    // over warmup + reps, so normalize per execution. Fig. 5(a) runs are
    // tagged "fresh" (pool disabled, allocate-per-call) or "amortized"
    // (pooled mark bitmaps + validation proofs); the pool hit/miss and
    // proof-reuse counters show the fast path at work.
    let _ = writeln!(out, "\nCheck-overhead attribution (checked-mode runs):");
    let _ = writeln!(
        out,
        "{:<12} {:<6} {:<10} {:>12} {:>13} {:>13} {:>11} {:>7} {:>7}",
        "pair",
        "figure",
        "check",
        "best_ns",
        "sngind_chk/r",
        "rngind_chk/r",
        "pool h/m",
        "proofs",
        "share"
    );
    let mut any_checked = false;
    for r in records {
        if text(r, "mode")? != "checked" {
            continue;
        }
        any_checked = true;
        let check = r.get("check").and_then(Json::as_str).unwrap_or("-");
        let best = field(r, "best_ns")?;
        let execs = field(r, "reps")? + 1; // + warmup
        let snd = histo_sum_ns(r, "sngind_check_ns") / execs;
        let rng = histo_sum_ns(r, "rngind_check_ns") / execs;
        let pool = format!(
            "{}/{}",
            counter(r, "sngind_pool_hits"),
            counter(r, "sngind_pool_misses")
        );
        let share = if best > 0 {
            (snd + rng) as f64 / best as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<12} {:<6} {:<10} {:>12} {:>13} {:>13} {:>11} {:>7} {:>6.1}%",
            text(r, "name")?,
            text(r, "figure")?,
            check,
            best,
            snd,
            rng,
            pool,
            counter(r, "sngind_proof_reuses"),
            share * 100.0
        );
    }
    if !any_checked {
        let _ = writeln!(out, "  (no checked-mode records; run with --features obs)");
    }

    // Fresh-vs-amortized roll-up: pair up tagged fig5a runs so the
    // amortization win is one number per pair.
    let mut any_pairing = false;
    for r in records {
        if r.get("check").and_then(Json::as_str) != Some("fresh") {
            continue;
        }
        let name = text(r, "name")?;
        let partner = records.iter().find(|a| {
            a.get("check").and_then(Json::as_str) == Some("amortized")
                && a.get("name").and_then(Json::as_str) == Some(name.as_str())
        });
        let Some(partner) = partner else { continue };
        if !any_pairing {
            let _ = writeln!(
                out,
                "\nAmortized-check speedup (fresh / amortized, best_ns):"
            );
            any_pairing = true;
        }
        let fresh = field(r, "best_ns")?;
        let amort = field(partner, "best_ns")?;
        let ratio = if amort > 0 {
            fresh as f64 / amort as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<12} {:>12} / {:>12} = {:.2}x",
            name, fresh, amort, ratio
        );
    }

    // MultiQueue behaviour for the Sync/MQ pairs.
    let _ = writeln!(out, "\nMultiQueue telemetry (runs with scheduler traffic):");
    let _ = writeln!(
        out,
        "{:<12} {:<6} {:>10} {:>10} {:>11} {:>10} {:>10}",
        "pair", "mode", "pushes", "pops", "empty_pops", "idle", "rank_mean"
    );
    let mut any_mq = false;
    for r in records {
        let pushes = counter(r, "mq_pushes");
        if pushes == 0 {
            continue;
        }
        any_mq = true;
        let samples = counter(r, "mq_rank_samples");
        let rank_mean = if samples > 0 {
            format!(
                "{:.2}",
                counter(r, "mq_rank_error_sum") as f64 / samples as f64
            )
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "{:<12} {:<6} {:>10} {:>10} {:>11} {:>10} {:>10}",
            text(r, "name")?,
            text(r, "mode")?,
            pushes,
            counter(r, "mq_pops"),
            counter(r, "mq_empty_pops"),
            counter(r, "exec_idle_spins"),
            rank_mean
        );
    }
    if !any_mq {
        let _ = writeln!(
            out,
            "  (no MultiQueue records; run fig4/all with --features obs)"
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn dummy_record(mode: &str) -> RunRecord {
        RunRecord::new(
            "fig4",
            "bw",
            "par",
            mode,
            2,
            TimingStats {
                best: Duration::from_nanos(1000),
                mean: Duration::from_nanos(1200),
                median: Duration::from_nanos(1100),
                mad: Duration::from_nanos(50),
                reps: 3,
            },
            Snapshot::default(),
        )
    }

    #[test]
    fn record_json_has_the_documented_fields() {
        let env = EnvInfo {
            git_sha: "abc123".into(),
            cpu_count: 4,
            rustc: "rustc x".into(),
        };
        let j = dummy_record("checked").to_json(Scale::small(), &env);
        for k in [
            "figure",
            "name",
            "kind",
            "mode",
            "threads",
            "scale",
            "reps",
            "best_ns",
            "mean_ns",
            "median_ns",
            "mad_ns",
            "telemetry",
            "env",
        ] {
            assert!(j.get(k).is_some(), "missing field {k}");
        }
        assert_eq!(j.get("best_ns").unwrap().as_u64(), Some(1000));
        assert_eq!(j.get("median_ns").unwrap().as_u64(), Some(1100));
        assert_eq!(j.get("mad_ns").unwrap().as_u64(), Some(50));
        assert_eq!(
            j.get("env").unwrap().get("git_sha").unwrap().as_str(),
            Some("abc123")
        );
        assert_eq!(
            j.get("scale").unwrap().get("seq_len").unwrap().as_u64(),
            Some(Scale::small().seq_len as u64)
        );
    }

    #[test]
    fn report_document_round_trips_and_renders() {
        let env = EnvInfo::collect();
        let recs = vec![dummy_record("checked"), dummy_record("unsafe")];
        let doc = report_to_json(&recs, Scale::small(), &env);
        let parsed = Json::parse(&doc.to_string()).expect("round trip");
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(parsed.get("records").unwrap().as_arr().unwrap().len(), 2);
        let rendered = render_report(&parsed).expect("render");
        assert!(rendered.contains("Check-overhead attribution"));
        assert!(rendered.contains("bw"));
    }

    #[test]
    fn check_field_is_emitted_only_when_tagged() {
        let env = EnvInfo {
            git_sha: "abc123".into(),
            cpu_count: 4,
            rustc: "rustc x".into(),
        };
        let plain = dummy_record("checked").to_json(Scale::small(), &env);
        assert!(plain.get("check").is_none());
        let tagged = dummy_record("checked")
            .with_check("amortized")
            .to_json(Scale::small(), &env);
        assert_eq!(tagged.get("check").unwrap().as_str(), Some("amortized"));
    }

    #[test]
    fn render_attributes_fresh_and_amortized_separately() {
        let env = EnvInfo::collect();
        let recs = vec![
            dummy_record("unsafe"),
            dummy_record("checked").with_check("fresh"),
            dummy_record("checked").with_check("amortized"),
        ];
        let doc = report_to_json(&recs, Scale::small(), &env);
        let parsed = Json::parse(&doc.to_string()).expect("round trip");
        let rendered = render_report(&parsed).expect("render");
        assert!(rendered.contains("fresh"));
        assert!(rendered.contains("amortized"));
        assert!(rendered.contains("Amortized-check speedup"));
    }

    #[test]
    fn zero_record_document_renders_a_note() {
        let env = EnvInfo::collect();
        let doc = report_to_json(&[], Scale::small(), &env);
        let parsed = Json::parse(&doc.to_string()).expect("round trip");
        let rendered = render_report(&parsed).expect("render");
        assert!(rendered.contains("no records"), "{rendered}");
        assert!(
            !rendered.contains("Check-overhead attribution"),
            "empty report skips the per-record sections: {rendered}"
        );
    }

    #[test]
    fn render_rejects_foreign_documents() {
        assert!(render_report(&Json::parse("{\"x\":1}").unwrap()).is_err());
        assert!(render_report(&Json::Null).is_err());
        let err =
            render_report(&Json::parse("{\"schema\":\"rpb-bench-v99\",\"records\":[]}").unwrap())
                .expect_err("unknown schema");
        assert!(err.contains("rpb-bench-v99"), "names the schema: {err}");
    }

    #[test]
    fn render_accepts_v1_documents() {
        // A v1 trajectory file (no median_ns/mad_ns anywhere) must keep
        // rendering after the v2 bump.
        let env = EnvInfo::collect();
        let mut doc = report_to_json(&[dummy_record("checked")], Scale::small(), &env);
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "schema" {
                    *v = Json::Str(SCHEMA_V1.into());
                }
            }
        }
        let rendered = render_report(&doc).expect("v1 renders");
        assert!(rendered.contains("Check-overhead attribution"));
    }

    #[test]
    fn report_docs_warn_on_unknown_schema_with_path_and_count() {
        let env = EnvInfo::collect();
        let good = report_to_json(&[dummy_record("checked")], Scale::small(), &env);
        let mut old = good.clone();
        if let Json::Obj(fields) = &mut old {
            for (k, v) in fields.iter_mut() {
                if k == "schema" {
                    *v = Json::Str(SCHEMA_V1.into());
                }
            }
        }
        let foreign = Json::parse("{\"schema\":\"rpb-bench-v99\",\"records\":[]}").unwrap();
        let outcome = render_report_docs(&[
            ("runs/a.json".into(), good),
            ("runs/old.json".into(), old),
            ("runs/foreign.json".into(), foreign),
        ]);
        assert_eq!(outcome.rendered_files, 2, "v2 + v1 render");
        assert_eq!(outcome.skipped_files, 1, "unknown schema skipped");
        // The warning names the offending path and the bad schema ...
        assert!(
            outcome
                .warnings
                .iter()
                .any(|w| w.contains("runs/foreign.json") && w.contains("rpb-bench-v99")),
            "warnings: {:?}",
            outcome.warnings
        );
        // ... and a final line carries the skip count.
        assert!(
            outcome.warnings.last().unwrap().contains("1 of 3"),
            "warnings: {:?}",
            outcome.warnings
        );
    }
}
