//! Command line: `run` one workload in this process, `all` of them in a
//! child process each, or `repeat` the whole benchmark and compare.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use rpb_obs::Json;

use crate::metrics::{end_to_end, per_layer, Metric};
use crate::trace::{self_time_by_layer, write_spans};
use crate::workloads::{self, workers, Opts, Outcome, WORKLOADS};

const USAGE: &str = "\
usage: rpb-perf [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
                      [--trace-file <path>]
       rpb-perf all    [--seed <n>] [--seconds <s>]
       rpb-perf repeat [--runs <n>] [--seed <n>] [--seconds <s>] [--bounds <BENCHMARK.json>]

run     measures one workload and prints its metrics; the last line of standard
        output is one JSON object {correct, attempted, failed, metrics}. With
        --trace 0 the metrics are the end-to-end ones, with --trace 1 the
        per-layer ones (and --trace-file writes the recorded spans).
all     runs every workload, untraced and traced, each in a process of its own.
repeat  runs the whole benchmark --runs times on this build and fails if an
        end-to-end metric moves by more than its bound in BENCHMARK.json.
workloads: batch_recommended batch_checked batch_sync serve_socket stream_pipeline";

/// Default `--seconds`, the `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses `--name value` pairs; `--inject` alone is a switch.
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = if name == "inject" {
                "1".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    fn allow(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

pub fn main(args: Vec<String>) -> i32 {
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("all") => ("all", &args[1..]),
        Some("repeat") => ("repeat", &args[1..]),
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
            return if args.is_empty() { 2 } else { 0 };
        }
        // The driver's form: flags only.
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            return 2;
        }
    };
    let result = Args::parse(rest).and_then(|a| match command {
        "run" => run(&a),
        "all" => all(&a).map(|runs| i32::from(runs.iter().any(|r| !r.correct))),
        _ => repeat(&a),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rpb-perf: {e}");
            2
        }
    }
}

fn run(a: &Args) -> Result<i32, String> {
    a.allow(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "trace-file",
        "inject",
    ])?;
    let workload: String = a.get("workload", String::new())?;
    if workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    let trace = match a.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let mut opts = Opts::new(
        &workload,
        a.get("seed", 0)?,
        a.get("seconds", DEFAULT_SECONDS)?,
        trace,
    );
    opts.inject = a.flags.contains_key("inject");
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], not {}",
            opts.seconds
        ));
    }
    let outcome = workloads::run(&opts)?;
    if let Some(path) = a.flags.get("trace-file") {
        let path = PathBuf::from(path);
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        write_spans(&mut std::io::BufWriter::new(file), &outcome.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(print_outcome(&opts, &outcome))
}

/// First line a tool prints (`rustc --version`), or `unknown`: the
/// benchmark also runs where there is no git repository.
fn tool_line(program: &str, args: &[&str]) -> String {
    // git must not look for a repository above the directory the benchmark
    // runs in.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints the run's detail, then the result object as the last line.
/// Returns the exit code: 0 only if nothing failed.
pub fn print_outcome(opts: &Opts, outcome: &Outcome) -> i32 {
    let env = Json::Obj(vec![
        ("workload".into(), Json::Str(opts.workload.clone())),
        ("seed".into(), Json::from_u64(opts.seed)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("trace".into(), Json::Bool(opts.trace)),
        ("setups".into(), Json::from_u64(opts.setups as u64)),
        (
            "nproc".into(),
            Json::from_u64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("workers".into(), Json::from_u64(workers() as u64)),
        (
            "features".into(),
            Json::Str("default (no obs, no simd)".into()),
        ),
        (
            "backend".into(),
            Json::Str("rayon (perf/stubs/rayon)".into()),
        ),
        ("channel".into(), Json::Str("mpsc".into())),
        (
            "rustc".into(),
            Json::Str(tool_line("rustc", &["--version"])),
        ),
        (
            "git".into(),
            Json::Str(tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ]);
    println!("{}", Json::Obj(vec![("env".into(), env)]));
    for note in &outcome.notes {
        println!("# {note}");
    }
    if opts.trace {
        let by_layer = self_time_by_layer(&outcome.spans);
        let total: u64 = by_layer.values().sum();
        for (layer, ns) in &by_layer {
            println!(
                "# self time {layer:10} {:10.3} ms ({:5.1} %)",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
    }
    let declared: Vec<Metric> = if opts.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let values = outcome.report.resolve(&declared, !opts.trace);
    for (name, value, unit) in &values {
        println!("{name:40} {value:16.6} {unit}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let metrics = values
        .into_iter()
        .map(|(name, value, unit)| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]);
            (name, entry)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from_u64(outcome.attempted.max(1))),
        ("failed".into(), Json::from_u64(outcome.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    i32::from(!correct)
}

/// What a child `run` reported.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a child process and reads back its last line.
fn child(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| {
        format!(
            "{workload}: no output\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let doc = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let correct = doc.get("correct") == Some(&Json::Bool(true)) && output.status.success();
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err(format!("{workload}: result has no metrics"));
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect();
    Ok(ChildRun {
        workload,
        trace,
        correct,
        metrics,
    })
}

fn all(a: &Args) -> Result<Vec<ChildRun>, String> {
    a.allow(&["seed", "seconds", "runs", "bounds"])?;
    let (seed, seconds) = (a.get("seed", 0)?, a.get("seconds", DEFAULT_SECONDS)?);
    let mut runs = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let run = child(workload, seed, seconds, trace)?;
            println!(
                "== {workload} ({}){}",
                if trace { "per layer" } else { "end to end" },
                if run.correct { "" } else { "  ** FAILED **" }
            );
            for (name, value, unit) in &run.metrics {
                // A traced run lists every layer; show the ones it measured.
                if !trace || *value != 0.0 {
                    println!("{name:40} {value:16.6} {unit}");
                }
            }
            runs.push(run);
        }
    }
    Ok(runs)
}

/// `better` and `bound` of every end-to-end metric in BENCHMARK.json.
fn read_bounds(path: &str) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), (lower, bound)))
        })
        .collect()
}

fn repeat(a: &Args) -> Result<i32, String> {
    let n: usize = a.get("runs", 2)?;
    let bounds = read_bounds(&a.get("bounds", "BENCHMARK.json".to_string())?)?;
    let mut sets = Vec::new();
    for i in 0..n.max(2) {
        println!("==== run {} of {}", i + 1, n.max(2));
        sets.push(all(a)?);
    }
    let mut worst = 0;
    let first = &sets[0];
    for later in &sets[1..] {
        for (base, run) in first.iter().zip(later) {
            if base.trace {
                continue;
            }
            for ((name, before, _), (_, after, _)) in base.metrics.iter().zip(&run.metrics) {
                let Some(&(lower, bound)) = bounds.get(name) else {
                    return Err(format!("{name} has no bound in BENCHMARK.json"));
                };
                // Same build on both sides: the metric may move by its bound
                // in either direction.
                let worse = if lower {
                    after / before - 1.0
                } else {
                    before / after - 1.0
                };
                let moved = worse.abs();
                let verdict = if moved > bound { "OUT OF BOUND" } else { "ok" };
                println!(
                    "{:18} {name:22} {before:12.4} -> {after:12.4}  {:+6.1} % (bound {:.0} %)  {verdict}",
                    base.workload,
                    worse * 100.0,
                    bound * 100.0
                );
                worst = worst.max(i32::from(moved > bound));
            }
        }
    }
    let failed = sets.iter().flatten().any(|r| !r.correct);
    Ok(worst.max(i32::from(failed)))
}
