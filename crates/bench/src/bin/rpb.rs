//! The `rpb` harness binary: regenerates every table and figure of the
//! paper. See `rpb help`.

use std::path::PathBuf;

use rpb_bench::record::{self, EnvInfo};
use rpb_bench::{emit, figures, RunRecord, Scale, Workloads};
use rpb_parlay::exec::set_default_backend;
use rpb_parlay::Selector;
use rpb_pipeline::set_default_channel;

fn main() {
    // Fill the MultiQueue slot of the executor registry before any
    // --backend/RPB_BACKEND resolution can reach it.
    rpb_multiqueue::backend::ensure_registered();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    if cmd == "gate" {
        // The gate has its own flag grammar (record|compare|check).
        std::process::exit(rpb_bench::gate::run_cli(&args[1..]));
    }
    if cmd == "serve" {
        // The resident benchmark service (own flag grammar).
        std::process::exit(rpb_serve::cli::run_serve_cli(&args[1..]));
    }
    if cmd == "load" {
        // The bundled load generator (own flag grammar).
        std::process::exit(rpb_serve::cli::run_load_cli(&args[1..]));
    }
    // Unknown subcommands are usage errors (exit 2), not a silent help
    // dump with exit 0 — CI scripts depend on the distinction.
    const COMMANDS: &[&str] = &[
        "table1", "table2", "table3", "fig3", "fig4", "fig5a", "fig5b", "fig6", "all", "verify",
        "report", "help", "-h", "--help",
    ];
    if !COMMANDS.contains(&cmd) {
        die(&format!("unknown command \"{cmd}\" (see `rpb help`)"));
    }
    let mut scale = Scale::default();
    let mut threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut reps = 3usize;
    let mut json_path: Option<PathBuf> = None;
    let mut report_paths: Vec<PathBuf> = Vec::new();
    let mut verify_cfg = rpb_bench::verifier::VerifyConfig::default();
    let mut workers_given = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(args.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|e| die(&e));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| die("--reps needs a number"));
            }
            "--json" => {
                i += 1;
                json_path = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| die("--json needs a path")),
                ));
            }
            "--suite" if cmd == "verify" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| die("--suite needs a list"));
                verify_cfg.benches = list.split(',').map(str::to_string).collect();
            }
            "--mode" if cmd == "verify" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| die("--mode needs a list"));
                verify_cfg.modes = list
                    .split(',')
                    .map(|m| m.parse().unwrap_or_else(|e| die(&format!("{e}"))))
                    .collect();
            }
            "--workers" if cmd == "verify" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| die("--workers needs a list"));
                verify_cfg.workers = list
                    .split(',')
                    .map(|n| {
                        n.parse()
                            .unwrap_or_else(|_| die("--workers needs positive integers"))
                    })
                    .collect();
                workers_given = true;
            }
            "--kernel-impl" if cmd == "verify" => {
                i += 1;
                verify_cfg.kernel_impls = axis_list("--kernel-impl", args.get(i));
            }
            "--backend" => {
                i += 1;
                let backends = axis_list("--backend", args.get(i));
                if cmd == "verify" {
                    verify_cfg.backends = backends;
                } else {
                    set_default_backend(Some(one_value("--backend", &backends)));
                }
            }
            "--streaming" if cmd == "verify" => {
                verify_cfg.streaming = true;
            }
            "--channel" => {
                i += 1;
                let channels = axis_list("--channel", args.get(i));
                if cmd == "verify" {
                    verify_cfg.channels = channels;
                } else {
                    set_default_channel(Some(one_value("--channel", &channels)));
                }
            }
            "--inject" if cmd == "verify" => {
                i += 1;
                let bench = args
                    .get(i)
                    .unwrap_or_else(|| die("--inject needs a benchmark"));
                verify_cfg.inject = Some(bench.clone());
            }
            other if cmd == "report" && !other.starts_with('-') => {
                report_paths.push(PathBuf::from(other));
            }
            other => die(&format!("unknown option {other}")),
        }
        i += 1;
    }
    // Worker/thread counts are validated here, at parse time, so a typo'd
    // `--workers 0` dies with a typed usage error before the (expensive)
    // workload build rather than deep inside a pool constructor.
    rpb_bench::verifier::validate_workers(&[threads])
        .unwrap_or_else(|e| die(&format!("--threads: {e}")));
    if !workers_given {
        // Default worker matrix: serial, minimal contention, full width.
        verify_cfg.workers = vec![1, 2, threads];
        verify_cfg.workers.sort_unstable();
        verify_cfg.workers.dedup();
    }
    if cmd == "verify" {
        rpb_bench::verifier::validate_workers(&verify_cfg.workers)
            .unwrap_or_else(|e| die(&format!("--workers: {e}")));
    }
    if json_path.is_some() && !matches!(cmd, "fig4" | "fig5a" | "fig5b" | "all") {
        die("--json only applies to fig4|fig5a|fig5b|all");
    }

    let needs_workloads = matches!(
        cmd,
        "table2" | "fig4" | "fig5a" | "fig5b" | "all" | "verify"
    );
    let workloads = needs_workloads.then(|| {
        eprintln!(
            "building workloads (text {}B, seq {}, graph {}, points {})...",
            scale.text_len, scale.seq_len, scale.graph_n, scale.points_n
        );
        Workloads::build(scale)
    });
    let w = workloads.as_ref();

    let mut recs: Vec<RunRecord> = Vec::new();
    match cmd {
        "table1" => emit(&figures::table1()),
        "table2" => emit(&figures::table2(w.expect("workloads"))),
        "table3" => emit(&figures::table3()),
        "fig3" => emit(&figures::fig3()),
        "fig4" => emit(&figures::fig4(
            w.expect("workloads"),
            threads,
            reps,
            &mut recs,
        )),
        "fig5a" => emit(&figures::fig5a(
            w.expect("workloads"),
            threads,
            reps,
            &mut recs,
        )),
        "fig5b" => emit(&figures::fig5b(
            w.expect("workloads"),
            threads,
            reps,
            &mut recs,
        )),
        "fig6" => emit(&figures::fig6_report(scale.seq_len, reps)),
        "verify" => {
            let outcome = rpb_bench::verifier::run_matrix(w.expect("workloads"), &verify_cfg)
                .unwrap_or_else(|e| die(&e));
            emit(&outcome.rendered);
            if !outcome.failures.is_empty() {
                std::process::exit(rpb_bench::verifier::EXIT_DIVERGENCE);
            }
        }
        "report" => {
            if report_paths.is_empty() {
                die("report needs at least one JSON file path");
            }
            let mut empty_files = 0usize;
            let mut docs: Vec<(String, rpb_obs::Json)> = Vec::new();
            for path in &report_paths {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
                // An empty file is a valid "nothing ran yet" report — note
                // it and exit cleanly rather than failing to parse.
                if text.trim().is_empty() {
                    emit(&format!("rpb report — no records ({})\n", path.display()));
                    empty_files += 1;
                    continue;
                }
                let doc = rpb_obs::Json::parse(&text)
                    .unwrap_or_else(|e| die(&format!("cannot parse {}: {e}", path.display())));
                docs.push((path.display().to_string(), doc));
            }
            let outcome = record::render_report_docs(&docs);
            emit(&outcome.rendered);
            for w in &outcome.warnings {
                eprintln!("rpb report: warning: {w}");
            }
            if outcome.rendered_files == 0 && empty_files == 0 {
                die("no renderable report files");
            }
        }
        "all" => {
            let w = w.expect("workloads");
            emit(&(figures::table1() + "\n"));
            emit(&(figures::table2(w) + "\n"));
            emit(&(figures::table3() + "\n"));
            emit(&(figures::fig3() + "\n"));
            emit(&(figures::fig4(w, threads, reps, &mut recs) + "\n"));
            emit(&(figures::fig5a(w, threads, reps, &mut recs) + "\n"));
            emit(&(figures::fig5b(w, threads, reps, &mut recs) + "\n"));
            emit(&(figures::fig6_report(scale.seq_len, reps) + "\n"));
        }
        _ => {
            emit(
                "rpb — regenerate the tables and figures of\n\
                 \"When Is Parallelism Fearless and Zero-Cost with Rust?\" (SPAA'24)\n\n\
                 usage: rpb <table1|table2|table3|fig3|fig4|fig5a|fig5b|fig6|all|verify>\n\
                 \x20       [--scale gate|small|medium|large] [--threads N] [--reps N] [--json PATH]\n\
                 \x20       [--backend rayon|mq]\n\
                 \x20      rpb verify [--suite a,b,...] [--mode unsafe,checked,sync]\n\
                 \x20                 [--workers 1,2,...] [--kernel-impl auto,scalar,simd]\n\
                 \x20                 [--backend rayon,mq]\n\
                 \x20                 [--streaming] [--channel mpsc,crossbeam]\n\
                 \x20                 # differential verification matrix\n\
                 \x20      rpb report <file.json>...      # summarize --json reports\n\
                 \x20      rpb gate <record|compare|check> # deterministic perf gate\n\
                 \x20      rpb serve [--self-test]        # resident benchmark service\n\
                 \x20      rpb load --addr HOST:PORT      # drive a running service\n\n\
                 `rpb verify` runs every benchmark's parallel implementation\n\
                 against its sequential oracle and structural invariant checker\n\
                 in each execution mode and worker-pool size, exiting 1 on any\n\
                 divergence (see EXPERIMENTS.md, \"Output verification\").\n\
                 --kernel-impl scalar,simd repeats every cell with the SIMD\n\
                 dispatch pinned to each implementation (meaningful in\n\
                 --features simd builds; forcing simd never exceeds what the\n\
                 CPU supports), differentially verifying the vectorized fast\n\
                 paths against their mandatory scalar fallbacks.\n\
                 --backend rayon,mq repeats every cell on each scheduling\n\
                 backend (rayon = scope tasks on the ambient pool, mq =\n\
                 dedicated scoped threads), cross-checking the executor\n\
                 substrates against each other and the sequential oracle.\n\
                 Outside `rpb verify` the flag takes one value and sets the\n\
                 process-default backend (also: RPB_BACKEND=rayon|mq).\n\
                 --streaming switches the matrix to the chunked pipeline\n\
                 variants (hist, dedup, bfs over rpb-pipeline skeletons):\n\
                 streaming output must agree exactly with the batch oracles\n\
                 and honor the bounded in-flight memory claim. --channel\n\
                 mpsc,crossbeam repeats every streaming cell on each channel\n\
                 backend; outside `rpb verify` the flag takes one value and\n\
                 sets the process-default channel (also:\n\
                 RPB_CHANNEL=mpsc|crossbeam).\n\
                 --json writes one structured record per timed case (schema\n\
                 \"rpb-bench-v2\"); telemetry fields are all-zero unless built\n\
                 with --features obs. `rpb report` renders the check-overhead\n\
                 and MultiQueue summaries from such files (v1 files remain\n\
                 readable; unknown schemas warn instead of silently skipping).\n\
                 `rpb gate` records and checks committed perf baselines — see\n\
                 `rpb gate` with no arguments and EXPERIMENTS.md.\n",
            );
        }
    }

    if let Some(path) = json_path {
        let env = EnvInfo::collect();
        record::write_json(&path, &recs, scale, &env)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        eprintln!("wrote {} records to {}", recs.len(), path.display());
    }
}

/// The de-duplicated comma list of a run-time axis flag.
fn axis_list<S: Selector>(flag: &str, value: Option<&String>) -> Vec<S> {
    let list = value.unwrap_or_else(|| die(&format!("{flag} needs a list ({})", S::labels(","))));
    S::parse_list(list).unwrap_or_else(|e| die(&e.to_string()))
}

/// Outside `rpb verify` an axis flag names the one process default.
fn one_value<S: Copy>(flag: &str, values: &[S]) -> S {
    match values {
        [one] => *one,
        _ => die(&format!(
            "{flag} takes one value outside `rpb verify` (a comma list is only a \
             verify-matrix axis)"
        )),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("rpb: {msg}");
    std::process::exit(2);
}
