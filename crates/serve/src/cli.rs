//! CLI entry points for `rpb serve` and `rpb load`.
//!
//! Kept in this crate (rather than the bench binary) so the binary stays
//! a thin dispatcher; both functions return process exit codes and follow
//! the suite-wide convention: `0` success, `1` runtime failure, `2` usage
//! error.

use rpb_parlay::exec::BackendKind;
use rpb_suite::Scale;

use crate::farm::FarmConfig;
use crate::load::{self, LoadConfig};
use crate::server::{Server, ServerConfig};

const SERVE_USAGE: &str = "\
usage: rpb serve [options]

Boot the resident benchmark service (rpb-jobs-v1 over TCP) and block
until a client sends a `shutdown` request.

options:
  --addr HOST:PORT     bind address (default 127.0.0.1:7878; use :0 for
                       an ephemeral port, printed at boot)
  --scale S            dataset scale: gate|small|medium|large (default gate)
  --backend B          scheduling backend: rayon|mq (default rayon)
  --workers N          farm worker threads (default 1)
  --kernel-threads N   data-parallel width per worker (default 1)
  --queue-cap N        admission queue depth cap (default 8)
  --self-test          boot on an ephemeral port, drive the full serve
                       contract through a real socket, and exit 0/1
  --artifact PATH      with --self-test: write the JSON check report here
  -h, --help           this help";

const LOAD_USAGE: &str = "\
usage: rpb load --addr HOST:PORT [options]

Drive a running `rpb serve` instance: a paced request/response phase,
then a pipelined over-admission burst (sheds are expected and counted).

options:
  --addr HOST:PORT     server address (required)
  --jobs N             paced jobs (default 18)
  --burst N            pipelined burst jobs (default 64)
  --shutdown           send a shutdown request when done
  -h, --help           this help";

/// Prints a usage error and returns the usage exit code.
fn usage_error(usage: &str, msg: &str) -> i32 {
    eprintln!("error: {msg}\n\n{usage}");
    2
}

fn parse_usize(usage: &str, flag: &str, value: Option<&String>) -> Result<usize, i32> {
    let raw = value.ok_or_else(|| usage_error(usage, &format!("{flag} needs a value")))?;
    raw.parse::<usize>()
        .map_err(|_| usage_error(usage, &format!("{flag} needs an integer, got \"{raw}\"")))
}

/// `rpb serve` — returns the process exit code.
pub fn run_serve_cli(args: &[String]) -> i32 {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut scale = Scale::gate();
    let mut farm = FarmConfig {
        backend: BackendKind::Rayon,
        workers: 1,
        kernel_threads: 1,
        queue_cap: 8,
    };
    let mut self_test = false;
    let mut artifact: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return usage_error(SERVE_USAGE, "--addr needs a value"),
            },
            "--scale" => match it.next().map(|s| Scale::parse(s)) {
                Some(Ok(s)) => scale = s,
                Some(Err(e)) => return usage_error(SERVE_USAGE, &e),
                None => return usage_error(SERVE_USAGE, "--scale needs a value"),
            },
            "--backend" => match it.next().map(|s| s.parse::<BackendKind>()) {
                Some(Ok(b)) => farm.backend = b,
                Some(Err(e)) => return usage_error(SERVE_USAGE, &e.to_string()),
                None => return usage_error(SERVE_USAGE, "--backend needs a value"),
            },
            "--workers" => match parse_usize(SERVE_USAGE, "--workers", it.next()) {
                Ok(n) if n > 0 => farm.workers = n,
                Ok(_) => return usage_error(SERVE_USAGE, "--workers must be at least 1"),
                Err(code) => return code,
            },
            "--kernel-threads" => match parse_usize(SERVE_USAGE, "--kernel-threads", it.next()) {
                Ok(n) if n > 0 => farm.kernel_threads = n,
                Ok(_) => return usage_error(SERVE_USAGE, "--kernel-threads must be at least 1"),
                Err(code) => return code,
            },
            "--queue-cap" => match parse_usize(SERVE_USAGE, "--queue-cap", it.next()) {
                Ok(n) if n > 0 => farm.queue_cap = n,
                Ok(_) => return usage_error(SERVE_USAGE, "--queue-cap must be at least 1"),
                Err(code) => return code,
            },
            "--self-test" => self_test = true,
            "--artifact" => match it.next() {
                Some(p) => artifact = Some(p.clone()),
                None => return usage_error(SERVE_USAGE, "--artifact needs a value"),
            },
            "-h" | "--help" => {
                println!("{SERVE_USAGE}");
                return 0;
            }
            other => return usage_error(SERVE_USAGE, &format!("unknown option \"{other}\"")),
        }
    }

    if artifact.is_some() && !self_test {
        return usage_error(SERVE_USAGE, "--artifact only makes sense with --self-test");
    }
    if self_test {
        return load::run_self_test(farm.backend, scale, artifact.as_deref());
    }

    let server = match Server::start(ServerConfig { addr, scale, farm }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return 1;
        }
    };
    println!(
        "rpb serve: listening on {} (backend {}, {} worker(s), queue cap {})",
        server.local_addr(),
        farm.backend.label(),
        farm.workers,
        farm.queue_cap
    );
    let stats = server.join();
    println!(
        "rpb serve: drained — admitted {} shed {} completed {} failed {} depth_hwm {}",
        stats.admitted, stats.shed, stats.completed, stats.failed, stats.depth_hwm
    );
    if stats.failed == 0 {
        0
    } else {
        1
    }
}

/// `rpb load` — returns the process exit code.
pub fn run_load_cli(args: &[String]) -> i32 {
    let mut cfg = LoadConfig {
        addr: String::new(),
        ..LoadConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => cfg.addr = a.clone(),
                None => return usage_error(LOAD_USAGE, "--addr needs a value"),
            },
            "--jobs" => match parse_usize(LOAD_USAGE, "--jobs", it.next()) {
                Ok(n) => cfg.jobs = n,
                Err(code) => return code,
            },
            "--burst" => match parse_usize(LOAD_USAGE, "--burst", it.next()) {
                Ok(n) => cfg.burst = n,
                Err(code) => return code,
            },
            "--shutdown" => cfg.shutdown = true,
            "-h" | "--help" => {
                println!("{LOAD_USAGE}");
                return 0;
            }
            other => return usage_error(LOAD_USAGE, &format!("unknown option \"{other}\"")),
        }
    }
    if cfg.addr.is_empty() {
        return usage_error(LOAD_USAGE, "--addr is required");
    }
    match load::run_load(&cfg) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.errors == 0 {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("load run failed: {e}");
            1
        }
    }
}
