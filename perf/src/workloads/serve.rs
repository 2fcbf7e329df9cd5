//! `serve_socket`: `rpb serve` driven over loopback TCP.
//!
//! An in-process `Server::start` on `127.0.0.1:0` at `Scale::gate()` (one
//! farm worker, one kernel thread, queue cap 8) is driven by two closed-loop
//! connections of the repo's own client (`rpb_serve::load::Client`, what
//! `rpb load` uses): each sends its next request only after the previous
//! reply, as callers that wait for an answer do. Every connection walks a
//! seeded shuffle of an equal-count mix of the six job kinds in `Checked`
//! mode. At gate scale a job is 0.04–0.9 ms, so frame parse/serialize,
//! thread hand-offs, admission and queue wait are a large share of the
//! service's own time — the layers no batch workload touches. (At this
//! commit two TCP timers of 44 ms each sit on top of every round trip; see
//! README.md.)
//!
//! The seed permutes request order only: the server preloads its own pinned
//! datasets (`Datasets::preload`), which the benchmark cannot seed.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rpb_fearless::{pool, ExecMode};
use rpb_obs::Json;
use rpb_parlay::exec::BackendKind;
use rpb_parlay::random::SeqRng;
use rpb_serve::farm::{Job, Outcome as JobOutcome};
use rpb_serve::jobs::{run_job, ALL_KINDS};
use rpb_serve::load::{Client, Response};
use rpb_serve::proto::{self, Request, RequestKind};
use rpb_serve::server::{Server, ServerConfig};
use rpb_serve::{Admission, Datasets, Farm, FarmConfig, JobKind};
use rpb_suite::Scale;

use crate::engine::EndToEnd;
use crate::metrics::{Report, JOB_KINDS};
use crate::pool::ResidentPool;
use crate::probes;
use crate::stats::{gmean, highest_percentile, median, percentile, Summary};
use crate::trace::{Span, Tracer};
use crate::workloads::{probe, Opts, Outcome, SETUP_ONLY};

/// Closed-loop connections (never more than cores).
const CLIENTS: usize = 2;
/// Requests of each kind in one connection's shuffled cycle.
const PER_KIND: usize = 100;
const MODE: ExecMode = ExecMode::Checked;

fn farm_config() -> FarmConfig {
    FarmConfig {
        backend: BackendKind::Rayon,
        workers: 1,
        kernel_threads: 1,
        queue_cap: 8,
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(&addr.to_string()).map_err(|e| format!("connect {addr}: {e}"))
}

/// One round trip of the shipped client, its two calls a span each.
fn call(
    client: &mut Client,
    t: &mut Tracer,
    op: u64,
    kind: RequestKind,
) -> Result<Response, String> {
    let id = t
        .span("serve", "client_send", op, || client.send(kind))
        .map_err(|e| format!("send: {e}"))?;
    let reply = t.span("serve", "client_recv", op, || client.recv())?;
    if reply.id != Some(id) {
        return Err(format!(
            "response id {:?} does not match request {id}",
            reply.id
        ));
    }
    Ok(reply)
}

/// A connection with both of TCP's timers out of a round trip: it sends a
/// frame as one segment (`TCP_NODELAY`, one write) and acknowledges what
/// arrives at once (`TCP_QUICKACK`, set again before every read because the
/// kernel clears it). Against a server that writes a frame in two pieces on a
/// Nagle socket this is the round trip without the 40 ms waits, which the
/// shipped client above pays; only a probe uses it.
struct PromptConn {
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl PromptConn {
    fn connect(addr: SocketAddr) -> Result<PromptConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(PromptConn {
            reader: BufReader::new(stream),
            next_id: 1,
        })
    }

    #[cfg(target_os = "linux")]
    fn acknowledge_at_once(&self) {
        use std::os::linux::net::TcpStreamExt;
        let _ = self.reader.get_ref().set_quickack(true);
    }

    #[cfg(not(target_os = "linux"))]
    fn acknowledge_at_once(&self) {}

    /// One round trip; returns the reply's status.
    fn call(&mut self, kind: RequestKind) -> Result<String, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = Vec::with_capacity(256);
        proto::write_frame(&mut frame, &Request { id, kind }.to_json().to_string())
            .and_then(|()| self.reader.get_mut().write_all(&frame))
            .map_err(|e| format!("send: {e}"))?;
        self.acknowledge_at_once();
        let payload = proto::read_frame(&mut self.reader)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("server closed the connection")?;
        let text = std::str::from_utf8(&payload).map_err(|e| format!("non-UTF-8 frame: {e}"))?;
        let (got, status, _) = proto::split_response(&Json::parse(text)?)?;
        if got != Some(id) {
            return Err(format!("response id {got:?} does not match request {id}"));
        }
        Ok(status)
    }
}

/// One request's latency, in ms.
struct Sample {
    kind: usize,
    ms: f64,
    traced: bool,
}

#[derive(Default)]
struct LoopResult {
    samples: Vec<Sample>,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
    wall_s: f64,
}

/// The digest a job kind's reply must carry.
fn digest(body: &Json) -> Option<u64> {
    body.get("digest").and_then(Json::as_u64)
}

/// The server the closed loops drive and what it must answer.
#[derive(Clone, Copy)]
struct Target {
    addr: SocketAddr,
    /// The digest every reply of a kind must carry.
    expected: [u64; 6],
    /// Permutes each connection's request order.
    seed: u64,
}

/// Sends requests one at a time until `stop`, walking a shuffled cycle of
/// the six kinds. Every request is a root span; with an enabled tracer, odd
/// requests also record their steps and even ones do not.
fn closed_loop(
    target: Target,
    thread: u32,
    stop: &AtomicBool,
    trace: Option<Instant>,
    corrupt_first: bool,
) -> LoopResult {
    let Target {
        addr,
        expected,
        seed,
    } = target;
    let mut out = LoopResult::default();
    let mut t = match trace {
        Some(epoch) => Tracer::new(true, thread, epoch, 1 << 16),
        None => Tracer::disabled(),
    };
    let mut order: Vec<usize> = (0..ALL_KINDS.len() * PER_KIND)
        .map(|i| i % ALL_KINDS.len())
        .collect();
    let mut rng = SeqRng::new(seed ^ (u64::from(thread) << 32));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failed = 1;
            out.errors.push(e);
            return out;
        }
    };
    let started = Instant::now();
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let kind = order[n as usize % order.len()];
        let traced = t.enabled() && n % 2 == 1;
        let t0 = Instant::now();
        let root = t.begin("serve", "request", n);
        t.set_paused(!traced);
        let reply = call(
            &mut client,
            &mut t,
            n,
            RequestKind::Job(ALL_KINDS[kind], MODE),
        );
        t.set_paused(false);
        t.end(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(reply) => {
                let mut got = digest(&reply.body);
                if corrupt_first && n == 0 {
                    got = got.map(|d| d ^ 1);
                }
                if reply.status != "ok" || got != Some(expected[kind]) {
                    out.failed += 1;
                    out.errors.push(format!(
                        "{} request {n}: status {}, digest {got:?}, expected {}",
                        JOB_KINDS[kind], reply.status, expected[kind]
                    ));
                }
                out.samples.push(Sample { kind, ms, traced });
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                break;
            }
        }
        n += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.spans = t.into_spans();
    out
}

/// Runs `clients` closed loops against `target` for `seconds`; with
/// `inject`, the first loop corrupts the first digest it reads.
fn closed_loop_phase(
    target: Target,
    clients: usize,
    seconds: f64,
    trace: Option<Instant>,
    first_thread: u32,
    inject: bool,
) -> Vec<LoopResult> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = &stop;
                let thread = first_thread + c as u32;
                let corrupt = inject && c == 0;
                s.spawn(move || closed_loop(target, thread, stop, trace, corrupt))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Median latency per kind over the untraced samples.
fn per_kind_ms(samples: &[&Sample]) -> [f64; 6] {
    let mut out = [f64::NAN; 6];
    for (kind, slot) in out.iter_mut().enumerate() {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect();
        if !ms.is_empty() {
            *slot = median(&ms);
        }
    }
    out
}

/// Times (ms) of direct `run_job` calls per kind, in a resident pool as wide
/// as the farm's kernels, round-robin over kinds for `seconds`. The whole
/// phase is one closure on the pool's thread: the jobs run back to back, as
/// on a farm worker that always finds its next job queued, so a sample holds
/// the job and no wake-up. Returns the median per kind.
fn direct_jobs(data: &Datasets, seconds: f64) -> [f64; 6] {
    let cfg = farm_config();
    let measured: [Vec<f64>; 6] = std::thread::scope(|s| {
        let pool = ResidentPool::install(s, cfg.backend, cfg.kernel_threads);
        pool.run(move || {
            let call = |kind: JobKind| {
                let t0 = Instant::now();
                std::hint::black_box(
                    run_job(kind, MODE, cfg.backend, cfg.kernel_threads, data).expect("job runs"),
                );
                t0.elapsed().as_secs_f64() * 1e3
            };
            for kind in ALL_KINDS {
                call(kind);
            }
            let mut out: [Vec<f64>; 6] = Default::default();
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let mut rounds = 0;
            while rounds < 3 || Instant::now() < deadline {
                for (slot, kind) in out.iter_mut().zip(ALL_KINDS) {
                    slot.push(call(kind));
                }
                rounds += 1;
            }
            out
        })
    });
    measured.map(|ms| median(&ms))
}

/// Stops a server from this side and waits for its threads.
fn shut_down(server: Server) {
    server.request_shutdown();
    server.join();
}

/// Set-up: boot a server (which preloads its datasets), then one request of
/// each kind, so that the validation pool and the kernel pool exist before
/// any timing.
fn set_up(
    tracer: &mut Tracer,
    config: ServerConfig,
    expected: &[u64; 6],
    epoch: usize,
) -> Result<Server, String> {
    let server = tracer
        .span("serve", "boot", epoch as u64, || Server::start(config))
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = connect(server.local_addr())?;
    for (kind, want) in ALL_KINDS.into_iter().zip(expected) {
        let reply = client.call(RequestKind::Job(kind, MODE))?;
        if reply.status != "ok" || digest(&reply.body) != Some(*want) {
            return Err(format!(
                "warm-up {} answered {}",
                kind.label(),
                reply.status
            ));
        }
    }
    Ok(server)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let scale = opts.scale.unwrap_or_else(Scale::gate);
    let epoch0 = Instant::now();
    let mut tracer = Tracer::new(opts.trace, 0, epoch0, 1 << 14);
    let config = || ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scale,
        farm: farm_config(),
    };

    // What every reply must say: the digest of a direct run of its kind on
    // the datasets every server of this scale preloads.
    let data = Datasets::preload(scale);
    let cfg = farm_config();
    let mut expected = [0u64; 6];
    std::thread::scope(|s| {
        let pool = ResidentPool::install(s, cfg.backend, cfg.kernel_threads);
        let data = &data;
        for (slot, kind) in expected.iter_mut().zip(ALL_KINDS) {
            let body = pool.run(move || run_job(kind, MODE, cfg.backend, cfg.kernel_threads, data));
            *slot = body.ok().as_ref().and_then(digest).unwrap_or(0);
        }
    });

    let mut report = Report::default();
    let mut notes = Vec::new();
    let epochs = opts.setups.max(1);
    // Shares of `seconds` for the closed loops and for the direct jobs. The
    // round trips repeat to a thousandth; the direct jobs, single-threaded
    // kernels of 35–900 us, are what moves from run to run.
    let shares = if opts.trace { (0.4, 0.15) } else { (0.5, 0.5) };
    let trace_epoch = opts.trace.then_some(epoch0);
    let mut setups = Vec::with_capacity(epochs + SETUP_ONLY);
    let mut main_phase: Vec<LoopResult> = Vec::new();
    // Median direct-job time per kind, one row per epoch.
    let mut direct_epochs: Vec<[f64; 6]> = Vec::with_capacity(epochs);
    // Datasets of earlier epochs stay allocated, so each epoch's land
    // somewhere new.
    let mut held = vec![data];
    let mut last_server = None;
    for epoch in 0..epochs {
        let t0 = Instant::now();
        let server = set_up(&mut tracer, config(), &expected, epoch)?;
        let addr = server.local_addr();
        setups.push(t0.elapsed().as_secs_f64());
        if epoch == 0 {
            pool::reset_stats();
        }

        let first_thread = (1 + epoch * CLIENTS) as u32;
        let slice = opts.seconds / epochs as f64;
        let target = Target {
            addr,
            expected,
            seed: opts.seed,
        };
        main_phase.extend(closed_loop_phase(
            target,
            CLIENTS,
            slice * shares.0,
            trace_epoch,
            first_thread,
            opts.inject && epoch == 0,
        ));
        if epoch > 0 {
            held.push(Datasets::preload(scale));
        }
        direct_epochs.push(direct_jobs(&held[epoch], slice * shares.1));
        if epoch + 1 == epochs {
            last_server = Some(server);
        } else {
            shut_down(server);
        }
    }
    let server = last_server.expect("at least one epoch");
    let addr = server.local_addr();
    let direct: [f64; 6] =
        std::array::from_fn(|k| median(&direct_epochs.iter().map(|e| e[k]).collect::<Vec<_>>()));

    let mut attempted: u64 = main_phase
        .iter()
        .map(|l| l.samples.len() as u64 + l.failed)
        .sum();
    let mut failed: u64 = main_phase.iter().map(|l| l.failed).sum();
    for e in main_phase.iter().flat_map(|l| &l.errors).take(5) {
        notes.push(format!("FAILED request: {e}"));
    }
    let untraced: Vec<&Sample> = main_phase
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| !s.traced)
        .collect();
    let rtt = per_kind_ms(&untraced);
    let all_ms: Vec<f64> = untraced.iter().map(|s| s.ms).collect();
    if all_ms.is_empty() || rtt.iter().any(|v| v.is_nan()) {
        return Err(format!(
            "closed-loop phase produced no samples for some job kind: {:?}",
            main_phase
                .iter()
                .flat_map(|l| &l.errors)
                .take(3)
                .collect::<Vec<_>>()
        ));
    }
    let summary = Summary::of(&all_ms);
    let tail = highest_percentile(&all_ms);
    notes.push(format!(
        "latency: median {:.3} ms (q1 {:.3}, q3 {:.3}, n {}), tail {}",
        summary.median,
        summary.q1,
        summary.q3,
        summary.n,
        tail.map_or("unresolved".to_string(), |(p, v)| format!("p{p} {v:.3} ms"))
    ));
    for (kind, name) in JOB_KINDS.iter().enumerate() {
        notes.push(format!(
            "{name:6} round trip {:.3} ms, direct job {:.3} ms, ratio {:.2}",
            rtt[kind],
            direct[kind],
            rtt[kind] / direct[kind]
        ));
    }

    let mut spans = tracer.into_spans();
    if opts.trace {
        // Every epoch runs `CLIENTS` loops side by side for the same time.
        let wall_s = main_phase.iter().map(|l| l.wall_s).sum::<f64>() / CLIENTS as f64;
        let ok: usize = main_phase.iter().map(|l| l.samples.len()).sum();
        report.set("serve.p50_ms", summary.median);
        // p99 when 10 samples lie beyond it, else the highest percentile
        // that has them (the note above says which).
        report.set(
            "serve.tail_ms",
            percentile(&all_ms, 99.0)
                .or(tail.map(|(_, v)| v))
                .unwrap_or(summary.q3),
        );
        report.set("serve.jobs_per_s", ok as f64 / wall_s);
        for (kind, name) in JOB_KINDS.iter().enumerate() {
            report.set(format!("serve.job_{name}_us"), direct[kind] * 1e3);
        }
        let traced_ratio: Vec<f64> = (0..6)
            .filter_map(|k| {
                let of = |traced: bool| -> Vec<f64> {
                    main_phase
                        .iter()
                        .flat_map(|l| &l.samples)
                        .filter(|s| s.kind == k && s.traced == traced)
                        .map(|s| s.ms)
                        .collect()
                };
                let (on, off) = (of(true), of(false));
                (!on.is_empty() && !off.is_empty()).then(|| median(&on) / median(&off))
            })
            .collect();
        report.set(
            "trace.overhead_share",
            if traced_ratio.is_empty() {
                0.0
            } else {
                gmean(&traced_ratio) - 1.0
            },
        );

        // One client alone: the transport and service path without the other
        // client's job ahead in the queue.
        let target = Target {
            addr,
            expected,
            seed: opts.seed,
        };
        let solo = closed_loop_phase(target, 1, opts.seconds * 0.15, None, 0, false);
        attempted += solo
            .iter()
            .map(|l| l.samples.len() as u64 + l.failed)
            .sum::<u64>();
        failed += solo.iter().map(|l| l.failed).sum::<u64>();
        let solo_samples: Vec<&Sample> = solo.iter().flat_map(|l| &l.samples).collect();
        let solo_rtt = per_kind_ms(&solo_samples);
        let overhead: Vec<f64> = (0..6)
            .filter(|&k| !solo_rtt[k].is_nan())
            .map(|k| (solo_rtt[k] - direct[k]) * 1e3)
            .collect();
        report.set(
            "serve.overhead_us",
            if overhead.is_empty() {
                0.0
            } else {
                median(&overhead)
            },
        );
        let solo_p50 = median(&solo_samples.iter().map(|s| s.ms).collect::<Vec<_>>());
        report.set(
            "serve.queue_wait_share",
            (summary.median - solo_p50) / summary.median,
        );

        let mut t = Tracer::new(true, u32::MAX, epoch0, 1 << 14);
        serve_probes(&mut t, addr, scale, &direct, &mut report)?;
        report.set("fearless.pool_miss_share", {
            let p = pool::stats();
            p.misses as f64 / (p.hits + p.misses).max(1) as f64
        });
        report.set(
            "serve.boot_ms",
            probes::setup_span_ms(&spans, "serve", "boot"),
        );
        // Wire shutdown; `join` drains the farm and closes the connections.
        let mut client = connect(addr)?;
        call(&mut client, &mut t, 0, RequestKind::Shutdown)?;
        let t0 = Instant::now();
        let open = t.begin("serve", "drain", 0);
        let farm_stats = server.join();
        t.end(open);
        report.set("serve.drain_ms", t0.elapsed().as_secs_f64() * 1e3);
        notes.push(format!("farm at shutdown: {farm_stats:?}"));
        for l in main_phase {
            spans.extend(l.spans);
        }
        spans.extend(t.into_spans());
    } else {
        shut_down(server);
        // `setup_s` alone: more set-ups, measuring nothing.
        for extra in epochs..epochs + SETUP_ONLY {
            let t0 = Instant::now();
            let server = set_up(&mut Tracer::disabled(), config(), &expected, extra)?;
            setups.push(t0.elapsed().as_secs_f64());
            shut_down(server);
        }
        notes.push(format!("{} set-ups", setups.len()));
        let setup_s = median(&setups);
        let total_ms: f64 = rtt.iter().sum();
        // `over_baseline` is one cycle of the mix through the socket over
        // the same jobs called directly. A ratio of sums, not a mean of
        // ratios: `hist` runs for 35 us at this scale and its direct time
        // moves by a fifth from process to process, which a mean of ratios
        // would pass on.
        let e = EndToEnd {
            op_ms: gmean(&rtt),
            total_ms,
            over_baseline: total_ms / direct.iter().sum::<f64>(),
        };
        report.set_end_to_end(setup_s, e);
    }
    Ok(Outcome {
        attempted,
        failed,
        report,
        spans,
        notes,
    })
}

/// The service's layers one at a time: the wire path with no farm (`stats`),
/// the farm with no wire, framing and JSON on in-memory buffers, the shed
/// path under pipelined bursts, and the dataset preload.
fn serve_probes(
    t: &mut Tracer,
    addr: SocketAddr,
    scale: Scale,
    direct_ms: &[f64; 6],
    r: &mut Report,
) -> Result<(), String> {
    const REPS: usize = 200;
    let mut client = connect(addr)?;

    let stats_rtt = probe(t, "serve", "stats_rtt", REPS / 8, || {
        client.stats().expect("stats answers");
    });
    r.set("serve.stats_rtt_us", stats_rtt / 1e3);

    // What the service adds to a job when no TCP timer is in the round trip.
    let mut prompt = PromptConn::connect(addr)?;
    let mut added_us = Vec::with_capacity(ALL_KINDS.len());
    for (kind, direct) in ALL_KINDS.into_iter().zip(direct_ms) {
        let rtt = probe(t, "serve", "prompt_rtt", REPS / 4, || {
            let status = prompt
                .call(RequestKind::Job(kind, MODE))
                .expect("job answers");
            assert_eq!(status, "ok", "{} on an idle farm", kind.label());
        });
        added_us.push(rtt / 1e3 - direct * 1e3);
    }
    r.set("serve.overhead_prompt_us", median(&added_us));

    // Recorded bodies to frame and parse: a request, a job reply, a stats reply.
    let request = Request {
        id: 7,
        kind: RequestKind::Job(JobKind::Sort, MODE),
    }
    .to_json()
    .to_string();
    let job_reply = client.call(RequestKind::Job(JobKind::Sort, MODE))?;
    let job_text = proto::ok_response(7, job_reply.body.clone()).to_string();
    let stats_text = proto::ok_response(8, client.stats()?).to_string();

    let mut wire = Vec::with_capacity(4096);
    let write = probe(t, "proto", "frame_write", REPS, || {
        wire.clear();
        proto::write_frame(&mut wire, &job_text).expect("in-memory write");
    });
    r.set("serve.frame_write_ns", write);
    let read = probe(t, "proto", "frame_read", REPS, || {
        let mut cursor = wire.as_slice();
        std::hint::black_box(proto::read_frame(&mut cursor).expect("in-memory read"));
    });
    r.set("serve.frame_read_ns", read);
    let parse = probe(t, "proto", "request_parse", REPS, || {
        std::hint::black_box(Request::parse(request.as_bytes()).expect("request parses"));
    });
    r.set("serve.request_parse_ns", parse);
    let build = probe(t, "proto", "response_build", REPS, || {
        std::hint::black_box(proto::ok_response(7, job_reply.body.clone()).to_string());
    });
    r.set("serve.response_build_ns", build);

    let bodies = [request.as_str(), job_text.as_str(), stats_text.as_str()];
    let bytes: usize = bodies.iter().map(|b| b.len()).sum();
    let docs: Vec<Json> = bodies
        .iter()
        .map(|b| Json::parse(b).expect("recorded body parses"))
        .collect();
    let parse_all = probe(t, "obs", "json_parse", REPS, || {
        for body in bodies {
            std::hint::black_box(Json::parse(body).expect("recorded body parses"));
        }
    });
    r.set("obs.json_parse_mb_s", bytes as f64 / parse_all * 1e3);
    let write_all = probe(t, "obs", "json_write", REPS, || {
        for doc in &docs {
            std::hint::black_box(doc.to_string());
        }
    });
    r.set("obs.json_write_mb_s", bytes as f64 / write_all * 1e3);

    // The farm alone: submit a trivial job and wait for its callback.
    let farm = Farm::new(farm_config());
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    let mut id = 0;
    let roundtrip = probe(t, "serve", "farm_roundtrip", 5 * REPS, || {
        id += 1;
        let done = done_tx.clone();
        let verdict = farm.submit(Job::new(
            id,
            JobKind::Sort,
            Box::new(|| Ok(Json::Null)),
            Box::new(move |id, outcome| {
                if let JobOutcome::Ok(_) = outcome {
                    let _ = done.send(id);
                }
            }),
        ));
        assert!(
            matches!(verdict, Admission::Admitted { .. }),
            "an idle farm admits"
        );
        done_rx.recv().expect("the farm runs the job");
    });
    farm.drain();
    r.set("serve.farm_roundtrip_us", roundtrip / 1e3);

    // Shed path: 20 bursts of 64 pipelined requests against a queue of 8.
    const BURSTS: usize = 20;
    const BURST: usize = 64;
    let (mut shed, mut total) = (0usize, 0usize);
    let mut answer_ms = Vec::with_capacity(BURSTS);
    for burst in 0..BURSTS {
        let t0 = Instant::now();
        let open = t.begin("serve", "burst", burst as u64);
        let mut pending: Vec<u64> = (0..BURST)
            .map(|i| client.send(RequestKind::Job(ALL_KINDS[i % 6], MODE)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("burst send: {e}"))?;
        // Replies come back in completion order, sheds first.
        while !pending.is_empty() {
            let reply = client.recv()?;
            let at = pending
                .iter()
                .position(|&p| Some(p) == reply.id)
                .ok_or_else(|| format!("burst reply for unknown id {:?}", reply.id))?;
            pending.swap_remove(at);
            total += 1;
            shed += usize::from(reply.status == "shed");
        }
        t.end(open);
        answer_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    r.set("serve.burst_shed_share", shed as f64 / total as f64);
    r.set("serve.burst_answer_ms", median(&answer_ms));

    let preload = probe(t, "serve", "preload", 5, || {
        std::hint::black_box(Datasets::preload(scale));
    });
    r.set("serve.preload_ms", preload / 1e6);
    Ok(())
}
