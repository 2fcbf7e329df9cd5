//! `stream_pipeline`: the streaming variants of `hist`, `dedup` and `bfs`
//! (`rpb_suite::streaming`, on the `rpb-pipeline` skeletons) against the
//! flat batch kernels at matched width.
//!
//! Three regimes of one layer: `hist`/`dedup` at chunk 4096 are bound by the
//! per-chunk kernel and the copies into chunks; at chunk 256 (a probe) by
//! channel operations; and `bfs` on the high-diameter road graph launches a
//! pipeline per level, so it is bound by skeleton start and dispatch.

use std::time::{Duration, Instant};

use rpb_fearless::ExecMode;
use rpb_graph::Graph;
use rpb_parlay::exec::BackendKind;
use rpb_pipeline::{ChannelKind, Pipeline, PipelineConfig, PipelineStats};
use rpb_suite::streaming::{bfs_stream, dedup_stream, hist_stream, StreamConfig};
use rpb_suite::{bfs, bfs_frontier, dedup, hist, Scale};

use crate::cells::HIST_BUCKETS;
use crate::engine::{measure, Case, Samples, Variant};
use crate::inputs::Inputs;
use crate::metrics::{Report, STREAM_CASES};
use crate::pool::ResidentPool;
use crate::probes;
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::workloads::{probe, workers, Opts, Outcome, SETUP_ONLY, TRACED_SHARE};

/// The streaming inputs: a sequence four times the batch workloads' (so a
/// stream is ~400 chunks), the batch graphs, and token text and points.
pub const STREAM_SCALE: Scale = Scale {
    text_len: 1_000,
    seq_len: 1_600_000,
    graph_n: 20_000,
    points_n: 64,
};

const PROBE_REPS: usize = 9;

fn config(w: usize) -> StreamConfig {
    StreamConfig {
        channel: ChannelKind::Mpsc,
        backend: BackendKind::Rayon,
        chunk: 4096,
        capacity: 8,
        workers: w.saturating_sub(1).max(1),
    }
}

/// Times `f` here (streaming runs dispatch their own pipeline pools).
fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

pub fn run(opts: &Opts) -> Outcome {
    let w = workers();
    let scale = opts.scale.unwrap_or(STREAM_SCALE);
    let cfg = config(w);
    let epoch0 = Instant::now();
    let mut tracer = Tracer::new(opts.trace, 0, epoch0, 1 << 16);
    let mut report = Report::default();
    let mut notes = Vec::new();

    let epochs = opts.setups.max(1);
    let measured = if opts.trace {
        opts.seconds * TRACED_SHARE
    } else {
        opts.seconds
    };
    let mut held: Vec<Inputs> = Vec::with_capacity(epochs);
    let mut setups = Vec::with_capacity(epochs + SETUP_ONLY);
    let mut samples: Option<Samples> = None;
    let mut stats = Vec::new();
    let mut failed = 0;
    let mut probe_spans = Vec::new();

    for epoch in 0..epochs {
        let setup_started = Instant::now();
        let setup_span = tracer.begin("bench", "setup", epoch as u64);
        held.push(Inputs::build(scale, opts.seed, epoch, &mut tracer));
        let inputs = &held[epoch];
        let range = inputs.seq.len().max(1) as u64;
        std::thread::scope(|s| {
            let pool_w = ResidentPool::install(s, BackendKind::Rayon, w);
            pool_w.run(|| ());
            tracer.end(setup_span);
            setups.push(setup_started.elapsed().as_secs_f64());

            if epoch == 0 {
                let gate = tracer.begin("bench", "gate", 0);
                failed = correctness_gate(inputs, cfg, range, opts.inject, &mut stats, &mut notes);
                tracer.end(gate);
            }

            let mut cases = cases(inputs, cfg, range, &pool_w);
            let first_round = samples.as_ref().map_or(0, |s| s.rounds);
            let slice = measure(
                &mut cases,
                measured / epochs as f64,
                first_round,
                &mut tracer,
                || (),
            );
            drop(cases);
            match &mut samples {
                Some(all) => all.absorb(slice),
                None => samples = Some(slice),
            }

            if opts.trace && epoch + 1 == epochs {
                let seq = &inputs.seq;
                // The probes run on the pool's thread, with a tracer of
                // their own; this thread waits, and says so.
                let waiting = tracer.begin("bench", "probes", 0);
                let (values, spans) = pool_w.run(move || {
                    let mut t = Tracer::new(true, 1, epoch0, 1 << 12);
                    let mut r = Report::default();
                    probes::parlay(&mut t, &seq[..seq.len() / 4], w, &mut r);
                    (r.into_values(), t.into_spans())
                });
                tracer.end(waiting);
                for (name, value) in values {
                    report.set(name, value);
                }
                probe_spans = spans;
            }
        });
        if opts.trace && epoch + 1 == epochs {
            let probing = tracer.begin("bench", "probes", 1);
            pipeline_probes(&mut tracer, inputs, cfg, range, &mut report);
            report.set(
                "pipeline.bfs_levels",
                bfs_frontier::frontier_profile(&inputs.road, 0).len() as f64,
            );
            tracer.end(probing);
        }
    }
    let samples = samples.expect("at least one epoch");
    let attempted = stats.len() as u64;
    if !opts.trace {
        // `setup_s` alone: more set-ups, each on another draw, measuring
        // nothing.
        for extra in epochs..epochs + SETUP_ONLY {
            let setup_started = Instant::now();
            let inputs = Inputs::build(scale, opts.seed, extra, &mut tracer);
            std::thread::scope(|s| {
                ResidentPool::install(s, BackendKind::Rayon, w).run(|| ());
                setups.push(setup_started.elapsed().as_secs_f64());
            });
            drop(inputs);
        }
    }

    for c in &samples.cases {
        let s = c.summary("stream");
        notes.push(format!(
            "{:8} stream: median {:.3} ms (q1 {:.3}, q3 {:.3}, n {}), stream/batch {:.3}",
            c.name,
            s.median,
            s.q1,
            s.q3,
            s.n,
            c.ratio("stream", "batch")
        ));
    }
    notes.push(format!(
        "{} rounds over {} cases in {epochs} epochs",
        samples.rounds,
        samples.cases.len()
    ));

    let mut spans = tracer.into_spans();
    if opts.trace {
        report.set(
            "pipeline.max_inflight",
            stats.iter().map(|s| s.max_inflight).max().unwrap_or(0) as f64,
        );
        per_layer(&samples, &spans, &mut report);
        spans.extend(probe_spans);
    } else {
        notes.push(format!("{} set-ups", setups.len()));
        report.set_end_to_end(
            median(&setups),
            samples.end_to_end("stream", "stream", "batch"),
        );
    }
    Outcome {
        attempted,
        failed,
        report,
        spans,
        notes,
    }
}

/// Once per run: every streaming output equals its batch oracle and stays
/// within the in-flight bound. Returns the number of failed checks.
fn correctness_gate(
    inputs: &Inputs,
    cfg: StreamConfig,
    range: u64,
    inject: bool,
    stats: &mut Vec<PipelineStats>,
    notes: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    let mut check = |name: &str, ok: bool, s: PipelineStats| {
        // Not `s.inflight_bounded()` as it stands: the gauge is raised after
        // a send returns and lowered after a recv returns, so each receiving
        // task that holds an item it has not yet un-counted pushes the
        // reading one past the channels' real occupancy. Over 300 gate runs
        // at this scale `hist` read 17 or 18 of 16 in 34 and `dedup` in 30,
        // never more than bound + receivers; held to the bare bound, one
        // benchmark run in five would fail on a gauge artefact.
        let receivers = (s.workers - 1) as u64;
        if !ok || s.max_inflight > s.inflight_bound() + receivers {
            failed += 1;
            notes.push(format!(
                "FAILED verification: {name} (output equal: {ok}, in flight {} of {} + {receivers})",
                s.max_inflight,
                s.inflight_bound()
            ));
        }
        stats.push(s);
    };
    let (mut h, s) = hist_stream(&inputs.seq, HIST_BUCKETS, range, cfg).expect("hist_stream");
    if inject {
        h[0] += 1;
    }
    let oracle = hist::run_seq(&inputs.seq, HIST_BUCKETS, range).expect("hist oracle");
    check("hist", h == oracle, s);
    let (d, s) = dedup_stream(&inputs.seq, cfg).expect("dedup_stream");
    check("dedup", d == dedup::run_seq(&inputs.seq), s);
    for (name, g) in [("bfs_road", &inputs.road), ("bfs_link", &inputs.link)] {
        let (dist, s) = bfs_stream(g, 0, cfg).expect("bfs_stream");
        check(name, dist == bfs::run_seq(g, 0), s);
    }
    failed
}

fn cases<'a, 'scope>(
    inputs: &'scope Inputs,
    cfg: StreamConfig,
    range: u64,
    pool_w: &'a ResidentPool<'scope>,
) -> Vec<Case<'a>> {
    let seq = &inputs.seq;
    let bfs_case = |name: &str, g: &'scope Graph| Case {
        name: name.to_string(),
        layer: "pipeline",
        items: g.num_arcs() as u64,
        variants: vec![
            Variant {
                label: "stream",
                run: Box::new(move || {
                    timed(|| {
                        std::hint::black_box(bfs_stream(g, 0, cfg).expect("bfs_stream"));
                    })
                }),
            },
            Variant {
                label: "batch",
                run: Box::new(move || {
                    pool_w.time(move || {
                        std::hint::black_box(bfs_frontier::run_par(g, 0));
                    })
                }),
            },
        ],
    };
    vec![
        Case {
            name: "hist".to_string(),
            layer: "pipeline",
            items: seq.len() as u64,
            variants: vec![
                Variant {
                    label: "stream",
                    run: Box::new(move || {
                        timed(|| {
                            std::hint::black_box(
                                hist_stream(seq, HIST_BUCKETS, range, cfg).expect("hist_stream"),
                            );
                        })
                    }),
                },
                Variant {
                    label: "batch",
                    run: Box::new(move || {
                        pool_w.time(move || {
                            std::hint::black_box(
                                hist::run_par(seq, HIST_BUCKETS, range, ExecMode::Unsafe)
                                    .expect("hist"),
                            );
                        })
                    }),
                },
            ],
        },
        Case {
            name: "dedup".to_string(),
            layer: "pipeline",
            items: seq.len() as u64,
            variants: vec![
                Variant {
                    label: "stream",
                    run: Box::new(move || {
                        timed(|| {
                            std::hint::black_box(dedup_stream(seq, cfg).expect("dedup_stream"));
                        })
                    }),
                },
                Variant {
                    label: "batch",
                    run: Box::new(move || {
                        pool_w.time(move || {
                            std::hint::black_box(dedup::run_par(seq, ExecMode::Unsafe));
                        })
                    }),
                },
            ],
        },
        bfs_case("bfs_road", &inputs.road),
        bfs_case("bfs_link", &inputs.link),
    ]
}

fn per_layer(samples: &Samples, spans: &[Span], r: &mut Report) {
    for (c, name) in samples.cases.iter().zip(STREAM_CASES) {
        let stream_ms = c.traced_ms("stream");
        r.set(
            format!("pipeline.{name}_melems_per_s"),
            c.items as f64 / stream_ms / 1e3,
        );
        r.set(
            format!("pipeline.{name}_over_batch"),
            c.traced_ratio("stream", "batch"),
        );
    }
    probes::input_generation(spans, r);
    r.set("trace.overhead_share", samples.trace_overhead_share());
}

/// The skeleton's own costs, apart from any kernel: a channel round, an
/// identity stage per item, an empty run, and `hist_stream` reconfigured to
/// be channel-bound (chunk 256), back-pressured (capacity 1) or on the other
/// channel backend.
fn pipeline_probes(t: &mut Tracer, inputs: &Inputs, cfg: StreamConfig, range: u64, r: &mut Report) {
    const ITEMS: u64 = 50_000;
    for (kind, label) in [
        (ChannelKind::Mpsc, "mpsc"),
        (ChannelKind::Crossbeam, "crossbeam"),
    ] {
        let ns = probe(t, "pipeline", &format!("chan_{label}"), PROBE_REPS, || {
            let (tx, rx) = rpb_pipeline::bounded::<u64>(kind, 8);
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(x) = rx.recv() {
                        sum = sum.wrapping_add(x);
                    }
                    std::hint::black_box(sum);
                });
                for i in 0..ITEMS {
                    tx.send(i).expect("receiver is alive");
                }
                drop(tx);
            });
        });
        r.set(format!("pipeline.chan_{label}_ns"), ns / ITEMS as f64);
    }
    let pcfg = PipelineConfig {
        channel: cfg.channel,
        capacity: cfg.capacity,
        backend: cfg.backend,
    };
    let identity = |items: u64| {
        Pipeline::source(pcfg, 0..items)
            .and_then(|p| p.stage("identity", 1, |x: u64| x))
            .and_then(|p| p.run_fold(0u64, |acc, x| acc.wrapping_add(x)))
            .expect("identity pipeline")
    };
    let per_item = probe(t, "pipeline", "skeleton_item", PROBE_REPS, || {
        std::hint::black_box(identity(ITEMS));
    });
    r.set("pipeline.skeleton_item_ns", per_item / ITEMS as f64);
    let start = probe(t, "pipeline", "skeleton_start", 4 * PROBE_REPS, || {
        std::hint::black_box(identity(0));
    });
    r.set("pipeline.skeleton_start_us", start / 1e3);

    let seq = &inputs.seq[..inputs.seq.len() / 4];
    let variants = [
        ("fine_chunk", StreamConfig { chunk: 256, ..cfg }),
        ("cap1", StreamConfig { capacity: 1, ..cfg }),
        (
            "crossbeam",
            StreamConfig {
                channel: ChannelKind::Crossbeam,
                ..cfg
            },
        ),
    ];
    for (label, variant) in variants {
        let ns = probe(t, "pipeline", label, PROBE_REPS, || {
            std::hint::black_box(
                hist_stream(seq, HIST_BUCKETS, range, variant).expect("hist_stream"),
            );
        });
        r.set(
            format!("pipeline.{label}_melems_per_s"),
            seq.len() as f64 / ns * 1e3,
        );
    }
}
