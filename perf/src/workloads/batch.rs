//! The three batch workloads: the suite's benchmark-input pairs timed as
//! single calls on seeded inputs, per figure of the paper.
//!
//! * `batch_recommended` — Fig. 4: all 20 pairs in their recommended mode at
//!   `W` workers and at 1 worker, against the sequential baselines.
//! * `batch_checked` — Fig. 5(a): `bw`, `lrs`, `sa`, `isort` in `Checked`
//!   (validation pool on) against `Unsafe`.
//! * `batch_sync` — Fig. 5(b): the 12 pairs with a `Sync` variant against
//!   `Unsafe`.

use std::collections::BTreeSet;
use std::time::Instant;

use rpb_fearless::{pool, ExecMode};
use rpb_parlay::exec::BackendKind;
use rpb_suite::error::SuiteError;
use rpb_suite::verify::verify_pair_on;
use rpb_suite::{msf, Scale};

use crate::cells::{pair, recommended_mode, Family, Pair, CHECKED_PAIRS, PAIRS, SYNC_PAIRS};
use crate::engine::{measure, Case, Samples, Variant};
use crate::inputs::{Inputs, PERF_SCALE};
use crate::metrics::Report;
use crate::pool::ResidentPool;
use crate::probes;
use crate::stats::{gmean, median};
use crate::trace::{Span, Tracer};
use crate::workloads::{workers, Opts, Outcome, SETUP_ONLY, TRACED_SHARE};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    Recommended,
    Checked,
    Sync,
}

/// Pairs whose validation is also timed with the pool off, in traced runs
/// (`rpb_bench::FIG5A_PAIRS`).
const FRESH_PAIRS: [&str; 3] = ["bw", "lrs", "sa"];

const MSF_VERIFY_DIVISOR: usize = 5;

/// Full-size `msf` check: the parallel forest weighs and counts the same as
/// the sequential one, on both graphs.
fn msf_weights_agree(w: &Inputs, mode: ExecMode) -> Result<(), SuiteError> {
    for (n, edges) in [&w.rmat_wedges, &w.road_wedges] {
        let (par, par_weight) = msf::run_par(*n, edges, mode);
        let (seq, seq_weight) = msf::run_seq(*n, edges);
        if par_weight != seq_weight || par.len() != seq.len() {
            return Err(SuiteError::divergence(
                "msf",
                format!(
                    "parallel forest ({} edges, weight {par_weight}) differs from sequential ({} edges, weight {seq_weight})",
                    par.len(),
                    seq.len()
                ),
            ));
        }
    }
    Ok(())
}

impl Figure {
    fn pairs(self) -> Vec<&'static Pair> {
        match self {
            Figure::Recommended => PAIRS.iter().collect(),
            Figure::Checked => CHECKED_PAIRS.iter().map(|n| pair(n)).collect(),
            Figure::Sync => SYNC_PAIRS.iter().map(|n| pair(n)).collect(),
        }
    }

    /// Labels of the variant reported as the operation, and of the ratio's
    /// numerator and denominator.
    fn labels(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Figure::Recommended => ("par", "par1", "seq"),
            Figure::Checked => ("checked", "checked", "unsafe"),
            Figure::Sync => ("sync", "sync", "unsafe"),
        }
    }

    /// The modes whose outputs the correctness gate checks for `p`.
    fn verified_modes(self, p: &Pair) -> Vec<ExecMode> {
        match self {
            Figure::Recommended => vec![recommended_mode(p)],
            Figure::Checked => vec![ExecMode::Checked, ExecMode::Unsafe],
            Figure::Sync => vec![ExecMode::Sync, ExecMode::Unsafe],
        }
    }
}

pub fn run(fig: Figure, opts: &Opts) -> Outcome {
    let w = workers();
    let scale = opts.scale.unwrap_or(PERF_SCALE);
    let epoch0 = Instant::now();
    let mut tracer = Tracer::new(opts.trace, 0, epoch0, 1 << 16);
    let pairs = fig.pairs();
    let (op, num, den) = fig.labels();
    let mut report = Report::default();
    let mut notes = Vec::new();

    let epochs = opts.setups.max(1);
    let measured = if opts.trace {
        opts.seconds * TRACED_SHARE
    } else {
        opts.seconds
    };
    // Earlier epochs' inputs stay allocated, so each epoch's buffers land
    // somewhere new.
    let mut held: Vec<Inputs> = Vec::with_capacity(epochs);
    let mut setups = Vec::with_capacity(epochs + SETUP_ONLY);
    let mut samples: Option<Samples> = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut probe_spans = Vec::new();

    for epoch in 0..epochs {
        // Set-up: generate every input and install both pools.
        let setup_started = Instant::now();
        let setup_span = tracer.begin("bench", "setup", epoch as u64);
        held.push(Inputs::build(scale, opts.seed, epoch, &mut tracer));
        let inputs = &held[epoch];
        std::thread::scope(|s| {
            let (pool_w, pool_1) = install_pools(s, w);
            tracer.end(setup_span);
            setups.push(setup_started.elapsed().as_secs_f64());

            if epoch == 0 {
                let gate = tracer.begin("bench", "gate", 0);
                tracer.set_paused(true);
                (attempted, failed) =
                    correctness_gate(fig, &pairs, inputs, &pool_w, w, opts, &mut notes);
                tracer.set_paused(false);
                tracer.end(gate);
                pool::reset_stats();
            }

            let mut cases = cases(fig, &pairs, inputs, &pool_w, &pool_1, w, opts.trace);
            let first_round = samples.as_ref().map_or(0, |s| s.rounds);
            let slice = measure(
                &mut cases,
                measured / epochs as f64,
                first_round,
                &mut tracer,
                || inputs.next_points(),
            );
            drop(cases);
            match &mut samples {
                Some(all) => all.absorb(slice),
                None => samples = Some(slice),
            }

            if opts.trace && epoch + 1 == epochs {
                // Validation-pool acquisitions of the measured calls alone.
                let p = pool::stats();
                let share = p.misses as f64 / (p.hits + p.misses).max(1) as f64;
                report.set("fearless.pool_miss_share", share);
                // The probes run on the pool's thread, with a tracer of
                // their own; this thread waits, and says so.
                let waiting = tracer.begin("bench", "probes", 0);
                let (values, spans) = pool_w.run(move || probe_layers(fig, inputs, w, epoch0));
                tracer.end(waiting);
                for (name, value) in values {
                    report.set(name, value);
                }
                probe_spans = spans;
            }
        });
    }
    let samples = samples.expect("at least one epoch");
    if !opts.trace {
        // `setup_s` alone: more set-ups, each on another draw, measuring
        // nothing.
        for extra in epochs..epochs + SETUP_ONLY {
            let setup_started = Instant::now();
            let inputs = Inputs::build(scale, opts.seed, extra, &mut tracer);
            std::thread::scope(|s| {
                let _pools = install_pools(s, w);
                setups.push(setup_started.elapsed().as_secs_f64());
            });
            drop(inputs);
        }
    }

    for c in &samples.cases {
        let s = c.summary(op);
        notes.push(format!(
            "{:10} {op}: median {:.3} ms (q1 {:.3}, q3 {:.3}, n {}), {num}/{den} {:.3}",
            c.name,
            s.median,
            s.q1,
            s.q3,
            s.n,
            c.ratio(num, den)
        ));
    }
    notes.push(format!(
        "{} rounds over {} cases in {epochs} epochs",
        samples.rounds,
        samples.cases.len()
    ));

    let mut spans = tracer.into_spans();
    if opts.trace {
        per_layer(fig, &samples, &spans, &mut report);
        spans.extend(probe_spans);
    } else {
        notes.push(format!("{} set-ups", setups.len()));
        report.set_end_to_end(median(&setups), samples.end_to_end(op, num, den));
    }
    Outcome {
        attempted,
        failed,
        report,
        spans,
        notes,
    }
}

/// The set-up's pools: `w` workers and one, installed and answering.
fn install_pools<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    w: usize,
) -> (ResidentPool<'scope>, ResidentPool<'scope>) {
    let pool_w = ResidentPool::install(s, BackendKind::Rayon, w);
    let pool_1 = ResidentPool::install(s, BackendKind::Rayon, 1);
    pool_w.run(|| ());
    pool_1.run(|| ());
    (pool_w, pool_1)
}

/// Once per run, outside every timed window: every (benchmark, mode) cell
/// the figure measures passes `rpb_suite::verify`. Returns cells checked
/// and cells failed.
fn correctness_gate<'scope>(
    fig: Figure,
    pairs: &[&'static Pair],
    inputs: &'scope Inputs,
    pool_w: &ResidentPool<'scope>,
    w: usize,
    opts: &Opts,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let started = Instant::now();
    // `msf`'s full verifier is quadratic in the edge count (4 s at this
    // scale), so it runs on graphs a fifth the size; at full size the
    // parallel forest is held to the sequential one's weight and size.
    let msf_scale = Scale {
        graph_n: inputs.scale.graph_n / MSF_VERIFY_DIVISOR,
        ..Scale::gate()
    };
    let msf_inputs = std::sync::Arc::new(Inputs::build(
        msf_scale,
        opts.seed,
        0,
        &mut Tracer::disabled(),
    ));
    let mut cells = BTreeSet::new();
    for p in pairs {
        for mode in fig.verified_modes(p) {
            cells.insert((p.bench, mode.label()));
        }
    }
    let mut failed = 0;
    for (i, &(bench, mode)) in cells.iter().enumerate() {
        let mode: ExecMode = mode.parse().expect("label of a mode");
        let inject = opts.inject && i == 0;
        let msf_inputs = msf_inputs.clone();
        let verdict = pool_w.run(move || {
            let mut view = inputs.suite();
            if bench == "msf" {
                msf_weights_agree(inputs, mode)?;
                let small = msf_inputs.suite();
                (view.rmat_wedges, view.road_wedges) = (small.rmat_wedges, small.road_wedges);
            }
            verify_pair_on(BackendKind::Rayon, bench, &view, mode, w, inject)
        });
        if let Err(e) = verdict {
            failed += 1;
            notes.push(format!("FAILED verification: {bench} {mode:?}: {e}"));
        }
    }
    notes.push(format!(
        "correctness gate: {} cells in {:.2} s",
        cells.len(),
        started.elapsed().as_secs_f64()
    ));
    (cells.len() as u64, failed)
}

/// One case per pair, with the figure's variants.
fn cases<'a, 'scope>(
    fig: Figure,
    pairs: &[&'static Pair],
    inputs: &'scope Inputs,
    pool_w: &'a ResidentPool<'scope>,
    pool_1: &'a ResidentPool<'scope>,
    w: usize,
    traced: bool,
) -> Vec<Case<'a>> {
    let pooled = |label, pool: &'a ResidentPool<'scope>, p: &'static Pair, mode, threads| Variant {
        label,
        run: Box::new(move || pool.time(move || (p.par)(inputs, mode, threads))),
    };
    pairs
        .iter()
        .map(|&p| {
            let variants = match fig {
                Figure::Recommended => vec![
                    pooled("par", pool_w, p, recommended_mode(p), w),
                    pooled("par1", pool_1, p, recommended_mode(p), 1),
                    Variant {
                        label: "seq",
                        run: Box::new(move || {
                            let t0 = Instant::now();
                            (p.seq)(inputs);
                            t0.elapsed()
                        }),
                    },
                ],
                Figure::Checked => {
                    let mut v = vec![
                        pooled("checked", pool_w, p, ExecMode::Checked, w),
                        pooled("unsafe", pool_w, p, ExecMode::Unsafe, w),
                    ];
                    if traced && FRESH_PAIRS.contains(&p.name) {
                        // Same check with pooled storage off: every
                        // validation allocates and frees its mark table.
                        v.push(Variant {
                            label: "fresh",
                            run: Box::new(move || {
                                pool_w.time(move || {
                                    pool::set_enabled(false);
                                    (p.par)(inputs, ExecMode::Checked, w);
                                    pool::set_enabled(true);
                                })
                            }),
                        });
                    }
                    v
                }
                Figure::Sync => vec![
                    pooled("sync", pool_w, p, ExecMode::Sync, w),
                    pooled("unsafe", pool_w, p, ExecMode::Unsafe, w),
                ],
            };
            Case {
                name: p.name.to_string(),
                layer: "suite",
                items: (p.items)(inputs) as u64,
                variants,
            }
        })
        .collect()
}

/// The probes of the layers this figure exercises, run inside the `W` pool
/// on a tracer of their own (thread 1).
fn probe_layers(
    fig: Figure,
    inputs: &Inputs,
    w: usize,
    epoch: Instant,
) -> (Vec<(String, f64)>, Vec<Span>) {
    let mut t = Tracer::new(true, 1, epoch, 1 << 12);
    let mut r = Report::default();
    match fig {
        Figure::Recommended => {
            probes::parlay(&mut t, &inputs.seq, w, &mut r);
            probes::concurrent(&mut t, inputs, &mut r);
            probes::multiqueue(&mut t, inputs, w, &mut r);
            probes::text_and_geom(&mut t, inputs, &mut r);
        }
        Figure::Checked => probes::fearless(&mut t, inputs.text.len(), &mut r),
        Figure::Sync => probes::concurrent(&mut t, inputs, &mut r),
    }
    (r.into_values(), t.into_spans())
}

/// The `suite.*` metrics (from the rounds with per-call spans), the
/// generator spans of the set-up, and the recorder's own cost.
fn per_layer(fig: Figure, samples: &Samples, spans: &[Span], r: &mut Report) {
    let (op, num, den) = fig.labels();
    let mut worst = f64::MIN;
    for c in &samples.cases {
        let ratio = c.traced_ratio(num, den);
        r.set(format!("suite.{}.ms", c.name), c.traced_ms(op));
        r.set(format!("suite.{}.over_baseline", c.name), ratio);
        worst = worst.max(ratio);
    }
    r.set("suite.worst_over_baseline", worst);
    match fig {
        Figure::Recommended => {
            for (family, label) in [
                (Family::Text, "text"),
                (Family::Geom, "geom"),
                (Family::Graph, "graph"),
                (Family::Seq, "seq"),
                (Family::Mq, "mq"),
            ] {
                let times: Vec<f64> = samples
                    .cases
                    .iter()
                    .filter(|c| pair(&c.name).family == family)
                    .map(|c| c.traced_ms("par"))
                    .collect();
                r.set(format!("suite.{label}_ms"), gmean(&times));
            }
            let scaling: Vec<f64> = samples
                .cases
                .iter()
                .map(|c| c.traced_ratio("par1", "par"))
                .collect();
            r.set("suite.scaling", gmean(&scaling));
        }
        Figure::Checked => {
            let fresh: Vec<f64> = samples
                .cases
                .iter()
                .filter(|c| c.has("fresh"))
                .map(|c| c.traced_ratio("fresh", "checked"))
                .collect();
            r.set("suite.checked_fresh_over_amortized", gmean(&fresh));
        }
        Figure::Sync => {}
    }
    probes::input_generation(spans, r);
    r.set("trace.overhead_share", samples.trace_overhead_share());
}
