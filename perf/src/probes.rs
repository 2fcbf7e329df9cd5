//! Per-layer probes: direct, timed calls into each layer's public API on
//! inputs of the workload's size. A probe runs only in traced runs, on the
//! workloads that exercise its layer, inside the installed `W`-worker pool;
//! every call is also a span, so the trace file shows where a traced run's
//! time went.
//!
//! A value is the median over a fixed number of calls (after one warm-up),
//! divided by the item count for the `_ns` metrics.

use std::hint::black_box;
use std::sync::atomic::AtomicU64;

use rayon::prelude::*;
use rpb_concurrent::{
    speculative_for, write_min_u64, ConcurrentHashSet, ConcurrentUnionFind, ReservationStation,
};
use rpb_fearless::proof::{
    validate_chunk_offsets_cached, validate_offsets_cached, ParIndProvedExt,
};
use rpb_fearless::rng_ind::validate_chunk_offsets;
use rpb_fearless::snd_ind::validate_offsets;
use rpb_fearless::{pool, ExecMode, ParIndChunksMutExt, ParIndIterMutExt, UniquenessCheck};
use rpb_multiqueue::{execute, measure_rank_error, MultiQueue};
use rpb_parlay::exec::{executor, run_in, BackendKind, BatchTask};
use rpb_parlay::random::hash64;
use rpb_parlay::seqdata::random_permutation;
use rpb_suite::{bfs, bfs_frontier};

use crate::inputs::Inputs;
use crate::metrics::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{probe, timed_span};

/// Calls per probe.
const REPS: usize = 9;

/// Median nanoseconds of `run(state)` over [`REPS`] calls, where `prepare`
/// builds each call's state outside its timed window.
fn probe_with<S>(
    t: &mut Tracer,
    layer: &'static str,
    name: &str,
    mut prepare: impl FnMut() -> S,
    mut run: impl FnMut(S),
) -> f64 {
    run(prepare());
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let state = prepare();
            timed_span(t, layer, name, rep as u64, || run(state))
        })
        .collect();
    median(&samples)
}

/// `rpb-fearless`: the run-time checks behind `Checked` mode, apart from the
/// scatters they guard. `n` offsets, as many as the text workloads validate.
pub fn fearless(t: &mut Tracer, n: usize, r: &mut Report) {
    let n = n.max(64);
    let per = n as f64;
    let dense = random_permutation(n, 0xFEA2);
    let sparse: Vec<usize> = dense.iter().map(|&o| o * 128).collect();
    fn validate(
        t: &mut Tracer,
        name: &str,
        offsets: &[usize],
        len: usize,
        strategy: UniquenessCheck,
    ) -> f64 {
        let total = probe(t, "fearless", name, REPS, || {
            validate_offsets(offsets, len, strategy).expect("offsets are unique and in bounds")
        });
        total / offsets.len() as f64
    }
    let mark = UniquenessCheck::MarkTable;
    r.set(
        "fearless.validate_dense_ns",
        validate(t, "validate_dense", &dense, n, mark),
    );
    pool::set_enabled(false);
    r.set(
        "fearless.validate_fresh_ns",
        validate(t, "validate_fresh", &dense, n, mark),
    );
    pool::set_enabled(true);
    let adaptive = UniquenessCheck::Adaptive;
    r.set(
        "fearless.validate_sparse_ns",
        validate(t, "validate_sparse", &sparse, 128 * n, adaptive),
    );
    let sort = UniquenessCheck::Sort;
    r.set(
        "fearless.validate_sort_ns",
        validate(t, "validate_sort", &dense, n, sort),
    );
    let bitset = UniquenessCheck::Bitset;
    r.set(
        "fearless.validate_bitset_ns",
        validate(t, "validate_bitset", &dense, n, bitset),
    );

    let mut out = vec![0u64; n];
    let checked = probe(t, "fearless", "scatter_checked", REPS, || {
        out.par_ind_iter_mut(&dense).for_each(|slot| *slot += 1)
    });
    r.set("fearless.scatter_checked_ns", checked / per);
    let proof = validate_offsets_cached(&dense, n, adaptive).expect("a permutation validates");
    let proved = probe(t, "fearless", "scatter_proved", REPS, || {
        out.par_ind_iter_mut_proved(&proof)
            .for_each(|slot| *slot += 1)
    });
    r.set("fearless.scatter_proved_ns", proved / per);

    // RngInd: n/16 chunks of 16 elements.
    let bounds: Vec<usize> = (0..=n / 16).map(|c| c * 16).collect();
    let chunks = bounds.len() as f64;
    let check = probe(t, "fearless", "chunks_validate", REPS, || {
        validate_chunk_offsets(&bounds, n).expect("boundaries are monotone")
    });
    r.set("fearless.chunks_validate_ns", check / chunks);
    let chunk_proof = validate_chunk_offsets_cached(&bounds, n).expect("boundaries are monotone");
    let fill = probe(t, "fearless", "chunks_scatter", REPS, || {
        out.par_ind_chunks_mut_proved(&chunk_proof)
            .for_each(|chunk| chunk.fill(7))
    });
    r.set("fearless.chunks_scatter_ns", fill / chunks);
    // Keep the checked constructor in the picture too: it must agree.
    out.par_ind_chunks_mut(&bounds)
        .for_each(|chunk| chunk.fill(0));
    black_box(&out);
}

/// `rpb-parlay`: the primitives under the sequence and text kernels, and
/// what installing a pool or dispatching a batch costs on each backend.
pub fn parlay(t: &mut Tracer, seq: &[u64], workers: usize, r: &mut Report) {
    let n = seq.len().max(1);
    let per = n as f64;
    let add = |a: u64, b: u64| a.wrapping_add(b);
    let scan = probe(t, "parlay", "scan", REPS, || {
        black_box(rpb_parlay::scan_exclusive(seq, 0, add));
    });
    r.set("parlay.scan_ns", scan / per);
    let flags: Vec<bool> = seq.iter().map(|&x| x & 1 == 0).collect();
    let pack = probe(t, "parlay", "pack", REPS, || {
        black_box(rpb_parlay::pack(seq, &flags));
    });
    r.set("parlay.pack_ns", pack / per);
    let reduce = probe(t, "parlay", "reduce", REPS, || {
        black_box(rpb_parlay::reduce(seq, 0, add));
    });
    r.set("parlay.reduce_ns", reduce / per);
    let radix = probe_with(
        t,
        "parlay",
        "radix_sort",
        || seq.to_vec(),
        |mut v| {
            rpb_parlay::radix_sort_u64(&mut v);
            black_box(v);
        },
    );
    r.set("parlay.radix_sort_ns", radix / per);
    let sample = probe_with(
        t,
        "parlay",
        "sample_sort",
        || seq.to_vec(),
        |mut v| {
            rpb_parlay::sample_sort(&mut v, |a, b| a.cmp(b));
            black_box(v);
        },
    );
    r.set("parlay.sample_sort_ns", sample / per);
    let buckets = 1024;
    let pairs: Vec<(usize, u64)> = seq.iter().map(|&x| (x as usize % buckets, x)).collect();
    let collect = probe(t, "parlay", "collect_reduce", REPS, || {
        black_box(rpb_parlay::collect_reduce_dense(&pairs, buckets, 0, add));
    });
    r.set("parlay.collect_reduce_ns", collect / per);

    for (kind, label) in [(BackendKind::Rayon, "rayon"), (BackendKind::Mq, "mq")] {
        let exec = executor(kind);
        let install = probe(t, "parlay", &format!("install_{label}"), 4 * REPS, || {
            run_in(exec, workers, || ())
        });
        r.set(format!("parlay.install_{label}_us"), install / 1e3);
        let batch = probe(t, "parlay", &format!("batch_{label}"), 4 * REPS, || {
            let tasks: Vec<BatchTask<'_>> = (0..workers)
                .map(|_| Box::new(|| ()) as BatchTask<'_>)
                .collect();
            exec.run_batch(workers, tasks);
        });
        r.set(format!("parlay.batch_{label}_us"), batch / 1e3);
    }
}

/// `rpb-concurrent`: the shared structures the graph kernels and the `Sync`
/// variants lean on, one parallel sweep each.
pub fn concurrent(t: &mut Tracer, w: &Inputs, r: &mut Report) {
    let n = w.seq.len().max(1);
    let insert = probe_with(
        t,
        "concurrent",
        "hash_insert",
        || ConcurrentHashSet::with_capacity(2 * n),
        |set| {
            w.seq.par_iter().for_each(|&key| {
                set.insert(key);
            });
            black_box(set.len());
        },
    );
    r.set("concurrent.hash_insert_ns", insert / n as f64);

    let (vertices, edges) = (w.road_edges.0, &w.road_edges.1);
    let unite = probe_with(
        t,
        "concurrent",
        "unionfind_unite",
        || ConcurrentUnionFind::new(vertices),
        |uf| {
            edges.par_iter().for_each(|&(u, v)| {
                uf.unite(u as usize, v as usize);
            });
            black_box(uf.count_sets());
        },
    );
    r.set(
        "concurrent.unionfind_unite_ns",
        unite / edges.len().max(1) as f64,
    );

    let cells: Vec<AtomicU64> = (0..(n / 64).max(1))
        .map(|_| AtomicU64::new(u64::MAX))
        .collect();
    let write_min = probe(t, "concurrent", "write_min", REPS, || {
        (0..n).into_par_iter().for_each(|i| {
            write_min_u64(&cells[i % cells.len()], hash64(i as u64));
        })
    });
    r.set("concurrent.write_min_ns", write_min / n as f64);

    // Each iteration competes for one of n/4 cells and commits once it holds
    // it: `speculative_for`'s reserve/commit rounds with real conflicts.
    let items = (n / 8).max(1);
    let slots = (items / 4).max(1);
    let cell_of = |i: usize| (hash64(i as u64) % slots as u64) as usize;
    let commit = probe_with(
        t,
        "concurrent",
        "reserve_commit",
        || ReservationStation::new(slots),
        |station| {
            let status = speculative_for(
                0..items,
                4096,
                |i| {
                    station.reserve(cell_of(i), i);
                    true
                },
                |i| station.check_reset(cell_of(i), i),
            );
            black_box(status.rounds);
        },
    );
    r.set("concurrent.reserve_commit_ns", commit / items as f64);
}

/// `rpb-multiqueue`: queue operations, task dispatch, and how much the
/// relaxed order costs BFS against the level-synchronous frontier kernel.
pub fn multiqueue(t: &mut Tracer, w: &Inputs, workers: usize, r: &mut Report) {
    let n = (w.seq.len() / 4).max(1);
    let queues = 2 * workers;
    let priorities: Vec<u64> = w.seq.iter().take(n).copied().collect();
    let per = priorities.len() as f64;
    let push = probe_with(
        t,
        "mq",
        "push",
        || MultiQueue::<u32>::new(queues),
        |mq| {
            for (i, &p) in priorities.iter().enumerate() {
                mq.push(p, i as u32);
            }
            black_box(mq.len());
        },
    );
    r.set("mq.push_ns", push / per);
    let pop = probe_with(
        t,
        "mq",
        "pop",
        || {
            let mq = MultiQueue::<u32>::new(queues);
            for (i, &p) in priorities.iter().enumerate() {
                mq.push(p, i as u32);
            }
            mq
        },
        |mq| {
            while let Some(item) = mq.pop() {
                black_box(item);
            }
        },
    );
    r.set("mq.pop_ns", pop / per);
    let execute_ns = probe_with(
        t,
        "mq",
        "execute_task",
        || priorities.iter().map(|&p| (p, 0u32)).collect::<Vec<_>>(),
        |initial| {
            execute(workers, queues, initial, |_, item, _| {
                black_box(item);
            });
        },
    );
    r.set("mq.execute_task_ns", execute_ns / per);
    let sample: Vec<u64> = priorities.iter().take(20_000).copied().collect();
    let rank = t.span("mq", "rank_error", 0, || {
        measure_rank_error(&sample, queues)
    });
    r.set("mq.rank_error_mean", rank.mean);

    let relaxed = probe(t, "mq", "bfs_multiqueue", REPS, || {
        black_box(bfs::run_par_on(
            BackendKind::Rayon,
            &w.road,
            0,
            workers,
            ExecMode::Sync,
        ));
    });
    let frontier = probe(t, "mq", "bfs_frontier", REPS, || {
        black_box(bfs_frontier::run_par(&w.road, 0));
    });
    r.set("mq.bfs_over_frontier", relaxed / frontier);
}

/// `rpb-text` and `rpb-geom`: the substrate calls that dominate `sa`/`lrs`
/// and `dr` (the generators are timed as spans of the set-up instead).
pub fn text_and_geom(t: &mut Tracer, w: &Inputs, r: &mut Report) {
    let sa = probe(t, "text", "suffix_array", REPS, || {
        black_box(rpb_text::suffix_array(&w.text, ExecMode::Unsafe));
    });
    r.set("text.suffix_array_ms", sa / 1e6);
    let delaunay = probe(t, "geom", "delaunay", REPS, || {
        black_box(rpb_geom::delaunay(w.points()));
    });
    r.set("geom.delaunay_ms", delaunay / 1e6);
}

/// Median milliseconds of the set-up spans called `layer`/`name`.
pub fn setup_span_ms(spans: &[crate::trace::Span], layer: &str, name: &str) -> f64 {
    let ns = crate::trace::self_times_of(spans, layer, name);
    if ns.is_empty() {
        0.0
    } else {
        median(&ns) / 1e6
    }
}

/// Reports the generator spans every input build leaves behind.
pub fn input_generation(spans: &[crate::trace::Span], r: &mut Report) {
    r.set(
        "graph.build_rmat_ms",
        setup_span_ms(spans, "graph", "build_rmat"),
    );
    r.set(
        "graph.build_road_ms",
        setup_span_ms(spans, "graph", "build_road"),
    );
    r.set("text.gen_ms", setup_span_ms(spans, "text", "gen"));
    r.set(
        "text.bwt_encode_ms",
        setup_span_ms(spans, "text", "bwt_encode"),
    );
    r.set(
        "geom.points_gen_ms",
        setup_span_ms(spans, "geom", "points_gen"),
    );
}
