//! Streaming variants of `hist`, `dedup`, and `bfs` over the
//! [`rpb_pipeline`] skeletons — the suite's chunked counterparts to the
//! batch benchmarks, with bounded in-flight memory.
//!
//! Each variant cuts its input into owned chunks, runs the benchmark's
//! *sequential* kernel per chunk on a farm of pipeline workers, and
//! merges at the sink:
//!
//! * [`hist_stream`] — per-chunk bucket counts, vector-added at the sink
//!   (histogram merging is associative and commutative, so farm arrival
//!   order is invisible),
//! * [`dedup_stream`] — per-chunk distinct sets, concatenated and
//!   canonicalized (global sort + dedup) at the end,
//! * [`bfs_stream`] — level-synchronous BFS with pipelined frontier
//!   generation: one pipeline per traversal, resident across levels (the
//!   sink feeds each next frontier back to the source), expands frontier
//!   chunks, claiming vertices with the same CAS discipline as
//!   [`bfs_frontier`](crate::bfs_frontier), so the claimed *set* per
//!   level is deterministic even though chunk arrival order is not.
//!
//! All three must agree exactly with their batch siblings — that is the
//! `rpb verify --streaming` contract ([`verify_streaming`]), checked
//! across both channel backends and both executor backends. Each run
//! also returns its [`PipelineStats`], whose
//! [`inflight_bounded`](PipelineStats::inflight_bounded) claim (high-water
//! mark ≤ channel capacity × channels) the verifier asserts per cell:
//! streaming is only worth its name if memory stays bounded.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use rpb_graph::Graph;
use rpb_parlay::exec::{self, BackendKind};
use rpb_pipeline::{ChannelKind, Pipeline, PipelineConfig, PipelineError, PipelineStats};

use crate::error::SuiteError;
use crate::verify::SuiteInputs;
use crate::{bfs, bfs_frontier, dedup, hist};

/// The benchmarks with streaming variants, in suite-table order.
pub const STREAMING_BENCHES: [&str; 3] = ["hist", "dedup", "bfs"];

/// Default elements per streamed chunk: large enough that per-item
/// channel overhead amortizes, small enough that `capacity × channels`
/// chunks stay a sliver of the batch working set.
pub const DEFAULT_CHUNK: usize = 1 << 12;

/// How a streaming run is chunked and scheduled.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Channel backend connecting the pipeline stages.
    pub channel: ChannelKind,
    /// Executor backend hosting the stage farms.
    pub backend: BackendKind,
    /// Elements per streamed chunk (must be positive).
    pub chunk: usize,
    /// Per-channel queue capacity in chunks (must be positive).
    pub capacity: usize,
    /// Workers in the transform-stage farm (must be positive).
    pub workers: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            channel: rpb_pipeline::default_channel(),
            backend: exec::default_backend(),
            chunk: DEFAULT_CHUNK,
            capacity: rpb_pipeline::DEFAULT_CAPACITY,
            workers: 2,
        }
    }
}

impl StreamConfig {
    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            channel: self.channel,
            capacity: self.capacity,
            backend: self.backend,
        }
    }

    fn validate(&self, bench: &'static str) -> Result<(), SuiteError> {
        if self.chunk == 0 {
            return Err(SuiteError::degenerate(bench, "chunk size must be positive"));
        }
        if self.workers == 0 {
            return Err(SuiteError::degenerate(
                bench,
                "stage worker count must be positive",
            ));
        }
        Ok(())
    }
}

/// Maps a pipeline failure into the suite's error vocabulary: a config
/// rejection is a degenerate parameter, a stage panic a broken invariant.
fn stream_error(bench: &'static str, err: PipelineError) -> SuiteError {
    match err {
        PipelineError::Config(msg) => SuiteError::degenerate(bench, msg),
        panicked => SuiteError::invariant(bench, panicked.to_string()),
    }
}

/// Streaming histogram of `data` into `nbuckets` equal-width buckets
/// over `[0, range)`: chunked [`hist::run_seq`] counts, vector-added at
/// the sink. Agrees exactly with the batch histogram.
pub fn hist_stream(
    data: &[u64],
    nbuckets: usize,
    range: u64,
    cfg: StreamConfig,
) -> Result<(Vec<u64>, PipelineStats), SuiteError> {
    cfg.validate("hist")?;
    // Validate the bucket parameters once up front (zero buckets is the
    // degenerate case) so the per-chunk counters inside the farm cannot
    // fail.
    hist::run_seq(&[], nbuckets, range)?;
    Pipeline::source(cfg.pipeline(), data.chunks(cfg.chunk).map(<[u64]>::to_vec))
        .and_then(|p| {
            p.stage("hist-count", cfg.workers, move |chunk: Vec<u64>| {
                hist::run_seq(&chunk, nbuckets, range).expect("bucket parameters pre-validated")
            })
        })
        .and_then(|p| {
            p.run_fold(vec![0u64; nbuckets], |mut acc, local| {
                for (slot, x) in acc.iter_mut().zip(local) {
                    *slot += x;
                }
                acc
            })
        })
        .map_err(|e| stream_error("hist", e))
}

/// Streaming dedup: per-chunk distinct sets ([`dedup::run_seq`])
/// concatenated at the sink, then canonicalized globally (chunk-local
/// sets overlap whenever a value spans chunks). Returns the distinct
/// values sorted ascending, exactly like the batch variants.
pub fn dedup_stream(
    data: &[u64],
    cfg: StreamConfig,
) -> Result<(Vec<u64>, PipelineStats), SuiteError> {
    cfg.validate("dedup")?;
    let (mut merged, stats) =
        Pipeline::source(cfg.pipeline(), data.chunks(cfg.chunk).map(<[u64]>::to_vec))
            .and_then(|p| {
                p.stage("dedup-chunk", cfg.workers, |chunk: Vec<u64>| {
                    dedup::run_seq(&chunk)
                })
            })
            .and_then(|p| {
                p.run_fold(Vec::new(), |mut acc: Vec<u64>, distinct| {
                    acc.extend(distinct);
                    acc
                })
            })
            .map_err(|e| stream_error("dedup", e))?;
    merged.sort_unstable();
    merged.dedup();
    Ok((merged, stats))
}

/// Streaming BFS hop distances from `src`: level-synchronous like
/// [`bfs_frontier`], with every level expanded by the *same* resident
/// pipeline ([`drive_levels`]) — chunks of the frontier flow through a
/// farm that CAS-claims neighbours, the sink collects and sorts the next
/// frontier and feeds it back to the source.
///
/// Returns the distance array (identical to [`bfs::run_seq`]) and the
/// accounting of the traversal's one pipeline run (its items are the
/// frontier chunks of all levels, `Σ ⌈|frontier| / chunk⌉`).
pub fn bfs_stream(
    g: &Graph,
    src: usize,
    cfg: StreamConfig,
) -> Result<(Vec<u64>, PipelineStats), SuiteError> {
    cfg.validate("bfs")?;
    let n = g.num_vertices();
    if src >= n {
        return Err(SuiteError::degenerate(
            "bfs",
            format!("source vertex {src} out of range for {n} vertices"),
        ));
    }
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(bfs_frontier::INF)).collect();
    dist[src].store(0, Ordering::Relaxed);
    let stats = drive_levels(src as u32, cfg, |level, chunk| {
        let mut claimed = Vec::new();
        for &u in &chunk {
            for &v in g.neighbors(u as usize) {
                // Claim v for this level; exactly one parent wins (the
                // same discipline as bfs_frontier).
                if dist[v as usize]
                    .compare_exchange(
                        bfs_frontier::INF,
                        level,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    claimed.push(v);
                }
            }
        }
        claimed
    })?;
    Ok((dist.into_iter().map(AtomicU64::into_inner).collect(), stats))
}

/// The level loop of [`bfs_stream`] as one resident pipeline: source →
/// `bfs-expand` farm → sink, started once and kept across all levels by
/// a sink→source feedback edge. `expand(level, chunk)` yields the
/// vertices the chunk claims for `level`.
///
/// Protocol: the source takes a frontier off the edge, emits it as
/// `(level, chunk)` items and parks on the edge again; the sink counts
/// the level's `⌈|frontier| / chunk⌉` results in, sorts the claimed set
/// (so the chunk partition, and with it every pipeline counter, is a
/// function of the graph) and hands it back. An empty frontier ends the
/// source, which closes the channels in the usual ownership-driven
/// order. The edge is unbounded, so the sink never blocks on it, and
/// holds at most one frontier — which a level-synchronous BFS keeps
/// whole anyway; the `capacity × channels` bound is on chunks.
///
/// Unwinding: the fold closure owns the edge's sender, so a sink panic —
/// or the sink ending because the whole farm died — disconnects it and
/// un-parks the source. A panic in one worker of a wider farm loses a
/// chunk the sink would wait for forever, with the survivors parked
/// upstream; that worker sends the empty frontier itself, through a
/// `Weak` that cannot keep the edge alive, before it resumes unwinding.
fn drive_levels<C: IntoIterator<Item = u32> + Send + 'static>(
    src: u32,
    cfg: StreamConfig,
    expand: impl Fn(u64, Vec<u32>) -> C + Send + Sync,
) -> Result<PipelineStats, SuiteError> {
    let (feedback, parked) = mpsc::channel::<Vec<u32>>();
    feedback.send(vec![src]).expect("receiver is in scope");
    let feedback = Arc::new(feedback);
    let stop = Arc::downgrade(&feedback);
    let (mut frontier, mut at, mut level) = (Vec::new(), 0, 0u64);
    let source = std::iter::from_fn(move || {
        if at == frontier.len() {
            frontier = parked.recv().ok().filter(|next| !next.is_empty())?;
            (at, level) = (0, level + 1);
        }
        let chunk = frontier[at..frontier.len().min(at + cfg.chunk)].to_vec();
        at += chunk.len();
        Some((level, chunk))
    });
    let (mut next, mut pending) = (Vec::new(), 1usize);
    Pipeline::source(cfg.pipeline(), source)
        .and_then(|p| {
            p.stage("bfs-expand", cfg.workers, move |(level, chunk)| {
                catch_unwind(AssertUnwindSafe(|| expand(level, chunk))).unwrap_or_else(|panic| {
                    if let Some(feedback) = stop.upgrade() {
                        let _ = feedback.send(Vec::new());
                    }
                    resume_unwind(panic)
                })
            })
        })
        .and_then(|p| {
            p.run_fold((), move |(), claimed| {
                next.extend(claimed);
                pending -= 1;
                if pending == 0 {
                    next.sort_unstable();
                    pending = next.len().div_ceil(cfg.chunk);
                    // Fails only once the source is gone, and then this
                    // sink's recv is about to report end-of-stream.
                    let _ = feedback.send(std::mem::take(&mut next));
                }
            })
        })
        .map(|((), stats)| stats)
        .map_err(|e| stream_error("bfs", e))
}

/// The in-flight high-water-mark claim every streaming cell must honor.
fn check_bounded(bench: &'static str, stats: &PipelineStats) -> Result<(), SuiteError> {
    if !stats.inflight_bounded() {
        return Err(SuiteError::invariant(
            bench,
            format!(
                "pipeline max_inflight {} exceeds bound {} ({} channels × {} capacity)",
                stats.max_inflight,
                stats.inflight_bound(),
                stats.channels,
                stats.capacity
            ),
        ));
    }
    Ok(())
}

/// Runs one streaming verification cell: the streaming output must agree
/// exactly with the batch sequential oracle (and, for `bfs`, the batch
/// parallel ablation), pass the benchmark's structural invariant
/// checker, and honor the bounded-memory claim. With `inject`, the
/// streaming output is deliberately corrupted first — the cell must then
/// return an `Err` (the harness's failure-path probe, mirroring
/// [`verify_pair`](crate::verify::verify_pair)).
pub fn verify_streaming(
    name: &str,
    i: &SuiteInputs<'_>,
    cfg: StreamConfig,
    inject: bool,
) -> Result<(), SuiteError> {
    match name {
        "hist" => check_hist_stream(i, cfg, inject),
        "dedup" => check_dedup_stream(i, cfg, inject),
        "bfs" => check_bfs_stream(i, cfg, inject),
        other => Err(SuiteError::malformed(
            "verify",
            format!("unknown streaming benchmark `{other}` (valid: hist, dedup, bfs)"),
        )),
    }
}

fn check_hist_stream(
    i: &SuiteInputs<'_>,
    cfg: StreamConfig,
    inject: bool,
) -> Result<(), SuiteError> {
    let nbuckets = 64;
    let range = i.seq.len() as u64;
    let (mut h, stats) = hist_stream(i.seq, nbuckets, range, cfg)?;
    check_bounded("hist", &stats)?;
    if inject {
        h[0] += 1;
    }
    hist::verify(i.seq, nbuckets, &h)?;
    if h != hist::run_seq(i.seq, nbuckets, range)? {
        return Err(SuiteError::divergence(
            "hist",
            "streaming counts differ from batch sequential",
        ));
    }
    Ok(())
}

fn check_dedup_stream(
    i: &SuiteInputs<'_>,
    cfg: StreamConfig,
    inject: bool,
) -> Result<(), SuiteError> {
    let (mut out, stats) = dedup_stream(i.seq, cfg)?;
    check_bounded("dedup", &stats)?;
    if inject {
        if let Some(&first) = out.first() {
            out.insert(0, first);
        }
    }
    dedup::verify(i.seq, &out)?;
    if out != dedup::run_seq(i.seq) {
        return Err(SuiteError::divergence(
            "dedup",
            "streaming distinct set differs from batch sequential",
        ));
    }
    Ok(())
}

fn check_bfs_stream(
    i: &SuiteInputs<'_>,
    cfg: StreamConfig,
    mut inject: bool,
) -> Result<(), SuiteError> {
    for g in [i.link, i.road] {
        let (mut d, stats) = bfs_stream(g, 0, cfg)?;
        check_bounded("bfs", &stats)?;
        if std::mem::take(&mut inject) {
            d[0] = 1;
        }
        bfs::verify(g, 0, &d)?;
        let seq = bfs::run_seq(g, 0);
        if d != seq {
            return Err(SuiteError::divergence(
                "bfs",
                "streaming frontier distances differ from sequential BFS",
            ));
        }
        if bfs_frontier::run_par(g, 0) != seq {
            return Err(SuiteError::divergence(
                "bfs",
                "batch frontier ablation differs from sequential BFS",
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use rpb_graph::GraphKind;
    use rpb_pipeline::ALL_CHANNELS;

    fn cfg(channel: ChannelKind) -> StreamConfig {
        StreamConfig {
            channel,
            backend: BackendKind::Rayon,
            chunk: 512,
            capacity: 4,
            workers: 2,
        }
    }

    #[test]
    fn hist_stream_matches_batch_on_both_channels() {
        let data = inputs::exponential(20_000);
        let range = data.len() as u64;
        let want = hist::run_seq(&data, 64, range).expect("hist");
        for channel in ALL_CHANNELS {
            let (got, stats) = hist_stream(&data, 64, range, cfg(channel)).expect("stream");
            assert_eq!(got, want, "{channel:?}");
            assert!(stats.inflight_bounded(), "{stats:?}");
            assert_eq!(stats.items_in, data.len().div_ceil(512) as u64);
            assert_eq!(stats.items_in, stats.items_out);
        }
    }

    #[test]
    fn dedup_stream_matches_batch_on_both_channels() {
        let data: Vec<u64> = (0..30_000u64).map(|i| (i * i) % 257).collect();
        let want = dedup::run_seq(&data);
        for channel in ALL_CHANNELS {
            let (got, stats) = dedup_stream(&data, cfg(channel)).expect("stream");
            assert_eq!(got, want, "{channel:?}");
            assert!(stats.inflight_bounded(), "{stats:?}");
        }
    }

    #[test]
    fn bfs_stream_matches_batch_on_both_channels() {
        rpb_multiqueue::backend::ensure_registered();
        for kind in [GraphKind::Link, GraphKind::Road] {
            let g = inputs::graph(kind, 2000);
            let want = bfs::run_seq(&g, 0);
            for channel in ALL_CHANNELS {
                for backend in exec::ALL_BACKENDS {
                    for workers in [1, 2, 4] {
                        for chunk in [1, 512, 4096] {
                            let shape = StreamConfig {
                                backend,
                                chunk,
                                workers,
                                ..cfg(channel)
                            };
                            let (got, stats) = bfs_stream(&g, 0, shape).expect("stream");
                            assert_eq!(got, want, "{kind:?} {shape:?}");
                            assert!(stats.inflight_bounded(), "{shape:?} {stats:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_worker_stream_is_deterministic_in_counters() {
        // The gate's hard-counter cells run at one worker per stage:
        // items_in/items_out must be exact functions of the input shape.
        let data = inputs::exponential(10_000);
        let one = StreamConfig {
            workers: 1,
            ..cfg(ChannelKind::Mpsc)
        };
        let (_, a) = hist_stream(&data, 64, data.len() as u64, one).expect("stream");
        let (_, b) = hist_stream(&data, 64, data.len() as u64, one).expect("stream");
        // All but the high-water mark, which depends on the schedule.
        let flow = |s| PipelineStats {
            max_inflight: 0,
            ..s
        };
        assert_eq!(flow(a), flow(b));
        assert_eq!(a.items_in, data.len().div_ceil(one.chunk) as u64);
    }

    /// Runs `f` on a thread of its own; a hang fails the test instead of
    /// stalling the suite.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, watchdog) = mpsc::channel();
        std::thread::spawn(move || done.send(f()));
        watchdog
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the traversal hung (or its thread panicked)")
    }

    #[test]
    fn panic_behind_a_parked_source_is_a_typed_error_not_a_hang() {
        // A path: the frontier of level l is {l}, one chunk, so while its
        // expand step runs the source has nothing left to emit — its only
        // way forward is the feedback edge. The panic strikes at level 3;
        // at 2 workers the farm survives it, parked upstream.
        const DEPTH: u32 = 8;
        let step = |level: u64, u: u32, blame: &str| {
            assert!(level != 3, "injected {blame} panic");
            u + 1
        };
        let in_expand = move |level, chunk: Vec<u32>| -> Vec<u32> {
            chunk
                .into_iter()
                .map(|u| step(level, u, "expand"))
                .collect()
        };
        // Lazy: the sink's `extend` is what runs the map.
        let in_sink =
            move |level, chunk: Vec<u32>| chunk.into_iter().map(move |u| step(level, u, "sink"));
        let clean = |_, chunk: Vec<u32>| -> Vec<u32> {
            chunk
                .into_iter()
                .filter(|&u| u < DEPTH)
                .map(|u| u + 1)
                .collect()
        };
        rpb_multiqueue::backend::ensure_registered();
        for backend in exec::ALL_BACKENDS {
            for channel in ALL_CHANNELS {
                for workers in [1, 2] {
                    let cfg = StreamConfig {
                        backend,
                        capacity: 1,
                        workers,
                        ..cfg(channel)
                    };
                    let cell = format!("{backend:?}/{channel:?}/{workers}");
                    let runs = [
                        (
                            within_watchdog(move || drive_levels(0, cfg, in_expand)),
                            "`bfs-expand`",
                            "injected expand panic",
                        ),
                        (
                            within_watchdog(move || drive_levels(0, cfg, in_sink)),
                            "`sink`",
                            "injected sink panic",
                        ),
                    ];
                    for (run, stage, message) in runs {
                        match run.expect_err("the injected panic must surface") {
                            SuiteError::InvariantViolated {
                                benchmark: "bfs",
                                reason,
                            } => {
                                assert!(reason.contains(stage), "{cell}: {reason}");
                                assert!(reason.contains(message), "{cell}: {reason}");
                            }
                            other => panic!("{cell}: wrong error kind: {other}"),
                        }
                    }
                    // The backend is unharmed: a clean traversal follows.
                    let stats = within_watchdog(move || drive_levels(0, cfg, clean)).expect(&cell);
                    assert_eq!(stats.items_in, u64::from(DEPTH) + 1, "{cell}");
                    assert_eq!(stats.items_in, stats.items_out, "{cell}");
                }
            }
        }
    }

    #[test]
    fn empty_inputs_stream_cleanly() {
        let (h, stats) = hist_stream(&[], 8, 100, cfg(ChannelKind::Mpsc)).expect("stream");
        assert_eq!(h, vec![0u64; 8]);
        assert_eq!(stats.items_in, 0);
        let (d, _) = dedup_stream(&[], cfg(ChannelKind::Crossbeam)).expect("stream");
        assert!(d.is_empty());
    }

    #[test]
    fn degenerate_parameters_are_typed_errors() {
        let base = cfg(ChannelKind::Mpsc);
        let err = hist_stream(&[1], 4, 10, StreamConfig { chunk: 0, ..base }).unwrap_err();
        assert!(
            matches!(err, SuiteError::DegenerateParameter { .. }),
            "{err}"
        );
        let err = dedup_stream(&[1], StreamConfig { workers: 0, ..base }).unwrap_err();
        assert!(
            matches!(err, SuiteError::DegenerateParameter { .. }),
            "{err}"
        );
        let err = hist_stream(
            &[1],
            4,
            10,
            StreamConfig {
                capacity: 0,
                ..base
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, SuiteError::DegenerateParameter { .. }),
            "{err}"
        );
        assert!(hist_stream(&[1], 0, 10, base).is_err(), "zero buckets");
        let g = inputs::graph(GraphKind::Road, 50);
        let err = bfs_stream(&g, g.num_vertices() + 1, base).unwrap_err();
        assert!(
            matches!(err, SuiteError::DegenerateParameter { .. }),
            "{err}"
        );
    }
}
