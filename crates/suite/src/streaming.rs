//! Streaming variants of `hist`, `dedup`, and `bfs` over the
//! [`rpb_pipeline`] skeletons — the suite's chunked counterparts to the
//! batch benchmarks, with bounded in-flight memory.
//!
//! Each variant cuts its input into owned chunks, runs a sequential
//! per-chunk step on a farm of pipeline workers, and merges at the sink:
//!
//! * [`hist_stream`] — per-chunk bucket counts, vector-added at the sink
//!   (histogram merging is associative and commutative, so farm arrival
//!   order is invisible),
//! * [`dedup_stream`] — each chunk counting-sorted into order-preserving
//!   value buckets, folded bucket by bucket at the sink: a bucket holds
//!   its values until its span fits in one bitmap word per value, then
//!   sets a presence bit per value. After the stream every bucket writes
//!   its sorted distinct values straight into its own range of the
//!   output, in parallel,
//! * [`bfs_stream`] — level-synchronous BFS with pipelined frontier
//!   generation: one pipeline per traversal, resident across levels (the
//!   sink feeds each next frontier back to the source), expands frontier
//!   chunks, claiming vertices with the same CAS discipline as
//!   [`bfs_frontier`], so the claimed *set* per level is deterministic
//!   even though chunk arrival order is not.
//!
//! All three must agree exactly with their batch siblings — that is the
//! `rpb verify --streaming` contract ([`verify_streaming`]), checked
//! across both channel backends and both executor backends. Each run
//! also returns its [`PipelineStats`], whose
//! [`inflight_bounded`](PipelineStats::inflight_bounded) claim (high-water
//! mark ≤ channel capacity × channels) the verifier asserts per cell:
//! streaming is only worth its name if memory stays bounded. The sinks
//! hold state of their own, outside that bound: `hist` its counts, `bfs`
//! the next frontier, and `dedup` at most one word per value it has
//! received, a dense bucket no more than its span's bitmap.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rayon::prelude::*;
use rpb_graph::Graph;
use rpb_parlay::exec::{self, BackendKind};
use rpb_parlay::random::hash64;
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

/// Streaming dedup: the farm counting-sorts each chunk into 1 040
/// order-preserving buckets (a value's bit length, then the four bits
/// below its leading one) and the sink folds each bucket's run into that
/// bucket: a bucket holds its values until its value span fits in one
/// 64-bit word per value received, then sets one bit of a presence bitmap
/// per value instead. Once the stream has ended, each bucket counts its
/// distinct values (a held one sorts and deduplicates first), a scan of
/// the counts carves the output into one range per bucket with
/// `split_at_mut`, and every bucket writes its values ascending into its
/// range in parallel on the ambient pool. The buckets preserve order, so
/// the output is the distinct values sorted ascending, exactly like the
/// batch variants.
///
/// The sink holds at most one word per value it has received (spare `Vec`
/// capacity aside), and a dense bucket no more than its span's bitmap,
/// however many values arrive: on an input of `n` values below `n`, the
/// bitmaps take at most about `n / 32` words (19 536 for 1.6 M
/// `exponential` values).
pub fn dedup_stream(
    data: &[u64],
    cfg: StreamConfig,
) -> Result<(Vec<u64>, PipelineStats), SuiteError> {
    cfg.validate("dedup")?;
    let (mut buckets, stats) =
        Pipeline::source(cfg.pipeline(), data.chunks(cfg.chunk).map(<[u64]>::to_vec))
            .and_then(|p| {
                p.stage("dedup-chunk", cfg.workers, |chunk: Vec<u64>| {
                    bucket_chunk(&chunk)
                })
            })
            .and_then(|p| p.run_fold(Bucket::sink(), fold_chunk))
            .map_err(|e| stream_error("dedup", e))?;
    let counts: Vec<usize> = buckets.par_iter_mut().map(Bucket::distinct).collect();
    let mut out = vec![0; counts.iter().sum()];
    let mut ranges: Vec<&mut [u64]> = Vec::with_capacity(DEDUP_BUCKETS);
    let mut rest = out.as_mut_slice();
    for &n in &counts {
        let (head, tail) = rest.split_at_mut(n);
        ranges.push(head);
        rest = tail;
    }
    buckets
        .par_iter()
        .zip(ranges)
        .for_each(|(bucket, range)| bucket.write(range));
    Ok((out, stats))
}

/// The sink step of [`dedup_stream`]: folds each run of a
/// [`bucket_chunk`] into its bucket.
fn fold_chunk(
    mut buckets: Vec<Bucket>,
    (values, runs): (Vec<u64>, Vec<(usize, usize)>),
) -> Vec<Bucket> {
    let mut start = 0;
    for (bucket, end) in runs {
        buckets[bucket].add(&values[start..end]);
        start = end;
    }
    buckets
}

/// One [`dedup_bucket`] as the sink of [`dedup_stream`] keeps it.
#[derive(Debug)]
enum Bucket {
    /// The values received so far, while [`bitmap_span`] admits no bitmap
    /// over them; after [`Bucket::distinct`], its distinct values ascending.
    Held(Vec<u64>),
    /// The presence bitmap of the bucket's span from `base`: bit `i` of
    /// word `w` is set iff `base + 64 w + i` was received.
    Bitmap { base: u64, present: Vec<u64> },
}

impl Bucket {
    /// The sink's state before the first chunk: every bucket held and
    /// empty.
    fn sink() -> Vec<Bucket> {
        (0..DEDUP_BUCKETS)
            .map(|_| Bucket::Held(Vec::new()))
            .collect()
    }

    /// Folds in `run`, values of this bucket. A held bucket converts on the
    /// run that brings the values it has received up to its span's words:
    /// it sets the bits of those values and frees them.
    fn add(&mut self, run: &[u64]) {
        match self {
            Bucket::Held(held) => {
                let span = run
                    .first()
                    .and_then(|&x| bitmap_span(x, held.len() + run.len()));
                let Some((base, words)) = span else {
                    held.extend_from_slice(run);
                    return;
                };
                let mut present = vec![0u64; words];
                set_bits(&mut present, base, held);
                set_bits(&mut present, base, run);
                *self = Bucket::Bitmap { base, present };
            }
            Bucket::Bitmap { base, present } => set_bits(present, *base, run),
        }
    }

    /// The number of distinct values received. A held bucket sorts and
    /// deduplicates its values first, so [`Bucket::write`] can copy them.
    fn distinct(&mut self) -> usize {
        match self {
            Bucket::Held(held) => {
                held.sort_unstable();
                held.dedup();
                held.len()
            }
            Bucket::Bitmap { present, .. } => {
                present.iter().map(|bits| bits.count_ones() as usize).sum()
            }
        }
    }

    /// Writes the distinct values ascending into `out`, which is
    /// [`Bucket::distinct`] long.
    fn write(&self, out: &mut [u64]) {
        match self {
            Bucket::Held(held) => out.copy_from_slice(held),
            Bucket::Bitmap { base, present } => {
                let mut at = 0;
                for (w, &bits) in present.iter().enumerate() {
                    let (word, mut bits) = (base + 64 * w as u64, bits);
                    while bits != 0 {
                        out[at] = word + u64::from(bits.trailing_zeros());
                        at += 1;
                        bits &= bits - 1;
                    }
                }
                assert_eq!(at, out.len(), "a bucket's range is its distinct count");
            }
        }
    }
}

/// Sets the bit of each of `values` in the presence bitmap of the span
/// from `base`.
fn set_bits(present: &mut [u64], base: u64, values: &[u64]) {
    for &x in values {
        // A value from another bucket falls outside the bitmap (or
        // underflows) and panics, never aliasing a bit.
        let at = x - base;
        present[(at / 64) as usize] |= 1 << (at % 64);
    }
}

/// The presence bitmap of a bucket of `n` values, `x` among them: the
/// lowest value of the bucket's span and the span's length in 64-bit
/// words, if the bucket is dense enough for one.
///
/// A bucket of bit length `L ≥ 5` spans the `2^(L−5)` values from `base`
/// (the leading one and the four bits below it fixed, the rest zero). The
/// bitmap is used when that span takes at most one word per value, so it
/// costs O(n) and is never larger than the values it replaces; a sparse
/// bucket, one of bit length near 64, or one below 5 (a single value) has
/// none.
fn bitmap_span(x: u64, n: usize) -> Option<(u64, usize)> {
    let free = (64 - x.leading_zeros()).checked_sub(5)?;
    let words = (1u64 << free).div_ceil(64);
    (words <= n as u64).then(|| (x >> free << free, words as usize))
}

/// Number of [`dedup_bucket`]s: 65 bit lengths × 16 leading-bit patterns.
const DEDUP_BUCKETS: usize = 65 << 4;

/// An order-preserving bucket of `x`: its bit length (0–64), then the four
/// bits below its leading one. `x < y` implies `bucket(x) <= bucket(y)`.
fn dedup_bucket(x: u64) -> usize {
    let lz = x.leading_zeros();
    // Shifting by `lz` puts the leading one at bit 63 (0 stays 0).
    let below = ((x << (lz & 63)) >> 59) & 0xF;
    (((64 - lz) as usize) << 4) | below as usize
}

/// Counting-sorts `chunk` by [`dedup_bucket`]: the values, and for each
/// non-empty bucket in ascending order, the bucket and where its run ends.
fn bucket_chunk(chunk: &[u64]) -> (Vec<u64>, Vec<(usize, usize)>) {
    let mut next = vec![0usize; DEDUP_BUCKETS];
    for &x in chunk {
        next[dedup_bucket(x)] += 1;
    }
    let mut runs = Vec::new();
    let mut end = 0;
    for (bucket, slot) in next.iter_mut().enumerate() {
        if *slot > 0 {
            let start = end;
            end += *slot;
            runs.push((bucket, end));
            *slot = start;
        }
    }
    let mut values = vec![0; chunk.len()];
    for &x in chunk {
        let at = &mut next[dedup_bucket(x)];
        values[*at] = x;
        *at += 1;
    }
    (values, runs)
}

/// Streaming BFS hop distances from `src`: level-synchronous like
/// [`bfs_frontier`], with every level expanded by the *same* resident
/// pipeline (`drive_levels`) — chunks of the frontier flow through a
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
/// order. The edge is the pipeline's own link at capacity 2, outside the
/// `capacity × channels` bound (which is on chunks).
///
/// The sink never blocks on the edge. It holds at most one frontier:
/// the sink sends level `l + 1`'s only after every chunk of level `l`
/// came in, and the source emits those only after it took level `l`'s
/// off the edge. The one other item is the stop token of the panic path
/// below, sent once per run; a frontier and a token are 2.
///
/// Unwinding: the fold closure owns the edge's sender, so a sink panic —
/// or the sink ending because the whole farm died — disconnects it and
/// un-parks the source. A panic in one worker of a wider farm loses a
/// chunk the sink would wait for forever, with the survivors parked
/// upstream; the first such worker sends the empty frontier itself,
/// through a `Weak` that cannot keep the edge alive, before it resumes
/// unwinding. Only the first: a token from each of three panicking
/// workers would overfill the edge, and a worker blocked there holds the
/// chunk channel the source is blocked on.
fn drive_levels<C: IntoIterator<Item = u32> + Send + 'static>(
    src: u32,
    cfg: StreamConfig,
    expand: impl Fn(u64, Vec<u32>) -> C + Send + Sync,
) -> Result<PipelineStats, SuiteError> {
    let (feedback, parked) = rpb_pipeline::bounded::<Vec<u32>>(ChannelKind::Mpsc, 2);
    feedback.send(vec![src]).expect("receiver is in scope");
    let feedback = Arc::new(feedback);
    let (stop, stopped) = (Arc::downgrade(&feedback), AtomicBool::new(false));
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
                    if !stopped.swap(true, Ordering::Relaxed) {
                        if let Some(feedback) = stop.upgrade() {
                            let _ = feedback.send(Vec::new());
                        }
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

/// Checks `dedup` on the suite sequence, whose values lie below its length
/// (dense buckets, the bitmap path), and on the two inputs of
/// [`hashed_and_mixed`].
fn check_dedup_stream(
    i: &SuiteInputs<'_>,
    cfg: StreamConfig,
    mut inject: bool,
) -> Result<(), SuiteError> {
    let (full, mixed) = hashed_and_mixed(i.seq);
    for data in [i.seq, &full, &mixed] {
        let (mut out, stats) = dedup_stream(data, cfg)?;
        check_bounded("dedup", &stats)?;
        if std::mem::take(&mut inject) {
            if let Some(&first) = out.first() {
                out.insert(0, first);
            }
        }
        dedup::verify(data, &out)?;
        if out != dedup::run_seq(data) {
            return Err(SuiteError::divergence(
                "dedup",
                "streaming distinct set differs from batch sequential",
            ));
        }
    }
    Ok(())
}

/// A full-range copy of `seq`, each value through `hash64` (sparse
/// buckets of bit length near 64, the sorting path), and `seq` interleaved
/// with that copy: a stream that takes both paths, whose dense buckets
/// fill at half the rate and so convert to a bitmap later in the stream.
fn hashed_and_mixed(seq: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let full: Vec<u64> = seq.iter().map(|&x| hash64(x)).collect();
    let mixed = seq.iter().zip(&full).flat_map(|(&x, &h)| [x, h]).collect();
    (full, mixed)
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
    fn dedup_buckets_preserve_order_across_bit_lengths() {
        let mut edges: Vec<u64> = (0..64)
            .flat_map(|k| {
                let p = 1u64 << k;
                [p - 1, p, p | (p >> 1), p | (p >> 4), p | (p - 1)]
            })
            .chain([u64::MAX, u64::MAX - 1, 0x8000_0000_0000_0001])
            .collect();
        edges.sort_unstable();
        for w in edges.windows(2) {
            assert!(
                dedup_bucket(w[0]) <= dedup_bucket(w[1]),
                "{:#x} {:#x}",
                w[0],
                w[1]
            );
        }
        assert_eq!(dedup_bucket(0), 0);
        assert_eq!(dedup_bucket(1), 16);
        assert_eq!(dedup_bucket(u64::MAX), DEDUP_BUCKETS - 1);
        // Every bucket of a bit length ≥ 5 is reachable.
        assert_eq!(dedup_bucket(0b11_1100), (6 << 4) | 0b1110);
    }

    /// `n` values of the bucket of `base`, spread over its first `window`
    /// values with repeats, in no order.
    fn bucket_of(base: u64, window: u64, n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| base + rpb_parlay::random::hash64(i) % window)
            .collect()
    }

    /// The words `bucket` holds: its values, or its bitmap.
    fn footprint(bucket: &Bucket) -> usize {
        match bucket {
            Bucket::Held(held) => held.len(),
            Bucket::Bitmap { present, .. } => present.len(),
        }
    }

    /// The distinct values of `bucket` ascending, as the final pass writes
    /// them.
    fn read_out(mut bucket: Bucket) -> Vec<u64> {
        let mut out = vec![0; bucket.distinct()];
        bucket.write(&mut out);
        out
    }

    /// Folds `runs` into an empty bucket: it never holds more words than
    /// the values it has received, ends in a bitmap iff `bitmap`, and reads
    /// out what `sort_unstable` + `dedup` make of all it received.
    fn check_bucket(runs: &[Vec<u64>], bitmap: bool) {
        let mut bucket = Bucket::Held(Vec::new());
        let mut received: Vec<u64> = Vec::new();
        for run in runs {
            bucket.add(run);
            received.extend_from_slice(run);
            assert!(footprint(&bucket) <= received.len(), "{bucket:?}");
        }
        let (first, n) = (received[0], received.len());
        assert!(received
            .iter()
            .all(|&x| dedup_bucket(x) == dedup_bucket(first)));
        let converted = matches!(bucket, Bucket::Bitmap { .. });
        assert_eq!(converted, bitmap, "{first:#x} × {n}");
        received.sort_unstable();
        received.dedup();
        assert_eq!(read_out(bucket), received, "{first:#x} × {n}");
    }

    #[test]
    fn a_bucket_takes_the_bitmap_at_one_word_per_value() {
        // Bit length 16: a span of 2^11 values, 32 words.
        let base = 0b1_0110 << 11;
        assert_eq!(bitmap_span(base + 5, 32), Some((base, 32)));
        for (n, bitmap) in [(31, false), (32, true), (33, true)] {
            check_bucket(&[bucket_of(base, 1 << 11, n)], bitmap);
        }
        // A bucket of bit length 5–10 spans at most one word.
        for len in 5..=10 {
            let x = (1 << (len - 1)) | 1 << (len - 5);
            assert_eq!(bitmap_span(x, 1), Some((x >> (len - 5) << (len - 5), 1)));
            check_bucket(&[vec![x, x]], true);
        }
    }

    #[test]
    fn a_bucket_converts_on_the_run_that_reaches_its_span_words() {
        for len in 5..=24u32 {
            let free = len - 5;
            let base = 0b1_1010 << free;
            let words = (1usize << free).div_ceil(64);
            let values = bucket_of(base, 1 << free, 2 * words as u64);
            // One value a run: held up to one value short of the words.
            let mut bucket = Bucket::Held(Vec::new());
            for (i, &x) in values.iter().enumerate() {
                bucket.add(&[x]);
                let converted = matches!(bucket, Bucket::Bitmap { .. });
                assert_eq!(
                    converted,
                    i + 1 >= words,
                    "bit length {len}, {} values",
                    i + 1
                );
            }
            // Runs of 7: converts on the run whose end reaches the words.
            let mut bucket = Bucket::Held(Vec::new());
            for (r, run) in values.chunks(7).enumerate() {
                bucket.add(run);
                let converted = matches!(bucket, Bucket::Bitmap { .. });
                assert_eq!(
                    converted,
                    7 * r + run.len() >= words,
                    "bit length {len}, run {r}"
                );
            }
            check_bucket(&[values], true);
        }
    }

    #[test]
    fn runs_straddling_the_conversion_match_sort_and_dedup() {
        // Bit length 16 (32 words): 20 values, then a run that crosses 32,
        // each side repeating values of the other, then a long tail.
        let base = 0b1_0001 << 11;
        let early = bucket_of(base, 40, 20);
        let straddle: Vec<u64> = early.iter().map(|x| x + 3).chain(early.clone()).collect();
        let tail = bucket_of(base, 1 << 11, 5_000);
        check_bucket(&[early.clone(), straddle.clone()], true);
        check_bucket(&[early.clone(), straddle, tail.clone(), early], true);
        check_bucket(
            &tail.chunks(3).map(<[u64]>::to_vec).collect::<Vec<_>>(),
            true,
        );
        // Bit length 24: a span of 2^19 values, 8192 words, every value
        // received once plus repeats, in one run and in runs of 1000.
        let base = 0b1_1011 << 19;
        let mut full: Vec<u64> = (0..1 << 19).rev().map(|i| base + i).collect();
        full.extend(bucket_of(base, 1 << 19, 1000));
        check_bucket(
            &full.chunks(1000).map(<[u64]>::to_vec).collect::<Vec<_>>(),
            true,
        );
        check_bucket(&[full], true);
        // The last value of a bit length 5 bucket, the only one in it.
        check_bucket(&[vec![0b1_1111; 4]], true);
    }

    #[test]
    fn buckets_below_bit_length_5_or_near_64_never_convert() {
        // Bit lengths 0–4: each bucket is one value.
        for x in [0, 1, 0b11, 0b101, 0b1111] {
            check_bucket(&vec![vec![x; 250]; 4], false);
        }
        // Bit lengths 40, 63 and 64: spans of 2^35–2^59 values.
        for top in [0b1_0000 << 35, 0b1_0111 << 58, u64::MAX << 59] {
            let values = bucket_of(top, 1 << 35, 5_000);
            check_bucket(
                &values.chunks(64).map(<[u64]>::to_vec).collect::<Vec<_>>(),
                false,
            );
        }
        check_bucket(&[vec![u64::MAX, u64::MAX << 59, u64::MAX]], false);
        // A dense run at a high base is sparse in its bucket.
        let run: Vec<u64> = (0..4096).rev().map(|i| (1 << 40) + i).collect();
        check_bucket(&[run], false);
    }

    #[test]
    fn empty_and_one_chunk_streams_match_batch() {
        let mut bucket = Bucket::Held(Vec::new());
        bucket.add(&[]);
        assert!(matches!(&bucket, Bucket::Held(held) if held.is_empty()));
        assert!(read_out(bucket).is_empty());
        let data = inputs::exponential(1_000);
        for data in [&[][..], &data[..1], &data[..300], &data[..512]] {
            let (got, stats) = dedup_stream(data, cfg(ChannelKind::Mpsc)).expect("stream");
            assert_eq!(got, dedup::run_seq(data), "{} values", data.len());
            assert_eq!(stats.items_in, data.len().div_ceil(512) as u64);
        }
    }

    #[test]
    fn the_dedup_verifier_reaches_both_paths_and_a_late_conversion() {
        // The sink's buckets as `check_dedup_stream` folds them at gate
        // scale: how many end in a bitmap, how many hold values, and how
        // many converted on a run after one that left them holding values.
        let holds = |b: &Bucket| matches!(b, Bucket::Held(h) if !h.is_empty());
        let bitmap = |b: &Bucket| matches!(b, Bucket::Bitmap { .. });
        let fold = |data: &[u64]| -> [usize; 3] {
            let (mut sink, mut late) = (Bucket::sink(), 0);
            for chunk in data.chunks(DEFAULT_CHUNK) {
                let held: Vec<bool> = sink.iter().map(holds).collect();
                sink = fold_chunk(sink, bucket_chunk(chunk));
                late += held
                    .iter()
                    .zip(&sink)
                    .filter(|&(&h, b)| h && bitmap(b))
                    .count();
            }
            let count = |p: &dyn Fn(&Bucket) -> bool| sink.iter().filter(|b| p(b)).count();
            [count(&bitmap), count(&holds), late]
        };
        let seq = inputs::exponential(crate::Scale::gate().seq_len);
        let (full, mixed) = hashed_and_mixed(&seq);
        let [bitmaps, _, _] = fold(&seq);
        assert!(bitmaps > 0);
        assert_eq!(fold(&full)[0], 0);
        let [bitmaps, held, late] = fold(&mixed);
        assert!(
            bitmaps > 0 && held > 0 && late > 0,
            "{bitmaps} {held} {late}"
        );
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
        let (done, watchdog) = std::sync::mpsc::channel();
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
    fn a_whole_farm_panicking_sends_one_stop_token_and_no_hang() {
        // Level 2 is 64 one-vertex chunks behind a capacity-1 channel, and
        // each of the 3 workers dies on its first one, so the source is
        // still blocked emitting the level when the last worker panics.
        // A stop token from each worker would fill the capacity-2 edge
        // and leave the third blocked on it, holding the channel the
        // source is blocked on.
        let expand = |level: u64, chunk: Vec<u32>| -> Vec<u32> {
            assert!(level != 2, "injected expand panic");
            chunk.into_iter().flat_map(|_| 1..=64).collect()
        };
        rpb_multiqueue::backend::ensure_registered();
        for backend in exec::ALL_BACKENDS {
            for channel in ALL_CHANNELS {
                let cfg = StreamConfig {
                    backend,
                    chunk: 1,
                    capacity: 1,
                    workers: 3,
                    ..cfg(channel)
                };
                let err = within_watchdog(move || drive_levels(0, cfg, expand))
                    .expect_err("the injected panic must surface");
                assert!(
                    err.to_string().contains("injected expand panic"),
                    "{backend:?}/{channel:?}: {err}"
                );
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
