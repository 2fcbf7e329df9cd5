//! Differential property tests for the streaming skeletons: chunked
//! pipeline variants must agree with the batch oracles on *random* data
//! and random pipeline shapes (chunk size, channel capacity, farm width,
//! channel backend) — not just the curated suite inputs. Both results
//! are canonical (histogram buckets, sorted distinct values), so exact
//! equality is the property.

#![cfg(not(miri))]

use rpb_parlay::exec::BackendKind;
use rpb_parlay::prop::{check, Gen};
use rpb_pipeline::ChannelKind;
use rpb_suite::streaming::{dedup_stream, hist_stream};
use rpb_suite::{dedup, hist};

/// A random pipeline shape: channel backend, chunk size, capacity, farm
/// width — the axes that perturb scheduling without changing the answer.
fn arb_shape(g: &mut Gen) -> rpb_suite::StreamConfig {
    rpb_suite::StreamConfig {
        channel: g.pick(&[ChannelKind::Mpsc, ChannelKind::Crossbeam]),
        backend: BackendKind::Rayon,
        chunk: g.in_range(1..201) as usize,
        capacity: g.in_range(1..9) as usize,
        workers: g.in_range(1..5) as usize,
    }
}

const CASES: usize = 40;

/// Chunked streaming histogram equals the sequential batch histogram
/// for any data and any pipeline shape, and honors the in-flight
/// memory bound.
#[test]
fn hist_stream_matches_batch() {
    check("hist_stream_matches_batch", CASES, |g| {
        let data = g.vec(0..2_000, |g| g.u64());
        let nbuckets = g.in_range(1..65) as usize;
        let shape = arb_shape(g);
        let range = data.len().max(1) as u64;
        let data: Vec<u64> = data.into_iter().map(|x| x % range).collect();
        let want = hist::run_seq(&data, nbuckets, range).expect("batch oracle");
        let (got, stats) = hist_stream(&data, nbuckets, range, shape).expect("stream");
        assert_eq!(&got, &want, "streaming hist diverged from batch");
        hist::verify(&data, nbuckets, &got).expect("certificate");
        assert!(stats.inflight_bounded(), "inflight {stats:?}");
        assert_eq!(
            stats.items_in,
            data.len().div_ceil(shape.chunk.max(1)) as u64
        );
    });
}

/// Values for the dedup property: three cases in eight draw from `0..500`
/// (many repeats across chunks), the others from the full `u64` range,
/// from the bucket edges `0`, `2^k − 1`, `2^k` and `u64::MAX`, from one
/// bucket of bit length 5–22 (whose span, at most 2^17 values, is dense
/// enough for the presence bitmap or just too sparse for it), from a
/// handful of values (a low-cardinality stream), or from one bucket of bit
/// length 13–16 that is rare in the first part of the stream and fills the
/// rest, so the sink converts it to a bitmap mid-stream when the chunks
/// are small.
fn arb_dedup_data(g: &mut Gen) -> Vec<u64> {
    let len = 0..2_000;
    match g.in_range(0..8) {
        0..=2 => g.vec(len, |g| g.in_range(0..500)),
        3 => g.vec(len, Gen::u64),
        4 => g.vec(len, |g| {
            let p = 1u64 << g.in_range(0..64);
            g.pick(&[0, p - 1, p, u64::MAX])
        }),
        5 => {
            let free = g.in_range(0..18);
            let base = (16 | g.in_range(0..16)) << free;
            g.vec(len, |g| base + g.in_range(0..1 << free))
        }
        6 => {
            let few = g.vec(1..18, Gen::u64);
            g.vec(len, |g| few[g.in_range(0..few.len() as u64) as usize])
        }
        _ => {
            // A span of 2^8–2^11 values: 4–32 words.
            let free = g.in_range(8..12);
            let base = (16 | g.in_range(0..16)) << free;
            let mut data = g.vec(0..1_000, |g| match g.in_range(0..32) {
                0 => base + g.in_range(0..1 << free),
                _ => g.in_range(0..32),
            });
            data.extend(g.vec(0..1_000, |g| base + g.in_range(0..1 << free)));
            data
        }
    }
}

/// Chunked streaming dedup equals the sequential batch dedup (both
/// canonicalize to sorted distinct values).
#[test]
fn dedup_stream_matches_batch() {
    check("dedup_stream_matches_batch", CASES, |g| {
        let data = arb_dedup_data(g);
        let shape = arb_shape(g);
        let want = dedup::run_seq(&data);
        let (got, stats) = dedup_stream(&data, shape).expect("stream");
        assert_eq!(&got, &want, "streaming dedup diverged from batch");
        dedup::verify(&data, &got).expect("certificate");
        assert!(stats.inflight_bounded(), "inflight {stats:?}");
    });
}
