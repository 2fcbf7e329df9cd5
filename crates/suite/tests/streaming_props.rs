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

/// Chunked streaming dedup equals the sequential batch dedup (both
/// canonicalize to sorted distinct values).
#[test]
fn dedup_stream_matches_batch() {
    check("dedup_stream_matches_batch", CASES, |g| {
        let data = g.vec(0..2_000, |g| g.in_range(0..500));
        let shape = arb_shape(g);
        let want = dedup::run_seq(&data);
        let (got, stats) = dedup_stream(&data, shape).expect("stream");
        assert_eq!(&got, &want, "streaming dedup diverged from batch");
        dedup::verify(&data, &got).expect("certificate");
        assert!(stats.inflight_bounded(), "inflight {stats:?}");
    });
}
