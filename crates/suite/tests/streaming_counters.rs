//! Counter identity of the streaming BFS: one resident pipeline per
//! traversal, whose item counts are a function of the graph's frontier
//! profile and the chunk size alone.
//!
//! A single test in a binary of its own, because `metrics::capture`
//! reads a process-global registry that a concurrent pipeline run in the
//! same process would also write.

use rpb_graph::GraphKind;
use rpb_obs::metrics;
use rpb_parlay::exec::BackendKind;
use rpb_pipeline::{ChannelKind, PipelineStats};
use rpb_suite::streaming::{bfs_stream, StreamConfig};
use rpb_suite::{bfs, bfs_frontier, inputs};

#[test]
fn bfs_stream_counts_one_run_and_the_chunks_of_the_frontier_profile() {
    // All but the high-water mark, which depends on the schedule.
    let flow = |s| PipelineStats {
        max_inflight: 0,
        ..s
    };
    for kind in [GraphKind::Road, GraphKind::Link] {
        let g = inputs::graph(kind, 3000);
        let profile = bfs_frontier::frontier_profile(&g, 0);
        let want_dist = bfs::run_seq(&g, 0);
        for chunk in [16, 512] {
            let cell = format!("{kind:?} chunk {chunk}");
            let chunks: u64 = profile.iter().map(|f| f.div_ceil(chunk) as u64).sum();
            let cfg = StreamConfig {
                channel: ChannelKind::Mpsc,
                backend: BackendKind::Rayon,
                chunk,
                capacity: 4,
                workers: 1,
            };
            let ((dist, a), snap) = metrics::capture(|| bfs_stream(&g, 0, cfg).expect("stream"));
            assert_eq!(dist, want_dist, "{cell}");
            assert_eq!((a.items_in, a.items_out), (chunks, chunks), "{cell}");
            assert_eq!(
                (a.stages, a.workers, a.channels, a.capacity),
                (1, 3, 2, 4),
                "{cell}"
            );
            if rpb_obs::enabled() {
                assert_eq!(snap.counter("pipeline_runs"), 1, "{cell}");
                assert_eq!(snap.counter("pipeline_items_in"), chunks, "{cell}");
                assert_eq!(snap.counter("pipeline_sends"), 2 * chunks, "{cell}");
                assert_eq!(snap.counter("pipeline_recvs"), 2 * chunks, "{cell}");
            }
            let (_, b) = bfs_stream(&g, 0, cfg).expect("stream");
            assert_eq!(flow(a), flow(b), "{cell}: not reproducible");
            // A wider farm on the other channel moves the same chunks.
            let wide = StreamConfig {
                channel: ChannelKind::Crossbeam,
                workers: 2,
                ..cfg
            };
            let (dist, c) = bfs_stream(&g, 0, wide).expect("stream");
            assert_eq!(dist, want_dist, "{cell}");
            assert_eq!(
                (c.items_in, c.items_out, c.workers),
                (chunks, chunks, 4),
                "{cell}"
            );
        }
    }
}
