//! The suite-wide metric registry.
//!
//! Every instrumented crate (`rpb-fearless`, `rpb-multiqueue`, `rpb-bench`)
//! records into these statics; the bench harness calls [`reset`] before a
//! timed run and [`snapshot`] after it, attaching the result to the run's
//! JSON record. Central definition keeps the report schema fixed and makes
//! snapshot/reset trivial — no dynamic registration machinery on the hot
//! path.
//!
//! Naming: the `&'static str` JSON keys are the lowercase of the static
//! names; `*_ns` metrics are histograms of durations, everything else is an
//! event count.

use crate::counter::{Counter, MaxCounter, PerThreadCounter};
use crate::histo::DurationHisto;
use crate::snapshot::Snapshot;

macro_rules! define_metrics {
    (
        counters { $($cid:ident => $cname:literal: $cdoc:literal),* $(,)? }
        maxes { $($mid:ident => $mname:literal: $mdoc:literal),* $(,)? }
        histos { $($hid:ident => $hname:literal: $hdoc:literal),* $(,)? }
        per_thread { $($pid:ident => $pname:literal: $pdoc:literal),* $(,)? }
    ) => {
        $(
            #[doc = $cdoc]
            pub static $cid: Counter = Counter::new();
        )*
        $(
            #[doc = $mdoc]
            pub static $mid: MaxCounter = MaxCounter::new();
        )*
        $(
            #[doc = $hdoc]
            pub static $hid: DurationHisto = DurationHisto::new();
        )*
        $(
            #[doc = $pdoc]
            pub static $pid: PerThreadCounter = PerThreadCounter::new();
        )*

        /// Copies every metric out into a [`Snapshot`].
        pub fn snapshot() -> Snapshot {
            Snapshot {
                counters: vec![
                    $(($cname, $cid.get()),)*
                    $(($mname, $mid.get()),)*
                ],
                histos: vec![$(($hname, $hid.snapshot()),)*],
                per_thread: vec![$(($pname, $pid.snapshot()),)*],
            }
        }

        /// Zeroes every metric (call between timed runs).
        pub fn reset() {
            $($cid.reset();)*
            $($mid.reset();)*
            $($hid.reset();)*
            $($pid.reset();)*
        }
    };
}

define_metrics! {
    counters {
        // rpb-fearless: SngInd uniqueness checking (Fig. 5a attribution).
        SNGIND_CHECKS_MARK => "sngind_checks_mark":
            "`validate_offsets` runs using the mark-table strategy \
             (block-private bitmaps).",
        SNGIND_CHECKS_SORT => "sngind_checks_sort":
            "`validate_offsets` runs using the sort strategy.",
        SNGIND_OFFSETS_VALIDATED => "sngind_offsets_validated":
            "Total offsets passed through SngInd uniqueness validation.",
        SNGIND_CHECKS_BITSET => "sngind_checks_bitset":
            "`validate_offsets` runs using the shared atomic-bitset strategy.",
        SNGIND_MARK_TABLE_BYTES => "sngind_mark_table_bytes":
            "Bytes of mark-bitmap words allocated by checks \
             (pool misses only; pool hits allocate nothing).",
        SNGIND_CHECK_FAILURES => "sngind_check_failures":
            "SngInd validations that rejected their offsets.",
        // rpb-fearless: pooled bitmap words (Fig. 5a amortization).
        SNGIND_POOL_HITS => "sngind_pool_hits":
            "Bitmap-word acquisitions served from the global pool \
             (zero allocation).",
        SNGIND_POOL_MISSES => "sngind_pool_misses":
            "Bitmap-word acquisitions that had to allocate fresh \
             storage (cold pool, oversized request, or pool disabled).",
        SNGIND_PROOF_REUSES => "sngind_proof_reuses":
            "Indirect iterators constructed from a pre-validated \
             `ValidatedOffsets`/`ValidatedChunks` proof (validation skipped).",
        SNGIND_PROOF_BUILDS => "sngind_proof_builds":
            "`ValidatedOffsets` proofs constructed (one SngInd validation \
             each; reuses are counted separately).",
        RNGIND_PROOF_BUILDS => "rngind_proof_builds":
            "`ValidatedChunks` proofs constructed (one RngInd validation \
             each; reuses are counted separately).",
        // rpb-fearless: RngInd boundary checking (the ~free check).
        RNGIND_CHECKS => "rngind_checks":
            "`validate_chunk_offsets` runs (monotonicity checks).",
        RNGIND_BOUNDARIES_VALIDATED => "rngind_boundaries_validated":
            "Total chunk boundaries passed through RngInd validation.",
        RNGIND_CHECK_FAILURES => "rngind_check_failures":
            "RngInd validations that rejected their boundaries.",
        // rpb-multiqueue: scheduler traffic and contention.
        MQ_PUSHES => "mq_pushes": "Successful MultiQueue pushes.",
        MQ_POPS => "mq_pops": "Successful MultiQueue pops.",
        MQ_EMPTY_POPS => "mq_empty_pops":
            "Pops that found every internal queue empty (returned None).",
        MQ_PUSH_RETRIES => "mq_push_retries":
            "Push attempts that found their random queue's lock contended.",
        MQ_POP_SWEEPS => "mq_pop_sweeps":
            "Pops that fell back to the deterministic full-queue sweep.",
        MQ_RANK_SAMPLES => "mq_rank_samples":
            "Pops whose rank error was sampled by the online sampler.",
        MQ_RANK_ERROR_SUM => "mq_rank_error_sum":
            "Sum of sampled rank errors (mean = sum / samples).",
        MQ_RANK_SAMPLER_MISSES => "mq_rank_sampler_misses":
            "Pops the online sampler's mirror never saw (drain or races \
             around sampler enablement).",
        MQ_DRAINED_ITEMS => "mq_drained_items":
            "Elements removed through `MultiQueue::drain` (sequential \
             drains, including the executor's post-panic cleanup).",
        // rpb-multiqueue executor: per-run totals.
        EXEC_RUNS => "exec_runs":
            "MultiQueue executor invocations (`execute`/`try_execute`).",
        EXEC_TASKS => "exec_tasks": "Tasks executed by MultiQueue workers.",
        EXEC_IDLE_SPINS => "exec_idle_spins":
            "Times a MultiQueue worker found no work and yielded.",
        EXEC_TASK_PANICS => "exec_task_panics":
            "Executor runs aborted because a task panicked.",
        EXEC_TASKS_DRAINED => "exec_tasks_drained":
            "Queued tasks dropped while unwinding a panicked executor run.",
        // rpb-parlay: radix-sort raw-speed pass (pass skipping + AVX2).
        RADIX_SIMD_PASSES => "radix_simd_passes":
            "Radix counting-sort passes whose digit histogram ran on the \
             AVX2 path.",
        RADIX_TRIVIAL_PASSES_ELIDED => "radix_trivial_passes_elided":
            "Radix passes skipped because a single digit bucket held every \
             element (the stable scatter would be the identity).",
        // SIMD dispatch accounting (never hard-gated: it legitimately
        // differs between scalar and simd kernel implementations).
        RNGIND_SIMD_SWEEPS => "rngind_simd_sweeps":
            "RngInd boundary sweeps taken by the AVX2 bounds+monotonicity \
             path.",
        // rpb-bench: Rayon pool lifecycle.
        POOL_THREADS_STARTED => "pool_threads_started":
            "Rayon worker threads started by instrumented pools.",
        // rpb-serve: benchmark-as-a-service admission control and farm
        // dispatch (deterministic under the pinned-trace gate cells).
        SERVE_JOBS_ADMITTED => "serve_jobs_admitted":
            "Jobs accepted into the serve dispatch queue.",
        SERVE_JOBS_SHED => "serve_jobs_shed":
            "Jobs rejected at admission because the dispatch queue was at \
             its depth cap (typed shed response, never a blocked producer).",
        SERVE_JOBS_COMPLETED => "serve_jobs_completed":
            "Admitted jobs that ran to completion on a farm worker.",
        SERVE_JOBS_FAILED => "serve_jobs_failed":
            "Admitted jobs that failed (worker-caught panic or typed job \
             error); the farm keeps serving after each.",
        SERVE_FRAMES_MALFORMED => "serve_frames_malformed":
            "rpb-jobs-v1 frames rejected as malformed (connection \
             survives with a typed error response).",
        SERVE_CONNS_ACCEPTED => "serve_conns_accepted":
            "TCP connections accepted by the serve listener.",
        // rpb-pipeline: streaming skeleton traffic (deterministic
        // functions of the input under the pipeline-* gate cells —
        // item/send/recv counts don't depend on scheduling or channel
        // backend, only on input size, chunking, and stage shape).
        PIPELINE_RUNS => "pipeline_runs":
            "Pipeline executions dispatched (clean or panicked).",
        PIPELINE_ITEMS_IN => "pipeline_items_in":
            "Items emitted by pipeline sources into their first channel.",
        PIPELINE_ITEMS_OUT => "pipeline_items_out":
            "Items folded by pipeline sinks out of their last channel.",
        PIPELINE_SENDS => "pipeline_sends":
            "Successful bounded-channel sends across all pipeline stages.",
        PIPELINE_RECVS => "pipeline_recvs":
            "Successful bounded-channel recvs across all pipeline stages.",
        PIPELINE_STAGE_PANICS => "pipeline_stage_panics":
            "Pipeline runs that surfaced a typed stage panic \
             (`PipelineError::StagePanicked`) instead of a result.",
    }
    maxes {
        MQ_RANK_ERROR_MAX => "mq_rank_error_max":
            "Largest sampled MultiQueue rank error.",
        SERVE_QUEUE_DEPTH_MAX => "serve_queue_depth_max":
            "Deepest the serve dispatch queue ever got (admission-control \
             high-water mark; never exceeds the configured cap).",
        PIPELINE_MAX_INFLIGHT => "pipeline_max_inflight":
            "High-water mark of items resident in pipeline channels \
             (bounded-memory claim: never exceeds capacity × channels; \
             scheduling-dependent below that bound, so never hard-gated).",
    }
    histos {
        SNGIND_CHECK_NS => "sngind_check_ns":
            "Wall time of each SngInd uniqueness validation.",
        RNGIND_CHECK_NS => "rngind_check_ns":
            "Wall time of each RngInd monotonicity validation.",
        POOL_THREAD_LIFETIME_NS => "pool_thread_lifetime_ns":
            "Lifetime of each instrumented Rayon worker thread.",
        // rpb-serve: per-endpoint service latency (queue wait + execution),
        // the SLO histograms behind the serve report's p50/p99 columns.
        SERVE_SORT_NS => "serve_sort_ns":
            "Service latency of each `sort` job (admission to response).",
        SERVE_ISORT_NS => "serve_isort_ns":
            "Service latency of each `isort` job (admission to response).",
        SERVE_DEDUP_NS => "serve_dedup_ns":
            "Service latency of each `dedup` job (admission to response).",
        SERVE_HIST_NS => "serve_hist_ns":
            "Service latency of each `hist` job (admission to response).",
        SERVE_BFS_NS => "serve_bfs_ns":
            "Service latency of each `bfs` job (admission to response).",
        SERVE_SSSP_NS => "serve_sssp_ns":
            "Service latency of each `sssp` job (admission to response).",
    }
    per_thread {
        SNGIND_ITEMS => "sngind_items":
            "SngInd elements written, attributed to the executing thread \
             (task-imbalance proxy).",
        RNGIND_CHUNKS => "rngind_chunks":
            "RngInd chunks written, attributed to the executing thread.",
    }
}

/// Runs `f` against a zeroed registry and returns its result together with
/// the [`Snapshot`] of everything it recorded.
///
/// This is the per-run attribution primitive behind the perf gate: the
/// registry is process-global, so without the reset/snapshot bracket a
/// counter value is the sum of everything since startup rather than a
/// property of one run. Not reentrant (the registry is global) — callers
/// must not nest captures or run concurrent instrumented work they do not
/// want attributed to `f`.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    reset();
    let out = f();
    (out, snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_schema_is_stable() {
        let snap = snapshot();
        for name in [
            "sngind_checks_mark",
            "sngind_checks_bitset",
            "sngind_pool_hits",
            "sngind_pool_misses",
            "sngind_proof_reuses",
            "sngind_offsets_validated",
            "mq_pushes",
            "mq_empty_pops",
            "mq_rank_error_max",
            "exec_tasks",
            "pool_threads_started",
        ] {
            assert!(
                snap.counters.iter().any(|(n, _)| *n == name),
                "missing counter {name}"
            );
        }
        assert!(snap.histo("sngind_check_ns").is_some());
        assert!(snap.histo("pool_thread_lifetime_ns").is_some());
    }

    /// The registry is process-global and libtest runs tests on parallel
    /// threads: the tests that write it must not overlap.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn capture_attributes_only_the_closure() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        EXEC_RUNS.add(100); // pre-existing noise the capture must discard
        let (out, snap) = capture(|| {
            EXEC_RUNS.add(7);
            42u32
        });
        assert_eq!(out, 42);
        if crate::enabled() {
            assert_eq!(snap.counter("exec_runs"), 7);
        } else {
            assert_eq!(snap.counter("exec_runs"), 0);
        }
        reset();
    }

    #[test]
    fn reset_zeroes_everything() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        MQ_PUSHES.add(5);
        SNGIND_CHECK_NS.record(std::time::Duration::from_nanos(100));
        reset();
        let snap = snapshot();
        assert!(snap.is_empty());
    }
}
