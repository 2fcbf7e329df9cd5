//! Pinned deterministic admission traces — the serve analogue of the
//! perf gate's 1-worker counter pass.
//!
//! Wall-clock behavior of a TCP server is not gateable; its *admission
//! arithmetic* is. These traces run the farm in inline mode (no worker
//! threads, jobs pumped on the calling thread inside one pinned-width
//! executor pool), so every counter the gate hard-checks — jobs
//! admitted/shed/completed, the queue-depth high-water mark, and the
//! validation-pool hit/miss split — is a pure function of the code and
//! the pinned trace shape:
//!
//! * [`steady`] — batches of at-most-cap jobs with a full drain between
//!   batches: everything admits, nothing sheds, and nothing validates at
//!   run time: the built-in `Checked` jobs take their proofs from the
//!   counting pass, so `sngind_pool_hits` and `sngind_pool_misses` both
//!   stay flat.
//! * [`burst`] — `burst` submissions with no drain in between: exactly
//!   `queue_cap` admit, exactly `burst - queue_cap` shed, and the
//!   high-water mark equals the cap. The admission-control contract,
//!   gated as exact counter equality.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rpb_fearless::ExecMode;
use rpb_parlay::exec::{executor, run_in, BackendKind};

use crate::datasets::Datasets;
use crate::farm::{Farm, FarmConfig, Job, Outcome};
use crate::jobs::{self, JobKind, ALL_KINDS};

/// Shape of one pinned trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Scheduling backend for the pool and the MultiQueue jobs.
    pub backend: BackendKind,
    /// Executor pool width (the gate pins 1 for determinism).
    pub kernel_threads: usize,
    /// Farm queue depth cap.
    pub queue_cap: usize,
    /// Steady phase: number of submit-then-drain batches.
    pub batches: usize,
    /// Steady phase: jobs per batch (must be ≤ `queue_cap` for the
    /// nothing-sheds property).
    pub batch: usize,
    /// Burst phase: jobs submitted with no drain (> `queue_cap` so the
    /// shed path is actually exercised).
    pub burst: usize,
}

impl TraceConfig {
    /// The pinned shape the `serve-*` gate cells record: 1-thread pool,
    /// cap 8, three 6-job steady batches, a 24-job burst.
    pub fn gate(backend: BackendKind) -> TraceConfig {
        TraceConfig {
            backend,
            kernel_threads: 1,
            queue_cap: 8,
            batches: 3,
            batch: 6,
            burst: 24,
        }
    }
}

/// Deterministic outcome summary of one trace run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs shed at admission.
    pub shed: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Queue-depth high-water mark.
    pub depth_hwm: u64,
    /// XOR of every successful job's result digest — one word that
    /// changes if any job's output does.
    pub result_digest: u64,
}

/// The pinned job rotation: index `i` maps to a fixed `(kind, mode)`.
/// `isort` leads in `Checked` mode — the endpoint whose scatter passes
/// the proof counters gate.
pub fn trace_job(i: usize) -> (JobKind, ExecMode) {
    let kind = ALL_KINDS[i % ALL_KINDS.len()];
    let mode = match kind {
        JobKind::Bfs | JobKind::Sssp => ExecMode::Sync,
        _ => ExecMode::Checked,
    };
    (kind, mode)
}

fn submit_trace_job(
    farm: &Farm,
    cfg: &TraceConfig,
    data: &Arc<Datasets>,
    i: usize,
    digest_acc: &Arc<AtomicU64>,
) {
    let (kind, mode) = trace_job(i);
    let backend = cfg.backend;
    let kernel_threads = cfg.kernel_threads;
    let acc = Arc::clone(digest_acc);
    let data = Arc::clone(data);
    farm.submit(Job::new(
        i as u64,
        kind,
        Box::new(move || jobs::run_job(kind, mode, backend, kernel_threads, &data)),
        Box::new(move |_, outcome| {
            if let Outcome::Ok(result) = outcome {
                if let Some(d) = result.get("digest").and_then(rpb_obs::Json::as_u64) {
                    acc.fetch_xor(d, Ordering::Relaxed);
                }
            }
        }),
    ));
}

fn with_pool<T: Send>(cfg: &TraceConfig, f: impl FnOnce() -> T + Send) -> T {
    run_in(executor(cfg.backend), cfg.kernel_threads, f)
}

fn inline_farm(cfg: &TraceConfig) -> Farm {
    Farm::new(FarmConfig {
        backend: cfg.backend,
        workers: 0,
        kernel_threads: cfg.kernel_threads,
        queue_cap: cfg.queue_cap,
    })
}

fn report(farm: &Farm, digest: u64) -> TraceReport {
    let s = farm.stats();
    TraceReport {
        admitted: s.admitted,
        shed: s.shed,
        completed: s.completed,
        failed: s.failed,
        depth_hwm: s.depth_hwm,
        result_digest: digest,
    }
}

/// Warms every steady-state resource *outside* a gate capture: runs one
/// job of each kind inline so every lazy initialization has fired before
/// a [`steady`] run.
pub fn warmup(cfg: &TraceConfig, data: &Arc<Datasets>) {
    let digest = Arc::new(AtomicU64::new(0));
    with_pool(cfg, || {
        let farm = inline_farm(cfg);
        for i in 0..ALL_KINDS.len() {
            submit_trace_job(&farm, cfg, data, i, &digest);
            farm.drain_inline();
        }
        farm.drain();
    });
}

/// The steady-state trace: `batches` rounds of `batch ≤ cap` submissions
/// each followed by a full inline drain. Deterministic counters:
/// `admitted = completed = batches * batch`, `shed = 0`,
/// `depth_hwm = batch`, and no validation-pool traffic.
pub fn steady(cfg: &TraceConfig, data: &Arc<Datasets>) -> TraceReport {
    let digest = Arc::new(AtomicU64::new(0));
    with_pool(cfg, || {
        let farm = inline_farm(cfg);
        for b in 0..cfg.batches {
            for k in 0..cfg.batch {
                submit_trace_job(&farm, cfg, data, b * cfg.batch + k, &digest);
            }
            farm.drain_inline();
        }
        farm.drain();
        report(&farm, digest.load(Ordering::Relaxed))
    })
}

/// The over-admission trace: `burst > cap` submissions with no draining
/// producer-side, so admission control must shed the overflow — exactly
/// `burst - cap` jobs — and the high-water mark pins at the cap. The
/// admitted jobs then drain to completion (still inside the trace, so
/// `completed` is gateable too).
pub fn burst(cfg: &TraceConfig, data: &Arc<Datasets>) -> TraceReport {
    let digest = Arc::new(AtomicU64::new(0));
    with_pool(cfg, || {
        let farm = inline_farm(cfg);
        for i in 0..cfg.burst {
            submit_trace_job(&farm, cfg, data, i, &digest);
        }
        farm.drain_inline();
        farm.drain();
        report(&farm, digest.load(Ordering::Relaxed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpb_suite::Scale;

    fn tiny_cfg() -> TraceConfig {
        TraceConfig::gate(BackendKind::Rayon)
    }

    fn tiny_data() -> Arc<Datasets> {
        Arc::new(Datasets::preload(Scale {
            text_len: 100,
            seq_len: 600,
            graph_n: 80,
            points_n: 16,
        }))
    }

    #[test]
    fn steady_admits_everything_and_is_deterministic() {
        let _pool = crate::testutil::pool_lock();
        let cfg = tiny_cfg();
        let data = tiny_data();
        warmup(&cfg, &data);
        let a = steady(&cfg, &data);
        let b = steady(&cfg, &data);
        assert_eq!(a, b, "steady trace must be run-to-run deterministic");
        assert_eq!(a.admitted, (cfg.batches * cfg.batch) as u64);
        assert_eq!(a.completed, a.admitted);
        assert_eq!((a.shed, a.failed), (0, 0));
        assert_eq!(a.depth_hwm, cfg.batch as u64);
        assert_ne!(a.result_digest, 0, "jobs must produce real results");
    }

    #[test]
    fn burst_sheds_exactly_the_overflow() {
        let _pool = crate::testutil::pool_lock();
        let cfg = tiny_cfg();
        let data = tiny_data();
        warmup(&cfg, &data);
        let r = burst(&cfg, &data);
        assert_eq!(r.admitted, cfg.queue_cap as u64);
        assert_eq!(r.shed, (cfg.burst - cfg.queue_cap) as u64);
        assert_eq!(r.completed, r.admitted);
        assert_eq!(r.depth_hwm, cfg.queue_cap as u64);
        assert_eq!(r, burst(&cfg, &data), "burst trace must be deterministic");
    }

    #[test]
    fn steady_runs_no_run_time_validation() {
        use rpb_fearless::pool;
        let _pool = crate::testutil::pool_lock();
        let cfg = tiny_cfg();
        let data = tiny_data();
        // Deterministic pool bracket, as the gate sets it up.
        pool::set_enabled(true);
        pool::clear();
        pool::reset_stats();
        warmup(&cfg, &data);
        let validated = || rpb_obs::metrics::SNGIND_OFFSETS_VALIDATED.get();
        let (before, validated_before) = (pool::stats(), validated());
        let r = steady(&cfg, &data);
        let (after, validated_after) = (pool::stats(), validated());
        assert_eq!(r.failed, 0);
        assert!(r.completed > 0, "the steady trace must run jobs");
        // `isort` and `sort` take their proofs from the counting pass, so
        // no built-in job validates at run time: no offset is validated,
        // and the pool, which a marking validation draws on, sees neither
        // a hit nor a miss.
        assert_eq!(
            (after.hits, after.misses, validated_after),
            (before.hits, before.misses, validated_before),
            "checked jobs must scatter through the producers' proofs"
        );
    }
}
