//! The dispatch farm: emitter → N workers → collector (the PPL "farm"
//! shape) over one bounded queue with admission control.
//!
//! Design constraints, in order:
//!
//! * **Never an unbounded backlog.** [`Farm::submit`] is the single
//!   admission point: at the depth cap it returns [`Admission::Shed`]
//!   immediately — the producer is never blocked and the queue never
//!   grows past `queue_cap`. Shed is a *typed* outcome the server turns
//!   into an `rpb-jobs-v1` `status: "shed"` response.
//! * **Resident pools.** Each worker thread enters its executor pool
//!   ([`rpb_parlay::exec::run_in`]) once, at spawn, and serves every job
//!   from inside it — pool construction is a boot cost, not a per-request
//!   cost, which is what lets steady-state requests run allocation-free
//!   through the validation pool.
//! * **A panicking job is a failed job, not a dead server.** Workers
//!   catch unwinds, account them through [`rpb_parlay::exec::BatchError`]
//!   (the executor stack's panic-payload carrier), and keep serving.
//! * **Graceful drain.** [`Farm::drain`] stops admission (late submits
//!   shed), lets workers finish every queued job, and joins them.
//!
//! Statistics are double-booked on purpose: the always-on [`FarmStats`]
//! atomics power stats responses and determinism tests in default builds,
//! while the `rpb-obs` counters (`serve_jobs_admitted`, `serve_jobs_shed`,
//! `serve_queue_depth_max`, …) integrate with `metrics::capture` so the
//! perf gate can hard-gate a pinned trace.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use rpb_obs::{metrics, Json};
use rpb_parlay::exec::{executor, run_in, BackendKind, BatchError};

use crate::jobs::JobKind;

/// Message prefix of the [`Outcome::Error`] a shed job's `done` callback
/// receives. The server checks it to suppress the generic error frame in
/// favor of the typed `status: "shed"` response it builds from the
/// [`Admission::Shed`] verdict (which carries depth and cap).
pub const SHED_PREFIX: &str = "shed:";

/// Farm sizing and scheduling configuration.
#[derive(Clone, Copy, Debug)]
pub struct FarmConfig {
    /// Scheduling backend whose executor the workers resident-install.
    pub backend: BackendKind,
    /// Worker threads. `0` = inline mode: no threads are spawned and
    /// queued jobs run on the caller's thread via [`Farm::drain_inline`]
    /// (what the deterministic gate traces use).
    pub workers: usize,
    /// Width of each worker's resident data-parallel pool.
    pub kernel_threads: usize,
    /// Queue depth cap: submissions beyond it shed.
    pub queue_cap: usize,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            backend: BackendKind::Rayon,
            workers: 1,
            kernel_threads: 1,
            queue_cap: 8,
        }
    }
}

/// How one job finished.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The job ran to completion with this result object.
    Ok(Json),
    /// The job failed (typed job error or caught worker panic); the farm
    /// keeps serving.
    Error(String),
}

/// One unit of admitted work.
pub struct Job {
    /// Request id, echoed in the response frame.
    pub id: u64,
    /// Endpoint, for the per-endpoint latency histogram.
    pub kind: JobKind,
    /// The work itself, run inside a worker's resident pool.
    pub work: Box<dyn FnOnce() -> Result<Json, String> + Send>,
    /// Completion callback (the collector hookup: the server passes a
    /// closure that forwards the response frame to the connection's
    /// writer thread).
    pub done: Box<dyn FnOnce(u64, Outcome) + Send>,
    admitted_at: Instant,
}

impl Job {
    /// Builds a job; the admission timestamp (the start of the SLO
    /// latency window) is taken here.
    pub fn new(
        id: u64,
        kind: JobKind,
        work: Box<dyn FnOnce() -> Result<Json, String> + Send>,
        done: Box<dyn FnOnce(u64, Outcome) + Send>,
    ) -> Job {
        Job {
            id,
            kind,
            work,
            done,
            admitted_at: Instant::now(),
        }
    }
}

/// Admission verdict of one [`Farm::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued; `depth` is the queue depth after the push.
    Admitted {
        /// Queue depth including this job.
        depth: usize,
    },
    /// Rejected: the queue was at its cap (or the farm is draining).
    /// The job was handed back untouched inside the verdict's caller —
    /// [`Farm::submit`] runs its `done` callback with a shed marker
    /// before returning, so the producer only inspects the verdict.
    Shed {
        /// Queue depth at rejection time.
        depth: usize,
        /// The configured cap.
        cap: usize,
    },
}

/// Always-on farm accounting (works without the `obs` feature).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Jobs rejected at admission.
    pub shed: u64,
    /// Admitted jobs that completed.
    pub completed: u64,
    /// Admitted jobs that failed (typed error or caught panic).
    pub failed: u64,
    /// Deepest the queue ever got (never exceeds the cap).
    pub depth_hwm: u64,
}

#[derive(Default)]
struct StatCells {
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    depth_hwm: AtomicU64,
}

struct State {
    queue: VecDeque<Job>,
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
    cfg: FarmConfig,
    stats: StatCells,
}

impl Shared {
    fn execute(&self, job: Job) {
        let Job {
            id,
            kind,
            work,
            done,
            admitted_at,
        } = job;
        let outcome = match catch_unwind(AssertUnwindSafe(work)) {
            Ok(Ok(result)) => {
                self.stats.completed.fetch_add(1, Ordering::Relaxed);
                metrics::SERVE_JOBS_COMPLETED.add(1);
                Outcome::Ok(result)
            }
            Ok(Err(msg)) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                metrics::SERVE_JOBS_FAILED.add(1);
                Outcome::Error(msg)
            }
            Err(payload) => {
                // Route the payload through BatchError so panic-message
                // extraction and accounting match the executor stack's.
                let err = BatchError::new(payload, 0, 0);
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                metrics::SERVE_JOBS_FAILED.add(1);
                Outcome::Error(format!("job panicked: {}", err.message()))
            }
        };
        kind.record_latency(admitted_at.elapsed());
        done(id, outcome);
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self
                    .state
                    .lock()
                    .unwrap_or_else(|poison| poison.into_inner());
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break Some(job);
                    }
                    if st.draining {
                        break None;
                    }
                    st = self
                        .work_ready
                        .wait(st)
                        .unwrap_or_else(|poison| poison.into_inner());
                }
            };
            match job {
                Some(job) => self.execute(job),
                None => return,
            }
        }
    }
}

/// The dispatch farm. See the module docs for the contract.
pub struct Farm {
    shared: Arc<Shared>,
    // Behind a mutex so `drain(&self)` can join while the farm is shared
    // (the server submits from connection threads through an `Arc`).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Farm {
    /// Builds the farm and spawns its resident workers (none in inline
    /// mode). Panics if `cfg.backend` names an unregistered executor.
    pub fn new(cfg: FarmConfig) -> Farm {
        // Resolve the backend eagerly so a misconfigured farm fails at
        // construction, not on the first submitted job.
        let _ = executor(cfg.backend);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cfg.queue_cap),
                draining: false,
            }),
            work_ready: Condvar::new(),
            cfg,
            stats: StatCells::default(),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rpb-serve-worker-{i}"))
                    .spawn(move || {
                        // One pool entry per worker lifetime: every job this
                        // worker ever runs shares the resident pool.
                        run_in(
                            executor(shared.cfg.backend),
                            shared.cfg.kernel_threads,
                            || shared.worker_loop(),
                        );
                    })
                    .expect("spawn farm worker")
            })
            .collect();
        Farm {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The farm's configuration.
    pub fn config(&self) -> FarmConfig {
        self.shared.cfg
    }

    /// Admission control: queue the job or shed it, never block. On
    /// shed, the job's `done` callback fires immediately with a typed
    /// error outcome (the server maps it to a `shed` response).
    pub fn submit(&self, job: Job) -> Admission {
        let verdict = {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            if st.draining || st.queue.len() >= self.shared.cfg.queue_cap {
                Err((job, st.queue.len()))
            } else {
                st.queue.push_back(job);
                let depth = st.queue.len();
                self.shared
                    .stats
                    .depth_hwm
                    .fetch_max(depth as u64, Ordering::Relaxed);
                Ok(depth)
            }
        };
        match verdict {
            Ok(depth) => {
                self.shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                metrics::SERVE_JOBS_ADMITTED.add(1);
                metrics::SERVE_QUEUE_DEPTH_MAX.record(depth as u64);
                self.shared.work_ready.notify_one();
                Admission::Admitted { depth }
            }
            Err((job, depth)) => {
                self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                metrics::SERVE_JOBS_SHED.add(1);
                let cap = self.shared.cfg.queue_cap;
                (job.done)(job.id, Outcome::Error(format!("shed: queue at cap {cap}")));
                Admission::Shed { depth, cap }
            }
        }
    }

    /// Inline mode's pump: pops and runs queued jobs on the calling
    /// thread until the queue is empty. Deterministic by construction —
    /// what the perf gate's pinned traces run instead of worker threads.
    /// (Also usable with workers present, as a helping-hand drain.)
    pub fn drain_inline(&self) {
        loop {
            let job = {
                let mut st = self
                    .shared
                    .state
                    .lock()
                    .unwrap_or_else(|poison| poison.into_inner());
                st.queue.pop_front()
            };
            match job {
                Some(job) => self.shared.execute(job),
                None => return,
            }
        }
    }

    /// Current queue depth (diagnostic; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .queue
            .len()
    }

    /// Always-on statistics snapshot.
    pub fn stats(&self) -> FarmStats {
        let s = &self.shared.stats;
        FarmStats {
            admitted: s.admitted.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            depth_hwm: s.depth_hwm.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: stop admitting (late submits shed), run every
    /// already-queued job to completion, join the workers, and return
    /// the final statistics. In inline mode the leftovers run on the
    /// calling thread. Idempotent: later calls just re-read the stats.
    pub fn drain(&self) -> FarmStats {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            st.draining = true;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()),
        );
        for handle in handles {
            let _ = handle.join();
        }
        // Inline mode's leftovers (with workers present there are none —
        // they empty the queue before exiting — and the call is a no-op).
        self.drain_inline();
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn noop_done() -> Box<dyn FnOnce(u64, Outcome) + Send> {
        Box::new(|_, _| {})
    }

    fn ok_job(id: u64, done: Box<dyn FnOnce(u64, Outcome) + Send>) -> Job {
        Job::new(id, JobKind::Sort, Box::new(|| Ok(Json::from_u64(1))), done)
    }

    fn inline_cfg(cap: usize) -> FarmConfig {
        FarmConfig {
            backend: BackendKind::Rayon,
            workers: 0,
            kernel_threads: 1,
            queue_cap: cap,
        }
    }

    #[test]
    fn admits_up_to_cap_then_sheds_exactly() {
        let farm = Farm::new(inline_cfg(3));
        let mut verdicts = Vec::new();
        for i in 0..5 {
            verdicts.push(farm.submit(ok_job(i, noop_done())));
        }
        assert_eq!(
            verdicts[..3]
                .iter()
                .filter(|v| matches!(v, Admission::Admitted { .. }))
                .count(),
            3
        );
        assert!(matches!(verdicts[3], Admission::Shed { depth: 3, cap: 3 }));
        assert!(matches!(verdicts[4], Admission::Shed { depth: 3, cap: 3 }));
        let stats = farm.stats();
        assert_eq!((stats.admitted, stats.shed, stats.depth_hwm), (3, 2, 3));
        farm.drain_inline();
        let stats = farm.stats();
        assert_eq!((stats.completed, stats.failed), (3, 0));
        // Capacity frees after the drain: admission recovers.
        assert!(matches!(
            farm.submit(ok_job(9, noop_done())),
            Admission::Admitted { depth: 1 }
        ));
    }

    #[test]
    fn shed_fires_the_done_callback_immediately() {
        let farm = Farm::new(inline_cfg(1));
        assert!(matches!(
            farm.submit(ok_job(1, noop_done())),
            Admission::Admitted { .. }
        ));
        let (tx, rx) = mpsc::channel();
        let done: Box<dyn FnOnce(u64, Outcome) + Send> = Box::new(move |id, outcome| {
            tx.send((id, outcome)).unwrap();
        });
        assert!(matches!(
            farm.submit(ok_job(2, done)),
            Admission::Shed { .. }
        ));
        let (id, outcome) = rx.recv().unwrap();
        assert_eq!(id, 2);
        assert!(matches!(outcome, Outcome::Error(ref m) if m.contains("shed")));
    }

    #[test]
    fn worker_panic_fails_the_job_but_not_the_farm() {
        let farm = Farm::new(FarmConfig {
            workers: 1,
            ..inline_cfg(4)
        });
        let (tx, rx) = mpsc::channel();
        let send = |tx: &mpsc::Sender<(u64, Outcome)>| {
            let tx = tx.clone();
            Box::new(move |id, outcome| {
                let _ = tx.send((id, outcome));
            }) as Box<dyn FnOnce(u64, Outcome) + Send>
        };
        farm.submit(Job::new(
            1,
            JobKind::Sort,
            Box::new(|| panic!("injected job panic")),
            send(&tx),
        ));
        farm.submit(ok_job(2, send(&tx)));
        let mut outcomes: Vec<(u64, Outcome)> = (0..2).map(|_| rx.recv().unwrap()).collect();
        outcomes.sort_by_key(|(id, _)| *id);
        // The panic is a typed failure carrying the BatchError-extracted
        // message; the next job still completes on the same worker.
        assert!(
            matches!(&outcomes[0].1, Outcome::Error(m) if m.contains("injected job panic")),
            "{:?}",
            outcomes[0]
        );
        assert!(matches!(&outcomes[1].1, Outcome::Ok(_)));
        let stats = farm.drain();
        assert_eq!((stats.completed, stats.failed), (1, 1));
    }

    #[test]
    fn drain_completes_queued_jobs_and_sheds_late_submits() {
        let farm = Farm::new(inline_cfg(8));
        let (tx, rx) = mpsc::channel();
        for i in 0..5 {
            let tx = tx.clone();
            farm.submit(Job::new(
                i,
                JobKind::Sort,
                Box::new(|| Ok(Json::Null)),
                Box::new(move |id, _| {
                    let _ = tx.send(id);
                }),
            ));
        }
        let stats = farm.drain();
        assert_eq!(stats.completed, 5);
        assert_eq!(rx.try_iter().count(), 5);
    }

    #[test]
    fn submit_after_drain_sheds() {
        let farm = Farm::new(FarmConfig {
            workers: 1,
            ..inline_cfg(8)
        });
        let stats = farm.drain();
        assert_eq!(stats.admitted, 0);
        // Admission is closed for good: drained farms shed everything.
        assert!(matches!(
            farm.submit(ok_job(1, noop_done())),
            Admission::Shed { .. }
        ));
        assert_eq!(farm.stats().shed, 1);
    }

    #[test]
    fn workers_with_resident_pools_serve_many_jobs() {
        let farm = Farm::new(FarmConfig {
            backend: BackendKind::Rayon,
            workers: 2,
            kernel_threads: 1,
            queue_cap: 4,
        });
        let (tx, rx) = mpsc::channel();
        let mut admitted = 0u64;
        for i in 0..32u64 {
            let tx = tx.clone();
            let verdict = farm.submit(Job::new(
                i,
                JobKind::Sort,
                Box::new(move || {
                    // Touch the ambient pool so the resident install is
                    // actually exercised.
                    let width = rayon::current_num_threads();
                    Ok(Json::from_u64(width as u64))
                }),
                Box::new(move |id, outcome| {
                    let _ = tx.send((id, outcome));
                }),
            ));
            if matches!(verdict, Admission::Admitted { .. }) {
                admitted += 1;
            }
            // Consume results opportunistically so a tiny cap doesn't
            // starve the test; sheds already fired their callback.
            while let Ok((_, outcome)) = rx.try_recv() {
                if let Outcome::Ok(width) = outcome {
                    assert_eq!(width.as_u64(), Some(1));
                }
            }
        }
        let stats = farm.drain();
        assert_eq!(stats.admitted, admitted);
        assert_eq!(stats.completed + stats.failed, admitted);
        assert_eq!(stats.failed, 0);
        assert!(stats.depth_hwm <= 4);
    }
}
