//! Long-running worker threads driving a [`MultiQueue`] to quiescence.
//!
//! The paper's `bfs`/`sssp` use "long-running worker threads that pop
//! tasks from the MQ then execute them (potentially pushing new tasks)
//! until the MQ is empty". The subtle part is *termination detection*: an
//! empty MultiQueue does not mean the computation is done while some
//! worker is still executing a task that may push children. We track an
//! in-flight counter: incremented for every pushed task, decremented when
//! its execution completes; workers exit when the counter hits zero.
//!
//! # Panic safety
//!
//! Termination detection makes panics dangerous: a task that unwinds out
//! of its worker thread would skip the in-flight decrement, leaving every
//! other worker spinning on a counter that never reaches zero — a
//! deadlock, not a crash. [`try_execute`] therefore catches each task's
//! panic, decrements the counter on the panic path too, signals the other
//! workers to stop, drains whatever tasks were still queued (dropping
//! them, so their payloads' destructors run), and surfaces the first
//! panic as a typed [`ExecutorError`]. [`execute`] keeps the transparent
//! behavior on top of that machinery: it resumes the original panic
//! payload on the caller's thread.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::mq::MultiQueue;
use rpb_parlay::exec::BackendKind;

pub use rpb_parlay::panics::panic_message;

/// Per-run statistics from [`execute`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Tasks executed across all workers.
    pub tasks: usize,
    /// Times a worker found the MQ momentarily empty and had to idle-spin.
    pub idle_spins: usize,
}

/// A task panicked during [`try_execute`]; the run was unwound cleanly.
///
/// The executor's error *is* the batch error of the `rpb_parlay::exec`
/// trait — the first panic's payload (later concurrent panics are dropped)
/// plus what completed and what was abandoned — so the MQ backend hands it
/// through unchanged. The queue's remaining tasks were drained and dropped
/// before it is returned: no worker is left running, no task payload leaks.
pub use rpb_parlay::exec::BatchError as ExecutorError;

/// Capability handed to tasks for spawning children.
pub struct Handle<'a, T> {
    mq: &'a MultiQueue<T>,
    pending: &'a AtomicUsize,
}

impl<T: Send> Handle<'_, T> {
    /// Schedules a child task with priority `pri`.
    pub fn push(&self, pri: u64, item: T) {
        // Order matters: count the task before it becomes poppable so the
        // pending counter never under-reports.
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.mq.push(pri, item);
    }
}

/// Runs `task` over `initial` and everything it transitively pushes, on
/// `n_threads` OS worker threads. Returns aggregated statistics.
///
/// `task(pri, item, handle)` may push new work through the handle. The
/// call returns when every pushed task has finished executing.
///
/// If a task panics, the panic is re-raised on the calling thread with its
/// original payload — after the run has been unwound cleanly (see
/// [`try_execute`] for the non-panicking variant and the exact semantics).
pub fn execute<T, F>(
    n_threads: usize,
    n_queues: usize,
    initial: Vec<(u64, T)>,
    task: F,
) -> ExecutorStats
where
    T: Send,
    F: Fn(u64, T, &Handle<'_, T>) + Send + Sync,
{
    match try_execute(n_threads, n_queues, initial, task) {
        Ok(stats) => stats,
        Err(err) => err.resume(),
    }
}

/// [`execute`] with an explicit worker *substrate* (see
/// [`try_execute_on`] for the semantics of the `backend` parameter).
pub fn execute_on<T, F>(
    backend: BackendKind,
    n_threads: usize,
    n_queues: usize,
    initial: Vec<(u64, T)>,
    task: F,
) -> ExecutorStats
where
    T: Send,
    F: Fn(u64, T, &Handle<'_, T>) + Send + Sync,
{
    match try_execute_on(backend, n_threads, n_queues, initial, task) {
        Ok(stats) => stats,
        Err(err) => err.resume(),
    }
}

/// Like [`execute`], but surfaces a panicking task as `Err(ExecutorError)`
/// instead of re-raising the panic.
///
/// Unwind semantics when a task panics:
///
/// * the panicking task's in-flight slot is released, so termination
///   detection stays live for the other workers (no deadlock);
/// * every other worker stops at its next scheduling point — a task
///   already mid-execution runs to completion first;
/// * tasks still queued are drained and dropped (their destructors run),
///   counted in [`ExecutorError::tasks_drained`] — by each worker as it
///   stops, not after the join, so a *blocking* task that is still
///   running sees the endpoints a queued task owned disconnect;
/// * the *first* panic's payload is captured; payloads of concurrent
///   panics from other workers are dropped.
pub fn try_execute<T, F>(
    n_threads: usize,
    n_queues: usize,
    initial: Vec<(u64, T)>,
    task: F,
) -> Result<ExecutorStats, ExecutorError>
where
    T: Send,
    F: Fn(u64, T, &Handle<'_, T>) + Send + Sync,
{
    try_execute_on(BackendKind::Mq, n_threads, n_queues, initial, task)
}

/// [`try_execute`] with an explicit worker *substrate*.
///
/// The scheduling policy — the MultiQueue, the in-flight counter, the
/// panic-drain machinery — is identical under both substrates; only how
/// the `n_threads` worker loops are hosted differs:
///
/// * [`BackendKind::Mq`] — dedicated scoped OS threads (the historical
///   [`execute`]/[`try_execute`] behavior, still their default);
/// * [`BackendKind::Rayon`] — `rayon::scope` tasks on the ambient Rayon
///   pool, so MQ-driven kernels compose with an installed pool instead
///   of spawning threads beside it.
///
/// Worker loops never block on each other (an idle worker spins +
/// yields), so hosting them on a pool narrower than `n_threads` cannot
/// deadlock: the workers that do run drain the queue to quiescence and
/// any never-started worker finds `pending == 0` and exits immediately.
/// At one worker the two substrates execute the exact same task
/// sequence, which is what lets the perf gate hard-compare obs counters
/// across backends.
pub fn try_execute_on<T, F>(
    backend: BackendKind,
    n_threads: usize,
    n_queues: usize,
    initial: Vec<(u64, T)>,
    task: F,
) -> Result<ExecutorStats, ExecutorError>
where
    T: Send,
    F: Fn(u64, T, &Handle<'_, T>) + Send + Sync,
{
    let n_threads = n_threads.max(1);
    rpb_obs::metrics::EXEC_RUNS.add(1);
    let mq: MultiQueue<T> = MultiQueue::new(n_queues.max(1));
    let pending = AtomicUsize::new(initial.len());
    for (p, item) in initial {
        mq.push(p, item);
    }
    let total_tasks = AtomicUsize::new(0);
    let total_idle = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let drained = AtomicUsize::new(0);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // One worker loop, shared by both substrates by reference.
    let worker = || {
        let handle = Handle {
            mq: &mq,
            pending: &pending,
        };
        let mut tasks = 0usize;
        let mut idle = 0usize;
        loop {
            if panicked.load(Ordering::Acquire) {
                // Drop what is queued now, not after the join: a blocking
                // task that is still running may be waiting on a channel
                // endpoint that a queued task owns.
                drained.fetch_add(mq.drain().len(), Ordering::Relaxed);
                break;
            }
            match mq.pop() {
                Some((pri, item)) => {
                    let result = catch_unwind(AssertUnwindSafe(|| task(pri, item, &handle)));
                    // Decrement on the panic path too: the popped
                    // task is no longer in flight either way, and
                    // skipping this is exactly the deadlock we are
                    // guarding against.
                    pending.fetch_sub(1, Ordering::SeqCst);
                    match result {
                        Ok(()) => tasks += 1,
                        Err(payload) => {
                            let mut slot = first_panic
                                .lock()
                                .unwrap_or_else(|poison| poison.into_inner());
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            drop(slot);
                            // The next turn of the loop drains and leaves.
                            panicked.store(true, Ordering::Release);
                        }
                    }
                }
                None => {
                    if pending.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    idle += 1;
                    std::thread::yield_now();
                }
            }
        }
        total_tasks.fetch_add(tasks, Ordering::Relaxed);
        total_idle.fetch_add(idle, Ordering::Relaxed);
    };
    match backend {
        BackendKind::Mq => std::thread::scope(|s| {
            for _ in 0..n_threads {
                s.spawn(worker);
            }
        }),
        BackendKind::Rayon => rayon::scope(|s| {
            for _ in 0..n_threads {
                s.spawn(|_| worker());
            }
        }),
    }
    let stats = ExecutorStats {
        tasks: total_tasks.load(Ordering::Relaxed),
        idle_spins: total_idle.load(Ordering::Relaxed),
    };
    rpb_obs::metrics::EXEC_TASKS.add(stats.tasks as u64);
    rpb_obs::metrics::EXEC_IDLE_SPINS.add(stats.idle_spins as u64);
    if panicked.load(Ordering::Acquire) {
        // Drop what tasks that were mid-execution pushed after the
        // workers' own drains, so no task payload is leaked.
        let drained = drained.into_inner() + mq.drain().len();
        let payload = first_panic
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
            .expect("panicked flag implies a stored payload");
        rpb_obs::metrics::EXEC_TASK_PANICS.add(1);
        rpb_obs::metrics::EXEC_TASKS_DRAINED.add(drained as u64);
        return Err(ExecutorError::new(payload, stats.tasks, drained));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_initial_tasks() {
        let counter = AtomicUsize::new(0);
        let init: Vec<(u64, usize)> = (0..1000).map(|i| (i as u64, i)).collect();
        let stats = execute(4, 8, init, |_, _, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(stats.tasks, 1000);
    }

    #[test]
    fn children_are_executed() {
        // Binary fan-out to depth 10: 2^11 - 1 tasks.
        let counter = AtomicUsize::new(0);
        let stats = execute(4, 8, vec![(0u64, 0usize)], |pri, depth, h| {
            counter.fetch_add(1, Ordering::Relaxed);
            if depth < 10 {
                h.push(pri + 1, depth + 1);
                h.push(pri + 1, depth + 1);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), (1 << 11) - 1);
        assert_eq!(stats.tasks, (1 << 11) - 1);
    }

    #[test]
    fn empty_initial_returns_immediately() {
        let stats = execute(2, 4, Vec::<(u64, ())>::new(), |_, _, _| {});
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn single_thread_works() {
        let counter = AtomicUsize::new(0);
        execute(1, 1, vec![(0, 5usize)], |_, n, h| {
            counter.fetch_add(1, Ordering::Relaxed);
            if n > 0 {
                h.push(0, n - 1);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn panicking_task_surfaces_typed_error() {
        // Without catch_unwind + the panic-path decrement, the three
        // surviving workers would spin forever on `pending > 0` — this
        // test would hang rather than fail.
        let init: Vec<(u64, usize)> = (0..100).map(|i| (i as u64, i)).collect();
        let err = try_execute(4, 8, init, |_, item, _| {
            if item == 50 {
                panic!("injected task panic");
            }
        })
        .expect_err("one task panics");
        assert_eq!(err.message(), "injected task panic");
        assert!(err.tasks_completed <= 99);
    }

    #[test]
    fn panic_message_handles_string_payload() {
        let err = try_execute(2, 4, vec![(0u64, 7usize)], |_, item, _| {
            panic!("task {item} failed");
        })
        .expect_err("task panics");
        assert_eq!(err.message(), "task 7 failed");
        assert!(format!("{err}").contains("task 7 failed"));
    }

    #[test]
    fn execute_resumes_the_original_payload() {
        let caught = std::panic::catch_unwind(|| {
            execute(2, 4, vec![(0u64, ())], |_, (), _| {
                panic!("propagated through execute");
            });
        })
        .expect_err("execute re-raises");
        assert_eq!(panic_message(&*caught), "propagated through execute");
    }

    #[test]
    fn queued_tasks_are_drained_and_dropped_after_panic() {
        // Every task payload must be accounted for after a panic: either
        // its task ran, it was consumed by the panicking closure, or it
        // was drained — and in all three cases its destructor runs.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        static RAN: AtomicUsize = AtomicUsize::new(0);
        struct Payload(#[allow(dead_code)] usize);
        impl Drop for Payload {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let n = 1000;
        let init: Vec<(u64, Payload)> = (0..n).map(|i| (i as u64, Payload(i))).collect();
        // Single worker: after the first (lowest-priority) task panics,
        // everything else must come back through the drain path.
        let err = try_execute(1, 4, init, |_, payload, _| {
            RAN.fetch_add(1, Ordering::SeqCst);
            drop(payload);
            panic!("abandon run");
        })
        .expect_err("first task panics");
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
        assert_eq!(err.tasks_completed, 0);
        assert_eq!(err.tasks_drained, n - 1);
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            n,
            "every payload dropped exactly once"
        );
    }

    #[test]
    fn a_panic_drops_queued_tasks_while_a_blocking_task_still_runs() {
        // The pipeline's stage workers are blocking tasks: one that is
        // still running may wait on an endpoint a queued task owns. One
        // internal queue pops in strict priority order, so the two
        // threads take tasks 0 and 1 and task 2 stays queued.
        use std::sync::mpsc;
        type Task = Box<dyn FnOnce() + Send>;
        let (started, blocker_started) = mpsc::channel::<()>();
        let (held, released) = mpsc::channel::<()>();
        let tasks: Vec<(u64, Task)> = vec![
            (
                0,
                Box::new(move || {
                    blocker_started.recv().expect("task 1 starts");
                    panic!("injected while task 1 blocks");
                }),
            ),
            (
                1,
                Box::new(move || {
                    started.send(()).expect("task 0 waits for this");
                    // Returns once task 2, never run, is dropped.
                    assert!(released.recv().is_err());
                }),
            ),
            (2, Box::new(move || drop(held))),
        ];
        let (done, watchdog) = mpsc::channel();
        std::thread::spawn(move || done.send(try_execute(2, 1, tasks, |_, task, _| task())));
        let err = watchdog
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run hung on the queued task's endpoint")
            .expect_err("task 0 panics");
        assert_eq!(err.message(), "injected while task 1 blocks");
        assert_eq!((err.tasks_completed, err.tasks_drained), (1, 1));
    }

    #[test]
    fn all_workers_stop_after_concurrent_panics() {
        // Several workers may panic at once; exactly one payload is kept
        // and the run still terminates.
        let init: Vec<(u64, usize)> = (0..64).map(|i| (i as u64, i)).collect();
        let err = try_execute(4, 8, init, |_, _, _| {
            panic!("many panics");
        })
        .expect_err("all tasks panic");
        assert_eq!(err.message(), "many panics");
    }

    #[test]
    fn children_pushed_before_panic_are_drained() {
        let err = try_execute(1, 2, vec![(0u64, 0usize)], |_, depth, h| {
            if depth == 0 {
                h.push(1, 1);
                h.push(1, 2);
                panic!("parent dies after spawning");
            }
        })
        .expect_err("parent panics");
        assert_eq!(err.tasks_drained, 2);
    }

    #[test]
    fn rayon_substrate_runs_children_to_quiescence() {
        // Same binary fan-out as `children_are_executed`, hosted on the
        // ambient Rayon pool instead of scoped OS threads.
        let counter = AtomicUsize::new(0);
        let stats = execute_on(
            BackendKind::Rayon,
            4,
            8,
            vec![(0u64, 0usize)],
            |pri, depth, h| {
                counter.fetch_add(1, Ordering::Relaxed);
                if depth < 10 {
                    h.push(pri + 1, depth + 1);
                    h.push(pri + 1, depth + 1);
                }
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), (1 << 11) - 1);
        assert_eq!(stats.tasks, (1 << 11) - 1);
    }

    #[test]
    fn rayon_substrate_drains_after_panic() {
        // Single worker, first task panics: every other task must come
        // back through the drain path, exactly as on OS threads.
        let init: Vec<(u64, usize)> = (0..100).map(|i| (i as u64, i)).collect();
        let err = try_execute_on(BackendKind::Rayon, 1, 4, init, |_, _, _| {
            panic!("abandon rayon-hosted run");
        })
        .expect_err("first task panics");
        assert_eq!(err.message(), "abandon rayon-hosted run");
        assert_eq!(err.tasks_completed, 0);
        assert_eq!(err.tasks_drained, 99);
    }

    #[test]
    fn rayon_substrate_survives_pools_narrower_than_worker_count() {
        // 8 requested workers on a 2-thread pool: the workers that do get
        // slots drain the queue; the rest find pending == 0 and exit.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("thread pool");
        let counter = AtomicUsize::new(0);
        let init: Vec<(u64, usize)> = (0..500).map(|i| (i as u64, i)).collect();
        let stats = pool.install(|| {
            execute_on(BackendKind::Rayon, 8, 8, init, |_, _, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(stats.tasks, 500);
    }
}
