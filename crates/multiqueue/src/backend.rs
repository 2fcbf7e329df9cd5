//! The MultiQueue-driven [`Executor`] backend (`--backend mq`).
//!
//! Adapts [`crate::executor`] — the scoped worker-thread executor with
//! panic-drain semantics — to the `rpb_parlay::exec` trait so the bench
//! harness can schedule its task batches through the MultiQueue instead
//! of Rayon scopes. Batches map onto the executor directly: task *i*
//! becomes a queued item with priority *i*, and the executor's typed
//! `ExecutorError` (first panic payload + completed/drained accounting)
//! is [`BatchError`] itself.
//!
//! [`Executor::install`] delegates the ambient *data-parallel* pool to
//! the Rayon backend: the MQ executor schedules explicit task batches,
//! while `par_iter`-style primitives inside the installed closure still
//! need a work-stealing pool. This layering (explicit tasking above, a
//! data-parallel substrate below) follows Kvik's composition of
//! schedulers over Rayon, and is precisely what the backend differential
//! (`rpb verify --backend rayon,mq`) exercises: the suite must not be
//! able to tell who hosted its workers.
//!
//! Call [`ensure_registered`] once at startup (the `rpb` binary does) to
//! fill the registry slot behind `rpb_parlay::exec::executor(Mq)`.

use rpb_parlay::exec::{self, BackendKind, BatchError, BatchStats, BatchTask, Executor};

/// The MultiQueue backend; a unit type — all state lives per run.
pub struct MqExecutor;

impl Executor for MqExecutor {
    fn kind(&self) -> BackendKind {
        BackendKind::Mq
    }

    fn install<'s>(&self, workers: usize, f: Box<dyn FnOnce() + Send + 's>) {
        // Data-parallel substrate stays Rayon (see module docs): the MQ
        // executor has no ambient-pool notion to install.
        exec::rayon_executor().install(workers, f)
    }

    fn try_run_batch<'s>(
        &self,
        workers: usize,
        tasks: Vec<BatchTask<'s>>,
    ) -> Result<BatchStats, BatchError> {
        let workers = workers.max(1);
        let initial: Vec<(u64, BatchTask<'s>)> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| (i as u64, t))
            .collect();
        let stats = crate::executor::try_execute(workers, 2 * workers, initial, |_, t, _| t())?;
        Ok(BatchStats {
            tasks: stats.tasks,
            workers,
        })
    }
}

static MQ: MqExecutor = MqExecutor;

/// Registers the MQ backend in the `rpb_parlay::exec` registry.
/// Idempotent (first registration wins); call it before resolving
/// `BackendKind::Mq` executors.
pub fn ensure_registered() {
    exec::register(&MQ);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn registration_is_idempotent_and_resolvable() {
        ensure_registered();
        ensure_registered();
        let e = exec::executor(BackendKind::Mq);
        assert_eq!(e.kind(), BackendKind::Mq);
        assert_eq!(e.name(), "mq");
    }

    #[test]
    fn batch_runs_every_task_through_the_multiqueue() {
        ensure_registered();
        let counter = AtomicUsize::new(0);
        let tasks: Vec<BatchTask<'_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as BatchTask<'_>
            })
            .collect();
        let stats = exec::executor(BackendKind::Mq).run_batch(4, tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(stats.tasks, 64);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn batch_panic_maps_to_typed_batch_error() {
        ensure_registered();
        let tasks: Vec<BatchTask<'static>> = (0..16)
            .map(|i| {
                Box::new(move || {
                    if i == 7 {
                        panic!("injected mq batch panic");
                    }
                }) as BatchTask<'static>
            })
            .collect();
        let err = exec::executor(BackendKind::Mq)
            .try_run_batch(1, tasks)
            .expect_err("task 7 panics");
        assert_eq!(err.message(), "injected mq batch panic");
        // Single worker: accounting covers every task exactly once.
        assert_eq!(err.tasks_completed + err.tasks_drained + 1, 16);
    }

    #[test]
    fn install_provides_a_data_parallel_pool() {
        ensure_registered();
        let width = exec::run_in(
            exec::executor(BackendKind::Mq),
            3,
            rayon::current_num_threads,
        );
        assert_eq!(width, 3);
    }
}
