//! Executor-trait conformance, run against every registered backend.
//!
//! The differential verifier treats the backend as a first-class axis, so
//! both executors must agree on the trait's contract — every task runs on
//! the `Ok` path, a panic unwinds the batch cleanly with the payload and
//! drain accounting preserved, worker counts are reported (and clamped)
//! identically, and `install` provides a data-parallel pool of the
//! requested width. Backend-specific *ordering* guarantees (the MQ
//! executor's deterministic 1-worker schedule) are unit-tested in
//! `src/executor.rs`; only substrate-independent properties live here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use rpb_parlay::exec::{self, BatchTask, Executor, ALL_BACKENDS};

fn executors() -> Vec<&'static dyn Executor> {
    rpb_multiqueue::ensure_registered();
    ALL_BACKENDS.iter().map(|&b| exec::executor(b)).collect()
}

#[test]
fn registry_resolves_both_backends_with_matching_kinds() {
    for (expected, e) in ALL_BACKENDS.iter().zip(executors()) {
        assert_eq!(e.kind(), *expected);
        assert_eq!(e.name(), expected.label());
    }
}

#[test]
fn every_task_runs_exactly_once_on_the_ok_path() {
    for e in executors() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<BatchTask> = hits
            .iter()
            .map(|h| {
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }) as BatchTask
            })
            .collect();
        let stats = e
            .try_run_batch(4, tasks)
            .unwrap_or_else(|err| panic!("{}: clean batch failed: {err}", e.name()));
        assert_eq!(stats.tasks, 64, "{}", e.name());
        assert_eq!(stats.workers, 4, "{}", e.name());
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "{}: task {i}", e.name());
        }
    }
}

#[test]
fn worker_counts_clamp_to_at_least_one() {
    for e in executors() {
        let stats = e
            .try_run_batch(0, vec![Box::new(|| {}) as BatchTask])
            .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        assert_eq!(stats.workers, 1, "{}", e.name());
    }
}

#[test]
fn a_panicking_task_yields_the_payload_and_full_accounting() {
    const TASKS: usize = 16;
    for e in executors() {
        let tasks: Vec<BatchTask> = (0..TASKS)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("conformance-boom");
                    }
                }) as BatchTask
            })
            .collect();
        let err = e
            .try_run_batch(1, tasks)
            .expect_err(&format!("{}: panic must surface", e.name()));
        assert_eq!(err.message(), "conformance-boom", "{}", e.name());
        // Exactly one task panicked; the rest either completed or were
        // drained without running (which order is backend-specific, the
        // sum is not).
        assert_eq!(
            err.tasks_completed + err.tasks_drained + 1,
            TASKS,
            "{}: completed {} drained {}",
            e.name(),
            err.tasks_completed,
            err.tasks_drained
        );
    }
}

#[test]
fn run_batch_resumes_the_first_panic_on_the_caller() {
    for e in executors() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            e.run_batch(
                2,
                vec![Box::new(|| panic!("conformance-resume")) as BatchTask],
            );
        }));
        let payload = result.expect_err("panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("conformance-resume"),
            "{}",
            e.name()
        );
    }
}

#[test]
fn install_provides_a_pool_of_the_requested_width() {
    for e in executors() {
        let width = exec::run_in(e, 3, rayon::current_num_threads);
        assert_eq!(width, 3, "{}", e.name());
    }
}

#[test]
fn batches_may_borrow_from_the_calling_scope() {
    // BatchTask<'s> is lifetime-parameterized: tasks borrow caller-owned
    // state, no 'static bound anywhere.
    for e in executors() {
        let total = AtomicUsize::new(0);
        let tasks: Vec<BatchTask> = (1..=10)
            .map(|i| {
                let total = &total;
                Box::new(move || {
                    total.fetch_add(i, Ordering::Relaxed);
                }) as BatchTask
            })
            .collect();
        e.run_batch(2, tasks);
        assert_eq!(total.load(Ordering::Relaxed), 55, "{}", e.name());
    }
}
