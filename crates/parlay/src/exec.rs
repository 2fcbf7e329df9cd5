//! The executor abstraction: pool acquisition and scoped task batches
//! behind one object-safe trait, with Rayon as the first backend.
//!
//! The benchmarks historically hard-assumed one global Rayon pool; every
//! harness-level pool operation now goes through an [`Executor`] so the
//! scheduling substrate is a swappable *backend* (the orchestrator +
//! registry shape of task-based middleware like PPL/Kvik):
//!
//! * [`Executor::install`] — run a closure with an ambient data-parallel
//!   pool of a requested width (what `rpb`'s per-size verification pools
//!   and the perf gate's pinned 1-worker counter pass use),
//! * [`Executor::try_run_batch`] — run a batch of independent tasks to
//!   completion with panic-drain semantics (first panic captured, queued
//!   tasks dropped-not-run with destructors intact, accounting returned).
//!   Besides the harness, `rpb-pipeline` dispatches every streaming
//!   pipeline (source + farm workers + sink) as one such batch and leans
//!   on exactly these drain guarantees for its unwind-clean shutdown.
//!
//! Two backends exist: [`RayonExecutor`] (this module; the default) and
//! the MultiQueue-driven executor in `rpb-multiqueue` (registered under
//! [`BackendKind::Mq`]). Backends are required to be *behaviorally
//! invisible*: `rpb verify --backend rayon,mq` cross-checks every suite
//! pair across backends exactly as `--kernel-impl` does for scalar/simd,
//! and the perf gate records per-backend cells with hard counter
//! equality.
//!
//! Backend selection: explicit (`executor(kind)`), per-process default
//! ([`set_default_backend`]), or the `RPB_BACKEND` environment variable.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use crate::panics::panic_message;
use crate::select::Slot;

/// The scheduling backends an [`Executor`] can be registered under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Rayon pools and scopes (current behavior, the default).
    #[default]
    Rayon,
    /// The MultiQueue-driven task executor from `rpb-multiqueue`.
    Mq,
}

/// Every backend, in CLI listing order.
pub const ALL_BACKENDS: [BackendKind; 2] = [BackendKind::Rayon, BackendKind::Mq];

crate::selector! {
    BackendKind: "backend", ALL_BACKENDS;
    Rayon = ["rayon"],
    Mq = ["mq", "multiqueue"],
}

/// Programmatic override > `RPB_BACKEND` > [`BackendKind::Rayon`].
static DEFAULT: Slot<BackendKind> = Slot::new("RPB_BACKEND");

/// Sets the process default returned by [`default_backend`] (what
/// `rpb … --backend <b>` does for the figure/gate commands). `None`
/// clears the override back to `RPB_BACKEND`-or-Rayon resolution.
pub fn set_default_backend(kind: Option<BackendKind>) {
    DEFAULT.set(kind);
}

/// The backend used when a call site doesn't name one explicitly (see
/// [`Slot::get`] for the resolution order and the warn-once).
pub fn default_backend() -> BackendKind {
    DEFAULT.get()
}

/// Statistics of a completed [`Executor::try_run_batch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tasks that ran to completion (all of them, on the `Ok` path).
    pub tasks: usize,
    /// Effective worker count the batch ran under (requested, clamped to
    /// at least 1) — the trait's worker-count reporting surface.
    pub workers: usize,
}

/// A task panicked during [`Executor::try_run_batch`]; the batch was
/// unwound cleanly: no worker is left running, every unstarted task was
/// dropped (destructors run), and the first panic's payload is here.
pub struct BatchError {
    payload: Box<dyn std::any::Any + Send + 'static>,
    /// Tasks that finished before the batch was abandoned.
    pub tasks_completed: usize,
    /// Tasks dropped without running.
    pub tasks_drained: usize,
}

impl BatchError {
    /// Builds a batch error from a captured panic plus accounting —
    /// how backends outside this crate map their native error type.
    pub fn new(
        payload: Box<dyn std::any::Any + Send + 'static>,
        tasks_completed: usize,
        tasks_drained: usize,
    ) -> BatchError {
        BatchError {
            payload,
            tasks_completed,
            tasks_drained,
        }
    }

    /// The panic message, when the payload was a `&'static str`/`String`.
    pub fn message(&self) -> &str {
        panic_message(&*self.payload)
    }

    /// Consumes the error, returning the captured panic payload.
    pub fn into_payload(self) -> Box<dyn std::any::Any + Send + 'static> {
        self.payload
    }

    /// Re-raises the captured panic on the current thread.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchError")
            .field("message", &self.message())
            .field("tasks_completed", &self.tasks_completed)
            .field("tasks_drained", &self.tasks_drained)
            .finish()
    }
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch task panicked: {} ({} tasks completed, {} drained)",
            self.message(),
            self.tasks_completed,
            self.tasks_drained
        )
    }
}

impl std::error::Error for BatchError {}

/// A boxed task for [`Executor::try_run_batch`].
pub type BatchTask<'s> = Box<dyn FnOnce() + Send + 's>;

/// A pluggable scheduling backend. Object-safe on purpose: call sites
/// hold `&'static dyn Executor` resolved from the [registry](executor),
/// so adding a backend never touches them.
pub trait Executor: Send + Sync {
    /// Which registry slot this executor serves.
    fn kind(&self) -> BackendKind;

    /// Human-readable backend name (defaults to the kind's label).
    fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Runs `f` with an ambient data-parallel pool of `workers` threads
    /// installed (Rayon primitives inside `f` use that pool). Blocks
    /// until `f` returns. A panic in `f` propagates to the caller.
    fn install<'s>(&self, workers: usize, f: Box<dyn FnOnce() + Send + 's>);

    /// Runs every task in `tasks` on `workers` workers, returning when
    /// all have completed — or, if one panics, after the batch has been
    /// unwound cleanly (remaining tasks dropped without running, their
    /// destructors intact; accounting in the error).
    fn try_run_batch<'s>(
        &self,
        workers: usize,
        tasks: Vec<BatchTask<'s>>,
    ) -> Result<BatchStats, BatchError>;

    /// [`Executor::try_run_batch`] with transparent panic propagation:
    /// the first task panic is re-raised on the calling thread.
    fn run_batch<'s>(&self, workers: usize, tasks: Vec<BatchTask<'s>>) -> BatchStats {
        match self.try_run_batch(workers, tasks) {
            Ok(stats) => stats,
            Err(err) => err.resume(),
        }
    }
}

/// Runs `f` under `exec`'s ambient pool and returns its value — the
/// generic convenience the object-safe [`Executor::install`] can't offer
/// directly.
pub fn run_in<T: Send>(exec: &dyn Executor, workers: usize, f: impl FnOnce() -> T + Send) -> T {
    let mut slot = None;
    {
        let slot_ref = &mut slot;
        exec.install(workers, Box::new(move || *slot_ref = Some(f())));
    }
    slot.expect("executor install runs the closure to completion")
}

/// Per-thread pool telemetry (feature `obs` only): counts worker starts
/// and records each worker's lifetime, feeding the
/// `pool_threads_started` / `pool_thread_lifetime_ns` metrics.
#[cfg(feature = "obs")]
mod pool_obs {
    use std::cell::Cell;
    use std::time::Instant;

    thread_local! {
        static STARTED_AT: Cell<Option<Instant>> = const { Cell::new(None) };
    }

    pub(super) fn on_start() {
        rpb_obs::metrics::POOL_THREADS_STARTED.add(1);
        STARTED_AT.with(|s| s.set(Some(Instant::now())));
    }

    pub(super) fn on_exit() {
        if let Some(t0) = STARTED_AT.with(|s| s.take()) {
            rpb_obs::metrics::POOL_THREAD_LIFETIME_NS.record(t0.elapsed());
        }
    }
}

/// The Rayon backend: a fresh pool per [`install`](Executor::install)
/// (telemetry-instrumented under `--features obs`), batches as scope
/// spawns with a first-panic abort flag.
pub struct RayonExecutor;

impl Executor for RayonExecutor {
    fn kind(&self) -> BackendKind {
        BackendKind::Rayon
    }

    fn install<'s>(&self, workers: usize, f: Box<dyn FnOnce() + Send + 's>) {
        let builder = rayon::ThreadPoolBuilder::new().num_threads(workers.max(1));
        #[cfg(feature = "obs")]
        let builder = builder
            .start_handler(|_| pool_obs::on_start())
            .exit_handler(|_| pool_obs::on_exit());
        builder.build().expect("thread pool").install(f)
    }

    fn try_run_batch<'s>(
        &self,
        workers: usize,
        tasks: Vec<BatchTask<'s>>,
    ) -> Result<BatchStats, BatchError> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        use std::sync::Mutex;

        let workers = workers.max(1);
        let completed = AtomicUsize::new(0);
        let drained = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        run_in(self, workers, || {
            rayon::scope(|s| {
                for task in tasks {
                    s.spawn(|_| {
                        // Drain semantics after a panic: unstarted tasks
                        // are dropped, not run — mirroring the MQ
                        // executor's queue drain.
                        if panicked.load(Ordering::Acquire) {
                            drained.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        match catch_unwind(AssertUnwindSafe(task)) {
                            Ok(()) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(payload) => {
                                let mut slot = first_panic
                                    .lock()
                                    .unwrap_or_else(|poison| poison.into_inner());
                                if slot.is_none() {
                                    *slot = Some(payload);
                                }
                                drop(slot);
                                panicked.store(true, Ordering::Release);
                            }
                        }
                    });
                }
            });
        });
        if panicked.load(Ordering::Acquire) {
            let payload = first_panic
                .into_inner()
                .unwrap_or_else(|poison| poison.into_inner())
                .expect("panicked flag implies a stored payload");
            return Err(BatchError::new(
                payload,
                completed.load(Ordering::Relaxed),
                drained.load(Ordering::Relaxed),
            ));
        }
        Ok(BatchStats {
            tasks: completed.load(Ordering::Relaxed),
            workers,
        })
    }
}

/// The registry: one slot per [`BackendKind`], filled once. The Rayon
/// slot is pre-wired; `rpb-multiqueue`'s `backend::ensure_registered()`
/// fills the MQ slot (this crate cannot depend on it — the dependency
/// points the other way).
static RAYON: RayonExecutor = RayonExecutor;
static MQ_SLOT: OnceLock<&'static dyn Executor> = OnceLock::new();

/// Registers `exec` under its [`Executor::kind`]. First registration
/// wins; later calls are no-ops (so `ensure_registered` is idempotent).
pub fn register(exec: &'static dyn Executor) {
    match exec.kind() {
        BackendKind::Rayon => {} // built in, never replaced
        BackendKind::Mq => {
            let _ = MQ_SLOT.set(exec);
        }
    }
}

/// Looks up the registered executor for `kind`, if any.
pub fn get(kind: BackendKind) -> Option<&'static dyn Executor> {
    match kind {
        BackendKind::Rayon => Some(&RAYON),
        BackendKind::Mq => MQ_SLOT.get().copied(),
    }
}

/// The registered executor for `kind`.
///
/// # Panics
/// Panics when the backend was never registered — for `mq`, call
/// `rpb_multiqueue::backend::ensure_registered()` during startup (the
/// `rpb` harness does).
pub fn executor(kind: BackendKind) -> &'static dyn Executor {
    get(kind).unwrap_or_else(|| {
        panic!(
            "backend `{}` is not registered (rpb_multiqueue::backend::ensure_registered())",
            kind.label()
        )
    })
}

/// The always-available Rayon executor.
pub fn rayon_executor() -> &'static dyn Executor {
    &RAYON
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parse_round_trips_and_rejects() {
        for b in ALL_BACKENDS {
            assert_eq!(BackendKind::from_str(b.label()), Ok(b));
        }
        assert_eq!(BackendKind::from_str(" MQ "), Ok(BackendKind::Mq));
        assert_eq!(BackendKind::from_str("multiqueue"), Ok(BackendKind::Mq));
        let err = BackendKind::from_str("tbb").unwrap_err();
        assert!(err.to_string().contains("tbb"));
        assert!(err.to_string().contains("rayon") && err.to_string().contains("mq"));
    }

    #[test]
    fn programmatic_default_wins_over_env_resolution() {
        set_default_backend(Some(BackendKind::Mq));
        assert_eq!(default_backend(), BackendKind::Mq);
        set_default_backend(Some(BackendKind::Rayon));
        assert_eq!(default_backend(), BackendKind::Rayon);
        set_default_backend(None);
        // Unset: resolves via RPB_BACKEND or Rayon; either way it parses.
        let _ = default_backend();
    }

    #[test]
    fn rayon_install_provides_a_pool_of_requested_width() {
        let width = run_in(rayon_executor(), 3, rayon::current_num_threads);
        assert_eq!(width, 3);
    }

    #[test]
    fn run_in_returns_the_closure_value() {
        let v = run_in(rayon_executor(), 2, || (0..100).sum::<u64>());
        assert_eq!(v, 4950);
    }

    #[test]
    fn rayon_batch_runs_every_task() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<BatchTask<'_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as BatchTask<'_>
            })
            .collect();
        let stats = rayon_executor().run_batch(4, tasks).tasks;
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(stats, 64);
    }

    #[test]
    fn rayon_batch_panic_is_typed_and_accounted() {
        let tasks: Vec<BatchTask<'static>> = (0..16)
            .map(|i| {
                Box::new(move || {
                    if i == 7 {
                        panic!("injected batch panic");
                    }
                }) as BatchTask<'static>
            })
            .collect();
        let err = rayon_executor()
            .try_run_batch(1, tasks)
            .expect_err("task 7 panics");
        assert_eq!(err.message(), "injected batch panic");
        // Single worker: the accounting must cover every task exactly once.
        assert_eq!(err.tasks_completed + err.tasks_drained + 1, 16);
    }

    #[test]
    fn registry_serves_rayon_without_registration() {
        assert_eq!(executor(BackendKind::Rayon).kind(), BackendKind::Rayon);
        assert_eq!(executor(BackendKind::Rayon).name(), "rayon");
    }
}
