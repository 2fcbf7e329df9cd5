//! A small, dependency-free stand-in for the `rayon` crate.
//!
//! The benchmark has to build rpb where no crate registry is reachable, so
//! `perf/Cargo.toml` patches `rayon` to this package. It keeps rayon's
//! architecture — a work-stealing pool driven by `join`, and parallel
//! iterators split through the producer/consumer plumbing — and implements
//! the part of the API rpb calls. Scheduling details (sleep policy, deque
//! implementation, split heuristics) are simpler than the real crate's, so
//! absolute numbers measured through it are numbers of rpb *on this pool*.

#![deny(unsafe_op_in_unsafe_fn)]

mod registry;

pub mod iter;
pub mod slice;

pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelExtend, ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use registry::{Registry, ScopeBase, WorkerThread};

/// Runs both closures, potentially in parallel, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    registry::join_context(|_| a(), |_| b())
}

/// Tells a `join_context` closure whether it was taken by another thread.
#[derive(Clone, Copy, Debug)]
pub struct FnContext {
    migrated: bool,
}

impl FnContext {
    pub fn migrated(&self) -> bool {
        self.migrated
    }
}

/// [`join`], with each closure told whether it migrated to another thread.
pub fn join_context<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce(FnContext) -> RA + Send,
    B: FnOnce(FnContext) -> RB + Send,
    RA: Send,
    RB: Send,
{
    registry::join_context(
        |migrated| a(FnContext { migrated }),
        |migrated| b(FnContext { migrated }),
    )
}

/// Threads in the current pool (the global pool outside any pool).
pub fn current_num_threads() -> usize {
    match WorkerThread::current() {
        Some(worker) => worker.registry.num_threads(),
        None => registry::global_registry().num_threads(),
    }
}

/// Index of the calling thread within its pool, if it is a pool worker.
pub fn current_thread_index() -> Option<usize> {
    WorkerThread::current().map(|w| w.index)
}

/// A fork-join scope: jobs spawned into it may borrow anything that
/// outlives the scope, and all of them finish before [`scope`] returns.
pub struct Scope<'scope> {
    base: &'scope ScopeBase,
    // Invariant in 'scope, like rayon's.
    #[allow(clippy::type_complexity)]
    marker: PhantomData<Box<dyn FnOnce(&Scope<'scope>) + Send + Sync + 'scope>>,
}

impl<'scope> Scope<'scope> {
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let base = self.base;
        let job = move || {
            let scope = Scope {
                base,
                marker: PhantomData,
            };
            body(&scope)
        };
        // SAFETY: `body` borrows only data outliving 'scope, and `scope()`
        // does not return before every spawned job has finished.
        unsafe { base.spawn(Box::new(job)) }
    }
}

/// Creates a scope, runs `op` in it on a pool worker, and waits for every
/// job spawned into the scope. The first panic (body or job) is re-raised.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    registry::run_scope(|base| {
        // SAFETY: the ScopeBase lives on `run_scope`'s frame, which outlives
        // every use of the scope (it waits for all spawned jobs); the
        // lifetime is only widened to the caller-chosen 'scope.
        let base: &'scope ScopeBase = unsafe { &*(base as *const ScopeBase) };
        let scope = Scope {
            base,
            marker: PhantomData,
        };
        op(&scope)
    })
}

/// Error building a pool (thread spawn failure).
#[derive(Debug)]
pub struct ThreadPoolBuildError(std::io::Error);

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "could not spawn pool threads: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

type Handler = Arc<dyn Fn(usize) + Send + Sync>;

#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
    start: Option<Handler>,
    exit: Option<Handler>,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// `0` means "as many as the machine has".
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    pub fn start_handler(mut self, f: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.start = Some(Arc::new(f));
        self
    }

    pub fn exit_handler(mut self, f: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.exit = Some(Arc::new(f));
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Registry::new(n, self.start, self.exit)
            .map(|registry| ThreadPool { registry })
            .map_err(ThreadPoolBuildError)
    }
}

/// A pool of worker threads; they wind down when the pool is dropped.
pub struct ThreadPool {
    registry: Arc<Registry>,
}

impl ThreadPool {
    /// Runs `op` on one of this pool's workers; parallel operations inside
    /// it use this pool.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        self.registry.in_worker(|_| op())
    }

    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate();
    }
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.num_threads())
            .finish()
    }
}
