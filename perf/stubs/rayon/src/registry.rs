//! The thread pool: one deque per worker, stealing, an injector for threads
//! outside the pool, and the latches jobs signal completion through.
//!
//! Jobs live on the stack of the thread that waits for them (`StackJob`) or
//! in a box owned by the queue (`HeapJob`); a queue holds type-erased
//! `JobRef`s. Every `unsafe` block below rests on one invariant: whoever
//! enqueues a `JobRef` keeps the job's storage alive, and does not touch the
//! closure or result slot, until the job's latch is set — and whoever sets a
//! latch does not touch the job afterwards.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

type Panic = Box<dyn Any + Send + 'static>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Rounds of `yield_now` an idle worker spends looking for work before it
/// blocks on the pool's condvar.
const SPIN_ROUNDS: u32 = 64;
/// Upper bound on one sleep; wake-ups are signalled, this only bounds the
/// damage of a missed one.
const SLEEP_CAP: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------- jobs

#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only built from jobs whose closures are `Send` (see
// `StackJob::as_job_ref` / `HeapJob::into_job_ref`).
unsafe impl Send for JobRef {}

impl JobRef {
    /// Whether both refer to the same job (jobs are identified by address).
    fn same_job(self, other: JobRef) -> bool {
        std::ptr::eq(self.data, other.data)
    }

    /// # Safety
    /// The job behind the reference must still be alive and not yet run.
    unsafe fn execute(self) {
        // SAFETY: forwarded contract.
        unsafe { (self.exec)(self.data) }
    }
}

pub(crate) trait Latch {
    /// Marks the latch as set. Must not touch `self` after the store that
    /// makes the set visible.
    fn set(&self);
}

/// A latch a *worker* waits on while it keeps running other jobs.
pub(crate) struct SpinLatch {
    flag: AtomicBool,
}

impl SpinLatch {
    fn new() -> SpinLatch {
        SpinLatch {
            flag: AtomicBool::new(false),
        }
    }

    fn probe(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

impl Latch for SpinLatch {
    fn set(&self) {
        // The waiter may free the latch as soon as the store lands, so fetch
        // the registry (kept alive by this worker) first.
        let registry = WorkerThread::current().map(|w| w.registry.clone());
        self.flag.store(true, Ordering::SeqCst);
        if let Some(registry) = registry {
            registry.sleep.wake_all();
        }
    }
}

/// A latch a thread *outside* the pool blocks on.
pub(crate) struct LockLatch {
    done: Mutex<bool>,
    cv: Condvar,
}

impl LockLatch {
    fn new() -> LockLatch {
        LockLatch {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        // Notify under the lock: the waiter cannot return (and free the
        // latch) before the guard is released.
        let mut done = lock(&self.done);
        *done = true;
        self.cv.notify_all();
    }
}

enum JobResult<R> {
    None,
    Ok(R),
    Panic(Panic),
}

pub(crate) struct StackJob<L, F, R> {
    latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

impl<L: Latch, F: FnOnce(bool) -> R + Send, R: Send> StackJob<L, F, R> {
    fn new(func: F, latch: L) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
        }
    }

    /// # Safety
    /// The caller keeps `self` alive and unmoved until the latch is set.
    unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            exec: Self::execute_erased,
        }
    }

    unsafe fn execute_erased(data: *const ()) {
        // SAFETY: `data` came from `as_job_ref`, whose caller keeps the job
        // alive until the latch below is set.
        let this = unsafe { &*(data as *const Self) };
        // A job that runs from a queue was taken by some thread other than
        // the one that would have popped it inline: report it as migrated.
        this.run(true);
    }

    fn run(&self, migrated: bool) {
        // SAFETY: a job is run exactly once — either from the queue or
        // inline by its owner after popping the same JobRef back — so nothing
        // else accesses the cells concurrently.
        let func = unsafe { (*self.func.get()).take() }.expect("job runs once");
        let result = match panic::catch_unwind(AssertUnwindSafe(|| func(migrated))) {
            Ok(v) => JobResult::Ok(v),
            Err(p) => JobResult::Panic(p),
        };
        // SAFETY: as above.
        unsafe { *self.result.get() = result };
        self.latch.set();
    }

    fn into_result(self) -> R {
        match self.result.into_inner() {
            JobResult::Ok(v) => v,
            JobResult::Panic(p) => panic::resume_unwind(p),
            JobResult::None => unreachable!("latch set before the result was stored"),
        }
    }
}

struct HeapJob<F> {
    func: F,
}

impl<F: FnOnce() + Send> HeapJob<F> {
    /// # Safety
    /// The caller guarantees everything `func` borrows outlives the job's
    /// execution (a scope does, by waiting for its counter).
    unsafe fn into_job_ref(self: Box<Self>) -> JobRef {
        JobRef {
            data: Box::into_raw(self) as *const (),
            exec: Self::execute_erased,
        }
    }

    unsafe fn execute_erased(data: *const ()) {
        // SAFETY: `data` is the `Box::into_raw` above, consumed once.
        let this = unsafe { Box::from_raw(data as *mut Self) };
        (this.func)();
    }
}

// ---------------------------------------------------------------- sleep

struct Sleep {
    mutex: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
}

impl Sleep {
    fn wake_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.mutex);
            self.cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------- registry

pub(crate) struct Registry {
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    injector: Mutex<VecDeque<JobRef>>,
    /// Jobs sitting in any queue (a hint that lets idle workers skip locks).
    queued: AtomicUsize,
    sleep: Sleep,
    terminate: AtomicBool,
}

pub(crate) struct WorkerThread {
    pub(crate) registry: Arc<Registry>,
    pub(crate) index: usize,
}

thread_local! {
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

impl WorkerThread {
    pub(crate) fn current() -> Option<&'static WorkerThread> {
        let ptr = WORKER.with(|w| w.get());
        // SAFETY: the pointer is set by `main_loop` to a WorkerThread that
        // lives until that thread exits, and cleared before it is dropped;
        // the reference never leaves the thread it was read on.
        unsafe { ptr.as_ref() }
    }

    fn push(&self, job: JobRef) {
        lock(&self.registry.deques[self.index]).push_back(job);
        self.registry.queued.fetch_add(1, Ordering::SeqCst);
        self.registry.sleep.wake_all();
    }

    fn pop(&self) -> Option<JobRef> {
        let job = lock(&self.registry.deques[self.index]).pop_back();
        if job.is_some() {
            self.registry.queued.fetch_sub(1, Ordering::SeqCst);
        }
        job
    }

    fn find_work(&self) -> Option<JobRef> {
        let reg = &*self.registry;
        if reg.queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        if let Some(job) = self.pop() {
            return Some(job);
        }
        let n = reg.deques.len();
        for k in 1..n {
            let victim = (self.index + k) % n;
            if let Some(job) = lock(&reg.deques[victim]).pop_front() {
                reg.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        let job = lock(&reg.injector).pop_front();
        if job.is_some() {
            reg.queued.fetch_sub(1, Ordering::SeqCst);
        }
        job
    }

    /// Runs other jobs until `done()` holds, sleeping when there are none.
    fn wait_until(&self, done: impl Fn() -> bool) {
        let reg = &*self.registry;
        let mut idle = 0u32;
        while !done() {
            if let Some(job) = self.find_work() {
                // SAFETY: queued jobs are alive and not yet run (module
                // invariant); each JobRef is dequeued once.
                unsafe { job.execute() };
                idle = 0;
                continue;
            }
            idle += 1;
            if idle < SPIN_ROUNDS {
                std::thread::yield_now();
                continue;
            }
            let guard = lock(&reg.sleep.mutex);
            reg.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
            // Re-check after announcing: a producer that missed the count
            // has already made its job or latch visible.
            if reg.queued.load(Ordering::SeqCst) == 0 && !done() {
                let _ = reg.sleep.cv.wait_timeout(guard, SLEEP_CAP);
            }
            reg.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            idle = 0;
        }
    }
}

impl Registry {
    pub(crate) fn new(
        num_threads: usize,
        start: Option<Arc<dyn Fn(usize) + Send + Sync>>,
        exit: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    ) -> std::io::Result<Arc<Registry>> {
        let n = num_threads.max(1);
        let registry = Arc::new(Registry {
            deques: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            sleep: Sleep {
                mutex: Mutex::new(()),
                cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            terminate: AtomicBool::new(false),
        });
        for index in 0..n {
            let (worker_registry, start, exit) = (registry.clone(), start.clone(), exit.clone());
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-stub-{index}"))
                .spawn(move || main_loop(worker_registry, index, start, exit));
            if let Err(e) = spawned {
                registry.terminate();
                return Err(e);
            }
        }
        Ok(registry)
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.deques.len()
    }

    pub(crate) fn terminate(&self) {
        self.terminate.store(true, Ordering::SeqCst);
        let _guard = lock(&self.sleep.mutex);
        self.sleep.cv.notify_all();
    }

    fn inject(&self, job: JobRef) {
        lock(&self.injector).push_back(job);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.sleep.wake_all();
    }

    /// Runs `op` on a worker of this pool and returns its value: directly if
    /// the caller already is one, otherwise by injecting it and blocking.
    pub(crate) fn in_worker<OP, R>(self: &Arc<Self>, op: OP) -> R
    where
        OP: FnOnce(&WorkerThread) -> R + Send,
        R: Send,
    {
        if let Some(worker) = WorkerThread::current() {
            if Arc::ptr_eq(&worker.registry, self) {
                return op(worker);
            }
        }
        let job = StackJob::new(
            |_| op(WorkerThread::current().expect("injected jobs run on workers")),
            LockLatch::new(),
        );
        // SAFETY: `job` stays on this frame until `wait` observes the latch.
        self.inject(unsafe { job.as_job_ref() });
        job.latch.wait();
        job.into_result()
    }
}

fn main_loop(
    registry: Arc<Registry>,
    index: usize,
    start: Option<Arc<dyn Fn(usize) + Send + Sync>>,
    exit: Option<Arc<dyn Fn(usize) + Send + Sync>>,
) {
    let worker = WorkerThread { registry, index };
    WORKER.with(|w| w.set(&worker));
    if let Some(start) = start {
        start(index);
    }
    let reg = &*worker.registry;
    worker.wait_until(|| {
        reg.terminate.load(Ordering::SeqCst) && reg.queued.load(Ordering::SeqCst) == 0
    });
    if let Some(exit) = exit {
        exit(index);
    }
    WORKER.with(|w| w.set(std::ptr::null()));
}

pub(crate) fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // One worker per core and nothing else: the benchmark's numbers must
        // not depend on the environment (no `RAYON_NUM_THREADS` here).
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        Registry::new(n, None, None).expect("global thread pool")
    })
}

/// Runs `op` on a worker: the current one, or one of the global pool.
pub(crate) fn in_worker<OP, R>(op: OP) -> R
where
    OP: FnOnce(&WorkerThread) -> R + Send,
    R: Send,
{
    match WorkerThread::current() {
        Some(worker) => op(worker),
        None => global_registry().in_worker(op),
    }
}

// ---------------------------------------------------------------- join

pub(crate) fn join_context<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce(bool) -> RA + Send,
    B: FnOnce(bool) -> RB + Send,
    RA: Send,
    RB: Send,
{
    in_worker(|worker| {
        let job_b = StackJob::new(b, SpinLatch::new());
        // SAFETY: `job_b` stays on this frame, and this function does not
        // return (or unwind) before its latch is set or it was popped back.
        let ref_b = unsafe { job_b.as_job_ref() };
        worker.push(ref_b);

        let result_a = panic::catch_unwind(AssertUnwindSafe(|| a(false)));

        // Get `b` back if nobody took it; otherwise help out until it is done.
        while !job_b.latch.probe() {
            match worker.pop() {
                Some(job) if job.same_job(ref_b) => {
                    job_b.run(false);
                    break;
                }
                // SAFETY: queued jobs are alive and not yet run.
                Some(job) => unsafe { job.execute() },
                None => {
                    worker.wait_until(|| job_b.latch.probe());
                    break;
                }
            }
        }
        match result_a {
            Ok(ra) => (ra, job_b.into_result()),
            Err(p) => panic::resume_unwind(p),
        }
    })
}

// ---------------------------------------------------------------- scope

pub(crate) struct ScopeBase {
    registry: Arc<Registry>,
    /// Spawned jobs not yet finished, plus one for the scope body itself.
    pending: AtomicUsize,
    panic: Mutex<Option<Panic>>,
}

impl ScopeBase {
    fn job_done(&self) {
        // The owner may free the scope once the count reaches zero.
        let registry = self.registry.clone();
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            registry.sleep.wake_all();
        }
    }

    fn record_panic(&self, p: Panic) {
        lock(&self.panic).get_or_insert(p);
    }

    /// Queues `body` on the scope's pool.
    ///
    /// # Safety
    /// Everything `body` borrows must outlive the scope; `run_scope` waits
    /// for every spawned job before the scope ends.
    pub(crate) unsafe fn spawn<'s>(&'s self, body: Box<dyn FnOnce() + Send + 's>) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let this: *const ScopeBase = self;
        let this = SendPtr(this);
        let job = Box::new(HeapJob {
            func: move || {
                // SAFETY: the scope owner waits for `pending` to reach zero,
                // which happens only in `job_done` below.
                let scope = unsafe { &*this.get() };
                if let Err(p) = panic::catch_unwind(AssertUnwindSafe(body)) {
                    scope.record_panic(p);
                }
                scope.job_done();
            },
        });
        // SAFETY: forwarded contract.
        let job_ref = unsafe { job.into_job_ref() };
        match WorkerThread::current() {
            Some(w) if Arc::ptr_eq(&w.registry, &self.registry) => w.push(job_ref),
            _ => self.registry.inject(job_ref),
        }
    }
}

struct SendPtr(*const ScopeBase);
// SAFETY: ScopeBase is Sync (atomics, a mutex, an Arc).
unsafe impl Send for SendPtr {}
impl SendPtr {
    fn get(&self) -> *const ScopeBase {
        self.0
    }
}

/// Runs `op` with a scope on a worker, then waits for every spawned job.
pub(crate) fn run_scope<OP, R>(op: OP) -> R
where
    OP: FnOnce(&ScopeBase) -> R + Send,
    R: Send,
{
    in_worker(|worker| {
        let base = ScopeBase {
            registry: worker.registry.clone(),
            pending: AtomicUsize::new(1),
            panic: Mutex::new(None),
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&base)));
        base.pending.fetch_sub(1, Ordering::SeqCst);
        worker.wait_until(|| base.pending.load(Ordering::SeqCst) == 0);
        let spawned_panic = lock(&base.panic).take();
        match (result, spawned_panic) {
            (Err(p), _) | (Ok(_), Some(p)) => panic::resume_unwind(p),
            (Ok(r), None) => r,
        }
    })
}
