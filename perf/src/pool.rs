//! A pool installed once and kept: a thread that sits inside
//! `Executor::install` and runs the closures sent to it, so that timed calls
//! never include pool construction and always meet warm workers.

use std::sync::mpsc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use rpb_parlay::exec::{self, BackendKind};

type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

pub struct ResidentPool<'scope> {
    jobs: Option<mpsc::Sender<Job<'scope>>>,
    thread: Option<ScopedJoinHandle<'scope, ()>>,
    pub width: usize,
}

impl<'scope> ResidentPool<'scope> {
    /// Installs a `width`-worker pool of `backend` on a thread of `scope`.
    pub fn install<'env>(
        scope: &'scope Scope<'scope, 'env>,
        backend: BackendKind,
        width: usize,
    ) -> ResidentPool<'scope> {
        let (jobs, inbox) = mpsc::channel::<Job<'scope>>();
        let thread = scope.spawn(move || {
            exec::run_in(exec::executor(backend), width, || {
                for job in inbox {
                    job();
                }
            })
        });
        ResidentPool {
            jobs: Some(jobs),
            thread: Some(thread),
            width,
        }
    }

    /// Runs `f` inside the pool and returns its value.
    pub fn run<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send + 'scope,
        R: Send + 'scope,
    {
        let (reply, result) = mpsc::sync_channel(1);
        let job: Job<'scope> = Box::new(move || {
            let _ = reply.send(f());
        });
        self.jobs
            .as_ref()
            .expect("pool is running")
            .send(job)
            .expect("pool thread is alive");
        result.recv().expect("the job ran to completion")
    }

    /// Runs `f` inside the pool and returns how long it took, measured
    /// there: the hand-off to the pool thread is outside the timed window.
    pub fn time<F>(&self, f: F) -> Duration
    where
        F: FnOnce() + Send + 'scope,
    {
        self.run(move || {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
    }
}

impl Drop for ResidentPool<'_> {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
