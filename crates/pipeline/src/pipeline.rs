//! The typed multi-stage pipeline skeleton: source → N transform stages
//! → sink, every stage a farm of workers dispatched as one batch through
//! the executor registry ([`rpb_parlay::exec`]).
//!
//! ## Shape
//!
//! A [`Pipeline`] is built left to right: [`Pipeline::source`] seeds the
//! item stream, each [`stage`](Pipeline::stage) call adds a farm of
//! workers applying a transform (changing the item type from `T` to
//! `U`), and [`run_fold`](Pipeline::run_fold) appends the sink and runs
//! everything to completion as a single executor batch. Adjacent stages
//! are connected by one bounded channel of the configured
//! [`ChannelKind`] and capacity, so total in-flight data is capped at
//! `capacity × channels` items — the bounded-memory property streaming
//! variants exist for, tracked by the `pipeline_max_inflight` gauge and
//! asserted by `rpb verify --streaming`.
//!
//! ## Unwind-cleanliness
//!
//! A panicking stage worker must never deadlock the rest of the farm.
//! The shutdown protocol is ownership-driven: every worker exits its
//! loop on a typed disconnect in *either* direction (upstream
//! [`RecvError`], downstream [`SendError`]), and a worker that unwinds
//! drops its channel endpoints, which cascades: with every worker of a
//! stage gone, the upstream channel loses its last receiver (blocked
//! producers fail their sends and exit) and the downstream channel loses
//! its last sender (the consumer's recv returns end-of-stream). In-flight
//! items are dropped with destructors intact — by the failing worker, by
//! the executor's batch drain, and by the channels themselves. The
//! executor surfaces the first panic as a
//! [`BatchError`](rpb_parlay::exec::BatchError), which the pipeline maps
//! to [`PipelineError::StagePanicked`] with the stage name attributed.
//!
//! ## Scheduling
//!
//! Stage workers are *blocking* tasks, so the batch is dispatched with
//! `workers = task count`: the Rayon backend's batch pool has exactly
//! one thread per spawned task, and the MQ backend hosts each task on a
//! dedicated scoped thread — either way every farm worker can block in
//! `send`/`recv` without starving another stage.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rpb_obs::metrics as obs;
use rpb_parlay::exec::{self, BackendKind, BatchTask};

use crate::channel::{bounded, BoxReceiver, ChannelKind, Receiver, RecvError, SendError, Sender};

/// How a pipeline schedules and connects its stages.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Channel backend connecting adjacent stages.
    pub channel: ChannelKind,
    /// Per-channel queue capacity (items); must be at least 1.
    pub capacity: usize,
    /// Executor backend the stage farms run on.
    pub backend: BackendKind,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            channel: crate::channel::default_channel(),
            capacity: DEFAULT_CAPACITY,
            backend: exec::default_backend(),
        }
    }
}

/// Default per-channel capacity: deep enough to decouple stage bursts,
/// small enough that the bounded-memory cap stays a few chunks per stage.
pub const DEFAULT_CAPACITY: usize = 8;

/// Why a pipeline could not produce a result.
#[derive(Debug)]
pub enum PipelineError {
    /// The pipeline was misconfigured (zero capacity, zero-worker stage).
    Config(String),
    /// A stage worker panicked; the batch unwound cleanly (channels
    /// closed, in-flight items dropped with destructors run) and the
    /// first panic is reported here instead of a deadlocked recv.
    StagePanicked {
        /// Name of the first stage whose worker panicked (`"source"`,
        /// a user stage name, or `"sink"`).
        stage: String,
        /// The panic message.
        message: String,
        /// Worker tasks that ran to completion before the unwind.
        tasks_completed: usize,
        /// Worker tasks dropped without running.
        tasks_drained: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Config(msg) => write!(f, "pipeline config: {msg}"),
            PipelineError::StagePanicked {
                stage,
                message,
                tasks_completed,
                tasks_drained,
            } => write!(
                f,
                "pipeline stage `{stage}` panicked: {message} \
                 ({tasks_completed} workers completed, {tasks_drained} drained)"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Always-on accounting of one completed pipeline run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Transform stages between source and sink.
    pub stages: usize,
    /// Total worker tasks dispatched (source + stage farms + sink).
    pub workers: usize,
    /// Stage-connecting channels (`stages + 1`).
    pub channels: usize,
    /// Per-channel capacity the run was configured with.
    pub capacity: usize,
    /// Items the source emitted into the first channel.
    pub items_in: u64,
    /// Items the sink folded out of the last channel.
    pub items_out: u64,
    /// High-water mark of items resident in channels across the run, as
    /// read by a gauge that never exceeds the true occupancy.
    pub max_inflight: u64,
}

impl PipelineStats {
    /// The bounded-memory cap this run was configured for: no more than
    /// `capacity` items may sit in each of the `channels` queues.
    pub fn inflight_bound(&self) -> u64 {
        (self.capacity * self.channels) as u64
    }

    /// Whether the observed high-water mark honored [`inflight_bound`]
    /// (the claim the streaming verifier asserts per cell).
    ///
    /// [`inflight_bound`]: PipelineStats::inflight_bound
    pub fn inflight_bounded(&self) -> bool {
        self.max_inflight <= self.inflight_bound()
    }
}

/// Run-wide state shared by every worker task.
#[derive(Default)]
struct Shared {
    /// Signed: an item's recv is counted before its send (a parked
    /// consumer un-counts ahead of the item it waits for), so negatives
    /// are legal; the max only tracks positive observations.
    inflight: AtomicI64,
    max_inflight: AtomicU64,
    items_in: AtomicU64,
    items_out: AtomicU64,
    /// First panicking stage, recorded before the unwind reaches the
    /// executor so the typed error can name it.
    panicked_stage: Mutex<Option<String>>,
}

/// Sends `item`, then counts it into the in-flight gauge. Counting after
/// the (possibly blocking) send means a producer parked at a full queue
/// never inflates the gauge past real channel occupancy; with
/// [`recv_counted`] un-counting early, the gauge reads at most the true
/// occupancy at every instant.
fn send_counted<T: Send>(sh: &Shared, tx: &dyn Sender<T>, item: T) -> Result<(), SendError<T>> {
    tx.send(item)?;
    obs::PIPELINE_SENDS.add(1);
    let now = sh.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    if now > 0 {
        sh.max_inflight.fetch_max(now as u64, Ordering::Relaxed);
    }
    Ok(())
}

/// Counts one item out of the in-flight gauge, then receives it.
/// Un-counting before the (possibly blocking) recv means a consumer that
/// holds an item it has yet to un-count never inflates the gauge past
/// real channel occupancy; a disconnect took nothing, so it re-counts.
fn recv_counted<T: Send>(sh: &Shared, rx: &dyn Receiver<T>) -> Result<T, RecvError> {
    sh.inflight.fetch_sub(1, Ordering::Relaxed);
    let item = rx.recv().inspect_err(|_| {
        sh.inflight.fetch_add(1, Ordering::Relaxed);
    })?;
    obs::PIPELINE_RECVS.add(1);
    Ok(item)
}

/// Runs one worker's loop under `catch_unwind`, attributing the first
/// panic of the run to `stage` before resuming the unwind (the executor
/// still sees the panic and does its own batch accounting).
fn guard_stage(sh: &Shared, stage: &str, body: impl FnOnce()) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
        let mut slot = sh
            .panicked_stage
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if slot.is_none() {
            *slot = Some(stage.to_string());
        }
        drop(slot);
        resume_unwind(payload);
    }
}

/// A pipeline under construction whose current item type is `T`. The
/// lifetime `'s` lets stage closures borrow the caller's environment
/// (input slices, shared atomics); the *items* flowing through channels
/// are owned (`T: 'static`), which is what keeps the memory footprint
/// bounded by the channel capacities.
pub struct Pipeline<'s, T: Send + 'static> {
    cfg: PipelineConfig,
    tasks: Vec<BatchTask<'s>>,
    stages: usize,
    shared: Arc<Shared>,
    head: Arc<BoxReceiver<T>>,
}

impl<'s, T: Send + 'static> Pipeline<'s, T> {
    /// Starts a pipeline from an item source. The iterator runs on its
    /// own worker, pushing into the first bounded channel (so a slow
    /// downstream back-pressures the source instead of buffering).
    pub fn source<I>(cfg: PipelineConfig, items: I) -> Result<Self, PipelineError>
    where
        I: IntoIterator<Item = T> + Send + 's,
    {
        if cfg.capacity == 0 {
            return Err(PipelineError::Config(
                "channel capacity must be at least 1 (0 would be a rendezvous channel, \
                 voiding the capacity × channels in-flight bound)"
                    .into(),
            ));
        }
        let shared = Arc::new(Shared::default());
        let (tx, rx) = bounded::<T>(cfg.channel, cfg.capacity);
        let sh = Arc::clone(&shared);
        let task: BatchTask<'s> = Box::new(move || {
            guard_stage(&sh, "source", || {
                for item in items {
                    if send_counted(&sh, &*tx, item).is_err() {
                        // Every downstream worker is gone (panic
                        // shutdown): stop producing, drop the rest.
                        break;
                    }
                    sh.items_in.fetch_add(1, Ordering::Relaxed);
                    obs::PIPELINE_ITEMS_IN.add(1);
                }
            });
        });
        Ok(Pipeline {
            cfg,
            tasks: vec![task],
            stages: 0,
            shared,
            head: Arc::new(rx),
        })
    }

    /// Appends a transform stage: a farm of `workers` tasks, each pulling
    /// items from the previous stage, applying `f`, and pushing results
    /// into a fresh bounded channel. Output order across the farm is
    /// unspecified for `workers > 1` (consumers must canonicalize or
    /// merge, exactly like the batch benchmarks' parallel outputs).
    pub fn stage<U, F>(
        self,
        name: &str,
        workers: usize,
        f: F,
    ) -> Result<Pipeline<'s, U>, PipelineError>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 's,
    {
        if workers == 0 {
            return Err(PipelineError::Config(format!(
                "stage `{name}` needs at least 1 worker"
            )));
        }
        let Pipeline {
            cfg,
            mut tasks,
            stages,
            shared,
            head,
        } = self;
        let (tx, rx) = bounded::<U>(cfg.channel, cfg.capacity);
        let f = Arc::new(f);
        for _ in 0..workers {
            let rx_in = Arc::clone(&head);
            let tx_out = tx.clone_sender();
            let f = Arc::clone(&f);
            let sh = Arc::clone(&shared);
            let name = name.to_string();
            tasks.push(Box::new(move || {
                guard_stage(&sh, &name, || {
                    while let Ok(item) = recv_counted(&sh, &**rx_in) {
                        if send_counted(&sh, &*tx_out, f(item)).is_err() {
                            break;
                        }
                    }
                });
            }));
        }
        // `tx` (the original) and `head` drop here: the stage's channels
        // are now owned exclusively by its workers, so worker exit —
        // clean or unwinding — is what closes them.
        Ok(Pipeline {
            cfg,
            tasks,
            stages: stages + 1,
            shared,
            head: Arc::new(rx),
        })
    }

    /// Appends the sink (a single folding worker) and runs the whole
    /// pipeline to completion as one executor batch, returning the fold
    /// result and the run's accounting.
    pub fn run_fold<A, F>(self, init: A, fold: F) -> Result<(A, PipelineStats), PipelineError>
    where
        A: Send + 's,
        F: FnMut(A, T) -> A + Send + 's,
    {
        let Pipeline {
            cfg,
            mut tasks,
            stages,
            shared,
            head,
        } = self;
        let result: Arc<Mutex<Option<A>>> = Arc::new(Mutex::new(None));
        {
            let slot = Arc::clone(&result);
            let sh = Arc::clone(&shared);
            let mut fold = fold;
            tasks.push(Box::new(move || {
                guard_stage(&sh, "sink", || {
                    let mut acc = Some(init);
                    while let Ok(item) = recv_counted(&sh, &**head) {
                        sh.items_out.fetch_add(1, Ordering::Relaxed);
                        obs::PIPELINE_ITEMS_OUT.add(1);
                        acc = Some(fold(acc.take().expect("sink accumulator"), item));
                    }
                    *slot.lock().unwrap_or_else(|poison| poison.into_inner()) = acc;
                });
            }));
        }
        let workers = tasks.len();
        obs::PIPELINE_RUNS.add(1);
        // Blocking tasks: one executor worker per task (see module docs).
        let batch = exec::executor(cfg.backend).try_run_batch(workers, tasks);
        let max_inflight = shared.max_inflight.load(Ordering::Relaxed);
        obs::PIPELINE_MAX_INFLIGHT.record(max_inflight);
        match batch {
            Ok(_) => {
                let acc = result
                    .lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .take()
                    .expect("a clean batch ran the sink to completion");
                Ok((
                    acc,
                    PipelineStats {
                        stages,
                        workers,
                        channels: stages + 1,
                        capacity: cfg.capacity,
                        items_in: shared.items_in.load(Ordering::Relaxed),
                        items_out: shared.items_out.load(Ordering::Relaxed),
                        max_inflight,
                    },
                ))
            }
            Err(err) => {
                obs::PIPELINE_STAGE_PANICS.add(1);
                let stage = shared
                    .panicked_stage
                    .lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .take()
                    .unwrap_or_else(|| "<unattributed>".to_string());
                Err(PipelineError::StagePanicked {
                    stage,
                    message: err.message().to_string(),
                    tasks_completed: err.tasks_completed,
                    tasks_drained: err.tasks_drained,
                })
            }
        }
    }

    /// [`run_fold`](Pipeline::run_fold) collecting every item into a
    /// `Vec` (arrival order — canonicalize before comparing when any
    /// stage runs more than one worker).
    pub fn run_collect(self) -> Result<(Vec<T>, PipelineStats), PipelineError> {
        self.run_fold(Vec::new(), |mut acc, item| {
            acc.push(item);
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ALL_CHANNELS;

    fn cfg(channel: ChannelKind) -> PipelineConfig {
        PipelineConfig {
            channel,
            capacity: 4,
            backend: BackendKind::Rayon,
        }
    }

    /// The configuration the environment asks for, runnable: `RPB_BACKEND=mq`
    /// names a backend that is only there once its crate registered it.
    fn env_cfg() -> PipelineConfig {
        rpb_multiqueue::backend::ensure_registered();
        PipelineConfig::default()
    }

    #[test]
    fn identity_pipeline_preserves_items_in_order_at_one_worker() {
        for channel in ALL_CHANNELS {
            let (out, stats) = Pipeline::source(cfg(channel), 0..100u64)
                .and_then(|p| p.stage("id", 1, |x| x))
                .and_then(Pipeline::run_collect)
                .expect("clean run");
            assert_eq!(out, (0..100).collect::<Vec<_>>(), "{channel:?}");
            assert_eq!(stats.items_in, 100);
            assert_eq!(stats.items_out, 100);
            assert_eq!(stats.stages, 1);
            assert_eq!(stats.channels, 2);
            assert!(stats.inflight_bounded(), "{stats:?}");
        }
    }

    #[test]
    fn multi_stage_farm_transforms_every_item() {
        for channel in ALL_CHANNELS {
            let (sum, stats) = Pipeline::source(cfg(channel), 1..=1000u64)
                .and_then(|p| p.stage("double", 3, |x| x * 2))
                .and_then(|p| p.stage("inc", 2, |x| x + 1))
                .and_then(|p| p.run_fold(0u64, |a, x| a + x))
                .expect("clean run");
            // sum of (2x + 1) for x in 1..=1000.
            assert_eq!(sum, 2 * (1000 * 1001 / 2) + 1000, "{channel:?}");
            assert_eq!(stats.workers, 1 + 3 + 2 + 1);
            assert!(stats.inflight_bounded(), "{stats:?}");
        }
    }

    #[test]
    fn stage_closures_can_borrow_the_environment() {
        let data: Vec<u64> = (0..64).collect();
        let table = [10u64, 20, 30, 40];
        let (sum, _) = Pipeline::source(env_cfg(), data.chunks(8).map(Vec::from))
            .and_then(|p| {
                p.stage("lookup", 2, |chunk: Vec<u64>| {
                    chunk.iter().map(|&x| table[(x % 4) as usize]).sum::<u64>()
                })
            })
            .and_then(|p| p.run_fold(0u64, |a, x| a + x))
            .expect("clean run");
        assert_eq!(sum, 16 * (10 + 20 + 30 + 40));
    }

    #[test]
    fn zero_capacity_and_zero_workers_are_typed_config_errors() {
        let bad = PipelineConfig {
            capacity: 0,
            ..PipelineConfig::default()
        };
        let err = Pipeline::source(bad, 0..4u64).err().expect("rejected");
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
        let err = Pipeline::source(PipelineConfig::default(), 0..4u64)
            .and_then(|p| p.stage("noop", 0, |x: u64| x))
            .err()
            .expect("rejected");
        assert!(err.to_string().contains("noop"), "{err}");
    }

    #[test]
    fn empty_source_folds_to_init() {
        let (out, stats) = Pipeline::source(env_cfg(), std::iter::empty::<u64>())
            .and_then(|p| p.stage("id", 2, |x| x))
            .and_then(|p| p.run_fold(42u64, |a, x| a + x))
            .expect("clean run");
        assert_eq!(out, 42);
        assert_eq!(stats.items_in, 0);
        assert_eq!(stats.items_out, 0);
        assert_eq!(stats.max_inflight, 0);
    }

    #[test]
    fn max_inflight_respects_the_capacity_bound_under_pressure() {
        for channel in ALL_CHANNELS {
            // Slow sink: the source and stage must park on full queues
            // rather than buffer past capacity × channels.
            let (count, stats) = Pipeline::source(cfg(channel), 0..200u64)
                .and_then(|p| p.stage("id", 2, |x| x))
                .and_then(|p| {
                    p.run_fold(0u64, |a, _| {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                        a + 1
                    })
                })
                .expect("clean run");
            assert_eq!(count, 200);
            assert!(
                stats.inflight_bounded(),
                "{channel:?}: max_inflight {} > bound {}",
                stats.max_inflight,
                stats.inflight_bound()
            );
        }
    }
}
