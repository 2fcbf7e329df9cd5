//! Panic-injection tests for the pipeline skeleton.
//!
//! A stage worker that panics mid-stream unwinds through the executor's
//! batch machinery. These tests pin down the shutdown protocol the
//! module docs promise: (a) the run surfaces a typed
//! [`PipelineError::StagePanicked`] naming the first panicking stage
//! instead of deadlocking a blocked `send`/`recv`, (b) every in-flight
//! item is dropped exactly once (channels drained, destructors intact,
//! checked with instrumented item types), and (c) the executor backend
//! is immediately reusable for a clean run afterward. Modeled on
//! `crates/fearless/tests/panic_safety.rs`, swept across both channel
//! backends and both executor backends.

use std::sync::atomic::{AtomicUsize, Ordering};

use rpb_parlay::exec::BackendKind;
use rpb_pipeline::{ChannelKind, Pipeline, PipelineConfig, PipelineError, ALL_CHANNELS};

fn cfg(channel: ChannelKind, backend: BackendKind) -> PipelineConfig {
    PipelineConfig {
        channel,
        capacity: 4,
        backend,
    }
}

/// Both executor backends, with the MultiQueue registry slot filled.
fn backends() -> [BackendKind; 2] {
    rpb_multiqueue::backend::ensure_registered();
    [BackendKind::Rayon, BackendKind::Mq]
}

fn assert_panicked(err: &PipelineError, want_stage: &str, want_msg: &str) {
    match err {
        PipelineError::StagePanicked { stage, message, .. } => {
            assert_eq!(stage, want_stage, "{err}");
            assert!(message.contains(want_msg), "{err}");
        }
        other => panic!("wrong error kind: {other}"),
    }
}

#[test]
fn stage_panic_is_typed_drains_items_and_leaves_the_backend_reusable() {
    static CREATED: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);
    struct Tracked(u64);
    impl Tracked {
        fn new(v: u64) -> Self {
            CREATED.fetch_add(1, Ordering::SeqCst);
            Tracked(v)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }

    for backend in backends() {
        for channel in ALL_CHANNELS {
            let err = Pipeline::source(cfg(channel, backend), (0..500u64).map(Tracked::new))
                .and_then(|p| {
                    p.stage("explode", 2, |t: Tracked| {
                        if t.0 == 250 {
                            panic!("injected stage panic");
                        }
                        t
                    })
                })
                .and_then(|p| p.run_fold(0u64, |a, t| a + t.0))
                .expect_err("injected panic must surface as a typed error");
            assert_panicked(&err, "explode", "injected stage panic");
            // The batch has fully unwound by the time run_fold returns:
            // every endpoint is dropped, so every item constructed — sent,
            // in flight, or mid-transform — has been dropped exactly once.
            assert_eq!(
                CREATED.load(Ordering::SeqCst),
                DROPPED.load(Ordering::SeqCst),
                "{channel:?}/{backend:?}: channel drain must drop every item once"
            );

            // The backend is unharmed: the same executor runs a clean
            // pipeline immediately after the unwind.
            let (sum, stats) =
                Pipeline::source(cfg(channel, backend), (0..100u64).map(Tracked::new))
                    .and_then(|p| p.stage("id", 2, |t: Tracked| t))
                    .and_then(|p| p.run_fold(0u64, |a, t| a + t.0))
                    .expect("clean run after the unwind");
            assert_eq!(sum, 99 * 100 / 2, "{channel:?}/{backend:?}");
            assert_eq!(stats.items_in, 100);
            assert_eq!(stats.items_out, 100);
            assert_eq!(
                CREATED.load(Ordering::SeqCst),
                DROPPED.load(Ordering::SeqCst),
                "{channel:?}/{backend:?}: clean run drops everything too"
            );
        }
    }
}

#[test]
fn source_and_sink_panics_are_attributed_to_their_stage() {
    for backend in backends() {
        for channel in ALL_CHANNELS {
            let err = Pipeline::source(
                cfg(channel, backend),
                (0..50u64).inspect(|&i| {
                    if i == 25 {
                        panic!("injected source panic");
                    }
                }),
            )
            .and_then(|p| p.stage("id", 2, |x| x))
            .and_then(Pipeline::run_collect)
            .expect_err("source panic must surface");
            assert_panicked(&err, "source", "injected source panic");

            let err = Pipeline::source(cfg(channel, backend), 0..50u64)
                .and_then(|p| p.stage("id", 2, |x| x))
                .and_then(|p| {
                    p.run_fold(0u64, |a, x| {
                        if a > 10 {
                            panic!("injected sink panic");
                        }
                        a + x
                    })
                })
                .expect_err("sink panic must surface");
            assert_panicked(&err, "sink", "injected sink panic");
        }
    }
}

#[test]
fn deep_pipeline_panic_under_backpressure_does_not_deadlock() {
    static CREATED: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);
    struct Tracked(u64);
    impl Tracked {
        fn new(v: u64) -> Self {
            CREATED.fetch_add(1, Ordering::SeqCst);
            Tracked(v)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }

    // Tight capacity + an early panic in the *last* transform stage: the
    // upstream farms are parked on full queues when the unwind starts and
    // must be released by channel disconnects, not a timeout.
    for backend in backends() {
        for channel in ALL_CHANNELS {
            let tight = PipelineConfig {
                channel,
                capacity: 1,
                backend,
            };
            let err = Pipeline::source(tight, (0..2_000u64).map(Tracked::new))
                .and_then(|p| p.stage("widen", 2, |t: Tracked| t))
                .and_then(|p| {
                    p.stage("explode", 3, |t: Tracked| {
                        if t.0 >= 3 {
                            panic!("injected deep panic");
                        }
                        t
                    })
                })
                .and_then(|p| p.run_fold(0u64, |a, t| a + t.0))
                .expect_err("panic must surface without deadlocking");
            assert_panicked(&err, "explode", "injected deep panic");
            assert_eq!(
                CREATED.load(Ordering::SeqCst),
                DROPPED.load(Ordering::SeqCst),
                "{channel:?}/{backend:?}: every item dropped exactly once"
            );
        }
    }
}
