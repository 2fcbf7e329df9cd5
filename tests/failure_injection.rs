//! Failure injection: the paper's "comfortable" tier promises that
//! broken algorithm invariants surface as run-time errors at the call
//! site. These tests plant the bugs and demand the panic/error.

use rayon::prelude::*;
use rpb::fearless::{
    IndChunksError, IndOffsetsError, ParIndChunksMutExt, ParIndIterMutExt, UniquenessCheck,
};
// `downcast_ref::<String>()` alone misses `&'static str` payloads (plain
// `panic!("literal")`); the shared helper handles both.
use rpb::parlay::panics::panic_message;

#[test]
fn duplicate_offset_panics_at_call_site() {
    let mut out = vec![0u32; 100];
    let mut offsets: Vec<usize> = (0..100).collect();
    offsets[99] = 0; // the planted bug: a collision
    let result = std::panic::catch_unwind(move || {
        out.par_ind_iter_mut(&offsets).for_each(|o| *o = 1);
    });
    let err = result.expect_err("must panic");
    let msg = panic_message(&*err);
    assert!(msg.contains("duplicates"), "unhelpful panic: {msg}");
}

#[test]
fn both_check_strategies_catch_the_same_bugs() {
    let n = 10_000;
    let mut out = vec![0u8; n];
    // Bug class 1: duplicate.
    let mut offsets: Vec<usize> = (0..n).collect();
    offsets[n - 1] = 42;
    for strat in [UniquenessCheck::MarkTable, UniquenessCheck::Sort] {
        let err = out.try_par_ind_iter_mut(&offsets, strat).err();
        assert!(
            matches!(err, Some(IndOffsetsError::Duplicate { offset: 42, .. })),
            "{strat:?}: {err:?}"
        );
    }
    // Bug class 2: out of bounds.
    let mut offsets: Vec<usize> = (0..n).collect();
    offsets[7] = n;
    for strat in [UniquenessCheck::MarkTable, UniquenessCheck::Sort] {
        let err = out.try_par_ind_iter_mut(&offsets, strat).err();
        assert!(
            matches!(err, Some(IndOffsetsError::OutOfBounds { offset, .. }) if offset == n),
            "{strat:?}: {err:?}"
        );
    }
}

#[test]
fn decreasing_chunk_boundary_is_rejected() {
    let mut out = [0u8; 100];
    let offsets = vec![0usize, 40, 30, 100]; // the planted bug
    let err = out.try_par_ind_chunks_mut(&offsets).err();
    assert_eq!(err, Some(IndChunksError::NotMonotone { index: 2 }));
}

#[test]
fn chunk_boundary_past_end_is_rejected() {
    let mut out = [0u8; 100];
    let offsets = vec![0usize, 101];
    let err = out.try_par_ind_chunks_mut(&offsets).err();
    assert!(
        matches!(err, Some(IndChunksError::OutOfBounds { offset: 101, .. })),
        "{err:?}"
    );
}

#[test]
fn valid_offsets_pass_both_strategies() {
    let n = 10_000;
    let mut out = vec![0u64; n];
    let offsets = rpb::parlay::seqdata::random_permutation(n, 5);
    for strat in [UniquenessCheck::MarkTable, UniquenessCheck::Sort] {
        let it = out
            .try_par_ind_iter_mut(&offsets, strat)
            .expect("valid offsets");
        it.enumerate().for_each(|(i, slot)| *slot = i as u64);
    }
    for i in 0..n {
        assert_eq!(out[offsets[i]], i as u64);
    }
}

#[test]
fn corrupted_suffix_array_fails_verification() {
    let text = rpb::suite::inputs::wiki(2000);
    let mut sa = rpb::suite::sa::run_seq(&text);
    sa.swap(10, 20);
    assert!(rpb::suite::sa::verify(&text, &sa).is_err());
}

#[test]
fn invalid_forest_fails_verification() {
    // A cycle passed off as a forest must be rejected.
    let edges = vec![(0u32, 1u32), (1, 2), (2, 0)];
    let bogus = vec![0usize, 1, 2];
    assert!(rpb::suite::sf::verify(3, &edges, &bogus).is_err());
}

#[test]
fn non_maximal_matching_fails_verification() {
    let edges = vec![(0u32, 1u32), (2, 3)];
    let bogus = vec![true, false]; // (2,3) could still be added
    assert!(rpb::suite::mm::verify(4, &edges, &bogus).is_err());
}

#[test]
fn hash_set_overflow_panics_with_message() {
    let set = rpb::concurrent::ConcurrentHashSet::with_capacity(2);
    let slots = set.slots();
    let result = std::panic::catch_unwind(move || {
        for k in 0..(slots as u64 + 1) {
            set.insert(k);
        }
    });
    let err = result.expect_err("overflow must panic, not corrupt");
    // The payload type is an implementation detail (`&'static str` today);
    // the helper keeps this assertion payload-type agnostic.
    assert!(
        panic_message(&*err).contains("full"),
        "unhelpful overflow panic: {}",
        panic_message(&*err)
    );
}

#[test]
fn chunk_boundary_panic_message_is_helpful() {
    let mut out = [0u8; 10];
    let offsets = vec![0usize, 7, 3]; // the planted bug: decreasing
    let result = std::panic::catch_unwind(move || {
        out.par_ind_chunks_mut(&offsets).for_each(|c| c.fill(1));
    });
    let err = result.expect_err("must panic");
    let msg = panic_message(&*err);
    assert!(msg.contains("monotone"), "unhelpful panic: {msg}");
}

#[test]
fn panicking_executor_task_does_not_deadlock() {
    // A task panicking mid-run must surface as a typed error with the
    // original message — not leave the remaining workers spinning on the
    // in-flight counter forever.
    let init: Vec<(u64, usize)> = (0..200).map(|i| (i as u64, i)).collect();
    let err = rpb::multiqueue::try_execute(4, 8, init, |_, item, h| {
        if item == 13 {
            panic!("worker task blew up");
        }
        if item < 50 {
            h.push(item as u64 + 200, item + 200);
        }
    })
    .expect_err("the planted panic must surface");
    assert_eq!(err.message(), "worker task blew up");
}

#[test]
fn executor_panic_propagates_through_execute() {
    let caught = std::panic::catch_unwind(|| {
        rpb::multiqueue::execute(2, 4, vec![(0u64, ())], |_, (), _| {
            panic!("scheduled task failed");
        });
    })
    .expect_err("execute re-raises the task panic");
    assert_eq!(panic_message(&*caught), "scheduled task failed");
}
