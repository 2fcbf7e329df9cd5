//! Pins the pooled fast path's steady-state accounting.
//!
//! This lives in its own integration-test binary (its own process) so the
//! global pool and its statistics are not perturbed by the library's unit
//! tests, which run concurrently within their shared binary. Everything is
//! one `#[test]` for the same reason: two tests here would share the
//! globals again.

use rpb_fearless::pool;
use rpb_fearless::proof::validate_offsets_cached;
use rpb_fearless::snd_ind::{validate_offsets, IndOffsetsError, UniquenessCheck};
use rpb_fearless::ParIndProvedExt;
use rpb_parlay::seqdata::random_permutation;

use rayon::prelude::*;

#[test]
fn steady_state_validation_is_allocation_free() {
    let n = if cfg!(miri) { 256 } else { 10_000 };
    let rounds = if cfg!(miri) { 5 } else { 51 };
    let proof_rounds = if cfg!(miri) { 2 } else { 8 };
    let fresh_rounds = if cfg!(miri) { 2 } else { 5 };
    let offsets: Vec<usize> = (0..n).collect();
    let marking = [
        UniquenessCheck::MarkTable,
        UniquenessCheck::Bitset,
        UniquenessCheck::Adaptive,
    ];

    pool::set_enabled(true);

    // Cold pool: the first validation allocates — exactly once. Every
    // further one is a pool hit. This is the acceptance test — zero
    // heap allocation per check in steady state.
    for strategy in marking {
        pool::clear();
        pool::reset_stats();
        validate_offsets(&offsets, n, strategy).expect("identity is unique");
        assert_eq!(pool::stats(), pool::PoolStats { hits: 0, misses: 1 });
        for _ in 1..rounds {
            validate_offsets(&offsets, n, strategy).expect("still unique");
        }
        let s = pool::stats();
        assert_eq!(
            s.misses, 1,
            "steady-state {strategy:?} checks must not allocate"
        );
        assert_eq!(s.hits, rounds - 1);
    }

    // One pool serves every marking strategy: the buffer `MarkTable` cut
    // into bitmaps is large enough for the others, which find it there.
    pool::clear();
    pool::reset_stats();
    for strategy in marking {
        validate_offsets(&offsets, n, strategy).expect("still unique");
    }
    assert_eq!(pool::stats(), pool::PoolStats { hits: 2, misses: 1 });

    // Stale bits: the buffer comes back with the last holder's marks in it,
    // and no verdict may depend on them. A different permutation of the
    // same length passes, the same one with a duplicate fails, and a
    // shorter target after a longer one sees none of the longer one's bits
    // — all through the one pooled buffer (no miss).
    pool::reset_stats();
    let a = random_permutation(n, 1);
    let b = random_permutation(n, 2);
    let short = random_permutation(n / 2 + 1, 3);
    let mut dup = b.clone();
    dup[n - 1] = dup[0];
    for strategy in marking {
        validate_offsets(&a, n, strategy).expect("a permutation is unique");
        validate_offsets(&b, n, strategy).expect("stale marks must not fake a duplicate");
        let err = validate_offsets(&dup, n, strategy);
        assert!(
            matches!(err, Err(IndOffsetsError::Duplicate { offset, .. }) if offset == dup[0]),
            "{strategy:?}: {err:?}"
        );
        validate_offsets(&short, short.len(), strategy)
            .expect("marks of a longer target must not leak into a shorter one");
        validate_offsets(&b, n, strategy).expect("and back");
    }
    assert_eq!(pool::stats().misses, 0, "the pooled buffer was reused");

    // A proof amortizes even the pool traffic: one acquisition at
    // validation, none per round.
    pool::reset_stats();
    let proof =
        validate_offsets_cached(&offsets, n, UniquenessCheck::MarkTable).expect("still unique");
    assert_eq!(pool::stats().hits + pool::stats().misses, 1);
    let mut out = vec![0u64; n];
    for round in 0..proof_rounds {
        out.par_ind_iter_mut_proved(&proof)
            .for_each(|slot| *slot = round);
    }
    assert_eq!(
        pool::stats().hits + pool::stats().misses,
        1,
        "proof reuse must not touch the pool"
    );

    // Pooled requests round up to a power of two, so that a handful of
    // buffers serves many sizes.
    pool::clear();
    assert_eq!(pool::acquire_words(157).words().len(), 256);

    // Disabling the pool reproduces the allocate-per-call baseline — the
    // "fresh" cost the bench harness measures against the amortized one:
    // every check misses, and allocates exactly what it uses.
    pool::set_enabled(false);
    pool::reset_stats();
    for _ in 0..fresh_rounds {
        validate_offsets(&offsets, n, UniquenessCheck::MarkTable).expect("still unique");
    }
    assert_eq!(
        pool::stats(),
        pool::PoolStats {
            hits: 0,
            misses: fresh_rounds
        }
    );
    assert_eq!(pool::acquire_words(157).words().len(), 157);
    pool::set_enabled(true);
}
