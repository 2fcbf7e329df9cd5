//! Property-based tests for the pooled uniqueness check and the
//! validation-proof tokens.

// Hundreds of cases through rayon are far too slow for the interpreter.
// The Miri profile covers these paths with the deterministic small-N
// tests in the library and `miri_smoke.rs` instead.
#![cfg(not(miri))]

use rpb_fearless::proof::{self, validate_offsets_cached, ValidatedOffsets};
use rpb_fearless::snd_ind::{validate_offsets, IndOffsetsError, UniquenessCheck};
use rpb_fearless::ParIndProvedExt;
use rpb_parlay::prop::check;

use rayon::prelude::*;

/// Sequential oracle for the uniqueness check.
fn oracle_accepts(offsets: &[usize], len: usize) -> bool {
    let mut seen = vec![false; len];
    offsets.iter().all(|&o| {
        o < len && {
            let fresh = !seen[o];
            if fresh {
                seen[o] = true;
            }
            fresh
        }
    })
}

const ALL_STRATEGIES: [UniquenessCheck; 4] = [
    UniquenessCheck::MarkTable,
    UniquenessCheck::Bitset,
    UniquenessCheck::Sort,
    UniquenessCheck::Adaptive,
];

/// Runs `f` inside a Rayon pool of `threads` threads of its own — `MarkTable`
/// cuts its input into one block per thread of the current pool.
fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rpb_parlay::exec::run_in(rpb_parlay::exec::rayon_executor(), threads, f)
}

const POOL_SIZES: [usize; 3] = [1, 2, 4];

const CASES: usize = 64;

/// Every strategy, in every pool size, gives the oracle's verdict.
fn assert_all_agree(offsets: &[usize], len: usize) {
    let want = oracle_accepts(offsets, len);
    for threads in POOL_SIZES {
        for strat in ALL_STRATEGIES {
            let got = in_pool(threads, || validate_offsets(offsets, len, strat));
            assert_eq!(
                got.is_ok(),
                want,
                "strategy {strat:?} on {threads} threads disagrees with oracle: {got:?}"
            );
        }
    }
}

/// Every strategy agrees with the sequential oracle on accept/reject,
/// whatever the pool it runs in. (The *which* of several coexisting
/// errors is reported is strategy- and schedule-dependent; the verdict
/// must not be.)
#[test]
fn all_strategies_agree_with_oracle() {
    check("all_strategies_agree_with_oracle", CASES, |g| {
        let offsets = g.vec(0..96, |g| g.in_range(0..96) as usize);
        let len = g.in_range(0..96) as usize;
        assert_all_agree(&offsets, len);
    });
}

/// The same on inputs long enough for `MarkTable` to cut them into
/// several blocks: a permutation with up to two planted faults, each a
/// repeat of another entry or an out-of-bounds value.
#[test]
fn all_strategies_agree_with_oracle_across_blocks() {
    check(
        "all_strategies_agree_with_oracle_across_blocks",
        CASES,
        |g| {
            let (n, seed) = (g.size(2..20_000), g.u64());
            let mut offsets = rpb_parlay::seqdata::random_permutation(n, seed);
            for _ in 0..g.in_range(0..3) {
                let (at, from) = (g.u64() as usize, g.u64() as usize);
                let out_of_bounds = g.pick(&[false, true]);
                offsets[at % n] = if out_of_bounds {
                    n + from % 7
                } else {
                    offsets[from % n]
                };
            }
            assert_all_agree(&offsets, n);
        },
    );
}

/// Buffer reuse is sound: after any number of validations sharing
/// pooled bitmaps, a clean array still passes (marks left by an earlier
/// holder never fake a duplicate) and a duplicated array is still
/// rejected — in one block or several.
#[test]
fn pooled_reuse_never_flips_a_verdict() {
    check("pooled_reuse_never_flips_a_verdict", CASES, |g| {
        let n = g.pick(&[2..300, 8_000..20_000]);
        let n = g.size(n);
        let dup_at = g.in_range(0..20_000) as usize;
        let rounds = g.in_range(1..4);
        let clean: Vec<usize> = (0..n).collect();
        let mut dup = clean.clone();
        dup[dup_at % n] = clean[(dup_at + 1) % n];
        for threads in POOL_SIZES {
            for _ in 0..rounds {
                let (ok, err) = in_pool(threads, || {
                    (
                        validate_offsets(&clean, n, UniquenessCheck::MarkTable),
                        validate_offsets(&dup, n, UniquenessCheck::MarkTable),
                    )
                });
                assert!(ok.is_ok(), "{threads} threads: {ok:?}");
                assert!(
                    matches!(err, Err(IndOffsetsError::Duplicate { .. })),
                    "{threads} threads: {err:?}"
                );
            }
        }
    });
}

/// A proof only exists for arrays the plain check accepts, and a
/// scatter through the proof lands exactly where a checked scatter
/// would.
#[test]
fn proofs_exist_iff_validation_passes() {
    check("proofs_exist_iff_validation_passes", CASES, |g| {
        let offsets = g.vec(0..64, |g| g.in_range(0..64) as usize);
        let len = g.in_range(0..64) as usize;
        let direct = validate_offsets(&offsets, len, UniquenessCheck::Adaptive);
        let cached = validate_offsets_cached(&offsets, len, UniquenessCheck::Adaptive);
        assert_eq!(direct.is_ok(), cached.is_ok());
        if let Ok(proof) = cached {
            assert_eq!(proof.target_len(), len);
            assert_eq!(proof.as_ptr(), offsets.as_ptr());
            let mut out = vec![usize::MAX; len];
            out.par_ind_iter_mut_proved(&proof)
                .enumerate()
                .for_each(|(i, slot)| *slot = i);
            for (i, &o) in offsets.iter().enumerate() {
                assert_eq!(out[o], i);
            }
        }
    });
}

// The mutated-after-validation property (satellite of ISSUE 2): a proof
// whose offsets changed since validation must never drive an iterator in
// debug builds. Safe code cannot mutate behind the proof's borrow, so the
// hidden test constructor stands in for an unsafe/FFI tamperer.
#[cfg(debug_assertions)]
#[test]
fn stale_proofs_never_drive_an_iterator() {
    check("stale_proofs_never_drive_an_iterator", 32, |g| {
        let n = g.size(2..64);
        let mut offsets: Vec<usize> = (0..n).collect();
        let pristine = proof::fingerprint_for_tests(&offsets, n);
        // Mutate one entry to a different in-bounds value — injecting a
        // duplicate the original validation never saw. (A step that is a
        // multiple of `n` lands back on the entry: draw again.)
        let at = g.in_range(0..64) as usize % n;
        offsets[at] = loop {
            let moved = (at + g.in_range(1..64) as usize) % n;
            if moved != at {
                break moved;
            }
        };
        // SAFETY: deliberately violated — that is the property under test.
        // Construction through the proof must panic on the fingerprint
        // re-check before any unchecked iterator exists.
        let stale = unsafe { ValidatedOffsets::from_parts_for_tests(&offsets, n, pristine) };
        // Construction alone must panic (the fingerprint re-check), so the
        // iterator is never consumed — no aliased writes even if this
        // property ever regresses.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = vec![0u8; n];
            let _unreached = out.par_ind_iter_mut_proved(&stale);
        }))
        .is_err();
        assert!(caught, "stale proof accepted a mutated offsets array");
    });
}
