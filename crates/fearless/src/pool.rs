//! Pooled word buffers for the `SngInd` uniqueness check.
//!
//! Both marking strategies keep one bit per target slot in `u64` words:
//! [`UniquenessCheck::MarkTable`] cuts a buffer into block-private bitmaps
//! it reads and writes as plain integers, [`UniquenessCheck::Bitset`]
//! shares one bitmap between all tasks through atomic `fetch_or`. The hot
//! call sites (isort passes, suffix-array ranking rounds, resident serve
//! jobs) validate the same sizes over and over, so the buffers are pooled:
//!
//! * One global best-fit **pool** of `Box<[AtomicU64]>` buffers, keyed by
//!   capacity, serves both strategies. Steady-state checks pop a buffer
//!   (pool hit: zero allocation) and return it on drop. Oversized requests
//!   allocate per call and are never retained.
//! * A buffer comes back with whatever bits its last holder left: each
//!   strategy zeroes the words it is about to use. A bitmap is 1/64 of the
//!   target's slot count in words, so that pass is small next to the sweep.
//! * The words are `AtomicU64` so that the shared strategy needs no
//!   conversion; an exclusive holder reaches them as plain integers through
//!   [`AtomicU64::get_mut`] — no atomic instruction, no `unsafe`.
//!
//! # Retention bound
//!
//! Pooled buffers live in a process-global static for the lifetime of the
//! program (or until [`clear`]). The steady-state footprint is bounded: the
//! pool retains at most [`MAX_POOL_TABLES`] buffers *and* at most
//! [`MAX_POOL_BYTES`] (64 MiB). When a release would exceed either bound,
//! the smallest buffers are evicted first: a large buffer serves every
//! smaller request, so it has the highest reuse value per retained byte.
//! Call [`clear`] to drop everything eagerly (e.g. between
//! memory-sensitive phases).
//!
//! Pool traffic is counted twice, once per *validation*, not per element:
//! in [`PoolStats`] (plain relaxed atomics that count since process start,
//! which `rpb serve stats` reads) and in the `rpb_obs::metrics` counters
//! that feed the bench records, which `metrics::capture` resets around
//! every cell.
//!
//! [`UniquenessCheck::MarkTable`]: crate::snd_ind::UniquenessCheck::MarkTable
//! [`UniquenessCheck::Bitset`]: crate::snd_ind::UniquenessCheck::Bitset

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Largest buffer the pool will serve, in words (32 MiB: one bit for each
/// of `1 << 28` slots). Larger requests allocate per call, and
/// [`UniquenessCheck::Adaptive`] keeps its block-private bitmaps under it.
///
/// [`UniquenessCheck::Adaptive`]: crate::snd_ind::UniquenessCheck::Adaptive
pub const MAX_POOLED_WORDS: usize = 1 << 22;

/// Buffers retained by the pool. More than this many concurrent
/// validations of pool-eligible sizes overflow to allocate-per-call.
pub const MAX_POOL_TABLES: usize = 4;

/// Byte budget for retained buffers (two max-capacity buffers). A release
/// that would exceed it evicts the smallest buffers first.
pub const MAX_POOL_BYTES: usize = 2 * 8 * MAX_POOLED_WORDS;

/// Pool accounting since process start, never reset (the module docs say
/// why it is kept beside the `rpb-obs` counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the pool without allocating.
    pub hits: u64,
    /// Acquisitions that allocated fresh storage.
    pub misses: u64,
}

static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// When false, every acquisition allocates and every release frees —
/// the pre-pool allocate-per-call behaviour, which `rpb-perf` times.
static POOL_ENABLED: AtomicBool = AtomicBool::new(true);

static POOL: Mutex<Vec<Box<[AtomicU64]>>> = Mutex::new(Vec::new());

/// Snapshot of the always-on pool statistics.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: POOL_HITS.load(Ordering::Relaxed),
        misses: POOL_MISSES.load(Ordering::Relaxed),
    }
}

/// Zeroes the always-on pool statistics (tests and the perf gate).
pub fn reset_stats() {
    POOL_HITS.store(0, Ordering::Relaxed);
    POOL_MISSES.store(0, Ordering::Relaxed);
}

/// Enables or disables pooling globally. Disabled, every check allocates
/// per call; strategy selection is unaffected, so the two differ only in
/// storage reuse.
pub fn set_enabled(enabled: bool) {
    POOL_ENABLED.store(enabled, Ordering::Relaxed);
}

/// True when acquisitions may be served from (and returned to) the pool.
fn is_enabled() -> bool {
    POOL_ENABLED.load(Ordering::Relaxed)
}

/// Drops every pooled buffer (tests and the perf gate's cell reset).
pub fn clear() {
    POOL.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// True when a request for `words` words is small enough for the pool —
/// the signal `UniquenessCheck::Adaptive` uses. Deliberately independent
/// of [`set_enabled`] so disabling the pool does not also change the
/// chosen strategy.
pub fn serves(words: usize) -> bool {
    words <= MAX_POOLED_WORDS
}

/// An acquired word buffer; returns to the pool on drop.
pub struct WordsGuard {
    words: Box<[AtomicU64]>,
    pooled: bool,
}

impl WordsGuard {
    /// The buffer, for tasks that share it through atomic operations.
    #[inline]
    pub fn words(&self) -> &[AtomicU64] {
        &self.words
    }

    /// The buffer, exclusively: split it and reach each word as a plain
    /// integer with [`AtomicU64::get_mut`].
    #[inline]
    pub fn words_mut(&mut self) -> &mut [AtomicU64] {
        &mut self.words
    }
}

impl Drop for WordsGuard {
    fn drop(&mut self) {
        if self.pooled && is_enabled() {
            release(std::mem::take(&mut self.words));
        }
    }
}

/// Pops the smallest pooled buffer of at least `words` words, if any.
fn acquire_pooled(words: usize) -> Option<Box<[AtomicU64]>> {
    if !is_enabled() {
        return None;
    }
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let best = (0..pool.len())
        .filter(|&i| pool[i].len() >= words)
        .min_by_key(|&i| pool[i].len())?;
    Some(pool.swap_remove(best))
}

/// Returns a buffer to the pool. While the pool exceeds its buffer count or
/// byte budget, the smallest buffer is evicted (it has the lowest reuse
/// value: any larger retained buffer serves the same requests).
fn release(words: Box<[AtomicU64]>) {
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    pool.push(words);
    while pool.len() > MAX_POOL_TABLES
        || pool.iter().map(|b| 8 * b.len()).sum::<usize>() > MAX_POOL_BYTES
    {
        // Runs inside `Drop`: no panic path, though a pool over its bounds
        // always holds a buffer.
        let Some(smallest) = (0..pool.len()).min_by_key(|&i| pool[i].len()) else {
            break;
        };
        pool.swap_remove(smallest);
    }
}

/// Acquires a buffer of at least `words` words: pool hit when possible,
/// fresh allocation otherwise. The contents are unspecified — the caller
/// zeroes what it uses.
pub fn acquire_words(words: usize) -> WordsGuard {
    let pooled = serves(words);
    let buf = match acquire_pooled(words) {
        Some(buf) => {
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            rpb_obs::metrics::SNGIND_POOL_HITS.add(1);
            buf
        }
        None => {
            // Round pool-bound requests up so a handful of buffers serves
            // many distinct sizes. Oversized requests — and all requests
            // while the pool is disabled, whose allocate-per-call cost
            // rounding would overstate by up to 2× — allocate exactly.
            let cap = if pooled && is_enabled() {
                words.next_power_of_two()
            } else {
                words
            };
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            rpb_obs::metrics::SNGIND_POOL_MISSES.add(1);
            rpb_obs::metrics::SNGIND_MARK_TABLE_BYTES.add(8 * cap as u64);
            (0..cap).map(|_| AtomicU64::new(0)).collect()
        }
    };
    WordsGuard { words: buf, pooled }
}

#[cfg(test)]
mod tests {
    // Exact hit/miss accounting is pinned in `tests/pool_steady_state.rs`,
    // which runs in its own process — the global pool and its stats are
    // shared across this binary's concurrently running tests, so only
    // per-guard behaviour (which is exclusive by ownership) is safe to
    // assert here.
    use super::*;

    #[test]
    fn a_guard_gives_shared_and_exclusive_views_of_the_same_words() {
        for _ in 0..5 {
            let mut g = acquire_words(3);
            assert!(g.words().len() >= 3);
            for w in &mut g.words_mut()[..3] {
                *w.get_mut() = 0;
            }
            *g.words_mut()[2].get_mut() |= 1 << 7;
            assert_eq!(g.words()[2].fetch_or(1, Ordering::Relaxed), 1 << 7);
            assert_eq!(*g.words_mut()[2].get_mut(), 1 << 7 | 1);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "allocates a 32 MiB buffer; too slow under Miri")]
    fn oversized_requests_allocate_exactly() {
        assert!(serves(MAX_POOLED_WORDS));
        assert!(!serves(MAX_POOLED_WORDS + 1));
        let g = acquire_words(MAX_POOLED_WORDS + 1);
        assert_eq!(g.words().len(), MAX_POOLED_WORDS + 1);
    }
}
