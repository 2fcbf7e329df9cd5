//! Quality instrumentation for the MultiQueue: rank-error measurement.
//!
//! The MultiQueue's guarantee is probabilistic: a pop returns an element
//! whose *rank* (number of strictly better resident elements) is small in
//! expectation — `O(q)` for `q` internal queues with best-of-two picks
//! (Rihani et al., refined by Alistarh et al.). This module measures the
//! empirical rank-error distribution of a pop sequence, reproducing the
//! kind of quality plots those papers report and letting `bfs`/`sssp`
//! users choose a queue count.

use std::collections::BTreeMap;

use crate::mq::MultiQueue;

/// Summary of an observed rank-error distribution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankErrorStats {
    /// Number of pops measured.
    pub pops: usize,
    /// Mean rank error over the ranked pops (`pops - sampler_misses`).
    pub mean: f64,
    /// Maximum rank error observed.
    pub max: usize,
    /// Share of ranked pops that returned the exact minimum.
    pub exact_share: f64,
    /// Pops the mirror multiset could not account for. Zero in the offline
    /// single-threaded measurement; under concurrent use (another thread
    /// popping the same queue mid-measurement) the affected pops are
    /// excluded from `mean`/`exact_share` instead of aborting the run.
    pub sampler_misses: usize,
}

/// Feeds `items` (priority values, arbitrary order) through a fresh
/// MultiQueue with `n_queues` internal heaps, then pops everything
/// single-threadedly, measuring each pop's rank error against a mirror
/// multiset.
///
/// Single-threaded by design: rank error is only well-defined against a
/// quiescent resident set; the structural relaxation being measured (the
/// random two-choice pick) is present regardless of thread count.
pub fn measure_rank_error(items: &[u64], n_queues: usize) -> RankErrorStats {
    let mq: MultiQueue<()> = MultiQueue::new(n_queues);
    // Mirror multiset: priority -> multiplicity.
    let mut resident: BTreeMap<u64, usize> = BTreeMap::new();
    for &p in items {
        mq.push(p, ());
        *resident.entry(p).or_insert(0) += 1;
    }
    drain_ranked(&mq, resident)
}

/// Pops `mq` dry, ranking each pop against the `resident` mirror. Pops the
/// mirror cannot account for (it was built from a different snapshot than
/// the queue, or another thread raced the drain) become `sampler_misses`.
fn drain_ranked(mq: &MultiQueue<()>, mut resident: BTreeMap<u64, usize>) -> RankErrorStats {
    let mut stats = RankErrorStats::default();
    let mut total = 0usize;
    let mut exact = 0usize;
    while let Some((p, ())) = mq.pop() {
        stats.pops += 1;
        match resident.get_mut(&p) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                resident.remove(&p);
            }
            None => {
                // A pop the mirror never saw: in principle impossible in
                // this single-threaded drain, but the queue may be shared
                // (a caller measuring an `mq` that other threads still
                // pop) and a racing removal desynchronizes the mirror.
                // Rank is undefined for such a pop — count it as a
                // sampler miss rather than aborting the measurement.
                stats.sampler_misses += 1;
                continue;
            }
        }
        let rank: usize = resident.range(..p).map(|(_, &c)| c).sum();
        total += rank;
        if rank == 0 {
            exact += 1;
        }
        stats.max = stats.max.max(rank);
    }
    // Leftover mirror entries mean the queue lost elements — still a hard
    // error when the measurement was race-free; with misses the mirror is
    // expectedly out of sync.
    if stats.sampler_misses == 0 {
        assert!(resident.is_empty(), "elements lost: {resident:?}");
    }
    let ranked = (stats.pops - stats.sampler_misses).max(1);
    stats.mean = total as f64 / ranked as f64;
    stats.exact_share = exact as f64 / ranked as f64;
    stats
}

/// Sweeps queue counts and returns `(n_queues, stats)` rows — the data
/// behind a rank-quality-vs-relaxation plot.
pub fn rank_error_sweep(items: &[u64], queue_counts: &[usize]) -> Vec<(usize, RankErrorStats)> {
    queue_counts
        .iter()
        .map(|&q| (q, measure_rank_error(items, q)))
        .collect()
}

/// Online rank-error sampling (feature `obs` only).
///
/// [`measure_rank_error`] above is offline: it owns the queue and drains it
/// single-threadedly. The bench harness also wants rank quality *during* a
/// real concurrent `bfs`/`sssp` run. When enabled, every `push`/`pop` of
/// every [`MultiQueue`] updates a global mirror multiset, and every
/// `sample_every`-th pop computes its rank error against the mirror,
/// feeding `rpb_obs::metrics::{MQ_RANK_SAMPLES, MQ_RANK_ERROR_SUM,
/// MQ_RANK_ERROR_MAX}` (mean = sum / samples).
///
/// Under concurrency the mirror is only approximately synchronized with
/// the queues (a pop may race a not-yet-mirrored removal), so the sampled
/// rank is an estimate — which is fine: rank error is itself a
/// probabilistic quantity. The mirror mutex serializes queue operations
/// while active, so the sampler is for *observability* runs, never for
/// the timed zero-cost configuration; it costs one relaxed atomic load
/// per operation while compiled in but disabled, and nothing at all
/// without the `obs` feature.
#[cfg(feature = "obs")]
mod online {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Mutex;

    pub(super) static ACTIVE: AtomicBool = AtomicBool::new(false);
    pub(super) static PERIOD: AtomicU64 = AtomicU64::new(16);
    pub(super) static OPS: AtomicU64 = AtomicU64::new(0);
    /// Priority -> multiplicity of elements believed resident.
    pub(super) static MIRROR: Mutex<BTreeMap<u64, usize>> = Mutex::new(BTreeMap::new());
}

/// Enables the global online rank-error sampler; every `sample_every`-th
/// pop is measured. Clears any previous mirror state and the sampled
/// metrics are accumulated into `rpb_obs::metrics` from here on.
#[cfg(feature = "obs")]
pub fn enable_online_sampler(sample_every: u64) {
    use std::sync::atomic::Ordering;
    let mut mirror = online::MIRROR.lock().expect("sampler mirror");
    mirror.clear();
    online::PERIOD.store(sample_every.max(1), Ordering::Relaxed);
    online::OPS.store(0, Ordering::Relaxed);
    online::ACTIVE.store(true, Ordering::Release);
}

/// Disables the sampler and drops the mirror. The accumulated
/// `mq_rank_samples` / `mq_rank_error_sum` / `mq_rank_error_max` metrics
/// are left in place for the harness to snapshot.
#[cfg(feature = "obs")]
pub fn disable_online_sampler() {
    use std::sync::atomic::Ordering;
    online::ACTIVE.store(false, Ordering::Release);
    online::MIRROR.lock().expect("sampler mirror").clear();
}

/// Hook called by [`MultiQueue::push`] before the element becomes poppable.
#[cfg(feature = "obs")]
pub(crate) fn online_on_push(pri: u64) {
    use std::sync::atomic::Ordering;
    if !online::ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let mut mirror = online::MIRROR.lock().expect("sampler mirror");
    *mirror.entry(pri).or_insert(0) += 1;
}

/// Hook called by [`MultiQueue::pop`] after a successful pop.
#[cfg(feature = "obs")]
pub(crate) fn online_on_pop(pri: u64) {
    use std::sync::atomic::Ordering;
    if !online::ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let mut mirror = online::MIRROR.lock().expect("sampler mirror");
    let period = online::PERIOD.load(Ordering::Relaxed);
    // `is_multiple_of` is Rust 1.87; README's MSRV is 1.85.
    #[allow(clippy::manual_is_multiple_of)]
    if online::OPS.fetch_add(1, Ordering::Relaxed) % period == 0 {
        let rank: usize = mirror.range(..pri).map(|(_, &c)| c).sum();
        rpb_obs::metrics::MQ_RANK_SAMPLES.add(1);
        rpb_obs::metrics::MQ_RANK_ERROR_SUM.add(rank as u64);
        rpb_obs::metrics::MQ_RANK_ERROR_MAX.record(rank as u64);
    }
    // Tolerate pops the mirror never saw (e.g. `drain`, or pushes that
    // raced the sampler being enabled) — but count them, so a harness can
    // tell how approximate the sampled ranks were.
    match mirror.get_mut(&pri) {
        Some(c) if *c > 1 => *c -= 1,
        Some(_) => {
            mirror.remove(&pri);
        }
        None => rpb_obs::metrics::MQ_RANK_SAMPLER_MISSES.add(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpb_parlay::random::hash64;

    #[test]
    fn single_queue_is_exact() {
        let items: Vec<u64> = (0..5000).map(hash64).collect();
        let stats = measure_rank_error(&items, 1);
        assert_eq!(stats.pops, items.len());
        assert_eq!(stats.mean, 0.0);
        assert_eq!(stats.max, 0);
        assert_eq!(stats.exact_share, 1.0);
    }

    #[test]
    fn rank_error_grows_with_queue_count() {
        let items: Vec<u64> = (0..20_000).map(hash64).collect();
        let sweep = rank_error_sweep(&items, &[1, 4, 16]);
        assert_eq!(sweep[0].1.mean, 0.0);
        assert!(
            sweep[2].1.mean > sweep[1].1.mean,
            "16 queues ({}) should be more relaxed than 4 ({})",
            sweep[2].1.mean,
            sweep[1].1.mean
        );
    }

    #[test]
    fn mean_rank_error_stays_order_of_queue_count() {
        let items: Vec<u64> = (0..20_000).map(hash64).collect();
        let stats = measure_rank_error(&items, 8);
        // Theory: O(q) expected; allow a generous constant.
        assert!(stats.mean < 64.0, "mean {}", stats.mean);
        assert_eq!(stats.pops, items.len());
    }

    #[test]
    fn duplicate_priorities_are_handled() {
        let items = vec![5u64; 1000];
        let stats = measure_rank_error(&items, 4);
        assert_eq!(stats.pops, 1000);
        assert_eq!(stats.mean, 0.0, "equal priorities have rank 0");
    }

    #[test]
    fn empty_input() {
        let stats = measure_rank_error(&[], 4);
        assert_eq!(stats.pops, 0);
        assert_eq!(stats.sampler_misses, 0);
    }

    #[test]
    fn race_free_measurement_has_no_misses() {
        let items: Vec<u64> = (0..5000).map(hash64).collect();
        let stats = measure_rank_error(&items, 8);
        assert_eq!(stats.sampler_misses, 0);
    }

    #[test]
    fn unmirrored_pops_count_as_sampler_misses() {
        // Simulate a concurrent-pop race: the queue holds elements the
        // mirror snapshot never saw. Before the fix this panicked with
        // "popped priority … never resident"; now those pops are excluded
        // from the ranked statistics and reported as misses.
        let mq: MultiQueue<()> = MultiQueue::new(4);
        let mut mirror = std::collections::BTreeMap::new();
        for p in 0..100u64 {
            mq.push(p, ());
            if p < 90 {
                *mirror.entry(p).or_insert(0) += 1;
            }
        }
        let stats = drain_ranked(&mq, mirror);
        assert_eq!(stats.pops, 100);
        assert_eq!(stats.sampler_misses, 10);
        // Ranked statistics are normalized over the 90 accounted pops.
        assert!(stats.exact_share <= 1.0);
    }

    #[test]
    fn leftover_mirror_entries_tolerated_when_misses_occurred() {
        // The inverse desync: the mirror believes elements are resident
        // that the queue never held. With at least one miss the final
        // "elements lost" assertion must not fire.
        let mq: MultiQueue<()> = MultiQueue::new(2);
        let mut mirror = std::collections::BTreeMap::new();
        mq.push(7, ());
        *mirror.entry(99u64).or_insert(0) += 1; // never in the queue
        let stats = drain_ranked(&mq, mirror);
        assert_eq!(stats.pops, 1);
        assert_eq!(stats.sampler_misses, 1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn online_sampler_records_rank_metrics() {
        use rpb_obs::metrics as obs;
        obs::MQ_RANK_SAMPLES.reset();
        obs::MQ_RANK_ERROR_SUM.reset();
        enable_online_sampler(1); // sample every pop
        let mq: MultiQueue<()> = MultiQueue::new(4);
        for p in (0..2000u64).rev() {
            mq.push(p, ());
        }
        while mq.pop().is_some() {}
        disable_online_sampler();
        let samples = obs::MQ_RANK_SAMPLES.get();
        // ≥ rather than ==: other tests' queues may pop concurrently while
        // the global sampler is active, adding their own samples.
        assert!(
            samples >= 2000,
            "every one of our pops sampled, got {samples}"
        );
        // The counters must be internally consistent (max ≥ mean).
        assert!(obs::MQ_RANK_ERROR_MAX.get() >= obs::MQ_RANK_ERROR_SUM.get() / samples);
    }
}
