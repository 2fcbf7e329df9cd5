//! Deterministic reservations — PBBS's `speculative_for`.
//!
//! The engine behind `mis`, `mm`, and `dr`: iterations of a loop with
//! run-time dependences execute speculatively in rounds. Each active
//! iteration first *reserves* the shared cells it needs by writing its
//! iteration index with a `write_min` priority update; iterations that
//! still hold all their reservations then *commit*; losers retry next
//! round. Because priority is the iteration index, the result equals the
//! sequential loop's — deterministic parallelism out of an `AW` pattern
//! (Blelloch et al., "Internally deterministic parallel algorithms can be
//! fast", PPoPP'12).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

/// Sentinel: cell not reserved.
pub const FREE: usize = usize::MAX;

/// An array of reservation cells, one per contended resource.
pub struct ReservationStation {
    cells: Vec<AtomicUsize>,
}

impl ReservationStation {
    /// `n` initially free cells.
    pub fn new(n: usize) -> Self {
        ReservationStation {
            cells: (0..n).map(|_| AtomicUsize::new(FREE)).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reserve cell `c` with priority `i` (lower wins).
    #[inline]
    pub fn reserve(&self, c: usize, i: usize) {
        let cell = &self.cells[c];
        let mut cur = cell.load(Ordering::Relaxed);
        while i < cur {
            match cell.compare_exchange_weak(cur, i, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Does iteration `i` currently hold cell `c`?
    #[inline]
    pub fn holds(&self, c: usize, i: usize) -> bool {
        self.cells[c].load(Ordering::Relaxed) == i
    }

    /// If iteration `i` holds cell `c`, release it and return true.
    #[inline]
    pub fn check_reset(&self, c: usize, i: usize) -> bool {
        self.cells[c]
            .compare_exchange(i, FREE, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Unconditionally frees cell `c`.
    #[inline]
    pub fn reset(&self, c: usize) {
        self.cells[c].store(FREE, Ordering::Relaxed);
    }

    /// Current owner of cell `c`, or [`FREE`].
    #[inline]
    pub fn owner(&self, c: usize) -> usize {
        self.cells[c].load(Ordering::Relaxed)
    }
}

/// Outcome of one `speculative_for` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecStatus {
    /// Number of reserve/commit rounds executed.
    pub rounds: usize,
    /// Total commit attempts that failed and were retried.
    pub retries: usize,
}

/// Runs iterations `range` speculatively with deterministic reservations.
///
/// * `reserve(i)` — called first each round for every active iteration;
///   returns `false` if the iteration discovered it has nothing to do
///   (it then completes without a commit), `true` to proceed to commit.
/// * `commit(i)` — returns `true` if the iteration completed, `false` to
///   retry it next round.
///
/// `granularity` bounds how many iterations are in flight per round; PBBS
/// tunes this per benchmark (typically a few thousand). The sequential
/// semantics are those of the loop run in index order.
pub fn speculative_for<R, C>(
    range: Range<usize>,
    granularity: usize,
    reserve: R,
    commit: C,
) -> SpecStatus
where
    R: Fn(usize) -> bool + Send + Sync,
    C: Fn(usize) -> bool + Send + Sync,
{
    assert!(granularity > 0, "granularity must be positive");
    let mut active: Vec<usize> = Vec::new();
    let mut next = range.start;
    let mut rounds = 0usize;
    let mut retries = 0usize;
    while next < range.end || !active.is_empty() {
        // Top up the in-flight window, preserving index priority order.
        let room = granularity.saturating_sub(active.len());
        let take = room.min(range.end - next);
        active.extend(next..next + take);
        next += take;

        // Reserve phase (parallel).
        let wants: Vec<bool> = active.par_iter().map(|&i| reserve(i)).collect();
        // Commit phase (parallel).
        let done: Vec<bool> = active
            .par_iter()
            .zip(wants.par_iter())
            .map(|(&i, &w)| if w { commit(i) } else { true })
            .collect();
        let before = active.len();
        active = active
            .iter()
            .zip(done.iter())
            .filter_map(|(&i, &d)| (!d).then_some(i))
            .collect();
        retries += active.len();
        rounds += 1;
        debug_assert!(active.len() < before || before == 0, "no forward progress");
    }
    SpecStatus { rounds, retries }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic-reservations "resource claiming": each iteration wants
    /// two cells; winners claim both. Must equal the sequential greedy.
    fn greedy_two_cell(n_iters: usize, cells: usize, granularity: usize) -> Vec<bool> {
        let pairs: Vec<(usize, usize)> = (0..n_iters)
            .map(|i| {
                let h = rpb_parlay::random::hash64(i as u64);
                (
                    (h % cells as u64) as usize,
                    ((h >> 17) % cells as u64) as usize,
                )
            })
            .collect();
        // Parallel with reservations.
        let station = ReservationStation::new(cells);
        let claimed: Vec<AtomicUsize> = (0..cells).map(|_| AtomicUsize::new(0)).collect();
        let won: Vec<AtomicUsize> = (0..n_iters).map(|_| AtomicUsize::new(0)).collect();
        speculative_for(
            0..n_iters,
            granularity,
            |i| {
                let (a, b) = pairs[i];
                if claimed[a].load(Ordering::Relaxed) == 1
                    || claimed[b].load(Ordering::Relaxed) == 1
                {
                    return false; // cell already taken: iteration is a no-op
                }
                station.reserve(a, i);
                if a != b {
                    station.reserve(b, i);
                }
                true
            },
            |i| {
                let (a, b) = pairs[i];
                if station.holds(a, i) && station.holds(b, i) {
                    claimed[a].store(1, Ordering::Relaxed);
                    claimed[b].store(1, Ordering::Relaxed);
                    won[i].store(1, Ordering::Relaxed);
                    station.check_reset(a, i);
                    if a != b {
                        station.check_reset(b, i);
                    }
                    true
                } else {
                    // Release whatever we hold and retry unless the cells
                    // got claimed by a winner (then we are done as a loser).
                    station.check_reset(a, i);
                    if a != b {
                        station.check_reset(b, i);
                    }
                    claimed[a].load(Ordering::Relaxed) == 1
                        || claimed[b].load(Ordering::Relaxed) == 1
                }
            },
        );
        won.iter().map(|w| w.load(Ordering::Relaxed) == 1).collect()
    }

    fn greedy_two_cell_sequential(n_iters: usize, cells: usize) -> Vec<bool> {
        let mut claimed = vec![false; cells];
        let mut won = vec![false; n_iters];
        for (i, won) in won.iter_mut().enumerate() {
            let h = rpb_parlay::random::hash64(i as u64);
            let (a, b) = (
                (h % cells as u64) as usize,
                ((h >> 17) % cells as u64) as usize,
            );
            if !claimed[a] && !claimed[b] {
                claimed[a] = true;
                claimed[b] = true;
                *won = true;
            }
        }
        won
    }

    #[test]
    fn matches_sequential_greedy_small_granularity() {
        let (n, cells) = if cfg!(miri) { (200, 30) } else { (2000, 300) };
        let got = greedy_two_cell(n, cells, 64);
        let want = greedy_two_cell_sequential(n, cells);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_sequential_greedy_large_granularity() {
        let (n, cells) = if cfg!(miri) { (200, 30) } else { (2000, 300) };
        let got = greedy_two_cell(n, cells, 4096);
        let want = greedy_two_cell_sequential(n, cells);
        assert_eq!(got, want);
    }

    #[test]
    fn reserve_lowest_priority_wins() {
        let st = ReservationStation::new(1);
        st.reserve(0, 10);
        st.reserve(0, 5);
        st.reserve(0, 7);
        assert_eq!(st.owner(0), 5);
        assert!(st.holds(0, 5));
        assert!(!st.holds(0, 7));
    }

    #[test]
    fn check_reset_only_for_holder() {
        let st = ReservationStation::new(2);
        st.reserve(1, 3);
        assert!(!st.check_reset(1, 4));
        assert!(st.check_reset(1, 3));
        assert_eq!(st.owner(1), FREE);
    }

    #[test]
    fn status_counts_rounds() {
        // Conflict-free iterations: one round per granularity window.
        let st = ReservationStation::new(100);
        let status = speculative_for(
            0..100,
            10,
            |i| {
                st.reserve(i, i);
                true
            },
            |i| st.holds(i, i),
        );
        assert_eq!(status.rounds, 10);
        assert_eq!(status.retries, 0);
    }

    #[test]
    fn empty_range_is_zero_rounds() {
        let status = speculative_for(5..5, 8, |_| true, |_| true);
        assert_eq!(status.rounds, 0);
    }
}
