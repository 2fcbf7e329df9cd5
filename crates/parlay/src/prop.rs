//! A seeded property-test harness over [`SeqRng`].
//!
//! [`check`] runs a property `cases` times against a [`Gen`] whose draws
//! are a pure function of `(property name, case index)`: a failing case
//! fails identically on every run, so re-running the test is the replay.
//! Sizes ([`Gen::size`], the lengths of [`Gen::vec`]) sweep from the bottom
//! of their range in case 0 to all of it in the last case, so the first
//! failure met is a small one — that stands in for shrinking, which there
//! is none of — and [`Gen::u64`] favours the values integer code breaks on.

use crate::random::{hash64, SeqRng};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The source a property draws its inputs from; see [`check`].
pub struct Gen {
    rng: SeqRng,
    case: usize,
    cases: usize,
}

impl Gen {
    /// Any `u64`; one draw in eight is an edge value (`0`, `u64::MAX`,
    /// `2^k` or `2^k - 1` — `1` among them).
    pub fn u64(&mut self) -> u64 {
        let r = self.rng.next_u64();
        if r & 7 != 0 {
            return self.rng.next_u64();
        }
        let bit = 1u64 << ((r >> 8) % 64);
        match (r >> 16) % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => bit,
            _ => bit - 1,
        }
    }

    /// Uniform in the non-empty half-open range `r`.
    pub fn in_range(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range {r:?}");
        r.start + self.rng.next_bounded(r.end - r.start)
    }

    /// A size in the non-empty range `r`, swept with the case index: case 0
    /// yields `r.start`, and the reachable part of the range grows linearly
    /// to all of it in the last case. Half the draws land in the top tenth
    /// of that part (so large inputs are reached), half anywhere in it.
    pub fn size(&mut self, r: Range<usize>) -> usize {
        assert!(r.start < r.end, "empty range {r:?}");
        let width = r.end - r.start;
        let reach = 1 + (width - 1) * self.case / (self.cases - 1).max(1);
        let low = if self.rng.next_u64() & 1 == 0 {
            reach - reach.div_ceil(10)
        } else {
            0
        };
        r.start + low + self.rng.next_bounded((reach - low) as u64) as usize
    }

    /// A vector of [`Gen::size`]`(len)` elements, each drawn by `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.size(len)).map(|_| item(self)).collect()
    }

    /// One of `choices`, uniformly.
    pub fn pick<T: Clone>(&mut self, choices: &[T]) -> T {
        choices[self.in_range(0..choices.len() as u64) as usize].clone()
    }
}

/// Runs `property` on `cases` generated inputs. The first case whose run
/// panics is reported on stderr by property name and case index, and its
/// panic is re-raised unchanged.
pub fn check(name: &str, cases: usize, property: impl Fn(&mut Gen)) {
    let seed = name.bytes().fold(0, |h, b| hash64(h ^ u64::from(b)));
    for case in 0..cases {
        let mut g = Gen {
            rng: SeqRng::new(seed.wrapping_add(case as u64)),
            case,
            cases,
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!(
                "property `{name}` failed at case {case} of {cases}; re-run the test to replay"
            );
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// Every `u64()` a run of `name` draws, three per case.
    fn draws(name: &str) -> Vec<u64> {
        let seen = RefCell::new(Vec::new());
        check(name, 16, |g| {
            seen.borrow_mut().extend([g.u64(), g.u64(), g.u64()]);
        });
        seen.into_inner()
    }

    #[test]
    fn a_holding_property_runs_exactly_cases_times() {
        let runs = Cell::new(0);
        check("holds", 37, |_| runs.set(runs.get() + 1));
        assert_eq!(runs.get(), 37);
    }

    #[test]
    fn inputs_are_a_function_of_the_name_and_case() {
        assert_eq!(draws("a property"), draws("a property"));
        assert_ne!(draws("a property"), draws("another property"));
    }

    #[test]
    fn size_stays_in_range_and_sweeps_small_to_large() {
        let largest = Cell::new(0);
        check("size sweep", 48, |g| {
            for _ in 0..8 {
                let s = g.size(10..1010);
                assert!((10..1010).contains(&s), "{s}");
                if g.case == 0 {
                    assert_eq!(s, 10);
                }
                largest.set(largest.get().max(s));
            }
        });
        assert!(
            largest.get() >= 910,
            "never reached the top decile: {}",
            largest.get()
        );
    }

    #[test]
    fn u64_reaches_the_edges() {
        let seen = RefCell::new(Vec::new());
        check("edges", 10, |g| {
            seen.borrow_mut().extend((0..100).map(|_| g.u64()))
        });
        let seen = seen.into_inner();
        assert!(seen.contains(&0) && seen.contains(&u64::MAX));
    }

    #[test]
    #[should_panic(expected = "the original message, run 4")]
    fn the_first_failing_case_is_the_one_reported() {
        let runs = Cell::new(0);
        check("fails from case 3 on", 10, |_| {
            runs.set(runs.get() + 1);
            assert!(runs.get() <= 3, "the original message, run {}", runs.get());
        });
    }
}
