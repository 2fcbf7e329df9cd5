//! Parallel iterators over integer ranges and owned vectors.

use std::ops::Range;

use super::plumbing::{bridge, Consumer, Producer, ProducerCallback, UnindexedConsumer};
use super::{IndexedParallelIterator, IntoParallelIterator, ParallelIterator};

/// Parallel iterator over `Range<T>` for the primitive integer types.
pub struct RangeIter<T> {
    range: Range<T>,
}

macro_rules! range_iter {
    ($($t:ty => $seq:ty, $len:expr, $into:expr);* $(;)?) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Iter = RangeIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> RangeIter<$t> {
                RangeIter { range: self }
            }
        }

        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;

            fn drive_unindexed<C: UnindexedConsumer<$t>>(self, consumer: C) -> C::Result {
                bridge(self, consumer)
            }

            fn opt_len(&self) -> Option<usize> {
                Some(self.len())
            }
        }

        impl IndexedParallelIterator for RangeIter<$t> {
            fn len(&self) -> usize {
                let len: fn(&Range<$t>) -> usize = $len;
                len(&self.range)
            }

            fn drive<C: Consumer<$t>>(self, consumer: C) -> C::Result {
                bridge(self, consumer)
            }

            fn with_producer<CB: ProducerCallback<$t>>(self, callback: CB) -> CB::Output {
                callback.callback(self)
            }
        }

        impl Producer for RangeIter<$t> {
            type Item = $t;
            type IntoIter = $seq;

            fn into_iter(self) -> $seq {
                let into: fn(Range<$t>) -> $seq = $into;
                into(self.range)
            }

            fn split_at(self, index: usize) -> (Self, Self) {
                let mid = self.range.start + index as $t;
                (
                    RangeIter { range: self.range.start..mid },
                    RangeIter { range: mid..self.range.end },
                )
            }
        }
    )*};
}

macro_rules! narrow_range_iter {
    ($($t:ty),*) => {
        range_iter!($($t => Range<$t>, |r| ExactSizeIterator::len(r), |r| r;)*);
    };
}

// Types whose `Range` is an `ExactSizeIterator` are their own sequential side.
narrow_range_iter!(u8, u16, u32, usize, i8, i16, i32, isize);

/// Sequential side of the 64-bit ranges, whose `Range` is not an
/// `ExactSizeIterator` in std. (rayon drives these unindexed; they are
/// indexed here, which is the same thing on a 64-bit target.)
pub struct Wide<T> {
    range: Range<T>,
}

macro_rules! wide_range_iter {
    ($($t:ty),*) => {$(
        impl Iterator for Wide<$t> {
            type Item = $t;

            fn next(&mut self) -> Option<$t> {
                self.range.next()
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                let len = wide_len(&self.range);
                (len, Some(len))
            }
        }

        impl DoubleEndedIterator for Wide<$t> {
            fn next_back(&mut self) -> Option<$t> {
                self.range.next_back()
            }
        }

        impl ExactSizeIterator for Wide<$t> {}

        range_iter!($t => Wide<$t>, |r| wide_len(r), |range| Wide { range });
    )*};
}

fn wide_len<T: Copy + PartialOrd + TryInto<i128>>(range: &Range<T>) -> usize {
    if range.start >= range.end {
        return 0;
    }
    let width = |x: T| {
        x.try_into()
            .unwrap_or_else(|_| unreachable!("64-bit fits i128"))
    };
    usize::try_from(width(range.end) - width(range.start)).expect("range longer than usize")
}

wide_range_iter!(u64, i64);

/// Parallel iterator that moves the elements out of a `Vec<T>`.
pub struct VecIntoIter<T> {
    vec: Vec<T>,
}

impl<T> VecIntoIter<T> {
    pub(crate) fn new(vec: Vec<T>) -> Self {
        VecIntoIter { vec }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIntoIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIntoIter<T> {
        VecIntoIter::new(self)
    }
}

impl<T: Send> ParallelIterator for VecIntoIter<T> {
    type Item = T;

    fn drive_unindexed<C: UnindexedConsumer<T>>(self, consumer: C) -> C::Result {
        bridge(self, consumer)
    }

    fn opt_len(&self) -> Option<usize> {
        Some(self.vec.len())
    }
}

impl<T: Send> IndexedParallelIterator for VecIntoIter<T> {
    fn len(&self) -> usize {
        self.vec.len()
    }

    fn drive<C: Consumer<T>>(self, consumer: C) -> C::Result {
        bridge(self, consumer)
    }

    fn with_producer<CB: ProducerCallback<T>>(self, callback: CB) -> CB::Output {
        callback.callback(self)
    }
}

/// Splitting moves the tail into its own allocation (`split_off`): one copy
/// per split level, and no unsafe code.
impl<T: Send> Producer for VecIntoIter<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.vec.into_iter()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.vec.split_off(index);
        (self, VecIntoIter::new(tail))
    }
}
