//! Parallel iterator traits, the adapters rpb uses, and their consumers.

pub mod plumbing;

mod adapters;
mod collect;
mod consumers;
mod sources;

pub use adapters::{Enumerate, Filter, FilterMap, FlatMapIter, Fold, Map, Zip};
pub use sources::{RangeIter, VecIntoIter, Wide};

use consumers::{find_map_any, fold_reduce};
use plumbing::{Consumer, ProducerCallback, UnindexedConsumer};

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: ParallelIterator> IntoParallelIterator for T {
    type Iter = T;
    type Item = T::Item;
    fn into_par_iter(self) -> T {
        self
    }
}

/// `par_iter()` for anything whose shared reference is parallel-iterable.
pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefIterator<'data> for I
where
    &'data I: IntoParallelIterator,
{
    type Iter = <&'data I as IntoParallelIterator>::Iter;
    type Item = <&'data I as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `par_iter_mut()` for anything whose unique reference is parallel-iterable.
pub trait IntoParallelRefMutIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefMutIterator<'data> for I
where
    &'data mut I: IntoParallelIterator,
{
    type Iter = <&'data mut I as IntoParallelIterator>::Iter;
    type Item = <&'data mut I as IntoParallelIterator>::Item;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Building a collection from a parallel iterator.
pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<I: IntoParallelIterator<Item = T>>(par_iter: I) -> Self;
}

/// Extending a collection from a parallel iterator.
pub trait ParallelExtend<T: Send> {
    fn par_extend<I: IntoParallelIterator<Item = T>>(&mut self, par_iter: I);
}

pub trait ParallelIterator: Sized + Send {
    type Item: Send;

    fn drive_unindexed<C: UnindexedConsumer<Self::Item>>(self, consumer: C) -> C::Result;

    /// The exact length, when this iterator is indexed underneath.
    fn opt_len(&self) -> Option<usize> {
        None
    }

    fn for_each<OP>(self, op: OP)
    where
        OP: Fn(Self::Item) + Sync + Send,
    {
        fold_reduce(self, || (), |(), item| op(item), |(), ()| ())
    }

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    fn copied<'a, T>(self) -> Map<Self, fn(&'a T) -> T>
    where
        T: 'a + Copy + Send + Sync,
        Self: ParallelIterator<Item = &'a T>,
    {
        fn copy<T: Copy>(x: &T) -> T {
            *x
        }
        Map {
            base: self,
            f: copy::<T> as fn(&'a T) -> T,
        }
    }

    fn filter<P>(self, pred: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, pred }
    }

    fn filter_map<F, R>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<R> + Sync + Send,
        R: Send,
    {
        FilterMap { base: self, f }
    }

    fn flat_map_iter<F, SI>(self, f: F) -> FlatMapIter<Self, F>
    where
        F: Fn(Self::Item) -> SI + Sync + Send,
        SI: IntoIterator,
        SI::Item: Send,
    {
        FlatMapIter { base: self, f }
    }

    /// Folds each sequential piece into an accumulator; the result is a
    /// parallel iterator over the pieces' accumulators.
    fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        F: Fn(T, Self::Item) -> T + Sync + Send,
        ID: Fn() -> T + Sync + Send,
        T: Send,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }

    fn reduce<OP, ID>(self, identity: ID, op: OP) -> Self::Item
    where
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
        ID: Fn() -> Self::Item + Sync + Send,
    {
        fold_reduce(self, identity, &op, &op)
    }

    fn reduce_with<OP>(self, op: OP) -> Option<Self::Item>
    where
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let merge = |a: Option<Self::Item>, b: Option<Self::Item>| match (a, b) {
            (Some(a), Some(b)) => Some(op(a, b)),
            (a, None) => a,
            (None, b) => b,
        };
        fold_reduce(self, || None, |acc, item| merge(acc, Some(item)), merge)
    }

    fn count(self) -> usize {
        fold_reduce(self, || 0usize, |n, _| n + 1, |a, b| a + b)
    }

    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.reduce_with(|a, b| if b < a { b } else { a })
    }

    fn find_map_any<P, R>(self, f: P) -> Option<R>
    where
        P: Fn(Self::Item) -> Option<R> + Sync + Send,
        R: Send,
    {
        find_map_any(self, f)
    }

    fn find_any<P>(self, pred: P) -> Option<Self::Item>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        find_map_any(self, |item| pred(&item).then_some(item))
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

// `len` without `is_empty`, as in rayon.
#[allow(clippy::len_without_is_empty)]
pub trait IndexedParallelIterator: ParallelIterator {
    fn len(&self) -> usize;

    fn drive<C: Consumer<Self::Item>>(self, consumer: C) -> C::Result;

    fn with_producer<CB: ProducerCallback<Self::Item>>(self, callback: CB) -> CB::Output;

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
        Z::Iter: IndexedParallelIterator,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    fn position_any<P>(self, pred: P) -> Option<usize>
    where
        P: Fn(Self::Item) -> bool + Sync + Send,
    {
        find_map_any(self.enumerate(), |(i, item)| pred(item).then_some(i))
    }
}
