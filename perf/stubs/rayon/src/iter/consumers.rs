//! Terminal consumers: one generic fold-then-reduce, and one early-exit find.

use std::sync::atomic::{AtomicBool, Ordering};

use super::plumbing::{Consumer, Folder, Reducer, UnindexedConsumer};
use super::ParallelIterator;

/// Folds every sequential piece from `identity()` with `fold`, and combines
/// the pieces' accumulators with `reduce`.
pub(super) fn fold_reduce<I, T, ID, F, R>(iter: I, identity: ID, fold: F, reduce: R) -> T
where
    I: ParallelIterator,
    T: Send,
    ID: Fn() -> T + Sync,
    F: Fn(T, I::Item) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    iter.drive_unindexed(FoldReduce {
        identity: &identity,
        fold: &fold,
        reduce: &reduce,
    })
}

struct FoldReduce<'a, ID, F, R> {
    identity: &'a ID,
    fold: &'a F,
    reduce: &'a R,
}

impl<ID, F, R> Clone for FoldReduce<'_, ID, F, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<ID, F, R> Copy for FoldReduce<'_, ID, F, R> {}

impl<'a, T, Item, ID, F, R> Consumer<Item> for FoldReduce<'a, ID, F, R>
where
    T: Send,
    ID: Fn() -> T + Sync,
    F: Fn(T, Item) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    type Folder = FoldReduceFolder<'a, T, F>;
    type Reducer = Self;
    type Result = T;

    fn split_at(self, _index: usize) -> (Self, Self, Self) {
        (self, self, self)
    }

    fn into_folder(self) -> Self::Folder {
        FoldReduceFolder {
            acc: (self.identity)(),
            fold: self.fold,
        }
    }

    fn full(&self) -> bool {
        false
    }
}

impl<T, Item, ID, F, R> UnindexedConsumer<Item> for FoldReduce<'_, ID, F, R>
where
    T: Send,
    ID: Fn() -> T + Sync,
    F: Fn(T, Item) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    fn split_off_left(&self) -> Self {
        *self
    }

    fn to_reducer(&self) -> Self {
        *self
    }
}

impl<T, ID, F, R> Reducer<T> for FoldReduce<'_, ID, F, R>
where
    R: Fn(T, T) -> T,
{
    fn reduce(self, left: T, right: T) -> T {
        (self.reduce)(left, right)
    }
}

pub(super) struct FoldReduceFolder<'a, T, F> {
    acc: T,
    fold: &'a F,
}

impl<T, Item, F> Folder<Item> for FoldReduceFolder<'_, T, F>
where
    F: Fn(T, Item) -> T,
{
    type Result = T;

    fn consume(self, item: Item) -> Self {
        FoldReduceFolder {
            acc: (self.fold)(self.acc, item),
            fold: self.fold,
        }
    }

    fn consume_iter<I: IntoIterator<Item = Item>>(self, iter: I) -> Self {
        FoldReduceFolder {
            acc: iter.into_iter().fold(self.acc, self.fold),
            fold: self.fold,
        }
    }

    fn complete(self) -> T {
        self.acc
    }

    fn full(&self) -> bool {
        false
    }
}

/// The first `Some` any piece produces; the other pieces stop early.
pub(super) fn find_map_any<I, R, F>(iter: I, f: F) -> Option<R>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> Option<R> + Sync,
{
    let found = AtomicBool::new(false);
    iter.drive_unindexed(Find {
        f: &f,
        found: &found,
    })
}

struct Find<'a, F> {
    f: &'a F,
    found: &'a AtomicBool,
}

impl<F> Clone for Find<'_, F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<F> Copy for Find<'_, F> {}

impl<'a, Item, R, F> Consumer<Item> for Find<'a, F>
where
    R: Send,
    F: Fn(Item) -> Option<R> + Sync,
{
    type Folder = FindFolder<'a, R, F>;
    type Reducer = FirstSome;
    type Result = Option<R>;

    fn split_at(self, _index: usize) -> (Self, Self, FirstSome) {
        (self, self, FirstSome)
    }

    fn into_folder(self) -> Self::Folder {
        FindFolder {
            f: self.f,
            found: self.found,
            hit: None,
        }
    }

    fn full(&self) -> bool {
        self.found.load(Ordering::Relaxed)
    }
}

impl<Item, R, F> UnindexedConsumer<Item> for Find<'_, F>
where
    R: Send,
    F: Fn(Item) -> Option<R> + Sync,
{
    fn split_off_left(&self) -> Self {
        *self
    }

    fn to_reducer(&self) -> FirstSome {
        FirstSome
    }
}

pub(super) struct FirstSome;

impl<R> Reducer<Option<R>> for FirstSome {
    fn reduce(self, left: Option<R>, right: Option<R>) -> Option<R> {
        left.or(right)
    }
}

pub(super) struct FindFolder<'a, R, F> {
    f: &'a F,
    found: &'a AtomicBool,
    hit: Option<R>,
}

impl<Item, R, F> Folder<Item> for FindFolder<'_, R, F>
where
    F: Fn(Item) -> Option<R>,
{
    type Result = Option<R>;

    fn consume(mut self, item: Item) -> Self {
        if let Some(hit) = (self.f)(item) {
            self.found.store(true, Ordering::Relaxed);
            self.hit = Some(hit);
        }
        self
    }

    fn complete(self) -> Option<R> {
        self.hit
    }

    fn full(&self) -> bool {
        self.hit.is_some() || self.found.load(Ordering::Relaxed)
    }
}
