//! The producer/consumer protocol parallel iterators are driven through,
//! with the same shape as rayon's `iter::plumbing`.

use super::IndexedParallelIterator;

/// A splittable source of items with a known length.
pub trait Producer: Send + Sized {
    type Item;
    type IntoIter: Iterator<Item = Self::Item> + DoubleEndedIterator + ExactSizeIterator;

    fn into_iter(self) -> Self::IntoIter;

    fn min_len(&self) -> usize {
        1
    }

    fn max_len(&self) -> usize {
        usize::MAX
    }

    fn split_at(self, index: usize) -> (Self, Self);

    fn fold_with<F: Folder<Self::Item>>(self, folder: F) -> F {
        folder.consume_iter(self.into_iter())
    }
}

/// Hands a producer to generic code (`with_producer`'s continuation).
pub trait ProducerCallback<T> {
    type Output;
    fn callback<P: Producer<Item = T>>(self, producer: P) -> Self::Output;
}

/// A splittable sink for items.
pub trait Consumer<Item>: Send + Sized {
    type Folder: Folder<Item, Result = Self::Result>;
    type Reducer: Reducer<Self::Result>;
    type Result: Send;

    fn split_at(self, index: usize) -> (Self, Self, Self::Reducer);
    fn into_folder(self) -> Self::Folder;
    fn full(&self) -> bool;
}

/// A consumer that can be split without knowing positions.
pub trait UnindexedConsumer<Item>: Consumer<Item> {
    fn split_off_left(&self) -> Self;
    fn to_reducer(&self) -> Self::Reducer;
}

/// The sequential half of a consumer.
pub trait Folder<Item>: Sized {
    type Result;

    fn consume(self, item: Item) -> Self;

    fn consume_iter<I: IntoIterator<Item = Item>>(mut self, iter: I) -> Self {
        for item in iter {
            self = self.consume(item);
            if self.full() {
                break;
            }
        }
        self
    }

    fn complete(self) -> Self::Result;
    fn full(&self) -> bool;
}

/// Combines the results of the two halves of a split.
pub trait Reducer<Result> {
    fn reduce(self, left: Result, right: Result) -> Result;
}

/// A reducer for consumers with nothing to combine.
pub struct NoopReducer;

impl Reducer<()> for NoopReducer {
    fn reduce(self, _left: (), _right: ()) {}
}

/// Drives an indexed parallel iterator into a consumer.
pub fn bridge<I, C>(par_iter: I, consumer: C) -> C::Result
where
    I: IndexedParallelIterator,
    C: Consumer<I::Item>,
{
    struct Callback<C> {
        len: usize,
        consumer: C,
    }

    impl<C, T> ProducerCallback<T> for Callback<C>
    where
        C: Consumer<T>,
    {
        type Output = C::Result;
        fn callback<P: Producer<Item = T>>(self, producer: P) -> C::Result {
            bridge_producer_consumer(self.len, producer, self.consumer)
        }
    }

    let len = par_iter.len();
    par_iter.with_producer(Callback { len, consumer })
}

/// How much further a piece of work may be split: starts at one split per
/// thread, halves with each split, and is topped up when a half is stolen —
/// rayon's adaptive heuristic.
#[derive(Clone, Copy)]
struct Splitter {
    splits: usize,
    min: usize,
}

impl Splitter {
    fn try_split(&mut self, len: usize, migrated: bool) -> bool {
        if len / 2 < self.min {
            return false;
        }
        if migrated {
            self.splits = (self.splits / 2).max(crate::current_num_threads());
            true
        } else if self.splits > 0 {
            self.splits /= 2;
            true
        } else {
            false
        }
    }
}

pub fn bridge_producer_consumer<P, C>(len: usize, producer: P, consumer: C) -> C::Result
where
    P: Producer,
    C: Consumer<P::Item>,
{
    let min_splits = len / producer.max_len().max(1);
    let splitter = Splitter {
        splits: crate::current_num_threads().max(min_splits),
        min: producer.min_len().max(1),
    };
    return helper(len, false, splitter, producer, consumer);

    fn helper<P, C>(
        len: usize,
        migrated: bool,
        mut splitter: Splitter,
        producer: P,
        consumer: C,
    ) -> C::Result
    where
        P: Producer,
        C: Consumer<P::Item>,
    {
        if consumer.full() {
            consumer.into_folder().complete()
        } else if splitter.try_split(len, migrated) {
            let mid = len / 2;
            let (left_p, right_p) = producer.split_at(mid);
            let (left_c, right_c, reducer) = consumer.split_at(mid);
            let (left, right) = crate::join_context(
                |ctx| helper(mid, ctx.migrated(), splitter, left_p, left_c),
                |ctx| helper(len - mid, ctx.migrated(), splitter, right_p, right_c),
            );
            reducer.reduce(left, right)
        } else {
            producer.fold_with(consumer.into_folder()).complete()
        }
    }
}
