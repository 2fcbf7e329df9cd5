//! Iterator adapters. Those that keep positions (`Map`, `Enumerate`, `Zip`)
//! wrap the producer; the rest (`Filter`, `FilterMap`, `FlatMap`,
//! `FlatMapIter`, `Fold`) wrap the consumer.

use std::iter;
use std::ops::Range;

use super::plumbing::{bridge, Consumer, Folder, Producer, ProducerCallback, UnindexedConsumer};
use super::{IndexedParallelIterator, ParallelIterator};

// ------------------------------------------------------------------ Map

pub struct Map<I, F> {
    pub(super) base: I,
    pub(super) f: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;

    fn drive_unindexed<C: UnindexedConsumer<R>>(self, consumer: C) -> C::Result {
        self.base.drive_unindexed(MapConsumer {
            base: consumer,
            f: &self.f,
        })
    }

    fn opt_len(&self) -> Option<usize> {
        self.base.opt_len()
    }
}

impl<I, F, R> IndexedParallelIterator for Map<I, F>
where
    I: IndexedParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    fn len(&self) -> usize {
        self.base.len()
    }

    fn drive<C: Consumer<R>>(self, consumer: C) -> C::Result {
        self.base.drive(MapConsumer {
            base: consumer,
            f: &self.f,
        })
    }

    fn with_producer<CB: ProducerCallback<R>>(self, callback: CB) -> CB::Output {
        struct Callback<CB, F> {
            callback: CB,
            f: F,
        }

        impl<T, F, R, CB> ProducerCallback<T> for Callback<CB, F>
        where
            CB: ProducerCallback<R>,
            F: Fn(T) -> R + Sync,
            R: Send,
        {
            type Output = CB::Output;
            fn callback<P: Producer<Item = T>>(self, base: P) -> CB::Output {
                self.callback.callback(MapProducer { base, f: &self.f })
            }
        }

        self.base.with_producer(Callback {
            callback,
            f: self.f,
        })
    }
}

struct MapProducer<'f, P, F> {
    base: P,
    f: &'f F,
}

impl<'f, P, F, R> Producer for MapProducer<'f, P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Sync,
    R: Send,
{
    type Item = R;
    type IntoIter = iter::Map<P::IntoIter, &'f F>;

    fn into_iter(self) -> Self::IntoIter {
        self.base.into_iter().map(self.f)
    }

    fn min_len(&self) -> usize {
        self.base.min_len()
    }

    fn max_len(&self) -> usize {
        self.base.max_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (left, right) = self.base.split_at(index);
        (
            MapProducer {
                base: left,
                f: self.f,
            },
            MapProducer {
                base: right,
                f: self.f,
            },
        )
    }
}

struct MapConsumer<'f, C, F> {
    base: C,
    f: &'f F,
}

impl<'f, T, R, C, F> Consumer<T> for MapConsumer<'f, C, F>
where
    C: Consumer<R>,
    F: Fn(T) -> R + Sync,
{
    type Folder = MapFolder<'f, C::Folder, F>;
    type Reducer = C::Reducer;
    type Result = C::Result;

    fn split_at(self, index: usize) -> (Self, Self, C::Reducer) {
        let (left, right, reducer) = self.base.split_at(index);
        (
            MapConsumer {
                base: left,
                f: self.f,
            },
            MapConsumer {
                base: right,
                f: self.f,
            },
            reducer,
        )
    }

    fn into_folder(self) -> Self::Folder {
        MapFolder {
            base: self.base.into_folder(),
            f: self.f,
        }
    }

    fn full(&self) -> bool {
        self.base.full()
    }
}

impl<T, R, C, F> UnindexedConsumer<T> for MapConsumer<'_, C, F>
where
    C: UnindexedConsumer<R>,
    F: Fn(T) -> R + Sync,
{
    fn split_off_left(&self) -> Self {
        MapConsumer {
            base: self.base.split_off_left(),
            f: self.f,
        }
    }

    fn to_reducer(&self) -> C::Reducer {
        self.base.to_reducer()
    }
}

struct MapFolder<'f, C, F> {
    base: C,
    f: &'f F,
}

impl<T, R, C, F> Folder<T> for MapFolder<'_, C, F>
where
    C: Folder<R>,
    F: Fn(T) -> R,
{
    type Result = C::Result;

    fn consume(self, item: T) -> Self {
        MapFolder {
            base: self.base.consume((self.f)(item)),
            f: self.f,
        }
    }

    fn consume_iter<I: IntoIterator<Item = T>>(self, iter: I) -> Self {
        MapFolder {
            base: self.base.consume_iter(iter.into_iter().map(self.f)),
            f: self.f,
        }
    }

    fn complete(self) -> C::Result {
        self.base.complete()
    }

    fn full(&self) -> bool {
        self.base.full()
    }
}

// ------------------------------------------------------------ Enumerate

pub struct Enumerate<I> {
    pub(super) base: I,
}

impl<I: IndexedParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn drive_unindexed<C: UnindexedConsumer<Self::Item>>(self, consumer: C) -> C::Result {
        bridge(self, consumer)
    }

    fn opt_len(&self) -> Option<usize> {
        Some(self.base.len())
    }
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {
    fn len(&self) -> usize {
        self.base.len()
    }

    fn drive<C: Consumer<Self::Item>>(self, consumer: C) -> C::Result {
        bridge(self, consumer)
    }

    fn with_producer<CB: ProducerCallback<Self::Item>>(self, callback: CB) -> CB::Output {
        struct Callback<CB> {
            callback: CB,
        }

        impl<T, CB: ProducerCallback<(usize, T)>> ProducerCallback<T> for Callback<CB> {
            type Output = CB::Output;
            fn callback<P: Producer<Item = T>>(self, base: P) -> CB::Output {
                self.callback
                    .callback(EnumerateProducer { base, offset: 0 })
            }
        }

        self.base.with_producer(Callback { callback })
    }
}

struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type IntoIter = iter::Zip<Range<usize>, P::IntoIter>;

    fn into_iter(self) -> Self::IntoIter {
        let base = self.base.into_iter();
        (self.offset..self.offset + base.len()).zip(base)
    }

    fn min_len(&self) -> usize {
        self.base.min_len()
    }

    fn max_len(&self) -> usize {
        self.base.max_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (left, right) = self.base.split_at(index);
        (
            EnumerateProducer {
                base: left,
                offset: self.offset,
            },
            EnumerateProducer {
                base: right,
                offset: self.offset + index,
            },
        )
    }
}

// ------------------------------------------------------------------ Zip

pub struct Zip<A, B> {
    pub(super) a: A,
    pub(super) b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    type Item = (A::Item, B::Item);

    fn drive_unindexed<C: UnindexedConsumer<Self::Item>>(self, consumer: C) -> C::Result {
        bridge(self, consumer)
    }

    fn opt_len(&self) -> Option<usize> {
        Some(self.len())
    }
}

impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn drive<C: Consumer<Self::Item>>(self, consumer: C) -> C::Result {
        bridge(self, consumer)
    }

    fn with_producer<CB: ProducerCallback<Self::Item>>(self, callback: CB) -> CB::Output {
        struct CallbackA<CB, B> {
            callback: CB,
            b: B,
        }

        impl<CB, TA, B> ProducerCallback<TA> for CallbackA<CB, B>
        where
            B: IndexedParallelIterator,
            CB: ProducerCallback<(TA, B::Item)>,
        {
            type Output = CB::Output;
            fn callback<PA: Producer<Item = TA>>(self, a: PA) -> CB::Output {
                self.b.with_producer(CallbackB {
                    callback: self.callback,
                    a,
                })
            }
        }

        struct CallbackB<CB, PA> {
            callback: CB,
            a: PA,
        }

        impl<CB, PA, TB> ProducerCallback<TB> for CallbackB<CB, PA>
        where
            PA: Producer,
            CB: ProducerCallback<(PA::Item, TB)>,
        {
            type Output = CB::Output;
            fn callback<PB: Producer<Item = TB>>(self, b: PB) -> CB::Output {
                self.callback.callback(ZipProducer { a: self.a, b })
            }
        }

        self.a.with_producer(CallbackA {
            callback,
            b: self.b,
        })
    }
}

struct ZipProducer<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = iter::Zip<A::IntoIter, B::IntoIter>;

    fn into_iter(self) -> Self::IntoIter {
        self.a.into_iter().zip(self.b.into_iter())
    }

    fn min_len(&self) -> usize {
        self.a.min_len().max(self.b.min_len())
    }

    fn max_len(&self) -> usize {
        self.a.max_len().min(self.b.max_len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a_left, a_right) = self.a.split_at(index);
        let (b_left, b_right) = self.b.split_at(index);
        (
            ZipProducer {
                a: a_left,
                b: b_left,
            },
            ZipProducer {
                a: a_right,
                b: b_right,
            },
        )
    }
}

// ---------------------------------------------------------- FlatMapIter

pub struct FlatMapIter<I, F> {
    pub(super) base: I,
    pub(super) f: F,
}

impl<I, F, SI> ParallelIterator for FlatMapIter<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> SI + Sync + Send,
    SI: IntoIterator,
    SI::Item: Send,
{
    type Item = SI::Item;

    fn drive_unindexed<C: UnindexedConsumer<SI::Item>>(self, consumer: C) -> C::Result {
        self.base.drive_unindexed(FlatMapIterConsumer {
            base: consumer,
            f: &self.f,
        })
    }
}

struct FlatMapIterConsumer<'f, C, F> {
    base: C,
    f: &'f F,
}

impl<'f, T, SI, C, F> Consumer<T> for FlatMapIterConsumer<'f, C, F>
where
    C: UnindexedConsumer<SI::Item>,
    F: Fn(T) -> SI + Sync,
    SI: IntoIterator,
{
    type Folder = FlatMapIterFolder<'f, C::Folder, F>;
    type Reducer = C::Reducer;
    type Result = C::Result;

    fn split_at(self, _index: usize) -> (Self, Self, C::Reducer) {
        let reducer = self.base.to_reducer();
        (self.split_off_left(), self, reducer)
    }

    fn into_folder(self) -> Self::Folder {
        FlatMapIterFolder {
            base: self.base.into_folder(),
            f: self.f,
        }
    }

    fn full(&self) -> bool {
        self.base.full()
    }
}

impl<T, SI, C, F> UnindexedConsumer<T> for FlatMapIterConsumer<'_, C, F>
where
    C: UnindexedConsumer<SI::Item>,
    F: Fn(T) -> SI + Sync,
    SI: IntoIterator,
{
    fn split_off_left(&self) -> Self {
        FlatMapIterConsumer {
            base: self.base.split_off_left(),
            f: self.f,
        }
    }

    fn to_reducer(&self) -> C::Reducer {
        self.base.to_reducer()
    }
}

struct FlatMapIterFolder<'f, C, F> {
    base: C,
    f: &'f F,
}

impl<T, SI, C, F> Folder<T> for FlatMapIterFolder<'_, C, F>
where
    C: Folder<SI::Item>,
    F: Fn(T) -> SI,
    SI: IntoIterator,
{
    type Result = C::Result;

    fn consume(self, item: T) -> Self {
        FlatMapIterFolder {
            base: self.base.consume_iter((self.f)(item)),
            f: self.f,
        }
    }

    fn complete(self) -> C::Result {
        self.base.complete()
    }

    fn full(&self) -> bool {
        self.base.full()
    }
}

// ----------------------------------------------------- Filter, FilterMap

pub struct Filter<I, P> {
    pub(super) base: I,
    pub(super) pred: P,
}

impl<I, P> ParallelIterator for Filter<I, P>
where
    I: ParallelIterator,
    P: Fn(&I::Item) -> bool + Sync + Send,
{
    type Item = I::Item;

    fn drive_unindexed<C: UnindexedConsumer<I::Item>>(self, consumer: C) -> C::Result {
        let pred = &self.pred;
        FlatMapIter {
            base: self.base,
            f: move |item| pred(&item).then_some(item),
        }
        .drive_unindexed(consumer)
    }
}

pub struct FilterMap<I, F> {
    pub(super) base: I,
    pub(super) f: F,
}

impl<I, F, R> ParallelIterator for FilterMap<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> Option<R> + Sync + Send,
    R: Send,
{
    type Item = R;

    fn drive_unindexed<C: UnindexedConsumer<R>>(self, consumer: C) -> C::Result {
        FlatMapIter {
            base: self.base,
            f: self.f,
        }
        .drive_unindexed(consumer)
    }
}

// ----------------------------------------------------------------- Fold

pub struct Fold<I, ID, F> {
    pub(super) base: I,
    pub(super) identity: ID,
    pub(super) fold_op: F,
}

impl<I, T, ID, F> ParallelIterator for Fold<I, ID, F>
where
    I: ParallelIterator,
    F: Fn(T, I::Item) -> T + Sync + Send,
    ID: Fn() -> T + Sync + Send,
    T: Send,
{
    type Item = T;

    fn drive_unindexed<C: UnindexedConsumer<T>>(self, consumer: C) -> C::Result {
        self.base.drive_unindexed(FoldConsumer {
            base: consumer,
            identity: &self.identity,
            fold_op: &self.fold_op,
        })
    }
}

struct FoldConsumer<'f, C, ID, F> {
    base: C,
    identity: &'f ID,
    fold_op: &'f F,
}

impl<'f, T, Item, C, ID, F> Consumer<Item> for FoldConsumer<'f, C, ID, F>
where
    C: UnindexedConsumer<T>,
    F: Fn(T, Item) -> T + Sync,
    ID: Fn() -> T + Sync,
    T: Send,
{
    type Folder = FoldFolder<'f, C::Folder, T, F>;
    type Reducer = C::Reducer;
    type Result = C::Result;

    fn split_at(self, _index: usize) -> (Self, Self, C::Reducer) {
        let reducer = self.base.to_reducer();
        (self.split_off_left(), self, reducer)
    }

    fn into_folder(self) -> Self::Folder {
        FoldFolder {
            base: self.base.into_folder(),
            acc: (self.identity)(),
            fold_op: self.fold_op,
        }
    }

    fn full(&self) -> bool {
        self.base.full()
    }
}

impl<T, Item, C, ID, F> UnindexedConsumer<Item> for FoldConsumer<'_, C, ID, F>
where
    C: UnindexedConsumer<T>,
    F: Fn(T, Item) -> T + Sync,
    ID: Fn() -> T + Sync,
    T: Send,
{
    fn split_off_left(&self) -> Self {
        FoldConsumer {
            base: self.base.split_off_left(),
            identity: self.identity,
            fold_op: self.fold_op,
        }
    }

    fn to_reducer(&self) -> C::Reducer {
        self.base.to_reducer()
    }
}

struct FoldFolder<'f, C, T, F> {
    base: C,
    acc: T,
    fold_op: &'f F,
}

impl<T, Item, C, F> Folder<Item> for FoldFolder<'_, C, T, F>
where
    C: Folder<T>,
    F: Fn(T, Item) -> T,
{
    type Result = C::Result;

    fn consume(self, item: Item) -> Self {
        FoldFolder {
            base: self.base,
            acc: (self.fold_op)(self.acc, item),
            fold_op: self.fold_op,
        }
    }

    fn consume_iter<I: IntoIterator<Item = Item>>(self, iter: I) -> Self {
        FoldFolder {
            base: self.base,
            acc: iter.into_iter().fold(self.acc, self.fold_op),
            fold_op: self.fold_op,
        }
    }

    fn complete(self) -> C::Result {
        self.base.consume(self.acc).complete()
    }

    fn full(&self) -> bool {
        self.base.full()
    }
}
