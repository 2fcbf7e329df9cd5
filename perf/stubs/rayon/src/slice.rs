//! Parallel iteration over slices: elements, chunks and windows.

use crate::iter::plumbing::{bridge, Consumer, Producer, ProducerCallback, UnindexedConsumer};
use crate::iter::{IndexedParallelIterator, IntoParallelIterator, ParallelIterator};

pub trait ParallelSlice<T: Sync> {
    fn as_parallel_slice(&self) -> &[T];

    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        Chunks {
            slice: self.as_parallel_slice(),
            size: chunk_size,
        }
    }

    fn par_windows(&self, window_size: usize) -> Windows<'_, T> {
        assert!(window_size != 0, "window_size must not be zero");
        Windows {
            slice: self.as_parallel_slice(),
            size: window_size,
        }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut {
            slice: self.as_parallel_slice_mut(),
            size: chunk_size,
        }
    }

    /// Unstable parallel sort: quicksort that forks on the two partitions
    /// and hands small or badly pivoted ranges to `sort_unstable`.
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        let slice = self.as_parallel_slice_mut();
        let depth = 2 * (usize::BITS - slice.len().leading_zeros());
        quicksort(slice, depth);
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

const SEQUENTIAL_SORT: usize = 4096;

fn quicksort<T: Ord + Send>(v: &mut [T], depth: u32) {
    if v.len() <= SEQUENTIAL_SORT || depth == 0 {
        v.sort_unstable();
        return;
    }
    // Median of three to the front, then a Lomuto partition around it.
    let (mid, last) = (v.len() / 2, v.len() - 1);
    if v[mid] < v[0] {
        v.swap(mid, 0);
    }
    if v[last] < v[0] {
        v.swap(last, 0);
    }
    if v[last] < v[mid] {
        v.swap(last, mid);
    }
    v.swap(0, mid);
    let mut store = 1;
    for i in 1..v.len() {
        if v[i] < v[0] {
            v.swap(i, store);
            store += 1;
        }
    }
    v.swap(0, store - 1);
    let (left, right) = v.split_at_mut(store - 1);
    crate::join(
        || quicksort(left, depth - 1),
        || quicksort(&mut right[1..], depth - 1),
    );
}

/// Declares a parallel iterator that is its own producer over a slice-like
/// field: `$split` cuts it at an item index, `$len` counts items, and
/// `$seq` yields the sequential iterator.
macro_rules! slice_iter {
    ($name:ident<$lt:lifetime, $t:ident: $bound:ident>, $item:ty, $seq:ty,
     len = $len:expr, seq = $into:expr, split = $split:expr) => {
        impl<$lt, $t: $bound + $lt> ParallelIterator for $name<$lt, $t> {
            type Item = $item;

            fn drive_unindexed<C: UnindexedConsumer<$item>>(self, consumer: C) -> C::Result {
                bridge(self, consumer)
            }

            fn opt_len(&self) -> Option<usize> {
                Some(IndexedParallelIterator::len(self))
            }
        }

        impl<$lt, $t: $bound + $lt> IndexedParallelIterator for $name<$lt, $t> {
            fn len(&self) -> usize {
                let len: fn(&Self) -> usize = $len;
                len(self)
            }

            fn drive<C: Consumer<$item>>(self, consumer: C) -> C::Result {
                bridge(self, consumer)
            }

            fn with_producer<CB: ProducerCallback<$item>>(self, callback: CB) -> CB::Output {
                callback.callback(self)
            }
        }

        impl<$lt, $t: $bound + $lt> Producer for $name<$lt, $t> {
            type Item = $item;
            type IntoIter = $seq;

            fn into_iter(self) -> $seq {
                let into: fn(Self) -> $seq = $into;
                into(self)
            }

            fn split_at(self, index: usize) -> (Self, Self) {
                let split: fn(Self, usize) -> (Self, Self) = $split;
                split(self, index)
            }
        }
    };
}

pub struct Iter<'a, T> {
    slice: &'a [T],
}

slice_iter!(
    Iter<'a, T: Sync>,
    &'a T,
    std::slice::Iter<'a, T>,
    len = |it| it.slice.len(),
    seq = |it| it.slice.iter(),
    split = |it, index| {
        let (left, right) = it.slice.split_at(index);
        (Iter { slice: left }, Iter { slice: right })
    }
);

pub struct IterMut<'a, T> {
    slice: &'a mut [T],
}

slice_iter!(
    IterMut<'a, T: Send>,
    &'a mut T,
    std::slice::IterMut<'a, T>,
    len = |it| it.slice.len(),
    seq = |it| it.slice.iter_mut(),
    split = |it, index| {
        let (left, right) = it.slice.split_at_mut(index);
        (IterMut { slice: left }, IterMut { slice: right })
    }
);

pub struct Chunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

slice_iter!(
    Chunks<'a, T: Sync>,
    &'a [T],
    std::slice::Chunks<'a, T>,
    len = |it| it.slice.len().div_ceil(it.size),
    seq = |it| it.slice.chunks(it.size),
    split = |it, index| {
        let at = (index * it.size).min(it.slice.len());
        let (left, right) = it.slice.split_at(at);
        (
            Chunks {
                slice: left,
                size: it.size,
            },
            Chunks {
                slice: right,
                size: it.size,
            },
        )
    }
);

pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

slice_iter!(
    ChunksMut<'a, T: Send>,
    &'a mut [T],
    std::slice::ChunksMut<'a, T>,
    len = |it| it.slice.len().div_ceil(it.size),
    seq = |it| it.slice.chunks_mut(it.size),
    split = |it, index| {
        let at = (index * it.size).min(it.slice.len());
        let (left, right) = it.slice.split_at_mut(at);
        (
            ChunksMut {
                slice: left,
                size: it.size,
            },
            ChunksMut {
                slice: right,
                size: it.size,
            },
        )
    }
);

pub struct Windows<'a, T> {
    slice: &'a [T],
    size: usize,
}

slice_iter!(
    Windows<'a, T: Sync>,
    &'a [T],
    std::slice::Windows<'a, T>,
    len = |it| (it.slice.len() + 1).saturating_sub(it.size),
    seq = |it| it.slice.windows(it.size),
    split = |it, index| {
        // The left part keeps the `size - 1` elements its last windows need.
        let left_end = (index + it.size - 1).min(it.slice.len());
        (
            Windows {
                slice: &it.slice[..left_end],
                size: it.size,
            },
            Windows {
                slice: &it.slice[index..],
                size: it.size,
            },
        )
    }
);

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Iter = Iter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Iter = Iter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelIterator for &'a mut [T] {
    type Iter = IterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> IterMut<'a, T> {
        IterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = IterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> IterMut<'a, T> {
        IterMut { slice: self }
    }
}
