//! Collecting into `Vec`: in place when the length is known up front,
//! through per-piece vectors otherwise.

use std::collections::LinkedList;
use std::mem::MaybeUninit;

use super::consumers::fold_reduce;
use super::plumbing::{Consumer, Folder, Reducer, UnindexedConsumer};
use super::{FromParallelIterator, IntoParallelIterator, ParallelExtend, ParallelIterator};

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: IntoParallelIterator<Item = T>>(par_iter: I) -> Vec<T> {
        let mut vec = Vec::new();
        vec.par_extend(par_iter);
        vec
    }
}

impl<T: Send> ParallelExtend<T> for Vec<T> {
    fn par_extend<I: IntoParallelIterator<Item = T>>(&mut self, par_iter: I) {
        let par_iter = par_iter.into_par_iter();
        match par_iter.opt_len() {
            Some(len) => extend_exact(self, par_iter, len),
            None => {
                let per_piece = par_iter.fold(Vec::new, |mut piece, item| {
                    piece.push(item);
                    piece
                });
                let pieces: LinkedList<Vec<T>> = fold_reduce(
                    per_piece,
                    LinkedList::new,
                    |mut list, piece: Vec<T>| {
                        list.push_back(piece);
                        list
                    },
                    |mut left, mut right| {
                        left.append(&mut right);
                        left
                    },
                );
                self.reserve(pieces.iter().map(Vec::len).sum());
                for mut piece in pieces {
                    self.append(&mut piece);
                }
            }
        }
    }
}

/// Writes exactly `len` items straight into the vector's spare capacity.
fn extend_exact<T: Send, I: ParallelIterator<Item = T>>(vec: &mut Vec<T>, par_iter: I, len: usize) {
    vec.reserve(len);
    let start = vec.len();
    let target = &mut vec.spare_capacity_mut()[..len];
    let filled = par_iter.drive_unindexed(CollectConsumer { target });
    assert!(
        filled.complete && filled.written == len,
        "parallel iterator produced {} items, promised {len}",
        filled.written
    );
    // SAFETY: every one of the `len` slots after `start` was written exactly
    // once (each leaf filled its whole sub-slice, checked above).
    unsafe { vec.set_len(start + len) };
}

struct CollectConsumer<'c, T> {
    target: &'c mut [MaybeUninit<T>],
}

/// How many slots a piece wrote, and whether it (and every piece before it)
/// filled its sub-slice to the end.
struct Filled {
    written: usize,
    complete: bool,
}

impl<'c, T: Send> Consumer<T> for CollectConsumer<'c, T> {
    type Folder = CollectFolder<'c, T>;
    type Reducer = CollectReducer;
    type Result = Filled;

    fn split_at(self, index: usize) -> (Self, Self, CollectReducer) {
        let (left, right) = self.target.split_at_mut(index);
        (
            CollectConsumer { target: left },
            CollectConsumer { target: right },
            CollectReducer,
        )
    }

    fn into_folder(self) -> CollectFolder<'c, T> {
        CollectFolder {
            target: self.target,
            written: 0,
        }
    }

    fn full(&self) -> bool {
        false
    }
}

/// `opt_len() == Some(_)` promises the iterator is driven through the
/// indexed bridge, which only ever calls `split_at`.
impl<T: Send> UnindexedConsumer<T> for CollectConsumer<'_, T> {
    fn split_off_left(&self) -> Self {
        unreachable!("exact-length collect is split by position")
    }

    fn to_reducer(&self) -> CollectReducer {
        CollectReducer
    }
}

struct CollectReducer;

impl Reducer<Filled> for CollectReducer {
    fn reduce(self, left: Filled, right: Filled) -> Filled {
        Filled {
            written: left.written + right.written,
            complete: left.complete && right.complete,
        }
    }
}

struct CollectFolder<'c, T> {
    target: &'c mut [MaybeUninit<T>],
    written: usize,
}

impl<T> Folder<T> for CollectFolder<'_, T> {
    type Result = Filled;

    fn consume(mut self, item: T) -> Self {
        // Indexing panics if a producer yields more than it promised.
        self.target[self.written].write(item);
        self.written += 1;
        self
    }

    fn complete(self) -> Filled {
        Filled {
            written: self.written,
            complete: self.written == self.target.len(),
        }
    }

    fn full(&self) -> bool {
        false
    }
}
