//! The paper's code listings as executable (and *compile-fail*) examples.
//!
//! The paper's core qualitative claims are about what `rustc` accepts and
//! rejects. This module pins them down as doctests: the rejected listings
//! are `compile_fail` tests — if a future compiler started accepting one,
//! the build would flag it.
//!
//! # Listing 1(a): data race on a shared accumulator → compile error
//!
//! ```compile_fail
//! let vector = vec![1u64; 100];
//! let mid = 50;
//! let mut sum = 0u64;
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         sum += vector[..mid].iter().sum::<u64>(); // second &mut sum
//!     });
//!     sum += vector[mid..].iter().sum::<u64>();
//! });
//! ```
//!
//! # Listing 1(b): synchronization (interior mutability) fixes it
//!
//! ```
//! use std::sync::RwLock;
//! let vector = vec![1u64; 100];
//! let mid = 50;
//! let locked_sum = RwLock::new(0u64);
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let local_sum: u64 = vector[..mid].iter().sum();
//!         *locked_sum.write().unwrap() += local_sum;
//!     });
//!     let local_sum: u64 = vector[mid..].iter().sum();
//!     *locked_sum.write().unwrap() += local_sum;
//! });
//! assert_eq!(*locked_sum.read().unwrap(), 100);
//! ```
//!
//! # Listing 3(c): read-only reduction is fearless
//!
//! The listing's reduction (`.sum()`) spelled portably, as the `reduce` it
//! abbreviates:
//!
//! ```
//! use rayon::prelude::*;
//! let vector = vec![2u64; 1000];
//! let result: u64 = vector
//!     .par_chunks(128)
//!     .map(|chunk| chunk.iter().sum::<u64>())
//!     .reduce(|| 0, |a, b| a + b);
//! assert_eq!(result, 2000);
//! ```
//!
//! # Listing 3(d): a task writing a captured accumulator → compile error
//!
//! ```compile_fail
//! use rayon::prelude::*;
//! let vector = vec![2u64; 1000];
//! let mut result = 0u64;
//! vector
//!     .par_chunks(128)
//!     .for_each(|chunk| result += chunk.iter().sum::<u64>()); // E0594/E0525
//! ```
//!
//! # Listing 4(c): naive `Stride` through indexing → compile error
//!
//! ```compile_fail
//! use rayon::prelude::*;
//! let mut vector = vec![3u64; 100];
//! let n = vector.len();
//! (0..n).into_par_iter().for_each(|i| {
//!     vector[i] *= vector[i]; // vector mutably aliased across tasks
//! });
//! ```
//!
//! # Listing 4(e): Rayon expresses `Stride` safely
//!
//! ```
//! use rayon::prelude::*;
//! let mut vector = vec![3u64; 100];
//! vector.par_iter_mut().for_each(|vi| *vi *= *vi);
//! assert!(vector.iter().all(|&x| x == 9));
//! ```
//!
//! # Listing 4(f): a data race *through* the safe iterator → compile error
//!
//! ```compile_fail
//! use rayon::prelude::*;
//! let mut vector = vec![3u64; 100];
//! vector.par_iter_mut().enumerate().for_each(|(i, vi)| {
//!     *vi *= vector[i - 1]; // second (shared) borrow of vector
//! });
//! ```
//!
//! # Listing 6(c): naive `SngInd` → compile error
//!
//! ```compile_fail
//! use rayon::prelude::*;
//! let offsets: Vec<usize> = (0..100).rev().collect();
//! let input = vec![1u64; 100];
//! let mut out = vec![0u64; 100];
//! (0..out.len()).into_par_iter().for_each(|i| {
//!     out[offsets[i]] = input[i]; // indirect mutable aliasing
//! });
//! ```
//!
//! # Listing 6(f): this crate's checked expression compiles and runs
//!
//! ```
//! use rayon::prelude::*;
//! use rpb_fearless::ParIndIterMutExt;
//! let offsets: Vec<usize> = (0..100).rev().collect();
//! let input: Vec<u64> = (0..100).collect();
//! let mut out = vec![0u64; 100];
//! out.par_ind_iter_mut(&offsets)
//!     .enumerate()
//!     .for_each(|(i, oi)| *oi = input[i]);
//! assert_eq!(out[99], 0);
//! assert_eq!(out[0], 99);
//! ```
//!
//! # Listing 8(b)/(c): `&mut self` insert on a shared table → compile error
//!
//! The paper's point: even a *synchronized* `insert(&mut self, ..)` is
//! rejected, because Rust does not distinguish synchronized from
//! unsynchronized mutable borrows — the method must take `&self` and use
//! interior mutability.
//!
//! ```compile_fail
//! use std::sync::Mutex;
//! struct HashTable {
//!     table: Vec<Mutex<u64>>,
//! }
//! impl HashTable {
//!     fn insert(&mut self, v: u64) {
//!         *self.table[v as usize % self.table.len()].lock().unwrap() = v;
//!     }
//! }
//! let mut ht = HashTable { table: (0..8).map(|_| Mutex::new(0)).collect() };
//! std::thread::scope(|s| {
//!     s.spawn(|| ht.insert(1)); // first &mut borrow
//!     s.spawn(|| ht.insert(2)); // second &mut borrow -> error
//! });
//! ```
//!
//! # Listing 8(d): `&self` + interior mutability compiles
//!
//! ```
//! use std::sync::Mutex;
//! struct HashTable {
//!     table: Vec<Mutex<u64>>,
//! }
//! impl HashTable {
//!     fn insert(&self, v: u64) {
//!         *self.table[v as usize % self.table.len()].lock().unwrap() = v;
//!     }
//! }
//! let ht = HashTable { table: (0..8).map(|_| Mutex::new(0)).collect() };
//! std::thread::scope(|s| {
//!     s.spawn(|| ht.insert(1));
//!     s.spawn(|| ht.insert(2));
//! });
//! assert_eq!(*ht.table[1].lock().unwrap(), 1);
//! ```
//!
//! # The "benign race" (Sec. 5.2) → compile error without atomics
//!
//! All tasks write the same value, so the race *looks* benign — but the
//! compiler may legally split or transform the stores, so Rust (like the
//! C++ memory model) rejects it. See [`crate::benign`] for the accepted
//! relaxed-atomic version.
//!
//! ```compile_fail
//! use rayon::prelude::*;
//! let string = "abcabc";
//! let present = vec![0u8; 256];
//! string.as_bytes().par_iter().for_each(|&c| {
//!     present[c as usize] = 1; // unsynchronized write through &Vec
//! });
//! ```

// The module's content is its documentation; a smoke test keeps it honest.
#[cfg(test)]
mod tests {
    #[test]
    fn listing_4e_runs() {
        use rayon::prelude::*;
        let mut vector = vec![3u64; 100];
        vector.par_iter_mut().for_each(|vi| *vi *= *vi);
        assert!(vector.iter().all(|&x| x == 9));
    }
}
