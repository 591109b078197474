//! Offline stand-in for the `rayon` crate.
//!
//! Implements the narrow parallel-iterator subset the MAGE workspace
//! uses: `collection.into_par_iter().map(f).collect::<Vec<_>>()` over an
//! owned `Vec`, executing `f` on `std::thread::available_parallelism`
//! scoped threads with an atomic work queue. `collect` preserves input
//! order, so replacing `into_iter` with `into_par_iter` is
//! result-identical for pure `f`.
//!
//! Set `RAYON_NUM_THREADS=1` to force serial execution (useful when
//! bisecting nondeterminism in user code).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The rayon-style prelude.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

/// Conversion into a parallel iterator (owned collections only).
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// The concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

/// A parallel pipeline that can be mapped and collected.
pub trait ParallelIterator: Sized {
    /// Item type.
    type Item: Send;

    /// Consume the pipeline, producing items in input order.
    fn run(self) -> Vec<Self::Item>;

    /// Lazily apply `f` to every item.
    fn map<U: Send, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        Map { inner: self, f }
    }

    /// Execute the pipeline and collect into `C` (order-preserving).
    fn collect<C: FromParallel<Self::Item>>(self) -> C {
        C::from_ordered(self.run())
    }
}

/// Collection types a parallel pipeline can collect into.
pub trait FromParallel<T> {
    /// Build from items in input order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParallel<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

/// Parallel iterator over an owned `Vec`.
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;
    fn run(self) -> Vec<T> {
        self.items
    }
}

/// Lazy map stage.
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, U, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    U: Send,
    F: Fn(I::Item) -> U + Sync + Send,
{
    type Item = U;

    fn run(self) -> Vec<U> {
        let items = self.inner.run();
        scoped_map(num_threads(), items, &self.f)
    }
}

/// Order-preserving parallel map over `items` on exactly
/// `threads.min(items.len())` scoped worker threads (≤ 1 runs inline):
/// the engine under [`Map`]'s `collect`, which asks for
/// `RAYON_NUM_THREADS` threads, else one per available CPU. For a pure
/// `f`, results are identical to `items.into_iter().map(f)` at any
/// thread count.
fn scoped_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = threads.min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let f = &f;
    // Feed items through per-slot mutexes so workers can claim work
    // with an atomic cursor and still return results in input order.
    let input: Vec<Mutex<Option<T>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let output: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = input[i]
                    .lock()
                    .expect("input slot poisoned")
                    .take()
                    .expect("each slot claimed once");
                let out = f(item);
                *output[i].lock().expect("output slot poisoned") = Some(out);
            });
        }
    });
    output
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot poisoned")
                .expect("all slots filled")
        })
        .collect()
}

fn num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_for_pure_f() {
        let v: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = v
            .clone()
            .into_iter()
            .map(|x| x.wrapping_mul(31) ^ 7)
            .collect();
        let parallel: Vec<u64> = v.into_par_iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        let e: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(e.is_empty());
        let s: Vec<u8> = vec![9u8].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(s, vec![10]);
    }

    #[test]
    fn scoped_map_is_thread_count_invariant() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 8, 200] {
            let got = crate::scoped_map(threads, items.clone(), |x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }
}
