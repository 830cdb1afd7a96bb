//! Offline stand-in for `rayon`.
//!
//! Covers the subset this workspace uses: `par_iter`/`into_par_iter`
//! over slices, `Vec`s and integer ranges, `map`/`filter_map`/
//! `for_each`/`collect`, and `ThreadPoolBuilder`/`ThreadPool::install`.
//!
//! Work is executed on real OS threads via `std::thread::scope`, with
//! items handed out through an atomic cursor. `map` is eager (the
//! closure runs at the `map` call, not at `collect`), which is
//! observationally equivalent for the pure closures used here.
//! Results always come back in input order, so `collect` is
//! deterministic regardless of thread interleaving.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`] and
    /// inherited by the workers of every parallel iterator under it.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads the current scope would use.
///
/// The `available_parallelism` fallback is cached: it reads cgroup and
/// affinity state from the OS, which costs microseconds per call —
/// far too slow for hot-path "should I fan out?" gates.
pub fn current_num_threads() -> usize {
    static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    POOL_THREADS.with(|t| t.get()).unwrap_or_else(|| {
        *AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Run `f(item)` over every item on `current_num_threads()` workers,
/// returning results in input order. Each worker inherits the caller's
/// thread count, so parallel iterators nested inside an installed pool
/// see the pool's size rather than the host's.
fn par_map_vec<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    let pool = current_num_threads();
    let threads = pool.min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                POOL_THREADS.with(|t| t.set(Some(pool)));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("each slot is claimed exactly once");
                    let r = f(item);
                    *out[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                }
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker filled every slot")
        })
        .collect()
}

/// A "parallel iterator": a materialised item list whose `map` runs
/// across worker threads.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter {
            items: par_map_vec(self.items, f),
        }
    }

    pub fn filter_map<R: Send, F: Fn(T) -> Option<R> + Sync>(self, f: F) -> ParIter<R> {
        ParIter {
            items: par_map_vec(self.items, f).into_iter().flatten().collect(),
        }
    }

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map_vec(self.items, f);
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    pub fn count(self) -> usize {
        self.items.len()
    }
}

/// Conversion into a [`ParIter`] (rayon's `into_par_iter`).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_range_par_iter!(u32, u64, usize, i32, i64);

/// rayon's `par_iter()` entry point: any `&C` that converts.
pub trait IntoParallelRefIterator<'data> {
    type Item: Send;
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Item = <&'data C as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> ParIter<Self::Item> {
        self.into_par_iter()
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

/// Error from [`ThreadPoolBuilder::build`]; never actually produced.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A configured worker count; `install` applies it for a closure.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count governing any parallel
    /// iterators it creates.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|t| t.replace(Some(self.num_threads)));
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|t| t.set(self.0));
            }
        }
        let _restore = Restore(prev);
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// 0 (the default) means "use all available cores".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<u64> = (0u64..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0u64..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice() {
        let v = vec![1u32, 2, 3, 4];
        let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn pool_install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        let out: Vec<usize> = pool.install(|| (0usize..10).into_par_iter().collect());
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn workers_inherit_the_installed_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen: Vec<usize> = pool.install(|| {
            (0usize..3)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert_eq!(seen, vec![3, 3, 3]);
    }
}
