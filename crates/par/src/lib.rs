//! Zero-dependency scoped worker pool with **deterministic static
//! partitioning**.
//!
//! FEDORA has two embarrassingly parallel layers — per-client local
//! training and per-bucket AEAD on the main ORAM's path reads and
//! evictions — but parallelism must never perturb obliviousness or
//! reproducibility. This crate therefore provides the *least clever*
//! parallel substrate that still wins wall-clock time:
//!
//! * **Static partitioning by index.** Item `i` of `n` always runs on
//!   worker `i / ceil(n / workers)`; there is no queue and no
//!   data-dependent stealing, so the set of items a worker touches is a
//!   pure function of `(n, workers)` — never of the data. Timing leaks
//!   aside (out of model, as for the serial code), the work *placement*
//!   carries no secret.
//! * **Merge in index order.** Every `map_*` call returns results in
//!   item-index order regardless of completion order, so a caller that
//!   folds the results serially is bit-identical to the serial run.
//! * **`threads = 1` is exactly the serial code.** No threads are
//!   spawned, items run inline in index order on the caller's stack, and
//!   thread-local state (span stacks, scratch buffers) behaves as if the
//!   pool did not exist. Every baseline and test at the default
//!   configuration is untouched.
//!
//! Workers are scoped [`std::thread::scope`] threads: borrows of the
//! caller's stack flow into the closures without `'static` bounds or
//! reference counting, and a worker panic is re-raised on the caller
//! after all siblings finish (no detached threads, no poisoned state).

use std::panic::resume_unwind;
use std::thread;

/// A handle describing how much parallelism to use.
///
/// The pool is stateless — threads are spawned per call via
/// [`std::thread::scope`] and joined before the call returns — so a
/// `WorkerPool` is just a validated thread count that can be freely
/// copied into any layer of the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

impl WorkerPool {
    /// A pool running `threads` workers; `0` is clamped to `1`.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The serial pool: every call runs inline on the caller.
    pub fn serial() -> Self {
        WorkerPool { threads: 1 }
    }

    /// Configured worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when calls run inline without spawning.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Static chunk length for `n` items: `ceil(n / threads)`.
    fn chunk_len(&self, n: usize) -> usize {
        n.div_ceil(self.threads.min(n).max(1))
    }

    /// Maps `f(index, &item)` over `items`, returning results in item
    /// order. Deterministic static partitioning: worker `w` owns the
    /// contiguous index range `[w·c, (w+1)·c)` with `c = ceil(n/threads)`.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers finish.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk = self.chunk_len(items.len());
        run_chunked(items.chunks(chunk), chunk, |base, slice| {
            slice
                .iter()
                .enumerate()
                .map(|(j, t)| f(base + j, t))
                .collect()
        })
    }

    /// Runs `f(index)` for `0..n`, returning results in index order.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.is_serial() || n <= 1 {
            return (0..n).map(f).collect();
        }
        let chunk = self.chunk_len(n);
        let starts: Vec<usize> = (0..n).step_by(chunk).collect();
        run_chunked(starts.iter().copied(), chunk, |_, start| {
            (start..(start + chunk).min(n)).map(&f).collect()
        })
    }
}

/// Spawns one scoped worker per chunk, collects each worker's result
/// vector, and flattens them in chunk (= index) order. `base` passed to
/// `f` is `chunk_index * chunk_len`, i.e. the first item index of the
/// chunk.
fn run_chunked<'env, C, I, R, F>(chunks: C, chunk_len: usize, f: F) -> Vec<R>
where
    C: Iterator<Item = I>,
    I: Send + 'env,
    R: Send,
    F: Fn(usize, I) -> Vec<R> + Sync,
{
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(c, chunk)| s.spawn(move || f(c * chunk_len, chunk)))
            .collect();
        let mut out = Vec::new();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(p) => panic = panic.or(Some(p)),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_threads_clamps_to_serial() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_serial());
    }

    #[test]
    fn map_preserves_index_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| i as u64 + v * 3)
            .collect();
        for threads in [1, 2, 3, 4, 8, 97, 200] {
            let got = WorkerPool::new(threads).map(&items, |i, v| i as u64 + v * 3);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_indices_covers_exact_range() {
        for (threads, n) in [(1, 10), (4, 10), (4, 3), (3, 0), (7, 7)] {
            let got = WorkerPool::new(threads).map_indices(n, |i| i * 2);
            assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn partitioning_is_static_not_data_dependent() {
        // Worker assignment is a pure function of (n, threads): item i is
        // handled in chunk i / ceil(n/threads), regardless of payload.
        let pool = WorkerPool::new(4);
        let items = vec![(); 10];
        let chunk = 10usize.div_ceil(4);
        let ids = pool.map(&items, |i, ()| i / chunk);
        assert_eq!(ids, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn serial_pool_spawns_nothing() {
        // Inline execution: the closure observes the caller's thread.
        let caller = std::thread::current().id();
        let same =
            WorkerPool::serial().map(&[1, 2, 3], |_, _| std::thread::current().id() == caller);
        assert_eq!(same, vec![true, true, true]);
    }

    #[test]
    fn parallel_pool_actually_fans_out() {
        let seen = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        pool.map(&[(); 32], |_, ()| {
            seen.fetch_add(1, Ordering::Relaxed);
            while seen.load(Ordering::Relaxed) < 4 {
                std::thread::yield_now();
            }
        });
        assert!(seen.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn worker_panic_propagates_after_join() {
        let result = std::panic::catch_unwind(|| {
            WorkerPool::new(4).map_indices(8, |i| {
                if i == 5 {
                    panic!("worker boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
