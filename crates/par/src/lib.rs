//! Minimal scoped data-parallelism for the offline pipeline.
//!
//! The container this workspace builds in is network-isolated, so rayon is
//! unavailable; this crate provides the small subset the reproduce pipeline
//! needs, on `std` alone and with no `unsafe`:
//!
//! * [`par_map`] — order-preserving parallel map over a slice, distributing
//!   work as contiguous chunks claimed from a shared atomic cursor (a
//!   "work-stealing-free chunked deque": idle workers take the next chunk,
//!   nobody steals from anybody),
//! * [`par_spawn`] — run one closure per worker index (the shape a
//!   multi-threaded throughput benchmark needs),
//! * [`available_threads`] — the pool width: `HT_THREADS` if set, else
//!   [`std::thread::available_parallelism`].
//!
//! Everything runs under [`std::thread::scope`], so borrows of the caller's
//! stack work and worker panics propagate to the caller at scope exit.
//!
//! Determinism: [`par_map`] places each result at its input index, so the
//! output order is identical to the serial map regardless of the thread
//! count — `reproduce` tables are byte-identical at any `-j`.
//!
//! ```
//! let squares = ht_par::par_map(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads to use by default: the `HT_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism (1 if that cannot be determined).
pub fn available_threads() -> usize {
    std::env::var("HT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// A shared queue handing out contiguous index chunks `[start, end)` of a
/// work list. Claiming is a single `fetch_add`; there is no per-item
/// synchronization and no stealing.
#[derive(Debug)]
pub struct ChunkQueue {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl ChunkQueue {
    /// A queue over `len` items handed out `chunk` at a time (`chunk` is
    /// clamped to at least 1).
    pub fn new(len: usize, chunk: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next unprocessed chunk, or `None` when the work is gone.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }
}

/// Picks a chunk size that gives each worker several claims (for balance)
/// without making the claim counter a hot spot.
fn chunk_size(len: usize, threads: usize) -> usize {
    (len / (threads * 4)).max(1)
}

/// Order-preserving parallel map: `out[i] = f(i, &items[i])` computed on up
/// to `threads` scoped workers. With `threads <= 1` (or one item) this is a
/// plain serial map on the caller's thread — no pool, no locks.
///
/// Each worker (one [`par_spawn`] closure) claims chunks from a
/// [`ChunkQueue`] and returns its `(index, result)` pairs, which are then
/// placed by index. Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let queue = ChunkQueue::new(items.len(), chunk_size(items.len(), workers));
    let done = par_spawn(workers, |_| {
        let mut pairs = Vec::new();
        while let Some(range) = queue.claim() {
            pairs.extend(range.map(|i| (i, f(i, &items[i]))));
        }
        pairs
    });
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (i, r) in done.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// Runs `f(worker_index)` on `n` scoped threads at once and returns the
/// results in worker order. Unlike [`par_map`] every closure runs on its own
/// thread simultaneously — the shape throughput benchmarks need.
///
/// With `n <= 1` the closure runs on the caller's thread. A worker's panic
/// reaches the caller with its payload intact.
pub fn par_spawn<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n <= 1 {
        return vec![f(0)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let f = &f;
                s.spawn(move || f(i))
            })
            .collect();
        // Explicit join so a worker's panic payload reaches the caller
        // verbatim (scope's automatic join would repackage it).
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order_at_every_width() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 300] {
            assert_eq!(
                par_map(threads, &items, |_, &x| x * 3 + 1),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_map_passes_the_index() {
        let items = ["a", "b", "c"];
        assert_eq!(
            par_map(2, &items, |i, s| format!("{i}{s}")),
            vec!["0a", "1b", "2c"]
        );
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(8, &items, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn par_spawn_runs_all_workers() {
        let ids = par_spawn(4, |i| i);
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn chunk_queue_covers_the_range_without_overlap() {
        let q = ChunkQueue::new(10, 3);
        let mut seen = [false; 10];
        while let Some(r) = q.claim() {
            for i in r {
                assert!(!seen[i], "index {i} handed out twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        par_map(2, &[1, 2, 3, 4], |_, &x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
