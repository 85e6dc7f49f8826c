//! The process-wide pool of thread-owned counter cells: threads beyond
//! the pool, one after another and at once (with patched allocations
//! counted on the shared row too); one thread counting for two
//! allocators; an allocator dropped under a live thread; and counting
//! from thread-local destructors at thread exit. Counts stay exact
//! throughout, and no cell is lost.
//!
//! The pool is shared by every allocator of a process, so this file is
//! its own test binary and its tests take turns: each counts only on
//! threads it spawns and joins, and drops every allocator it makes, so
//! the whole pool is free whenever a test starts.

use ht_hardened_alloc::throughput::{hardened_pairs, site_ccid};
use ht_hardened_alloc::{HardenedAlloc, HardenedStats};
use ht_patch::{AllocFn, Patch, VulnFlags};
use std::cell::RefCell;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

const CELLS: usize = HardenedAlloc::COUNTER_CELLS;

/// Serializes the tests of this file.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spawns `f` on a thread with a 1 MiB stack: the tests run up to
/// `CELLS + 8` of them at once, and an unoptimized build moves a
/// `HardenedAlloc` (93 KiB) through the stack on its way to the heap.
fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .stack_size(1024 * 1024)
        .spawn(f)
        .expect("spawn")
}

/// `n` unpatched alloc/free pairs through `a` on the calling thread.
fn pairs(a: &HardenedAlloc, n: u64) {
    assert_eq!(hardened_pairs(a, n, 64, None, 1).pairs, n);
}

/// The call site [`at_once`]'s allocator guards.
const SITE: u64 = 0xCE11;

/// Bytes of a guarded buffer: with its header its body spans five pages,
/// a size the region cache never keeps, so every one maps a fresh region.
const GUARDED: usize = 4 * 4096;

/// `n` alloc/free pairs of [`GUARDED`] bytes through `a` in [`SITE`].
fn guarded_pairs(a: &HardenedAlloc, n: u64) {
    let run = hardened_pairs(a, n, GUARDED, Some(SITE), 1);
    assert_eq!((run.pairs, run.dirty_guarded), (n, 0));
}

/// `threads` threads counting for one fresh allocator that guards
/// [`SITE`], at once: one unpatched pair each before a barrier all of
/// them reach, `after` unpatched and `guarded` guarded pairs each past it.
/// The allocator's stats once every thread has exited.
fn at_once(threads: usize, after: u64, guarded: u64) -> HardenedStats {
    let a = Arc::new(HardenedAlloc::new());
    let patch = Patch::new(AllocFn::Malloc, site_ccid(SITE), VulnFlags::OVERFLOW);
    assert_eq!(a.install(&[patch]), 1);
    let all_in = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (a, all_in) = (a.clone(), all_in.clone());
            spawn(move || {
                pairs(&a, 1);
                all_in.wait();
                pairs(&a, after);
                guarded_pairs(&a, guarded);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("counting thread");
    }
    a.stats()
}

/// Whether every cell of the pool is free: as many threads as it has
/// cells, counting at once, all find one.
fn whole_pool_free() -> bool {
    at_once(CELLS, 10, 0).fallback_counts == 0
}

#[test]
fn threads_beyond_the_pool_one_after_another_reuse_its_cells() {
    let _turn = turn();
    let a = Arc::new(HardenedAlloc::new());
    let threads = CELLS as u64 + 16;
    for _ in 0..threads {
        let a = a.clone();
        spawn(move || pairs(&a, 100))
            .join()
            .expect("counting thread");
    }
    let st = a.stats();
    assert_eq!(
        (st.interposed_allocs, st.interposed_frees),
        (threads * 100, threads * 100)
    );
    assert_eq!(
        st.fallback_counts, 0,
        "an exited thread's cell is taken back"
    );
    drop(a);
    assert!(whole_pool_free());
}

#[test]
fn threads_beyond_the_pool_at_once_fall_back_and_stay_exact() {
    let _turn = turn();
    const EXTRA: usize = 8;
    const AFTER: u64 = 500;
    const GUARDED_PAIRS: u64 = 20;
    let threads = (CELLS + EXTRA) as u64;
    let st = at_once(CELLS + EXTRA, AFTER, GUARDED_PAIRS);
    let per_thread = 1 + AFTER + GUARDED_PAIRS;
    let total = threads * per_thread;
    assert_eq!((st.interposed_allocs, st.interposed_frees), (total, total));
    let guarded = threads * GUARDED_PAIRS;
    assert_eq!(
        (st.table_hits, st.guard_pages, st.region_maps),
        (guarded, guarded, guarded)
    );
    // Every cell is taken before any thread exits: exactly `EXTRA` threads
    // find none, and each of their counts falls back. A pair counts its
    // alloc and free; a guarded one also a region map, a guard page and
    // the tracked alloc and free. Its hit goes to the shared row from
    // every thread, and is no fallback.
    let fallbacks = EXTRA as u64 * (per_thread * 2 + GUARDED_PAIRS * 4);
    assert_eq!(st.fallback_counts, fallbacks);
    assert!(whole_pool_free());
}

#[test]
fn one_thread_alternates_between_two_live_allocators() {
    let _turn = turn();
    let (a, b) = (
        Arc::new(HardenedAlloc::new()),
        Arc::new(HardenedAlloc::new()),
    );
    let (ta, tb) = (a.clone(), b.clone());
    spawn(move || {
        for i in 0..1000 {
            pairs(if i % 2 == 0 { &ta } else { &tb }, 1 + i % 3);
        }
    })
    .join()
    .expect("alternating thread");
    // Even rounds count 1, 3, 2, 1, 3, 2, ... pairs; odd ones 2, 1, 3, ...
    let want = |parity: u64| {
        (0..1000)
            .filter(|i| i % 2 == parity)
            .map(|i| 1 + i % 3)
            .sum()
    };
    for (x, parity) in [(&a, 0), (&b, 1)] {
        let st = x.stats();
        let n: u64 = want(parity);
        assert_eq!((st.interposed_allocs, st.interposed_frees), (n, n));
        assert_eq!(st.fallback_counts, 0);
    }
    drop((a, b));
    assert!(whole_pool_free());
}

#[test]
fn a_fresh_allocator_on_a_thread_that_outlived_its_last_starts_at_zero() {
    let _turn = turn();
    spawn(|| {
        let a = Box::new(HardenedAlloc::new());
        pairs(&a, 300);
        assert_eq!(a.stats().interposed_allocs, 300);
        drop(a);
        // The thread still owns the dropped allocator's cell, zeroed and
        // un-keyed; a new allocator (possibly at the same address) starts
        // from nothing.
        for round in 1..=3 {
            let b = Box::new(HardenedAlloc::new());
            assert_eq!(b.stats(), HardenedStats::default());
            pairs(&b, round * 10);
            let st = b.stats();
            assert_eq!(
                (st.interposed_allocs, st.interposed_frees),
                (round * 10, round * 10)
            );
            assert_eq!(st.fallback_counts, 0);
        }
    })
    .join()
    .expect("counting thread");
    assert!(whole_pool_free());
}

/// Counts `PAIRS` pairs through its allocator when dropped, as a
/// thread-local value is at thread exit.
struct CountOnDrop(Arc<HardenedAlloc>);

const PAIRS: u64 = 50;

impl Drop for CountOnDrop {
    fn drop(&mut self) {
        pairs(&self.0, PAIRS);
    }
}

thread_local! {
    static AT_EXIT: RefCell<Option<CountOnDrop>> = const { RefCell::new(None) };
}

#[test]
fn counting_from_a_tls_destructor_neither_leaks_a_cell_nor_loses_a_count() {
    let _turn = turn();
    let a = Arc::new(HardenedAlloc::new());
    // Each kind of thread runs more often than the pool has cells, so a
    // cell lost per thread would empty it.
    let threads = CELLS as u64 + 4;
    for kind in 0..3 {
        for _ in 0..threads {
            let a = a.clone();
            spawn(move || {
                let arm = |a: &Arc<HardenedAlloc>| {
                    AT_EXIT.with(|slot| *slot.borrow_mut() = Some(CountOnDrop(a.clone())));
                };
                match kind {
                    // The destructor is registered before the thread
                    // counts, so it runs after the thread's cell is given
                    // up.
                    0 => {
                        arm(&a);
                        pairs(&a, PAIRS);
                    }
                    // Registered after the thread counts: it runs while
                    // the thread still owns its cell.
                    1 => {
                        pairs(&a, PAIRS);
                        arm(&a);
                    }
                    // The thread's first count is in the destructor.
                    _ => arm(&a),
                }
            })
            .join()
            .expect("counting thread");
        }
    }
    let st = a.stats();
    let total = threads * PAIRS * 5;
    assert_eq!((st.interposed_allocs, st.interposed_frees), (total, total));
    drop(a);
    assert!(whole_pool_free(), "a thread exit left a cell owned");
}
