//! The process-wide pool of thread-owned counter cells: threads beyond
//! the pool, one after another and at once (with patched allocations
//! counted on the shared row too), holding their cells or exiting while
//! others count; a thread that found the pool full
//! taking a cell once others free up; one thread counting for two
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
/// With `hold`, no thread exits before all are done, so no cell frees up
/// while one counts; without, a thread exits as soon as it is done. The
/// allocator's stats once every thread has exited.
fn at_once(threads: usize, after: u64, guarded: u64, hold: bool) -> HardenedStats {
    let a = Arc::new(HardenedAlloc::new());
    let patch = Patch::new(AllocFn::Malloc, site_ccid(SITE), VulnFlags::OVERFLOW);
    assert_eq!(a.install(&[patch]), 1);
    let all_in = Arc::new(Barrier::new(threads));
    let all_done = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (a, all_in, all_done) = (a.clone(), all_in.clone(), all_done.clone());
            spawn(move || {
                pairs(&a, 1);
                all_in.wait();
                pairs(&a, after);
                guarded_pairs(&a, guarded);
                if hold {
                    all_done.wait();
                }
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
    at_once(CELLS, 10, 0, true).fallback_counts == 0
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

/// Threads beyond the pool in the at-once tests, and their pairs.
const EXTRA: usize = 8;
const AFTER: u64 = 500;
const GUARDED_PAIRS: u64 = 20;
const PER_THREAD: u64 = 1 + AFTER + GUARDED_PAIRS;

/// The fallbacks of `EXTRA` threads that never own a cell. A pair counts
/// its alloc and free; a guarded one also a region map, a guard page and
/// the tracked alloc and free. Its hit goes to the shared row from every
/// thread, and is no fallback.
const FALLBACKS_UNLESS_A_CELL_FREES: u64 = EXTRA as u64 * (PER_THREAD * 2 + GUARDED_PAIRS * 4);

/// The totals of `threads` threads of the at-once tests, exact.
fn assert_exact(st: &HardenedStats, threads: u64) {
    let total = threads * PER_THREAD;
    assert_eq!((st.interposed_allocs, st.interposed_frees), (total, total));
    let guarded = threads * GUARDED_PAIRS;
    assert_eq!(
        (st.table_hits, st.guard_pages, st.region_maps),
        (guarded, guarded, guarded)
    );
}

#[test]
fn threads_beyond_the_pool_at_once_fall_back_and_stay_exact() {
    let _turn = turn();
    let threads = (CELLS + EXTRA) as u64;
    let st = at_once(CELLS + EXTRA, AFTER, GUARDED_PAIRS, true);
    assert_exact(&st, threads);
    // No cell frees up while a thread counts: exactly `EXTRA` threads find
    // none, and each of their counts falls back.
    assert_eq!(st.fallback_counts, FALLBACKS_UNLESS_A_CELL_FREES);
    assert!(whole_pool_free());
}

#[test]
fn threads_beyond_the_pool_exiting_while_others_count_stay_exact() {
    let _turn = turn();
    let threads = (CELLS + EXTRA) as u64;
    let st = at_once(CELLS + EXTRA, AFTER, GUARDED_PAIRS, false);
    assert_exact(&st, threads);
    // The same `EXTRA` threads find the pool full at their first pair, but
    // one may take a cell an exited thread gave up and stop falling back.
    let first_pairs = EXTRA as u64 * 2;
    assert!(
        (first_pairs..=FALLBACKS_UNLESS_A_CELL_FREES).contains(&st.fallback_counts),
        "{} fallbacks",
        st.fallback_counts
    );
    assert!(whole_pool_free());
}

#[test]
fn a_thread_that_found_the_pool_full_takes_a_cell_once_one_frees_up() {
    let _turn = turn();
    let a = Arc::new(HardenedAlloc::new());
    // Every cell of the pool is owned by a thread holding on to it.
    let (all_in, let_go) = (
        Arc::new(Barrier::new(CELLS + 1)),
        Arc::new(Barrier::new(CELLS + 1)),
    );
    let holders: Vec<_> = (0..CELLS)
        .map(|_| {
            let (a, all_in, let_go) = (a.clone(), all_in.clone(), let_go.clone());
            spawn(move || {
                pairs(&a, 1);
                all_in.wait();
                let_go.wait();
            })
        })
        .collect();
    all_in.wait();
    // One more thread finds the pool full and counts on the shared row,
    // then waits while the holders exit and give their cells up.
    let (to_main, from_late) = std::sync::mpsc::channel();
    let (to_late, from_main) = std::sync::mpsc::channel::<()>();
    let late = {
        let a = a.clone();
        spawn(move || {
            pairs(&a, 10);
            to_main.send(()).unwrap();
            from_main.recv().unwrap();
            pairs(&a, 10);
        })
    };
    from_late.recv().unwrap();
    let full = a.stats().fallback_counts;
    assert_eq!(full, 20, "ten pairs on the shared row");
    let_go.wait();
    for h in holders {
        h.join().expect("holding thread");
    }
    to_late.send(()).unwrap();
    late.join().expect("late thread");
    let st = a.stats();
    assert_eq!(st.fallback_counts, full, "it counts in a freed cell now");
    let total = CELLS as u64 + 20;
    assert_eq!((st.interposed_allocs, st.interposed_frees), (total, total));
    drop(a);
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
