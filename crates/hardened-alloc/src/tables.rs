//! Allocation-free tables of the hardened allocator: its one counter
//! block and its quarantine.
//!
//! A `#[global_allocator]` must never allocate while servicing an
//! allocation, so every table here is fixed-size, and the quarantine keeps
//! its FIFO links in the freed buffers' own headers.

use ht_patch::PatchTable;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Minimal spin lock (no parking, no allocation).
#[derive(Debug, Default)]
pub(crate) struct SpinLock {
    locked: AtomicBool,
}

impl SpinLock {
    pub(crate) const fn new() -> Self {
        Self {
            locked: AtomicBool::new(false),
        }
    }

    pub(crate) fn lock(&self) -> SpinGuard<'_> {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        SpinGuard { lock: self }
    }
}

pub(crate) struct SpinGuard<'a> {
    lock: &'a SpinLock,
}

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

/// The allocator-wide totals a [`Counters`] block keeps.
#[derive(Clone, Copy)]
pub(crate) enum Total {
    InterposedAllocs,
    InterposedFrees,
    GuardPages,
    /// Guarded regions mapped fresh rather than taken from the cache.
    RegionMaps,
    ZeroFills,
    Quarantined,
    Evictions,
    QuarantinedBytes,
    EvictedBytes,
    FailOpen,
    InvalidFrees,
    /// Guarded or quarantine-bound buffers allocated, and freed.
    TrackedAllocs,
    TrackedFrees,
}

/// One past the last [`Total`].
const TOTALS: usize = Total::TrackedFrees as usize + 1;

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const ZERO: AtomicU64 = AtomicU64::new(0);

/// The row of a [`Counters`] block that every thread shares: the totals
/// of threads that own no cell, the count of their increments, and the
/// per-slot counts, starting on its own cache line.
#[repr(align(64))]
struct SharedRow {
    totals: [AtomicU64; TOTALS],
    fallbacks: AtomicU64,
    slots: [SlotCounts; PatchTable::CAPACITY],
}

/// One patch-table slot's hits and requested bytes, side by side so that
/// a hit writes one cache line.
struct SlotCounts {
    hits: AtomicU64,
    bytes: AtomicU64,
}

/// Cells in the process-wide [`POOL`]: threads counting at once, across
/// every allocator, before the rest fall back to their allocator's
/// [`SharedRow`].
pub(crate) const CELLS: usize = 64;

/// [`CounterCell::tag`] bit set while a thread owns the cell.
const OWNED: u64 = 1;

/// One thread's copy of the [`Total`]s of one allocator, on cache lines of
/// its own.
#[repr(align(64))]
struct CounterCell {
    /// The key of the allocator it counts for, shifted left by one (0:
    /// none), and [`OWNED`].
    tag: AtomicU64,
    totals: [AtomicU64; TOTALS],
}

impl CounterCell {
    /// Adds `n` to total `t`. Only the owner calls it, so a load and a
    /// store suffice: no other thread writes the cell.
    #[inline]
    fn bump(&self, t: Total, n: u64) {
        let c = &self.totals[t as usize];
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Gives up ownership, leaving the counts and the key. `Release`,
    /// paired with the `Acquire` of the claim that takes the cell next,
    /// so its next owner adds to the counts this one stored.
    fn release(&self) {
        self.tag.fetch_and(!OWNED, Ordering::Release);
        FREED.fetch_add(1, Ordering::Release);
    }
}

/// The thread-owned cells every [`Counters`] block counts its totals in.
static POOL: [CounterCell; CELLS] = [const {
    CounterCell {
        tag: AtomicU64::new(0),
        totals: [ZERO; TOTALS],
    }
}; CELLS];

/// Hands out the allocator keys; 0 is "no key yet".
static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

/// Counts the times a cell of [`POOL`] was given up or un-keyed, so a
/// thread that found the pool full scans it again only once one may be
/// free.
static FREED: AtomicU64 = AtomicU64::new(0);

// What [`MINE`] holds in place of an allocator key when the thread owns no
// cell: it has claimed none yet, is claiming one, has run its exit hook,
// or found the pool full (with the [`FREED`] count it saw before that
// scan in place of a cell). No key reaches these values.
const UNCLAIMED: u64 = u64::MAX;
const CLAIMING: u64 = u64::MAX - 1;
const EXITED: u64 = u64::MAX - 2;
const FULL: u64 = u64::MAX - 3;

thread_local! {
    /// The key of the allocator this thread's cell counts for, and the
    /// cell's index in [`POOL`]. No destructor, so reading it never
    /// registers one and it stays readable through thread teardown.
    static MINE: Cell<(u64, usize)> = const { Cell::new((UNCLAIMED, 0)) };
    /// Releases the thread's cell when the thread exits.
    static EXIT: ExitHook = const { ExitHook };
}

struct ExitHook;

impl Drop for ExitHook {
    fn drop(&mut self) {
        let (key, cell) = MINE.replace((EXITED, 0));
        if key < FULL {
            POOL[cell].release();
        }
    }
}

/// Every counter of the allocator: the [`Total`]s, and the hits and
/// requested bytes of each patch-table slot.
///
/// A total is counted in the calling thread's cell of the process-wide
/// [`POOL`]: the thread claims one (by CAS) at its first count for this
/// allocator and owns it from then on, so an increment is one `Relaxed`
/// load and store, no atomic read-modify-write. A thread with no cell (the
/// pool is full, it is claiming one, or it is exiting) counts with a
/// `Relaxed` `fetch_add` on the block's one [`SharedRow`] instead, and the
/// fallback is counted there too; a thread that found the pool full scans
/// it again once a cell has been freed since. Per-slot hits and bytes,
/// counted only on the patched path, always go to that row with
/// `fetch_add`. A read sums the row and every cell keyed to this block.
/// Counts are exact; only a read concurrent with increments is
/// momentarily stale.
pub(crate) struct Counters {
    /// The key the cells counting for this block carry: taken from
    /// [`NEXT_KEY`] at the first claim, not the block's address, because a
    /// [`crate::HardenedAlloc`] can move.
    key: AtomicU64,
    shared: SharedRow,
}

impl Counters {
    pub(crate) const fn new() -> Self {
        Self {
            key: AtomicU64::new(0),
            shared: SharedRow {
                totals: [ZERO; TOTALS],
                fallbacks: ZERO,
                slots: [const {
                    SlotCounts {
                        hits: ZERO,
                        bytes: ZERO,
                    }
                }; PatchTable::CAPACITY],
            },
        }
    }

    #[inline]
    pub(crate) fn add(&self, t: Total, n: u64) {
        let (key, cell) = MINE.get();
        if key == self.key.load(Ordering::Relaxed) {
            // `% CELLS` (a mask) spares the bounds check.
            POOL[cell % CELLS].bump(t, n);
        } else {
            self.add_unowned(t, n);
        }
    }

    #[inline]
    pub(crate) fn incr(&self, t: Total) {
        self.add(t, 1);
    }

    /// [`Self::add`] for a thread that owns no cell of this block: claim
    /// one, or count on the shared row.
    #[cold]
    #[inline(never)]
    fn add_unowned(&self, t: Total, n: u64) {
        match self.claim() {
            Some(cell) => POOL[cell].bump(t, n),
            None => {
                self.shared.totals[t as usize].fetch_add(n, Ordering::Relaxed);
                self.shared.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Makes the calling thread the owner of a cell keyed to this block,
    /// giving up the cell it owns for another block: an unowned cell
    /// already keyed to it (an exited thread's) first, else a free one.
    /// `None` while claiming or exiting, and once the pool has been found
    /// full, until a cell has been given up or un-keyed since that scan.
    fn claim(&self) -> Option<usize> {
        let (mine, cell) = MINE.get();
        let full_since = mine == FULL && cell == FREED.load(Ordering::Acquire) as usize;
        if full_since || (EXITED..UNCLAIMED).contains(&mine) {
            return None;
        }
        MINE.set((CLAIMING, 0));
        if mine < FULL {
            POOL[cell].release();
        }
        // The first claim registers the exit hook, which may allocate (glibc
        // `calloc`s a record for it, and this allocator may be serving C's
        // heap too): counts nested in it see `CLAIMING` and use the shared row.
        if EXIT.try_with(|_| ()).is_err() {
            MINE.set((EXITED, 0));
            return None;
        }
        let key = self.key();
        // Read before the scan, so a cell freed during it is scanned for
        // again.
        let freed = FREED.load(Ordering::Acquire) as usize;
        let take = |from: u64| {
            POOL.iter().position(|c| {
                c.tag
                    .compare_exchange(from, key << 1 | OWNED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            })
        };
        let found = take(key << 1).or_else(|| take(0));
        MINE.set(found.map_or((FULL, freed), |cell| (key, cell)));
        found
    }

    /// This block's key, taken on first use.
    fn key(&self) -> u64 {
        let key = self.key.load(Ordering::Relaxed);
        if key != 0 {
            return key;
        }
        let new = NEXT_KEY.fetch_add(1, Ordering::Relaxed);
        match self
            .key
            .compare_exchange(0, new, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => new,
            Err(won) => won,
        }
    }

    /// The cells keyed to this block.
    fn cells(&self) -> impl Iterator<Item = &'static CounterCell> {
        let key = self.key.load(Ordering::Relaxed);
        POOL.iter()
            .filter(move |c| key != 0 && c.tag.load(Ordering::Acquire) >> 1 == key)
    }

    /// Every total, in [`Total`] order.
    pub(crate) fn totals(&self) -> [u64; TOTALS] {
        let mut out = [0; TOTALS];
        let cells = self.cells().map(|c| &c.totals);
        for totals in std::iter::once(&self.shared.totals).chain(cells) {
            for (sum, v) in out.iter_mut().zip(totals) {
                *sum += v.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Increments that found no cell and went to the shared row.
    pub(crate) fn fallbacks(&self) -> u64 {
        self.shared.fallbacks.load(Ordering::Relaxed)
    }

    /// Records one hit of `bytes` requested bytes against patch `slot`;
    /// an out-of-range slot is ignored.
    #[inline]
    pub(crate) fn hit(&self, slot: usize, bytes: u64) {
        if let Some(s) = self.shared.slots.get(slot) {
            s.hits.fetch_add(1, Ordering::Relaxed);
            s.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// The hits of the first `slots` slots, summed without allocating.
    pub(crate) fn hits(&self, slots: usize) -> u64 {
        self.slots(slots)
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// `(hits, bytes)` of each of the first `slots` slots (at most
    /// [`PatchTable::CAPACITY`]).
    pub(crate) fn per_slot(&self, slots: usize) -> Vec<(u64, u64)> {
        self.slots(slots)
            .iter()
            .map(|s| {
                (
                    s.hits.load(Ordering::Relaxed),
                    s.bytes.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// The counts of the first `slots` slots, at most all of them.
    fn slots(&self, slots: usize) -> &[SlotCounts] {
        &self.shared.slots[..slots.min(PatchTable::CAPACITY)]
    }
}

impl Drop for Counters {
    /// Zeroes and un-keys this block's cells, so a later block that
    /// claims one starts from zero. A cell a live thread still owns stays
    /// owned until that thread claims another or exits.
    fn drop(&mut self) {
        for c in self.cells() {
            for v in &c.totals {
                v.store(0, Ordering::Relaxed);
            }
            // `Release`, paired with a claim's `Acquire`: the next owner
            // sees the zeros.
            c.tag.fetch_and(OWNED, Ordering::Release);
        }
        FREED.fetch_add(1, Ordering::Release);
    }
}

/// What the allocator needs to release one quarantined allocation,
/// rebuilt from its quarantine node and metadata word when it leaves the
/// quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// User pointer.
    pub ptr: usize,
    /// `mmap` region base for guarded allocations (0 for system ones).
    pub region: usize,
    /// Patch-table slot that matched at allocation time (telemetry
    /// attribution on the free path).
    pub slot: u32,
    /// Original layout size (for quarantine accounting / system dealloc).
    pub size: usize,
    /// Original layout alignment.
    pub align: usize,
}

/// A quarantined buffer whose node or word no longer checks out: its FIFO
/// is cut there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Forged;

/// The quarantine's FIFO: user pointers of its oldest and newest buffers,
/// each buffer linking to the next-newer one through its quarantine node.
struct Fifo {
    head: usize,
    tail: usize,
    /// Blocks and bytes held, including any past a cut.
    len: usize,
    bytes: usize,
}

impl Fifo {
    /// Takes the oldest block off a FIFO whose head is set, or cuts the
    /// FIFO there.
    fn pop(&mut self) -> Result<Entry, Forged> {
        // SAFETY: the head is a buffer this FIFO holds.
        match unsafe { crate::galloc::take(self.head) } {
            Some((e, next)) => {
                self.head = next;
                if next == 0 {
                    self.tail = 0;
                }
                self.len -= 1;
                self.bytes -= e.size;
                Ok(e)
            }
            None => {
                self.head = 0;
                self.tail = 0;
                Err(Forged)
            }
        }
    }
}

/// The FIFO of deferred frees, bounded by bytes alone (paper §VI): a push
/// evicts oldest-first until the bytes held are back within the quota.
///
/// The FIFO is intrusive: its links live in the quarantine nodes of the
/// freed buffers' headers (see `galloc::Node`), so it has no slots to run
/// out of. A node that fails its check cuts the FIFO: the buffers from it
/// on are never followed, never released, and stay counted as held.
///
/// One spin lock guards the FIFO, held only for a link, an unlink or a
/// walk: no allocator call is ever made under it. The quarantine has a
/// cache line of its own, so the UAF frees that write the lock write no
/// line the unpatched paths read.
#[repr(align(64))]
pub(crate) struct Quarantine {
    lock: SpinLock,
    fifo: std::cell::UnsafeCell<Fifo>,
}

// SAFETY: `lock` is a plain atomic flag; `fifo` is only read or written
// while `lock` is held.
unsafe impl Sync for Quarantine {}

impl Quarantine {
    pub(crate) const fn new() -> Self {
        Self {
            lock: SpinLock::new(),
            fifo: std::cell::UnsafeCell::new(Fifo {
                head: 0,
                tail: 0,
                len: 0,
                bytes: 0,
            }),
        }
    }

    /// Runs `f` on the FIFO with the lock held.
    fn locked<R>(&self, f: impl FnOnce(&mut Fifo) -> R) -> R {
        let _g = self.lock.lock();
        // SAFETY: the lock is held.
        f(unsafe { &mut *self.fifo.get() })
    }

    /// Appends the freed buffer at `ptr` of `size` bytes, then yields,
    /// oldest first, every block the quarantine must release to get back
    /// within `quota`, or [`Forged`] where its FIFO is cut. Each block is
    /// popped under its own short lock, so the caller releases it with no
    /// lock held. Consume the iterator, or the quarantine stays over quota
    /// until its next push.
    ///
    /// # Safety
    ///
    /// `ptr` must be a freed UAF buffer of this allocator whose word and
    /// node (link 0) are written, and must not be in the quarantine yet.
    pub(crate) unsafe fn push(
        &self,
        ptr: usize,
        size: usize,
        quota: usize,
    ) -> impl Iterator<Item = Result<Entry, Forged>> + '_ {
        self.locked(|st| {
            if st.tail == 0 {
                st.head = ptr;
            } else {
                // SAFETY: a non-zero tail is a buffer this FIFO holds.
                unsafe { crate::galloc::set_link(st.tail, ptr) };
            }
            st.tail = ptr;
            st.len += 1;
            st.bytes += size;
        });
        std::iter::from_fn(move || {
            self.locked(|st| (st.bytes > quota && st.head != 0).then(|| st.pop()))
        })
    }

    /// Removes the oldest block, if there is one to follow.
    pub(crate) fn pop(&self) -> Option<Result<Entry, Forged>> {
        self.locked(|st| (st.head != 0).then(|| st.pop()))
    }

    /// Current (blocks, bytes).
    pub(crate) fn usage(&self) -> (usize, usize) {
        self.locked(|st| (st.len, st.bytes))
    }

    /// Whether `ptr` is currently quarantined and reachable: the FIFO
    /// walked, at most its length, up to a node that fails its check.
    pub(crate) fn contains(&self, ptr: usize) -> bool {
        self.locked(|st| {
            let mut at = st.head;
            for _ in 0..st.len {
                if at == 0 {
                    break;
                }
                if at == ptr {
                    return true;
                }
                // SAFETY: `at` is a buffer this FIFO holds, reached through
                // checked links.
                at = unsafe { crate::galloc::next_of(at) }.unwrap_or(0);
            }
            false
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::galloc::tests::park;
    use std::sync::Arc;

    /// Headers for the quarantine to link: buffer `i`'s 24-byte header
    /// fills the end of a 32-byte cell, and its user pointer is the cell's
    /// end. No user byte is ever touched.
    struct Arena {
        cells: Vec<[u64; 4]>,
    }

    impl Arena {
        fn new(n: usize) -> Self {
            Self {
                cells: vec![[0; 4]; n],
            }
        }

        /// The user pointers.
        fn ptrs(&mut self) -> Vec<usize> {
            let base = self.cells.as_mut_ptr() as usize;
            (1..=self.cells.len()).map(|i| base + 32 * i).collect()
        }
    }

    /// Frees `ptr` as a `size`-byte UAF buffer into `q`: the pointers the
    /// push evicts, or `None` for a cut.
    fn push(q: &Quarantine, ptr: usize, size: usize, quota: usize) -> Vec<Option<usize>> {
        // SAFETY: `ptr` is an arena pointer, its header is writable and it
        // is pushed once.
        unsafe {
            park(ptr, size);
            q.push(ptr, size, quota)
                .map(|r| r.ok().map(|e| e.ptr))
                .collect()
        }
    }

    #[test]
    fn ring_fifo_and_quota() {
        let mut arena = Arena::new(2);
        let ptrs = arena.ptrs();
        let (a, b) = (ptrs[0], ptrs[1]);
        let q = Quarantine::new();
        assert_eq!(push(&q, a, 60, 100), []);
        assert!(q.contains(a));
        // A second block busts the quota: the older goes.
        assert_eq!(push(&q, b, 60, 100), [Some(a)]);
        assert_eq!(q.usage(), (1, 60));
        assert!(!q.contains(a) && q.contains(b));
    }

    #[test]
    fn ring_reaches_the_exact_configured_quota() {
        // With 1-byte blocks the FIFO saturates at exactly the quota.
        let quota = 500;
        let mut arena = Arena::new(4096);
        let q = Quarantine::new();
        for p in arena.ptrs() {
            push(&q, p, 1, quota);
        }
        assert_eq!(q.usage(), (quota, quota));
    }

    #[test]
    fn the_fifo_holds_more_than_64_blocks() {
        // Only bytes bound the FIFO: the fixed 64-slot rings it replaced
        // evicted the oldest block at the 65th push.
        let mut arena = Arena::new(1000);
        let ptrs = arena.ptrs();
        let q = Quarantine::new();
        for &p in &ptrs {
            assert_eq!(push(&q, p, 1, usize::MAX), []);
        }
        assert_eq!(q.usage(), (ptrs.len(), ptrs.len()));
        assert!(q.contains(ptrs[0]) && q.contains(ptrs[ptrs.len() - 1]));
        // Oldest first, every one of them.
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|r| r.unwrap().ptr)
            .collect();
        assert_eq!(popped, ptrs);
        assert_eq!(q.usage(), (0, 0));
    }

    #[test]
    fn ring_evicts_until_back_within_quota() {
        // Regression: a push used to release at most two blocks, so a large
        // block landing among small ones left the quarantine over quota.
        let mut arena = Arena::new(11);
        let ptrs = arena.ptrs();
        let q = Quarantine::new();
        for &p in &ptrs[..10] {
            assert_eq!(push(&q, p, 10, 100), []);
        }
        assert_eq!(push(&q, ptrs[10], 95, 100).len(), 10);
        assert_eq!(q.usage(), (1, 95), "only the large block is held");
    }

    #[test]
    fn a_forged_node_cuts_the_fifo() {
        let mut arena = Arena::new(5);
        let p = arena.ptrs();
        let q = Quarantine::new();
        for &ptr in &p[..3] {
            assert_eq!(push(&q, ptr, 8, usize::MAX), []);
        }
        // An overflow from below rewrites one bit of the second block's
        // link.
        // SAFETY: the link is the arena word 24 bytes below the pointer.
        unsafe { *((p[1] - 24) as *mut u64) ^= 1 };
        // A zero quota evicts the first block, then finds the forged node
        // and cuts the FIFO there: the rest stay held, unreachable.
        assert_eq!(push(&q, p[3], 8, 0), [Some(p[0]), None]);
        assert_eq!(q.usage(), (3, 24));
        assert!(!q.contains(p[2]) && !q.contains(p[3]));
        assert!(q.pop().is_none(), "nothing past the cut is followed");
        // The FIFO starts anew, still over quota by the held bytes, so a
        // new block goes at once.
        assert_eq!(push(&q, p[4], 8, 0), [Some(p[4])]);
        assert_eq!(q.usage(), (3, 24));
    }

    #[test]
    fn ring_conserves_bytes_under_concurrent_churn() {
        let mut arena = Arena::new(8 * 2000);
        let ptrs = arena.ptrs();
        let q = Quarantine::new();
        let pushed = AtomicU64::new(0);
        let evicted = AtomicU64::new(0);
        std::thread::scope(|s| {
            for chunk in ptrs.chunks(2000) {
                let (q, pushed, evicted) = (&q, &pushed, &evicted);
                s.spawn(move || {
                    for &p in chunk {
                        pushed.fetch_add(48, Ordering::Relaxed);
                        let out = push(q, p, 48, 16 * 1024);
                        evicted.fetch_add(48 * out.len() as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        let (_, held) = q.usage();
        assert_eq!(
            pushed.load(Ordering::Relaxed),
            evicted.load(Ordering::Relaxed) + held as u64,
            "bytes pushed = bytes evicted + bytes held"
        );
        // Every pop leaves more than the quota less one block held.
        assert_eq!(held, 16 * 1024 / 48 * 48);
    }

    #[test]
    fn spinlock_mutual_exclusion() {
        use std::sync::atomic::AtomicUsize;
        let lock = Arc::new(SpinLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = lock.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let _g = lock.lock();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn counters_are_exact_across_threads() {
        let c = Box::new(Counters::new());
        std::thread::scope(|s| {
            for t in 0..8usize {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr(Total::InterposedAllocs);
                        c.add(Total::QuarantinedBytes, 3);
                        c.hit(t % 4, 8);
                    }
                });
            }
        });
        let totals = c.totals();
        assert_eq!(totals[Total::InterposedAllocs as usize], 80_000);
        assert_eq!(totals[Total::QuarantinedBytes as usize], 240_000);
        assert_eq!(totals[Total::InterposedFrees as usize], 0);
        assert_eq!(c.per_slot(4), [(20_000, 160_000); 4]);
        assert_eq!(c.hits(4), 80_000);
    }

    #[test]
    fn a_count_nested_in_a_claim_falls_back_to_the_shared_row() {
        std::thread::spawn(|| {
            let c = Box::new(Counters::new());
            MINE.set((CLAIMING, 0));
            c.incr(Total::InterposedAllocs);
            MINE.set((UNCLAIMED, 0));
            c.incr(Total::InterposedAllocs);
            c.incr(Total::InterposedAllocs);
            assert_eq!(c.totals()[Total::InterposedAllocs as usize], 3);
            assert_eq!(c.fallbacks(), 1, "only the nested count");
            assert_eq!(MINE.get().0, c.key(), "the thread owns a cell");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_thread_past_its_exit_hook_counts_on_the_shared_row_untouched() {
        let c = Box::new(Counters::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                // What a count from a later thread-local destructor sees
                // once the exit hook has run; `EXIT` itself is still live
                // here, so only the early return keeps a cell unclaimed.
                MINE.set((EXITED, 0));
                c.incr(Total::InterposedAllocs);
                c.incr(Total::InterposedAllocs);
                assert_eq!(MINE.get(), (EXITED, 0));
            });
        });
        assert_eq!(c.fallbacks(), 2);
        assert_eq!(c.totals()[Total::InterposedAllocs as usize], 2);
        assert_eq!(c.cells().count(), 0, "no cell was claimed");
    }

    #[test]
    fn an_out_of_range_slot_is_ignored() {
        let c = Box::new(Counters::new());
        c.hit(PatchTable::CAPACITY, 100);
        c.hit(usize::MAX, 100);
        let all = c.per_slot(PatchTable::CAPACITY);
        assert!(all.iter().all(|&s| s == (0, 0)));
    }

    #[test]
    fn per_slot_merges_a_prefix_capped_at_capacity() {
        let c = Box::new(Counters::new());
        c.hit(0, 64);
        c.hit(0, 32);
        c.hit(7, 1);
        c.hit(PatchTable::CAPACITY - 1, 5);
        let all = c.per_slot(PatchTable::CAPACITY);
        assert_eq!((all[0], all[3], all[7]), ((2, 96), (0, 0), (1, 1)));
        assert_eq!(all[PatchTable::CAPACITY - 1], (1, 5));
        assert_eq!(c.per_slot(4), all[..4]);
        assert_eq!(c.per_slot(8), all[..8]);
        assert_eq!(c.per_slot(usize::MAX), all);
        assert_eq!((c.hits(7), c.hits(8), c.hits(usize::MAX)), (2, 3, 4));
    }
}
