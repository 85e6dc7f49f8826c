//! Allocation-free tables of the hardened allocator: its one counter
//! block, its attack-report log and its quarantine.
//!
//! A `#[global_allocator]` must never allocate while servicing an
//! allocation, so every table here is fixed-size, and the quarantine keeps
//! its FIFO links in the freed buffers' own headers. The quarantine is
//! **sharded** by pointer hash: each shard has its own spin lock and FIFO,
//! so threads freeing different pointers rarely contend.
//!
//! Lock discipline: exactly one shard lock is ever held at a time, and no
//! allocator call is made while holding one — so there is no lock ordering
//! to get wrong and no reentrancy hazard. Cross-shard reads (usage) take
//! shard locks one at a time and merge; they observe a slightly stale but
//! per-shard-consistent view, which is all the counters need.

use ht_patch::{PatchTable, VulnFlags};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

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

/// Counter lanes: threads hash to one each, so concurrent increments
/// rarely share a cache line.
const LANES: usize = 16;

thread_local! {
    /// Per-thread lane index, derived once from the thread id.
    static LANE: usize = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(&std::thread::current().id(), &mut h);
        (std::hash::Hasher::finish(&h) as usize) % LANES
    };
}

/// The allocator-wide totals a [`Counters`] block keeps.
#[derive(Clone, Copy)]
pub(crate) enum Total {
    InterposedAllocs,
    InterposedFrees,
    GuardPages,
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

/// One lane: its own copy of every total and of the per-slot hit and byte
/// counts, starting on its own cache line.
#[repr(align(64))]
struct Lane {
    totals: [AtomicU64; TOTALS],
    hits: [AtomicU64; PatchTable::CAPACITY],
    bytes: [AtomicU64; PatchTable::CAPACITY],
}

#[allow(clippy::declare_interior_mutable_const)] // used once per lane
const EMPTY_LANE: Lane = Lane {
    totals: [ZERO; TOTALS],
    hits: [ZERO; PatchTable::CAPACITY],
    bytes: [ZERO; PatchTable::CAPACITY],
};

/// Every counter of the allocator, striped over [`LANES`] lanes: the
/// [`Total`]s, and the hits and requested bytes of each patch-table slot.
///
/// An increment is one `Relaxed` `fetch_add` on the calling thread's lane;
/// a read sums the lanes. Counts are exact; only a read concurrent with
/// increments is momentarily stale.
pub(crate) struct Counters {
    lanes: [Lane; LANES],
}

impl Counters {
    pub(crate) const fn new() -> Self {
        Self {
            lanes: [EMPTY_LANE; LANES],
        }
    }

    #[inline]
    fn lane(&self) -> &Lane {
        // `try_with` so counting keeps working during thread teardown, when
        // the thread-local may already be destroyed.
        &self.lanes[LANE.try_with(|&l| l).unwrap_or(0)]
    }

    #[inline]
    pub(crate) fn add(&self, t: Total, n: u64) {
        self.lane().totals[t as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn incr(&self, t: Total) {
        self.add(t, 1);
    }

    pub(crate) fn total(&self, t: Total) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.totals[t as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Records one hit of `bytes` requested bytes against patch `slot`;
    /// an out-of-range slot is ignored.
    #[inline]
    pub(crate) fn hit(&self, slot: usize, bytes: u64) {
        let lane = self.lane();
        if let (Some(h), Some(b)) = (lane.hits.get(slot), lane.bytes.get(slot)) {
            h.fetch_add(1, Ordering::Relaxed);
            b.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// The hits of the first `slots` slots, summed without allocating.
    pub(crate) fn hits(&self, slots: usize) -> u64 {
        let slots = slots.min(PatchTable::CAPACITY);
        self.lanes
            .iter()
            .flat_map(|l| &l.hits[..slots])
            .map(|h| h.load(Ordering::Relaxed))
            .sum()
    }

    /// `(hits, bytes)` of each of the first `slots` slots (at most
    /// [`PatchTable::CAPACITY`]). Pass the number of slots in use: every
    /// lane of every slot is a separate word to read.
    pub(crate) fn per_slot(&self, slots: usize) -> Vec<(u64, u64)> {
        let mut out = vec![(0, 0); slots.min(PatchTable::CAPACITY)];
        for lane in &self.lanes {
            for (slot, (hits, bytes)) in out.iter_mut().enumerate() {
                *hits += lane.hits[slot].load(Ordering::Relaxed);
                *bytes += lane.bytes[slot].load(Ordering::Relaxed);
            }
        }
        out
    }
}

/// Attack reports that can be filed at most: one per patch slot and
/// defended type (OF, UAF, UR).
const REPORT_CELLS: usize = 3 * PatchTable::CAPACITY;
const REPORT_SLOT_SHIFT: u32 = 3;
const REPORT_SIZE_SHIFT: u32 = 12;

/// The attack reports filed so far, in filing order, in a fixed array.
///
/// Every `(slot, T)` files once, under its patch table once-bit, so the
/// array cannot fill up. A cell holds `T`'s bit in bits 0..=2, the slot in
/// bits 3..=11 and the size of the buffer that filed it above (saturated);
/// 0 marks a cell whose filing is still being written. A cell publishes
/// nothing but itself, so every access is `Relaxed`.
pub(crate) struct ReportLog {
    cells: [AtomicU64; REPORT_CELLS],
    filed: AtomicUsize,
}

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const EMPTY_REPORT_CELL: AtomicU64 = AtomicU64::new(0);

impl ReportLog {
    pub(crate) const fn new() -> Self {
        Self {
            cells: [EMPTY_REPORT_CELL; REPORT_CELLS],
            filed: AtomicUsize::new(0),
        }
    }

    /// Files the report of type `t` (one bit) for patch `slot`, raised by a
    /// buffer of `size` bytes. Call it once per `(slot, t)`.
    pub(crate) fn file(&self, slot: usize, t: VulnFlags, size: u64) {
        let size = size.min(u64::MAX >> REPORT_SIZE_SHIFT);
        let cell =
            u64::from(t.bits()) | (slot as u64) << REPORT_SLOT_SHIFT | size << REPORT_SIZE_SHIFT;
        let i = self.filed.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.cells.get(i) {
            c.store(cell, Ordering::Relaxed);
        }
    }

    /// The reports filed so far as `(slot, T, size)`, in filing order.
    pub(crate) fn filed(&self) -> impl Iterator<Item = (usize, VulnFlags, u64)> + '_ {
        let n = self.filed.load(Ordering::Relaxed).min(REPORT_CELLS);
        self.cells[..n]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .filter(|&c| c != 0)
            .map(|c| {
                let t = VulnFlags::from_bits_truncate(c as u8 & 0b111);
                let slot = (c >> REPORT_SLOT_SHIFT) as usize & (PatchTable::CAPACITY - 1);
                (slot, t, c >> REPORT_SIZE_SHIFT)
            })
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

/// Fibonacci hash of a pointer.
#[inline]
fn ptr_hash(ptr: usize) -> usize {
    ptr.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Number of quarantine shards (power of two).
pub(crate) const QUARANTINE_SHARDS: usize = 8;

/// One shard's FIFO: user pointers of its oldest and newest buffers, each
/// buffer linking to the next-newer one through its quarantine node.
struct Fifo {
    head: usize,
    tail: usize,
    /// Blocks and bytes held, including any past a cut.
    len: usize,
    bytes: usize,
}

#[repr(align(64))]
struct QuarantineShard {
    lock: SpinLock,
    state: std::cell::UnsafeCell<Fifo>,
}

// SAFETY: `lock` is a plain atomic flag; `state` is only read or written
// while `lock` is held.
unsafe impl Sync for QuarantineShard {}

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const EMPTY_QUARANTINE_SHARD: QuarantineShard = QuarantineShard {
    lock: SpinLock::new(),
    state: std::cell::UnsafeCell::new(Fifo {
        head: 0,
        tail: 0,
        len: 0,
        bytes: 0,
    }),
};

/// Sharded FIFO of deferred frees, bounded by bytes alone.
///
/// A freed pointer lands in the shard its hash selects; FIFO age ordering
/// and the byte quota hold **per shard**, so a push only ever touches one
/// shard lock. The global quota is split across shards with the division
/// remainder spread over the low shards, so the per-shard quotas sum to
/// exactly the configured global quota. Global usage is the merged sum.
///
/// The FIFO is intrusive: its links live in the quarantine nodes of the
/// freed buffers' headers (see `galloc::Node`), so the ring has no slots
/// to run out of. A node that fails its check cuts its FIFO: the buffers
/// from it on are never followed, never released, and stay counted as
/// held.
pub(crate) struct QuarantineRing {
    shards: [QuarantineShard; QUARANTINE_SHARDS],
}

impl QuarantineRing {
    pub(crate) const fn new() -> Self {
        Self {
            shards: [EMPTY_QUARANTINE_SHARD; QUARANTINE_SHARDS],
        }
    }

    #[inline]
    pub(crate) fn shard_of(ptr: usize) -> usize {
        (ptr_hash(ptr) >> (usize::BITS as usize - 4 - 8 - 3)) % QUARANTINE_SHARDS
    }

    /// Appends the freed buffer at `ptr` of `size` bytes, then yields,
    /// oldest-in-shard first, every block the shard must release to get
    /// back within its slice of `quota`, or [`Forged`] where its FIFO is
    /// cut. Each block is popped under its own short lock, so the caller
    /// releases it with no shard lock held. Consume the iterator, or the
    /// shard stays over quota until its next push.
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
        let si = Self::shard_of(ptr);
        let shard = &self.shards[si];
        // Truncating `quota / SHARDS` alone would silently shrink the
        // global quota by up to SHARDS-1 bytes; hand the remainder out one
        // byte per low shard so the per-shard quotas sum to `quota`.
        let shard_quota = quota / QUARANTINE_SHARDS + usize::from(si < quota % QUARANTINE_SHARDS);
        {
            let _g = shard.lock.lock();
            // SAFETY: the shard lock is held.
            let st = &mut *shard.state.get();
            if st.tail == 0 {
                st.head = ptr;
            } else {
                // SAFETY: a non-zero tail is a buffer this shard holds.
                crate::galloc::set_link(st.tail, ptr);
            }
            st.tail = ptr;
            st.len += 1;
            st.bytes += size;
        }
        std::iter::from_fn(move || {
            let _g = shard.lock.lock();
            // SAFETY: the shard lock is held.
            let st = unsafe { &mut *shard.state.get() };
            (st.bytes > shard_quota && st.head != 0).then(|| Self::pop_locked(st))
        })
    }

    /// Takes the oldest block off a FIFO whose head is set, or cuts the
    /// FIFO there.
    fn pop_locked(st: &mut Fifo) -> Result<Entry, Forged> {
        // SAFETY: the head is a buffer this shard holds.
        match unsafe { crate::galloc::take(st.head) } {
            Some((e, next)) => {
                st.head = next;
                if next == 0 {
                    st.tail = 0;
                }
                st.len -= 1;
                st.bytes -= e.size;
                Ok(e)
            }
            None => {
                st.head = 0;
                st.tail = 0;
                Err(Forged)
            }
        }
    }

    /// Removes the oldest block of the first shard with a block to follow,
    /// if any.
    pub(crate) fn pop(&self) -> Option<Result<Entry, Forged>> {
        self.shards.iter().find_map(|shard| {
            let _g = shard.lock.lock();
            // SAFETY: the shard lock is held.
            let st = unsafe { &mut *shard.state.get() };
            (st.head != 0).then(|| Self::pop_locked(st))
        })
    }

    /// Current (blocks, bytes), merged across shards.
    pub(crate) fn usage(&self) -> (usize, usize) {
        let mut blocks = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let _g = shard.lock.lock();
            // SAFETY: the shard lock is held.
            let st = unsafe { &*shard.state.get() };
            blocks += st.len;
            bytes += st.bytes;
        }
        (blocks, bytes)
    }

    /// Whether `ptr` is currently quarantined and reachable: one shard's
    /// FIFO walked, at most its length, up to a node that fails its check.
    pub(crate) fn contains(&self, ptr: usize) -> bool {
        let shard = &self.shards[Self::shard_of(ptr)];
        let _g = shard.lock.lock();
        // SAFETY: the shard lock is held.
        let st = unsafe { &*shard.state.get() };
        let mut at = st.head;
        for _ in 0..st.len {
            if at == 0 {
                break;
            }
            if at == ptr {
                return true;
            }
            // SAFETY: `at` is a buffer this shard holds, reached through
            // checked links.
            at = unsafe { crate::galloc::next_of(at) }.unwrap_or(0);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::galloc::tests::park;
    use std::sync::Arc;

    /// Headers for the ring to link: buffer `i`'s 24-byte header fills the
    /// end of a 32-byte cell, and its user pointer is the cell's end. No
    /// user byte is ever touched.
    struct Arena {
        cells: Vec<[u64; 4]>,
    }

    impl Arena {
        fn new(n: usize) -> Self {
            Self {
                cells: vec![[0; 4]; n],
            }
        }

        /// The user pointers, in `shard` only if one is given.
        fn ptrs(&mut self, shard: Option<usize>) -> Vec<usize> {
            let base = self.cells.as_mut_ptr() as usize;
            (1..=self.cells.len())
                .map(|i| base + 32 * i)
                .filter(|&p| shard.is_none_or(|s| QuarantineRing::shard_of(p) == s))
                .collect()
        }
    }

    /// Frees `ptr` as a `size`-byte UAF buffer into `q`: the pointers the
    /// push evicts, or `None` for a cut.
    fn push(q: &QuarantineRing, ptr: usize, size: usize, quota: usize) -> Vec<Option<usize>> {
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
        let mut arena = Arena::new(64);
        let ptrs = arena.ptrs(Some(0));
        let (a, b) = (ptrs[0], ptrs[1]);
        let q = QuarantineRing::new();
        // Per-shard quota is quota/8; give 800 so each shard holds 100.
        assert_eq!(push(&q, a, 60, 800), []);
        assert!(q.contains(a));
        // A second block in the same shard busts its quota: the older goes.
        assert_eq!(push(&q, b, 60, 800), [Some(a)]);
        assert_eq!(q.usage(), (1, 60));
        assert!(!q.contains(a) && q.contains(b));
    }

    #[test]
    fn ring_reaches_the_exact_configured_quota() {
        // Regression: the quota used to be split as `quota / 8` per shard,
        // truncating the remainder — a 500-byte quota effectively became
        // 496. With 1-byte blocks each shard saturates at exactly its
        // slice, so the merged steady-state usage must equal the global
        // quota, remainder included.
        let quota = 500; // 500 = 8 * 62 + 4: four shards get 63, four get 62
        let mut arena = Arena::new(4096);
        let q = QuarantineRing::new();
        for p in arena.ptrs(None) {
            push(&q, p, 1, quota);
        }
        let (_, bytes) = q.usage();
        assert_eq!(bytes, quota, "remainder bytes distributed across shards");
    }

    #[test]
    fn ring_quota_remainder_lands_on_low_shards() {
        // quota 7 with 8 shards: shards 0..6 may hold one 1-byte block,
        // shard 7 none at all.
        let mut arena = Arena::new(256);
        let ptrs = arena.ptrs(None);
        let q = QuarantineRing::new();
        for shard in 0..QUARANTINE_SHARDS {
            let p = ptrs
                .iter()
                .copied()
                .find(|&p| QuarantineRing::shard_of(p) == shard)
                .unwrap();
            let held = push(&q, p, 1, 7).is_empty();
            assert_eq!(held, shard < 7, "shard {shard}");
        }
        assert_eq!(q.usage().1, 7);
    }

    #[test]
    fn one_shard_holds_more_than_64_blocks() {
        // Only bytes bound a shard: the fixed 64-slot rings this FIFO
        // replaced evicted the oldest block at the 65th push.
        let mut arena = Arena::new(8000);
        let shard0 = arena.ptrs(Some(0));
        assert!(shard0.len() > 500, "{} pointers in shard 0", shard0.len());
        let q = QuarantineRing::new();
        for &p in &shard0 {
            assert_eq!(push(&q, p, 1, usize::MAX), []);
        }
        assert_eq!(q.usage(), (shard0.len(), shard0.len()));
        assert!(q.contains(shard0[0]) && q.contains(shard0[shard0.len() - 1]));
        // Oldest first, every one of them.
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|r| r.unwrap().ptr)
            .collect();
        assert_eq!(popped, shard0);
        assert_eq!(q.usage(), (0, 0));
    }

    #[test]
    fn ring_evicts_until_back_within_quota() {
        // Regression: a push used to release at most two blocks, so a large
        // block landing in a shard of small ones left it over quota.
        let mut arena = Arena::new(256);
        let shard0 = arena.ptrs(Some(0));
        let q = QuarantineRing::new();
        let quota = 100 * QUARANTINE_SHARDS; // 100 bytes per shard
        for &p in &shard0[..10] {
            assert_eq!(push(&q, p, 10, quota), []);
        }
        assert_eq!(push(&q, shard0[10], 95, quota).len(), 10);
        assert_eq!(q.usage(), (1, 95), "only the large block is held");
    }

    #[test]
    fn a_forged_node_cuts_the_fifo() {
        let mut arena = Arena::new(256);
        let p = arena.ptrs(Some(0));
        let q = QuarantineRing::new();
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
        // The shard starts a new FIFO, still over its slice by the held
        // bytes, so a new block goes at once.
        assert_eq!(push(&q, p[4], 8, 0), [Some(p[4])]);
        assert_eq!(q.usage(), (3, 24));
    }

    #[test]
    fn ring_conserves_bytes_under_concurrent_churn() {
        let mut arena = Arena::new(8 * 2000);
        let ptrs = arena.ptrs(None);
        let q = QuarantineRing::new();
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
        assert!(held <= 16 * 1024);
    }

    #[test]
    fn report_log_lists_filings_in_order() {
        let log = ReportLog::new();
        log.file(511, VulnFlags::UNINIT_READ, 40);
        log.file(0, VulnFlags::OVERFLOW, u64::MAX);
        log.file(7, VulnFlags::USE_AFTER_FREE, 0);
        let filed: Vec<_> = log.filed().collect();
        assert_eq!(
            filed,
            [
                (511, VulnFlags::UNINIT_READ, 40),
                (0, VulnFlags::OVERFLOW, u64::MAX >> REPORT_SIZE_SHIFT),
                (7, VulnFlags::USE_AFTER_FREE, 0),
            ]
        );
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
        assert_eq!(c.total(Total::InterposedAllocs), 80_000);
        assert_eq!(c.total(Total::QuarantinedBytes), 240_000);
        assert_eq!(c.total(Total::InterposedFrees), 0);
        assert_eq!(c.per_slot(4), [(20_000, 160_000); 4]);
        assert_eq!(c.hits(4), 80_000);
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

    #[test]
    fn quarantine_hashing_reaches_every_shard() {
        let mut shards = [0usize; QUARANTINE_SHARDS];
        for p in (0..4096).map(|i| 0x1000 + i * 16) {
            shards[QuarantineRing::shard_of(p)] += 1;
        }
        for (i, &n) in shards.iter().enumerate() {
            assert!(n > 0, "quarantine shard {i} never chosen");
        }
    }
}
