//! Allocation-free fixed-capacity tables for the patched allocation paths.
//!
//! A `#[global_allocator]` must never allocate while servicing an
//! allocation, so the quarantine is a fixed-size table, **sharded** by
//! pointer hash: each shard has its own spin lock and FIFO ring, so threads
//! freeing different pointers rarely contend.
//!
//! Lock discipline: exactly one shard lock is ever held at a time, and no
//! allocator call is made while holding one — so there is no lock ordering
//! to get wrong and no reentrancy hazard. Cross-shard reads (usage) take
//! shard locks one at a time and merge; they observe a slightly stale but
//! per-shard-consistent view, which is all the counters need.

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

/// A cache-line-padded atomic counter cell, so neighbouring cells of a
/// striped counter never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

const COUNTER_STRIPES: usize = 16;

/// A statistics counter striped over cache lines: increments from different
/// threads land on (probably) different cells, reads sum all cells. Counts
/// are exact; only the read is momentarily racy, as with any relaxed
/// counter.
#[derive(Debug)]
pub(crate) struct StripedCounter {
    cells: [PaddedU64; COUNTER_STRIPES],
}

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const ZERO_CELL: PaddedU64 = PaddedU64(AtomicU64::new(0));

thread_local! {
    /// Per-thread stripe index, derived once from the thread id.
    static STRIPE: usize = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(&std::thread::current().id(), &mut h);
        (std::hash::Hasher::finish(&h) as usize) % COUNTER_STRIPES
    };
}

impl StripedCounter {
    pub(crate) const fn new() -> Self {
        Self {
            cells: [ZERO_CELL; COUNTER_STRIPES],
        }
    }

    #[inline]
    pub(crate) fn add(&self, n: u64) {
        // `try_with` so counting keeps working during thread teardown, when
        // the thread-local may already be destroyed.
        let stripe = STRIPE.try_with(|&s| s).unwrap_or(0);
        self.cells[stripe].0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn incr(&self) {
        self.add(1);
    }

    pub(crate) fn load(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// What the allocator needs to release one freed *patched* allocation,
/// rebuilt from its metadata word and `Layout` on the free path.
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

const EMPTY_ENTRY: Entry = Entry {
    ptr: 0,
    region: 0,
    slot: 0,
    size: 0,
    align: 0,
};

/// Fibonacci hash of a pointer.
#[inline]
fn ptr_hash(ptr: usize) -> usize {
    ptr.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Number of quarantine shards (power of two).
pub(crate) const QUARANTINE_SHARDS: usize = 8;
/// Capacity of one quarantine shard's FIFO ring.
pub(crate) const QUARANTINE_SHARD_CAP: usize = 64;

struct RingState {
    slots: [Entry; QUARANTINE_SHARD_CAP],
    head: usize,
    len: usize,
    bytes: usize,
}

struct QuarantineShard {
    lock: SpinLock,
    state: std::cell::UnsafeCell<RingState>,
}

unsafe impl Sync for QuarantineShard {}

impl QuarantineShard {
    const fn new() -> Self {
        Self {
            lock: SpinLock::new(),
            state: std::cell::UnsafeCell::new(RingState {
                slots: [EMPTY_ENTRY; QUARANTINE_SHARD_CAP],
                head: 0,
                len: 0,
                bytes: 0,
            }),
        }
    }
}

/// Sharded fixed-capacity FIFO of deferred frees.
///
/// A freed pointer lands in the shard its hash selects; FIFO age ordering
/// and the byte quota hold **per shard**, so a push only ever touches one
/// shard lock. The global quota is split across shards with the division
/// remainder spread over the low shards, so the per-shard quotas sum to
/// exactly the configured global quota. Global usage is the merged sum.
pub(crate) struct QuarantineRing {
    shards: [QuarantineShard; QUARANTINE_SHARDS],
}

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const EMPTY_QUARANTINE_SHARD: QuarantineShard = QuarantineShard::new();

impl QuarantineRing {
    pub(crate) const fn new() -> Self {
        Self {
            shards: [EMPTY_QUARANTINE_SHARD; QUARANTINE_SHARDS],
        }
    }

    #[inline]
    fn shard_of(ptr: usize) -> usize {
        (ptr_hash(ptr) >> (usize::BITS as usize - 4 - 8 - 3)) % QUARANTINE_SHARDS
    }

    /// Pushes a block, then yields, oldest-in-shard first, every block the
    /// shard must release now: one on capacity overflow, then as many as
    /// bring the shard back within its slice of `quota`. Each further block
    /// is popped under its own short lock, so the caller releases it with
    /// no shard lock held. Consume the iterator, or the shard stays over
    /// quota until its next push.
    pub(crate) fn push(&self, e: Entry, quota: usize) -> impl Iterator<Item = Entry> + '_ {
        let si = Self::shard_of(e.ptr);
        let shard = &self.shards[si];
        // Truncating `quota / SHARDS` alone would silently shrink the
        // global quota by up to SHARDS-1 bytes; hand the remainder out one
        // byte per low shard so the per-shard quotas sum to `quota`.
        let shard_quota = quota / QUARANTINE_SHARDS + usize::from(si < quota % QUARANTINE_SHARDS);
        let over_capacity = {
            let _g = shard.lock.lock();
            // SAFETY: the shard lock is held.
            let st = unsafe { &mut *shard.state.get() };
            let oldest = (st.len == QUARANTINE_SHARD_CAP).then(|| Self::pop_locked(st));
            let tail = (st.head + st.len) % QUARANTINE_SHARD_CAP;
            st.slots[tail] = e;
            st.len += 1;
            st.bytes += e.size;
            oldest
        };
        over_capacity.into_iter().chain(std::iter::from_fn(move || {
            let _g = shard.lock.lock();
            // SAFETY: the shard lock is held.
            let st = unsafe { &mut *shard.state.get() };
            (st.bytes > shard_quota && st.len > 0).then(|| Self::pop_locked(st))
        }))
    }

    fn pop_locked(st: &mut RingState) -> Entry {
        let e = st.slots[st.head];
        st.head = (st.head + 1) % QUARANTINE_SHARD_CAP;
        st.len -= 1;
        st.bytes -= e.size;
        e
    }

    /// Removes the oldest block of the first non-empty shard, if any.
    pub(crate) fn pop(&self) -> Option<Entry> {
        self.shards.iter().find_map(|shard| {
            let _g = shard.lock.lock();
            // SAFETY: the shard lock is held.
            let st = unsafe { &mut *shard.state.get() };
            (st.len > 0).then(|| Self::pop_locked(st))
        })
    }

    /// Current (blocks, bytes), merged across shards.
    pub(crate) fn usage(&self) -> (usize, usize) {
        let mut blocks = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let _g = shard.lock.lock();
            let st = unsafe { &*shard.state.get() };
            blocks += st.len;
            bytes += st.bytes;
        }
        (blocks, bytes)
    }

    /// Whether `ptr` is currently quarantined (one shard scanned).
    pub(crate) fn contains(&self, ptr: usize) -> bool {
        let shard = &self.shards[Self::shard_of(ptr)];
        let _g = shard.lock.lock();
        let st = unsafe { &*shard.state.get() };
        (0..st.len).any(|i| st.slots[(st.head + i) % QUARANTINE_SHARD_CAP].ptr == ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn e(ptr: usize, size: usize) -> Entry {
        Entry {
            ptr,
            region: 0,
            slot: 0,
            size,
            align: 8,
        }
    }

    #[test]
    fn ring_fifo_and_quota() {
        let q = QuarantineRing::new();
        // Per-shard quota is quota/8; give 800 so each shard holds 100.
        assert_eq!(q.push(e(1, 60), 800).count(), 0);
        assert!(q.contains(1));
        // Same pointer again lands in the same shard and busts its quota.
        let evicted: Vec<usize> = q.push(e(1, 60), 800).map(|x| x.ptr).collect();
        assert_eq!(evicted, [1]);
        assert_eq!(q.usage(), (1, 60));
    }

    #[test]
    fn ring_reaches_the_exact_configured_quota() {
        // Regression: the quota used to be split as `quota / 8` per shard,
        // truncating the remainder — a 500-byte quota effectively became
        // 496. With 1-byte blocks each shard saturates at exactly its
        // slice, so the merged steady-state usage must equal the global
        // quota, remainder included.
        let quota = 500; // 500 = 8 * 62 + 4: four shards get 63, four get 62
        let q = QuarantineRing::new();
        for i in 1..=4096usize {
            q.push(e(i * 8, 1), quota).for_each(drop);
        }
        let (_, bytes) = q.usage();
        assert_eq!(bytes, quota, "remainder bytes distributed across shards");
    }

    #[test]
    fn ring_quota_remainder_lands_on_low_shards() {
        // quota 7 with 8 shards: shards 0..6 may hold one 1-byte block,
        // shard 7 none at all.
        let q = QuarantineRing::new();
        let ptr_in = |shard: usize| {
            (1..)
                .map(|i| i * 8)
                .find(|&p| QuarantineRing::shard_of(p) == shard)
                .unwrap()
        };
        for shard in 0..QUARANTINE_SHARDS {
            let held = q.push(e(ptr_in(shard), 1), 7).count() == 0;
            assert_eq!(held, shard < 7, "shard {shard}");
        }
        assert_eq!(q.usage().1, 7);
    }

    #[test]
    fn ring_capacity_eviction_is_per_shard() {
        let q = QuarantineRing::new();
        // Find pointers all hashing into one shard to fill its ring.
        let shard0: Vec<usize> = (1..)
            .map(|i| i * 8)
            .filter(|&p| QuarantineRing::shard_of(p) == 0)
            .take(QUARANTINE_SHARD_CAP + 1)
            .collect();
        for &p in &shard0[..QUARANTINE_SHARD_CAP] {
            assert_eq!(q.push(e(p, 1), usize::MAX).count(), 0);
        }
        let evicted: Vec<usize> = q
            .push(e(shard0[QUARANTINE_SHARD_CAP], 1), usize::MAX)
            .map(|x| x.ptr)
            .collect();
        assert_eq!(evicted, [shard0[0]], "oldest evicted");
        assert_eq!(q.usage().0, QUARANTINE_SHARD_CAP);
        assert!(!q.contains(shard0[0]));
        assert!(q.contains(shard0[1]));
    }

    #[test]
    fn ring_evicts_until_back_within_quota() {
        // Regression: a push used to release at most two blocks, so a large
        // block landing in a shard of small ones left it over quota.
        let q = QuarantineRing::new();
        let quota = 100 * QUARANTINE_SHARDS; // 100 bytes per shard
        let shard0: Vec<usize> = (1..)
            .map(|i| i * 8)
            .filter(|&p| QuarantineRing::shard_of(p) == 0)
            .take(11)
            .collect();
        for &p in &shard0[..10] {
            assert_eq!(q.push(e(p, 10), quota).count(), 0);
        }
        assert_eq!(q.push(e(shard0[10], 95), quota).count(), 10);
        assert_eq!(q.usage(), (1, 95), "only the large block is held");
    }

    #[test]
    fn ring_conserves_bytes_under_concurrent_churn() {
        let q = Arc::new(QuarantineRing::new());
        let pushed = Arc::new(AtomicU64::new(0));
        let evicted = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let q = Arc::clone(&q);
            let pushed = Arc::clone(&pushed);
            let evicted = Arc::clone(&evicted);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000usize {
                    let ptr = 0x1000 + (t * 2000 + i) * 16;
                    pushed.fetch_add(48, Ordering::Relaxed);
                    for ev in q.push(e(ptr, 48), 16 * 1024) {
                        evicted.fetch_add(ev.size as u64, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (_, held) = q.usage();
        assert_eq!(
            pushed.load(Ordering::Relaxed),
            evicted.load(Ordering::Relaxed) + held as u64,
            "bytes pushed = bytes evicted + bytes held"
        );
        assert!(held <= 16 * 1024);
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
    fn striped_counter_is_exact_across_threads() {
        let c = Arc::new(StripedCounter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.incr();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(), 80_000);
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
