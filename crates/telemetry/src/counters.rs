//! Per-patch hit/byte counters, striped over cache lines.
//!
//! The patch table gives every patch a dense, stable slot; these counters
//! are dense arrays keyed by it. To keep concurrent
//! increments contention-free the arrays are **striped**: 16 independent
//! copies (one per cache-line-padded lane), with each thread hashing to one
//! lane — the same pattern as the hardened allocator's `StripedCounter`,
//! extended from a scalar to a per-slot vector. Counts are exact;
//! [`PatchStripes::merge`] sums the lanes at a quiescent point.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counter stripes (matches the allocator's counter striping).
pub const TELEMETRY_STRIPES: usize = 16;

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const ZERO_WORD: AtomicU64 = AtomicU64::new(0);

/// One stripe: a private hits/bytes vector starting on its own cache line.
#[repr(align(64))]
struct Lane<const SLOTS: usize> {
    hits: [AtomicU64; SLOTS],
    bytes: [AtomicU64; SLOTS],
}

impl<const SLOTS: usize> Lane<SLOTS> {
    #[allow(clippy::declare_interior_mutable_const)] // used once per lane
    const NEW: Lane<SLOTS> = Lane {
        hits: [ZERO_WORD; SLOTS],
        bytes: [ZERO_WORD; SLOTS],
    };
}

thread_local! {
    /// Per-thread lane index, derived once from the thread id.
    static LANE: usize = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(&std::thread::current().id(), &mut h);
        (std::hash::Hasher::finish(&h) as usize) % TELEMETRY_STRIPES
    };
}

/// Merged hit/byte counts of one patch slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchCounts {
    /// Allocations that hit the patch.
    pub hits: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// Striped per-patch-slot hit/byte counters, `const`-constructible so they
/// can embed in a `static` allocator.
pub struct PatchStripes<const SLOTS: usize> {
    lanes: [Lane<SLOTS>; TELEMETRY_STRIPES],
}

impl<const SLOTS: usize> std::fmt::Debug for PatchStripes<SLOTS> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchStripes")
            .field("slots", &SLOTS)
            .finish_non_exhaustive()
    }
}

impl<const SLOTS: usize> Default for PatchStripes<SLOTS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const SLOTS: usize> PatchStripes<SLOTS> {
    /// All-zero counters.
    pub const fn new() -> Self {
        Self {
            lanes: [Lane::NEW; TELEMETRY_STRIPES],
        }
    }

    /// Records one hit of `bytes` bytes against patch slot `slot`.
    /// Out-of-range slots are ignored (cannot happen through the public
    /// wiring; keeps the hot path panic-free).
    #[inline]
    pub fn record(&self, slot: usize, bytes: u64) {
        if slot >= SLOTS {
            return;
        }
        // `try_with` so recording keeps working during thread teardown.
        let lane = LANE.try_with(|&l| l).unwrap_or(0);
        let lane = &self.lanes[lane];
        lane.hits[slot].fetch_add(1, Ordering::Relaxed);
        lane.bytes[slot].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Merged counts for one slot.
    pub fn counts(&self, slot: usize) -> PatchCounts {
        let mut c = PatchCounts::default();
        if slot >= SLOTS {
            return c;
        }
        for lane in &self.lanes {
            c.hits += lane.hits[slot].load(Ordering::Relaxed);
            c.bytes += lane.bytes[slot].load(Ordering::Relaxed);
        }
        c
    }

    /// Merges all lanes of the first `slots` slots (at most `SLOTS`) into
    /// one dense per-slot vector. Pass the number of slots in use: every
    /// lane of every slot is a separate cache line to read.
    pub fn merge(&self, slots: usize) -> Vec<PatchCounts> {
        let mut out = vec![PatchCounts::default(); slots.min(SLOTS)];
        for lane in &self.lanes {
            for (slot, c) in out.iter_mut().enumerate() {
                c.hits += lane.hits[slot].load(Ordering::Relaxed);
                c.bytes += lane.bytes[slot].load(Ordering::Relaxed);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn record_and_merge_single_thread() {
        let s: PatchStripes<8> = PatchStripes::new();
        s.record(0, 64);
        s.record(0, 32);
        s.record(7, 1);
        assert_eq!(s.counts(0), PatchCounts { hits: 2, bytes: 96 });
        let merged = s.merge(8);
        assert_eq!(merged[0], PatchCounts { hits: 2, bytes: 96 });
        assert_eq!(merged[7], PatchCounts { hits: 1, bytes: 1 });
        assert_eq!(merged[3], PatchCounts::default());
        // A shorter merge is a prefix of the full one; a longer one is
        // capped at `SLOTS`.
        assert_eq!(s.merge(4), merged[..4]);
        assert_eq!(s.merge(99), merged);
    }

    #[test]
    fn out_of_range_slot_is_ignored() {
        let s: PatchStripes<4> = PatchStripes::new();
        s.record(4, 100);
        s.record(usize::MAX, 100);
        assert!(s.merge(4).iter().all(|c| c.hits == 0));
        assert_eq!(s.counts(99), PatchCounts::default());
    }

    #[test]
    fn counts_are_exact_across_threads() {
        let s: Arc<PatchStripes<4>> = Arc::new(PatchStripes::new());
        let mut handles = Vec::new();
        for t in 0..8usize {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.record(t % 4, 8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let merged = s.merge(4);
        for (slot, c) in merged.iter().enumerate() {
            assert_eq!(c.hits, 20_000, "slot {slot}");
            assert_eq!(c.bytes, 160_000, "slot {slot}");
        }
    }
}
