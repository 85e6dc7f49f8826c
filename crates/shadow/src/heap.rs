//! Heap-object tracking for the analyzer: which buffer owns which bytes,
//! and what was its allocation context (origin tracking).

use ht_encoding::Ccid;
use ht_memsim::{Addr, FastMap};
use ht_patch::AllocFn;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Identity of one heap buffer tracked by the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufId(pub u64);

/// Lifecycle state of a tracked buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufState {
    /// Allocated and not yet freed.
    Live,
    /// Freed, sitting in the quarantine (memory retained, inaccessible).
    Freed,
}

/// Which part of a buffer's footprint an address falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The red zone before the user buffer.
    LeftRedZone,
    /// The user-visible buffer.
    User,
    /// The red zone after the user buffer.
    RightRedZone,
}

/// Everything the analyzer knows about one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufRecord {
    /// Buffer identity.
    pub id: BufId,
    /// User-visible base address.
    pub user: Addr,
    /// User-visible size in bytes.
    pub size: u64,
    /// Pointer returned by the *inner* allocator (what must be freed).
    pub inner_ptr: Addr,
    /// Allocation API.
    pub fun: AllocFn,
    /// Allocation-time calling-context ID — the patch key (origin tracking).
    pub ccid: Ccid,
    /// Lifecycle state.
    pub state: BufState,
}

impl BufRecord {
    /// Start of the tracked footprint (left red zone).
    pub fn footprint_start(&self) -> Addr {
        self.user - crate::REDZONE
    }

    /// End (exclusive) of the tracked footprint (right red zone end).
    pub fn footprint_end(&self) -> Addr {
        self.user + self.size + crate::REDZONE
    }
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    end: Addr,
    buf: BufId,
    region: Region,
}

/// One cached interval segment: the last `[start, end)` a lookup resolved.
#[derive(Debug, Clone, Copy)]
struct CachedSeg {
    start: Addr,
    end: Addr,
    buf: BufId,
    region: Region,
}

/// Interval map from addresses to buffer regions.
///
/// This is the origin-tracking backbone: given a faulting address, the
/// analyzer asks which buffer (and which part of it) is involved.
///
/// Access streams overwhelmingly stay inside one buffer for many
/// consecutive bytes, so [`HeapMap::lookup`] keeps a one-entry cache of the
/// last resolved segment and skips the `BTreeMap` range query on a hit.
/// Every mutation ([`HeapMap::insert`], [`HeapMap::remove`],
/// [`HeapMap::mark_freed`]) invalidates it.
#[derive(Debug)]
pub struct HeapMap {
    intervals: BTreeMap<Addr, Interval>,
    records: FastMap<BufId, BufRecord>,
    next_id: u64,
    cache: Cell<Option<CachedSeg>>,
    cache_enabled: bool,
    /// Lookup-cache hits and misses, counted for the cache tests only.
    #[cfg(test)]
    hits: Cell<u64>,
    #[cfg(test)]
    misses: Cell<u64>,
}

impl Default for HeapMap {
    fn default() -> Self {
        Self::with_cache(true)
    }
}

impl HeapMap {
    /// Empty map (lookup cache enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty map with the lookup cache switched on or off (off reproduces
    /// the reference baseline: a `BTreeMap` range query per lookup).
    pub fn with_cache(enabled: bool) -> Self {
        Self {
            intervals: BTreeMap::new(),
            records: FastMap::default(),
            next_id: 0,
            cache: Cell::new(None),
            cache_enabled: enabled,
            #[cfg(test)]
            hits: Cell::new(0),
            #[cfg(test)]
            misses: Cell::new(0),
        }
    }

    #[inline]
    fn invalidate(&mut self) {
        self.cache.set(None);
    }

    /// Registers a freshly allocated buffer and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the footprint overlaps an existing tracked buffer — the
    /// inner allocator must never hand out overlapping blocks.
    pub fn insert(
        &mut self,
        user: Addr,
        size: u64,
        inner_ptr: Addr,
        fun: AllocFn,
        ccid: Ccid,
    ) -> BufId {
        let id = BufId(self.next_id);
        self.next_id += 1;
        let rec = BufRecord {
            id,
            user,
            size,
            inner_ptr,
            fun,
            ccid,
            state: BufState::Live,
        };
        let segments = [
            (rec.footprint_start(), user, Region::LeftRedZone),
            (user, user + size, Region::User),
            (user + size, rec.footprint_end(), Region::RightRedZone),
        ];
        for (start, end, region) in segments {
            if start == end {
                continue;
            }
            if let Some((_, iv)) = self.intervals.range(..end).next_back() {
                assert!(
                    iv.end <= start || !self.records.contains_key(&iv.buf),
                    "overlapping heap footprints at {start:#x}"
                );
            }
            self.intervals.insert(
                start,
                Interval {
                    end,
                    buf: id,
                    region,
                },
            );
        }
        self.records.insert(id, rec);
        self.invalidate();
        id
    }

    /// Which buffer/region covers `addr`, if tracked.
    pub fn lookup(&self, addr: Addr) -> Option<(&BufRecord, Region)> {
        if self.cache_enabled {
            if let Some(c) = self.cache.get() {
                if addr >= c.start && addr < c.end {
                    #[cfg(test)]
                    self.hits.set(self.hits.get() + 1);
                    return self.records.get(&c.buf).map(|r| (r, c.region));
                }
            }
            #[cfg(test)]
            self.misses.set(self.misses.get() + 1);
        }
        let (&start, iv) = self.intervals.range(..=addr).next_back()?;
        if addr >= iv.end {
            return None;
        }
        let rec = self.records.get(&iv.buf)?;
        if self.cache_enabled {
            self.cache.set(Some(CachedSeg {
                start,
                end: iv.end,
                buf: iv.buf,
                region: iv.region,
            }));
        }
        Some((rec, iv.region))
    }

    /// The record of a buffer whose *user base* is `user`, if live-tracked.
    pub fn by_user_ptr(&self, user: Addr) -> Option<&BufRecord> {
        match self.lookup(user) {
            Some((rec, Region::User)) if rec.user == user => Some(rec),
            _ => None,
        }
    }

    /// Record by id.
    pub fn record(&self, id: BufId) -> Option<&BufRecord> {
        self.records.get(&id)
    }

    /// Marks a buffer freed (quarantined).
    pub fn mark_freed(&mut self, id: BufId) {
        self.invalidate();
        if let Some(r) = self.records.get_mut(&id) {
            r.state = BufState::Freed;
        }
    }

    /// Removes a buffer and its intervals entirely (quarantine eviction).
    pub fn remove(&mut self, id: BufId) -> Option<BufRecord> {
        self.invalidate();
        let rec = self.records.remove(&id)?;
        for start in [rec.footprint_start(), rec.user, rec.user + rec.size] {
            if let Some(iv) = self.intervals.get(&start) {
                if iv.buf == id {
                    self.intervals.remove(&start);
                }
            }
        }
        Some(rec)
    }

    /// Number of tracked buffers (live + quarantined).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lookup-cache `(hits, misses)` counters.
    fn cache_stats(m: &HeapMap) -> (u64, u64) {
        (m.hits.get(), m.misses.get())
    }

    fn rec(map: &mut HeapMap, user: Addr, size: u64) -> BufId {
        map.insert(user, size, user - 16, AllocFn::Malloc, Ccid(7))
    }

    #[test]
    fn lookup_classifies_regions() {
        let mut m = HeapMap::new();
        let id = rec(&mut m, 0x1010, 32);
        let (r, reg) = m.lookup(0x1000).unwrap();
        assert_eq!((r.id, reg), (id, Region::LeftRedZone));
        let (_, reg) = m.lookup(0x1010).unwrap();
        assert_eq!(reg, Region::User);
        let (_, reg) = m.lookup(0x1010 + 31).unwrap();
        assert_eq!(reg, Region::User);
        let (_, reg) = m.lookup(0x1010 + 32).unwrap();
        assert_eq!(reg, Region::RightRedZone);
        let (_, reg) = m.lookup(0x1010 + 32 + 15).unwrap();
        assert_eq!(reg, Region::RightRedZone);
        assert!(m.lookup(0x1010 + 32 + 16).is_none());
        assert!(m.lookup(0xfff).is_none());
    }

    #[test]
    fn by_user_ptr_requires_exact_base() {
        let mut m = HeapMap::new();
        let id = rec(&mut m, 0x2010, 64);
        assert_eq!(m.by_user_ptr(0x2010).unwrap().id, id);
        assert!(m.by_user_ptr(0x2011).is_none());
        assert!(m.by_user_ptr(0x2000).is_none(), "red zone is not a base");
    }

    #[test]
    fn state_transitions_and_removal() {
        let mut m = HeapMap::new();
        let id = rec(&mut m, 0x3010, 16);
        assert_eq!(m.record(id).unwrap().state, BufState::Live);
        m.mark_freed(id);
        assert_eq!(m.record(id).unwrap().state, BufState::Freed);
        // Freed buffers still resolve (that is the UAF origin lookup).
        assert!(m.lookup(0x3010).is_some());
        let rec = m.remove(id).unwrap();
        assert_eq!(rec.size, 16);
        assert!(m.lookup(0x3010).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn multiple_buffers_resolve_independently() {
        let mut m = HeapMap::new();
        let a = rec(&mut m, 0x1010, 16);
        let b = rec(&mut m, 0x2010, 16);
        assert_eq!(m.lookup(0x1010).unwrap().0.id, a);
        assert_eq!(m.lookup(0x2010).unwrap().0.id, b);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn footprint_bounds() {
        let r = BufRecord {
            id: BufId(0),
            user: 100,
            size: 10,
            inner_ptr: 84,
            fun: AllocFn::Malloc,
            ccid: Ccid(0),
            state: BufState::Live,
        };
        assert_eq!(r.footprint_start(), 84);
        assert_eq!(r.footprint_end(), 126);
    }

    #[test]
    fn lookup_cache_hits_on_repeated_lookups() {
        let mut m = HeapMap::new();
        rec(&mut m, 0x1010, 32);
        assert_eq!(cache_stats(&m), (0, 0));
        m.lookup(0x1010); // populates the cache (miss)
        for a in 0x1010..0x1010 + 32 {
            assert!(m.lookup(a).is_some());
        }
        let (hits, misses) = cache_stats(&m);
        assert_eq!(misses, 1, "only the first lookup walks the BTreeMap");
        assert_eq!(hits, 32);
        // Outside the cached segment: a miss, then the new segment caches.
        m.lookup(0x1000);
        m.lookup(0x1001);
        let (hits2, misses2) = cache_stats(&m);
        assert_eq!(misses2, 2);
        assert_eq!(hits2, 33);
    }

    #[test]
    fn lookup_cache_invalidated_by_mutations() {
        let mut m = HeapMap::new();
        let a = rec(&mut m, 0x1010, 32);
        m.lookup(0x1010);
        m.lookup(0x1010);
        assert_eq!(cache_stats(&m).0, 1, "cache warm");

        // mark_freed invalidates: the next lookup misses but must still
        // resolve (and see the Freed state).
        m.mark_freed(a);
        let misses_before = cache_stats(&m).1;
        let (r, _) = m.lookup(0x1010).unwrap();
        assert_eq!(r.state, BufState::Freed);
        assert_eq!(
            cache_stats(&m).1,
            misses_before + 1,
            "miss after mark_freed"
        );

        // remove invalidates: the cached segment must not resurrect it.
        m.lookup(0x1010); // re-warm
        m.remove(a);
        assert!(m.lookup(0x1010).is_none(), "stale cache would return it");

        // insert of an overlapping interval invalidates: the same address
        // must resolve to the *new* buffer, not the cached old segment.
        let b = rec(&mut m, 0x1010, 8);
        m.lookup(0x1010);
        let c = rec(&mut m, 0x1040, 8); // nearby insert also invalidates
        assert_eq!(m.lookup(0x1010).unwrap().0.id, b);
        assert_eq!(m.lookup(0x1040).unwrap().0.id, c);
    }

    #[test]
    fn disabled_cache_never_counts() {
        let mut m = HeapMap::with_cache(false);
        rec(&mut m, 0x1010, 32);
        for _ in 0..10 {
            assert!(m.lookup(0x1010).is_some());
        }
        assert_eq!(cache_stats(&m), (0, 0));
    }

    #[test]
    fn zero_size_buffer_tracked() {
        let mut m = HeapMap::new();
        let id = m.insert(0x5010, 0, 0x5000, AllocFn::Malloc, Ccid(1));
        // Only red zones exist; the user region is empty.
        let (r, reg) = m.lookup(0x5010).unwrap();
        assert_eq!((r.id, reg), (id, Region::RightRedZone));
    }
}
