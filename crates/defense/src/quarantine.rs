//! The online deferred-free FIFO (paper Section VI, "Handling use after
//! free").
//!
//! Unlike the offline analyzer, which quarantines *every* freed block, the
//! online defense quarantines only buffers patched as UAF-vulnerable — so
//! with the same quota each block stays quarantined far longer, raising the
//! bar for reuse-based exploitation.

use crate::region::Region;
use ht_memsim::Addr;
use std::collections::VecDeque;

/// Where a quarantined block goes once evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// Back to the inner allocator, freed at this pointer.
    Inner(Addr),
    /// A guarded region, retired to the region cache with its guard page
    /// still `PROT_NONE`.
    Region(Region),
}

/// One quarantined block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedBlock {
    /// Where the block goes once evicted.
    pub home: Home,
    /// User size (for quota accounting).
    pub size: u64,
    /// Patch-table slot of the block's patch (eviction attribution).
    pub slot: u32,
}

/// FIFO of deferred frees with a byte quota.
#[derive(Debug, Clone)]
pub struct Quarantine {
    queue: VecDeque<QuarantinedBlock>,
    bytes: u64,
    quota: u64,
    /// Total blocks ever evicted (handed back to the inner allocator).
    evictions: u64,
}

impl Quarantine {
    /// A quarantine holding at most `quota` bytes.
    pub fn new(quota: u64) -> Self {
        Self {
            queue: VecDeque::new(),
            bytes: 0,
            quota,
            evictions: 0,
        }
    }

    /// Defers a block. Returns the blocks evicted to stay within quota
    /// (oldest first) — the caller must release them to the inner allocator.
    #[must_use]
    pub fn push(&mut self, block: QuarantinedBlock) -> Vec<QuarantinedBlock> {
        self.queue.push_back(block);
        self.bytes += block.size;
        let mut evicted = Vec::new();
        while self.bytes > self.quota {
            let Some(b) = self.queue.pop_front() else {
                break;
            };
            self.bytes -= b.size;
            self.evictions += 1;
            evicted.push(b);
        }
        evicted
    }

    /// Whether a block going to `home` is currently quarantined.
    pub fn contains(&self, home: Home) -> bool {
        self.queue.iter().any(|b| b.home == home)
    }

    /// Bytes currently deferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Blocks currently deferred.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the quarantine is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The byte quota.
    pub fn quota(&self) -> u64 {
        self.quota
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(p: Addr, size: u64) -> QuarantinedBlock {
        QuarantinedBlock {
            home: Home::Inner(p),
            size,
            slot: 0,
        }
    }

    #[test]
    fn holds_blocks_within_quota() {
        let mut q = Quarantine::new(100);
        assert!(q.push(blk(0x10, 40)).is_empty());
        assert!(q.push(blk(0x20, 40)).is_empty());
        assert_eq!(q.bytes(), 80);
        assert_eq!(q.len(), 2);
        assert!(q.contains(Home::Inner(0x10)) && q.contains(Home::Inner(0x20)));
    }

    #[test]
    fn evicts_fifo_when_over_quota() {
        let mut q = Quarantine::new(100);
        let _ = q.push(blk(0x10, 60));
        let evicted = q.push(blk(0x20, 60));
        assert_eq!(evicted, vec![blk(0x10, 60)], "oldest goes first");
        assert!(!q.contains(Home::Inner(0x10)));
        assert!(q.contains(Home::Inner(0x20)));
        assert_eq!(q.evictions(), 1);
        assert_eq!(q.bytes(), 60);
    }

    #[test]
    fn oversized_block_passes_through() {
        let mut q = Quarantine::new(100);
        let evicted = q.push(blk(0x30, 500));
        assert_eq!(evicted, vec![blk(0x30, 500)], "cannot be held at all");
        assert!(q.is_empty());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn multi_eviction_cascade() {
        let mut q = Quarantine::new(100);
        let _ = q.push(blk(1, 30));
        let _ = q.push(blk(2, 30));
        let _ = q.push(blk(3, 30));
        let evicted = q.push(blk(4, 90));
        assert_eq!(evicted.len(), 3, "all small blocks evicted");
        assert!(q.contains(Home::Inner(4)));
        assert_eq!(q.quota(), 100);
    }
}
