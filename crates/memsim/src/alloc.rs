//! Underlying heap allocators.
//!
//! HeapTherapy+'s online defense wraps the allocator it finds — it never
//! modifies it or depends on its internals. [`BaseAllocator`] is that
//! boundary: `malloc`-family entry points over an [`AddressSpace`], nothing
//! more. The defense layer (crate `ht-defense`) composes over any
//! implementation, which is exactly the paper's "no dependency on specific
//! heap allocators" property (tested against both allocators here).

use crate::hash::FastMap;
use crate::space::{Addr, AddressSpace, Perm};
use crate::{align_up, PAGE_SIZE};
use std::fmt;

/// Allocation failure or misuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Size zero or too large for the allocator.
    BadSize(u64),
    /// Alignment not a power of two.
    BadAlign(u64),
    /// `free`/`realloc` of a pointer this allocator does not own.
    InvalidPointer(Addr),
    /// Double free.
    DoubleFree(Addr),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::BadSize(s) => write!(f, "bad allocation size {s}"),
            AllocError::BadAlign(a) => write!(f, "bad alignment {a}"),
            AllocError::InvalidPointer(p) => write!(f, "invalid pointer {p:#x}"),
            AllocError::DoubleFree(p) => write!(f, "double free of {p:#x}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Counters an allocator maintains (feeds Table IV and Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful `malloc` calls.
    pub mallocs: u64,
    /// Successful `memalign` calls.
    pub memaligns: u64,
    /// Successful `realloc` calls.
    pub reallocs: u64,
    /// Successful `free` calls.
    pub frees: u64,
    /// Bytes currently live (user sizes).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: u64,
}

impl AllocStats {
    fn on_alloc(&mut self, size: u64) {
        self.live_bytes += size;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
    }
    fn on_free(&mut self, size: u64) {
        self.live_bytes -= size;
    }
}

/// The allocator boundary the online defense interposes on.
///
/// Implementations own blocks inside an [`AddressSpace`] passed to every
/// call (the space outlives the allocator's blocks).
pub trait BaseAllocator {
    /// Allocates `size` bytes, at least 8-byte aligned.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadSize`] for `size == 0`.
    fn malloc(&mut self, space: &mut AddressSpace, size: u64) -> Result<Addr, AllocError>;

    /// Allocates `size` bytes aligned to `align` (a power of two).
    ///
    /// # Errors
    ///
    /// [`AllocError::BadAlign`] if `align` is not a power of two;
    /// [`AllocError::BadSize`] for `size == 0`.
    fn memalign(
        &mut self,
        space: &mut AddressSpace,
        align: u64,
        size: u64,
    ) -> Result<Addr, AllocError>;

    /// Resizes the block at `ptr` to `new_size`, preserving the prefix.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidPointer`] if `ptr` is not a live block.
    fn realloc(
        &mut self,
        space: &mut AddressSpace,
        ptr: Addr,
        new_size: u64,
    ) -> Result<Addr, AllocError>;

    /// Releases the block at `ptr`.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidPointer`] / [`AllocError::DoubleFree`].
    fn free(&mut self, space: &mut AddressSpace, ptr: Addr) -> Result<(), AllocError>;

    /// Allocation statistics.
    fn stats(&self) -> AllocStats;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Live,
    Free,
}

#[derive(Debug, Clone, Copy)]
struct Block {
    /// Base of the underlying storage (what the free list recycles).
    base: Addr,
    /// Usable size handed to the caller.
    size: u64,
    /// Size class index, or `usize::MAX` for large mappings.
    class: usize,
    state: BlockState,
}

/// Segregated-fit free-list allocator with LIFO reuse.
///
/// Size classes are powers of two from 16 B to 1 MiB; larger requests get
/// dedicated mappings. Freed blocks go to the head of their class list and
/// come back out first — the behaviour that makes use-after-free promptly
/// exploitable on mainstream allocators, and therefore the right baseline for
/// demonstrating the deferred-free defense.
#[derive(Debug, Default)]
pub struct FreeListAllocator {
    /// Per-class LIFO free lists (block bases).
    free_lists: Vec<Vec<Addr>>,
    /// All blocks ever created, keyed by user pointer.
    blocks: FastMap<Addr, Block>,
    /// Current carve-out arena per class: (cursor, end).
    arenas: Vec<(Addr, Addr)>,
    stats: AllocStats,
}

/// Smallest size class.
const MIN_CLASS_SIZE: u64 = 16;
/// Largest size class (1 MiB); beyond this, dedicated mappings.
const MAX_CLASS_SIZE: u64 = 1 << 20;
/// Arena chunk mapped per class when a class runs dry.
const ARENA_CHUNK: u64 = 256 * 1024;

fn class_of(size: u64) -> Option<usize> {
    if size > MAX_CLASS_SIZE {
        return None;
    }
    let rounded = size.max(MIN_CLASS_SIZE).next_power_of_two();
    Some((rounded.trailing_zeros() - MIN_CLASS_SIZE.trailing_zeros()) as usize)
}

fn class_size(class: usize) -> u64 {
    MIN_CLASS_SIZE << class
}

const NUM_CLASSES: usize = 17; // 16 B .. 1 MiB

impl FreeListAllocator {
    /// A fresh allocator with empty arenas.
    pub fn new() -> Self {
        Self {
            free_lists: vec![Vec::new(); NUM_CLASSES],
            blocks: FastMap::default(),
            arenas: vec![(0, 0); NUM_CLASSES],
            stats: AllocStats::default(),
        }
    }

    fn carve(&mut self, space: &mut AddressSpace, class: usize) -> Addr {
        let csize = class_size(class);
        let (cursor, end) = self.arenas[class];
        if cursor + csize <= end {
            self.arenas[class] = (cursor + csize, end);
            return cursor;
        }
        let chunk = ARENA_CHUNK.max(csize);
        let base = space.map(chunk, Perm::ReadWrite);
        self.arenas[class] = (base + csize, base + chunk);
        base
    }

    fn alloc_in_class(&mut self, space: &mut AddressSpace, class: usize, size: u64) -> Addr {
        let base = if let Some(b) = self.free_lists[class].pop() {
            b
        } else {
            self.carve(space, class)
        };
        self.blocks.insert(
            base,
            Block {
                base,
                size,
                class,
                state: BlockState::Live,
            },
        );
        base
    }
}

impl BaseAllocator for FreeListAllocator {
    fn malloc(&mut self, space: &mut AddressSpace, size: u64) -> Result<Addr, AllocError> {
        if size == 0 {
            return Err(AllocError::BadSize(size));
        }
        let ptr = match class_of(size) {
            Some(class) => self.alloc_in_class(space, class, size),
            None => {
                let base = space.map(size, Perm::ReadWrite);
                self.blocks.insert(
                    base,
                    Block {
                        base,
                        size,
                        class: usize::MAX,
                        state: BlockState::Live,
                    },
                );
                base
            }
        };
        self.stats.mallocs += 1;
        self.stats.on_alloc(size);
        Ok(ptr)
    }

    fn memalign(
        &mut self,
        space: &mut AddressSpace,
        align: u64,
        size: u64,
    ) -> Result<Addr, AllocError> {
        if !align.is_power_of_two() {
            return Err(AllocError::BadAlign(align));
        }
        if size == 0 {
            return Err(AllocError::BadSize(size));
        }
        // Over-allocate so an aligned pointer fits inside the block; register
        // the aligned pointer as the block key.
        let padded = size + align;
        let (base, class) = match class_of(padded) {
            Some(class) => {
                let b = if let Some(b) = self.free_lists[class].pop() {
                    b
                } else {
                    self.carve(space, class)
                };
                (b, class)
            }
            None => (space.map(padded, Perm::ReadWrite), usize::MAX),
        };
        let user = align_up(base.max(1), align);
        debug_assert!(user + size <= base + padded);
        self.blocks.insert(
            user,
            Block {
                base,
                size,
                class,
                state: BlockState::Live,
            },
        );
        self.stats.memaligns += 1;
        self.stats.on_alloc(size);
        Ok(user)
    }

    fn realloc(
        &mut self,
        space: &mut AddressSpace,
        ptr: Addr,
        new_size: u64,
    ) -> Result<Addr, AllocError> {
        if new_size == 0 {
            return Err(AllocError::BadSize(new_size));
        }
        let old = match self.blocks.get(&ptr) {
            Some(b) if b.state == BlockState::Live => *b,
            Some(_) => return Err(AllocError::InvalidPointer(ptr)),
            None => return Err(AllocError::InvalidPointer(ptr)),
        };
        let new_ptr = self.malloc(space, new_size)?;
        self.stats.mallocs -= 1; // internal malloc is not a user malloc
        space
            .copy_raw(ptr, new_ptr, old.size.min(new_size))
            .expect("realloc copies between mapped blocks");
        self.free(space, ptr)?;
        self.stats.frees -= 1; // internal free is not a user free
        self.stats.reallocs += 1;
        Ok(new_ptr)
    }

    fn free(&mut self, space: &mut AddressSpace, ptr: Addr) -> Result<(), AllocError> {
        let block = match self.blocks.get_mut(&ptr) {
            Some(b) => b,
            None => return Err(AllocError::InvalidPointer(ptr)),
        };
        if block.state == BlockState::Free {
            return Err(AllocError::DoubleFree(ptr));
        }
        block.state = BlockState::Free;
        let b = *block;
        self.stats.frees += 1;
        self.stats.on_free(b.size);
        if b.class == usize::MAX {
            space.unmap(b.base, align_up(b.size.max(1), PAGE_SIZE));
            self.blocks.remove(&ptr);
        } else {
            self.free_lists[b.class].push(b.base);
        }
        Ok(())
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

/// Trivial bump allocator: `free` recycles nothing.
///
/// Exists to demonstrate the defense layer's allocator independence and as a
/// worst-case memory baseline.
#[derive(Debug, Default)]
pub struct BumpAllocator {
    cursor: Addr,
    end: Addr,
    blocks: FastMap<Addr, u64>,
    stats: AllocStats,
}

impl BumpAllocator {
    /// A fresh bump allocator.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(&mut self, space: &mut AddressSpace, align: u64, size: u64) -> Addr {
        let user = align_up(self.cursor.max(1), align);
        if user + size > self.end {
            let chunk = align_up(size + align, ARENA_CHUNK);
            self.cursor = space.map(chunk, Perm::ReadWrite);
            self.end = self.cursor + chunk;
            return self.bump(space, align, size);
        }
        self.cursor = user + size;
        user
    }
}

impl BaseAllocator for BumpAllocator {
    fn malloc(&mut self, space: &mut AddressSpace, size: u64) -> Result<Addr, AllocError> {
        if size == 0 {
            return Err(AllocError::BadSize(size));
        }
        let p = self.bump(space, 8, size);
        self.blocks.insert(p, size);
        self.stats.mallocs += 1;
        self.stats.on_alloc(size);
        Ok(p)
    }

    fn memalign(
        &mut self,
        space: &mut AddressSpace,
        align: u64,
        size: u64,
    ) -> Result<Addr, AllocError> {
        if !align.is_power_of_two() {
            return Err(AllocError::BadAlign(align));
        }
        if size == 0 {
            return Err(AllocError::BadSize(size));
        }
        let p = self.bump(space, align, size);
        self.blocks.insert(p, size);
        self.stats.memaligns += 1;
        self.stats.on_alloc(size);
        Ok(p)
    }

    fn realloc(
        &mut self,
        space: &mut AddressSpace,
        ptr: Addr,
        new_size: u64,
    ) -> Result<Addr, AllocError> {
        let old = *self
            .blocks
            .get(&ptr)
            .ok_or(AllocError::InvalidPointer(ptr))?;
        let p = self.malloc(space, new_size)?;
        self.stats.mallocs -= 1;
        space
            .copy_raw(ptr, p, old.min(new_size))
            .expect("realloc copies between mapped blocks");
        self.free(space, ptr)?;
        self.stats.frees -= 1;
        self.stats.reallocs += 1;
        Ok(p)
    }

    fn free(&mut self, _space: &mut AddressSpace, ptr: Addr) -> Result<(), AllocError> {
        match self.blocks.remove(&ptr) {
            Some(size) => {
                self.stats.frees += 1;
                self.stats.on_free(size);
                Ok(())
            }
            None => Err(AllocError::InvalidPointer(ptr)),
        }
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn each_allocator(test: impl Fn(&mut dyn BaseAllocator, &mut AddressSpace)) {
        let mut s1 = AddressSpace::new();
        let mut a1 = FreeListAllocator::new();
        test(&mut a1, &mut s1);
        let mut s2 = AddressSpace::new();
        let mut a2 = BumpAllocator::new();
        test(&mut a2, &mut s2);
    }

    #[test]
    fn malloc_returns_usable_memory() {
        each_allocator(|a, s| {
            let p = a.malloc(s, 100).unwrap();
            s.write(p, &[0xAB; 100]).unwrap();
            let mut b = [0u8; 100];
            s.read(p, &mut b).unwrap();
            assert_eq!(b, [0xAB; 100]);
        });
    }

    #[test]
    fn zero_size_malloc_rejected() {
        each_allocator(|a, s| {
            assert_eq!(a.malloc(s, 0), Err(AllocError::BadSize(0)));
        });
    }

    #[test]
    fn memalign_respects_alignment() {
        each_allocator(|a, s| {
            for align in [16u64, 64, 4096] {
                let p = a.memalign(s, align, 100).unwrap();
                assert_eq!(p % align, 0, "align {align}");
                s.write(p, &[1; 100]).unwrap();
            }
            assert_eq!(a.memalign(s, 3, 8), Err(AllocError::BadAlign(3)));
        });
    }

    #[test]
    fn live_blocks_do_not_overlap() {
        each_allocator(|a, s| {
            let mut ranges: Vec<(Addr, Addr)> = Vec::new();
            for i in 1..50u64 {
                let size = i * 7 % 200 + 1;
                let p = a.malloc(s, size).unwrap();
                for &(lo, hi) in &ranges {
                    assert!(p + size <= lo || p >= hi, "overlap at {p:#x}");
                }
                ranges.push((p, p + size));
            }
        });
    }

    #[test]
    fn realloc_preserves_prefix() {
        each_allocator(|a, s| {
            let p = a.malloc(s, 32).unwrap();
            s.write(p, &[7u8; 32]).unwrap();
            let q = a.realloc(s, p, 128).unwrap();
            let mut b = [0u8; 32];
            s.read(q, &mut b).unwrap();
            assert_eq!(b, [7u8; 32]);
            // Shrink keeps the shorter prefix.
            let r = a.realloc(s, q, 8).unwrap();
            let mut b8 = [0u8; 8];
            s.read(r, &mut b8).unwrap();
            assert_eq!(b8, [7u8; 8]);
        });
    }

    #[test]
    fn double_free_detected_by_free_list() {
        let mut s = AddressSpace::new();
        let mut a = FreeListAllocator::new();
        let p = a.malloc(&mut s, 64).unwrap();
        a.free(&mut s, p).unwrap();
        assert_eq!(a.free(&mut s, p), Err(AllocError::DoubleFree(p)));
    }

    #[test]
    fn invalid_free_detected() {
        each_allocator(|a, s| {
            assert_eq!(a.free(s, 0xdead), Err(AllocError::InvalidPointer(0xdead)));
        });
    }

    #[test]
    fn free_list_reuse_is_lifo() {
        // The UAF-exploitability property: free then same-size malloc returns
        // the same block.
        let mut s = AddressSpace::new();
        let mut a = FreeListAllocator::new();
        let p = a.malloc(&mut s, 64).unwrap();
        a.free(&mut s, p).unwrap();
        let q = a.malloc(&mut s, 64).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn bump_allocator_never_reuses() {
        let mut s = AddressSpace::new();
        let mut a = BumpAllocator::new();
        let p = a.malloc(&mut s, 64).unwrap();
        a.free(&mut s, p).unwrap();
        let q = a.malloc(&mut s, 64).unwrap();
        assert_ne!(p, q);
    }

    #[test]
    fn large_allocations_get_dedicated_mappings() {
        let mut s = AddressSpace::new();
        let mut a = FreeListAllocator::new();
        let big = MAX_CLASS_SIZE + 1;
        let p = a.malloc(&mut s, big).unwrap();
        s.write(p, &[1]).unwrap();
        s.write(p + big - 1, &[1]).unwrap();
        let mapped_before = s.mapped_bytes();
        a.free(&mut s, p).unwrap();
        assert!(s.mapped_bytes() < mapped_before, "large block unmapped");
        // Freed large block faults on access.
        assert!(s.write(p, &[1]).is_err());
    }

    #[test]
    fn stats_track_live_and_peak() {
        let mut s = AddressSpace::new();
        let mut a = FreeListAllocator::new();
        let p1 = a.malloc(&mut s, 100).unwrap();
        let p2 = a.malloc(&mut s, 200).unwrap();
        assert_eq!(a.stats().live_bytes, 300);
        a.free(&mut s, p1).unwrap();
        assert_eq!(a.stats().live_bytes, 200);
        assert_eq!(a.stats().peak_live_bytes, 300);
        a.free(&mut s, p2).unwrap();
        assert_eq!(a.stats().mallocs, 2);
        assert_eq!(a.stats().frees, 2);
    }

    #[test]
    fn realloc_counts_once() {
        let mut s = AddressSpace::new();
        let mut a = FreeListAllocator::new();
        let p = a.malloc(&mut s, 10).unwrap();
        let _q = a.realloc(&mut s, p, 20).unwrap();
        let st = a.stats();
        assert_eq!(st.mallocs, 1);
        assert_eq!(st.reallocs, 1);
        assert_eq!(st.frees, 0);
        assert_eq!(st.live_bytes, 20);
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(MAX_CLASS_SIZE), Some(16));
        assert_eq!(class_of(MAX_CLASS_SIZE + 1), None);
        assert_eq!(class_size(0), 16);
        assert_eq!(class_size(16), MAX_CLASS_SIZE);
    }

    #[test]
    fn adjacent_blocks_allow_overflow_corruption() {
        // The undefended substrate must behave like real memory: an overflow
        // from one block can corrupt the next (same size class, contiguous
        // carve-out). This is what the defense's guard page prevents.
        let mut s = AddressSpace::new();
        let mut a = FreeListAllocator::new();
        let p1 = a.malloc(&mut s, 16).unwrap();
        let p2 = a.malloc(&mut s, 16).unwrap();
        assert_eq!(p2, p1 + 16, "contiguous carve-out");
        s.write(p2, b"SECRET-SECRET-!!").unwrap();
        // Overflow p1 by 16 bytes: lands in p2.
        s.write(p1, &[0x41; 32]).unwrap();
        let mut b = [0u8; 16];
        s.read(p2, &mut b).unwrap();
        assert_eq!(b, [0x41; 16], "neighbour corrupted");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random malloc/free/realloc interleavings keep contents of live
            /// blocks intact and stats consistent.
            #[test]
            fn allocator_fuzz(ops in proptest::collection::vec((0u8..4, 1u64..500), 1..120)) {
                let mut s = AddressSpace::new();
                let mut a = FreeListAllocator::new();
                let mut live: Vec<(Addr, u64, u8)> = Vec::new();
                let mut tag = 0u8;
                for (op, size) in ops {
                    match op {
                        0 | 1 => {
                            let p = a.malloc(&mut s, size).unwrap();
                            tag = tag.wrapping_add(1);
                            s.fill(p, size, tag).unwrap();
                            live.push((p, size, tag));
                        }
                        2 if !live.is_empty() => {
                            let (p, _, _) = live.swap_remove(size as usize % live.len());
                            a.free(&mut s, p).unwrap();
                        }
                        3 if !live.is_empty() => {
                            let idx = size as usize % live.len();
                            let (p, old, t) = live[idx];
                            let q = a.realloc(&mut s, p, size).unwrap();
                            let keep = old.min(size);
                            let mut buf = vec![0u8; keep as usize];
                            s.read(q, &mut buf).unwrap();
                            prop_assert!(buf.iter().all(|&b| b == t));
                            s.fill(q, size, t).unwrap();
                            live[idx] = (q, size, t);
                        }
                        _ => {}
                    }
                    // Every live block still holds its fill pattern.
                    for &(p, sz, t) in &live {
                        let mut buf = vec![0u8; sz as usize];
                        s.read(p, &mut buf).unwrap();
                        prop_assert!(buf.iter().all(|&b| b == t), "block {p:#x} corrupted");
                    }
                    let expected: u64 = live.iter().map(|&(_, sz, _)| sz).sum();
                    prop_assert_eq!(a.stats().live_bytes, expected);
                }
            }
        }
    }
}
