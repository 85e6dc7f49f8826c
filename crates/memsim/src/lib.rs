//! Simulated virtual memory and underlying heap allocators for HeapTherapy+.
//!
//! The paper's online defenses need only two facilities from the OS and the
//! C library:
//!
//! 1. **Page-permission control** (`mmap`/`mprotect`) — for guard pages and
//!    inaccessible red zones. Provided by [`AddressSpace`]: a sparse, paged
//!    64-bit address space where every page carries a [`Perm`] and every
//!    access is permission-checked, producing a [`MemFault`] exactly where a
//!    real CPU would raise SIGSEGV.
//! 2. **An underlying allocator** that the defense layer wraps *without
//!    modifying* — HeapTherapy+ is explicitly allocator-agnostic. Two
//!    implementations of [`BaseAllocator`] are provided: a segregated
//!    free-list allocator ([`FreeListAllocator`], glibc-flavoured, LIFO reuse
//!    — which is what makes use-after-free exploitable) and a trivial
//!    [`BumpAllocator`].
//!
//! The RSS proxy ([`AddressSpace::rss_bytes`]) counts *dirtied* pages only,
//! mirroring the paper's observation that guard pages are virtual and do not
//! increase resident memory.
//!
//! Each page also remembers whether it still reads zero: no store has
//! reached it since it was mapped or last zeroed whole. A zero
//! [`AddressSpace::fill_raw`] skips the `memset` on such a page, so the
//! defense's re-zeroing of a reused guarded region costs only the pages its
//! tenants wrote. The mark is a fact of the simulator with no real-memory
//! analogue, and it changes no byte that reads back and no RSS figure: a
//! skipped page is marked dirty as a filled one is.
//!
//! # Example
//!
//! ```
//! use ht_memsim::{AddressSpace, BaseAllocator, FreeListAllocator, Perm, PAGE_SIZE};
//!
//! let mut space = AddressSpace::new();
//! let mut heap = FreeListAllocator::new();
//! let p = heap.malloc(&mut space, 100).unwrap();
//! space.write(p, b"hello").unwrap();
//!
//! // Protect a fresh page and observe the fault, like mprotect+SIGSEGV.
//! let g = space.map(PAGE_SIZE, Perm::ReadWrite);
//! space.protect(g, PAGE_SIZE, Perm::None).unwrap();
//! assert!(space.write(g, b"x").is_err());
//! ```

pub mod alloc;
pub mod hash;
pub mod space;

pub use alloc::{AllocError, AllocStats, BaseAllocator, BumpAllocator, FreeListAllocator};
pub use hash::FastMap;
pub use space::{Addr, AddressSpace, FaultKind, MemFault, Perm, SpaceStats, PAGE_SIZE};

/// The paper's byte quota for freed blocks held back from reuse (2 GB):
/// the default of the offline analyzer's FIFO and of the online defense's
/// deferred-free quarantine.
pub const QUARANTINE_QUOTA: u64 = 2 * 1024 * 1024 * 1024;

/// Rounds `v` up to the next multiple of `align` (a power of two).
///
/// # Panics
///
/// Panics in debug builds if `align` is not a power of two.
#[inline]
pub fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(4097, 4096), 8192);
    }
}
