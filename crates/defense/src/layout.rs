//! Buffer structure selection and placement math (paper Fig. 6 + Table I).
//!
//! | Structure | aligned | guard page | used for |
//! |-----------|---------|------------|----------|
//! | 1         | no      | no         | unpatched / UAF / UR via `malloc` |
//! | 2         | no      | yes        | overflow patches via `malloc` |
//! | 3         | yes     | no         | unpatched / UAF / UR via `memalign` |
//! | 4         | yes     | yes        | overflow patches via `memalign` |

use crate::meta::META_SIZE;
use ht_memsim::{align_up, Addr, PAGE_SIZE};
use ht_patch::{AllocFn, VulnFlags};

/// The four buffer structures of paper Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferStructure {
    /// `[meta][user]`
    S1,
    /// `[meta][user][pad][guard page]`
    S2,
    /// `[pad][meta][user]` (user is alignment-aligned)
    S3,
    /// `[pad][meta][user][pad][guard page]`
    S4,
}

impl BufferStructure {
    /// Table I: which structure serves a buffer with vulnerability bits
    /// `vuln` allocated through `fun`.
    pub fn select(fun: AllocFn, vuln: VulnFlags) -> Self {
        let aligned = fun == AllocFn::Memalign;
        let guarded = vuln.contains(VulnFlags::OVERFLOW);
        match (aligned, guarded) {
            (false, false) => BufferStructure::S1,
            (false, true) => BufferStructure::S2,
            (true, false) => BufferStructure::S3,
            (true, true) => BufferStructure::S4,
        }
    }

    /// Whether this structure appends a guard page.
    pub fn has_guard(self) -> bool {
        matches!(self, BufferStructure::S2 | BufferStructure::S4)
    }

    /// Whether this structure serves aligned allocations.
    pub fn is_aligned(self) -> bool {
        matches!(self, BufferStructure::S3 | BufferStructure::S4)
    }
}

/// Concrete placement of one defended buffer inside a raw block: an inner
/// allocator's block for Structures 1 and 3, the body of a guarded region
/// ([`crate::region`]) for Structures 2 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// The structure in use.
    pub structure: BufferStructure,
    /// Bytes of the raw block: the inner-allocator request, or a guarded
    /// region's body, whole pages that the guard page follows.
    pub raw_size: u64,
    /// Alignment of the raw block (1 = plain `malloc`).
    pub raw_align: u64,
}

impl Layout {
    /// Computes the raw block for `size` user bytes: `lead + size` bytes,
    /// rounded up to whole pages for a guarded structure, where `lead` is
    /// the metadata word or, for an aligned structure, the alignment.
    ///
    /// `align` must be a power of two ≥ 16 for aligned structures (the
    /// paper's Structure 3/4 place the metadata word inside the leading
    /// padding, so the padding must hold at least one word).
    pub fn plan(structure: BufferStructure, size: u64, align: u64) -> Layout {
        // [pad = align][user] for aligned structures: user = raw + align
        // (paper §VI: pi = p − A on free).
        let (raw_align, lead) = if structure.is_aligned() {
            let a = align.max(16);
            (a, a)
        } else {
            (1, META_SIZE)
        };
        let raw_size = if structure.has_guard() {
            // The user buffer ends at most one page short of the guard.
            align_up(lead + size, PAGE_SIZE)
        } else {
            lead + size
        };
        Layout {
            structure,
            raw_size,
            raw_align,
        }
    }

    /// The user-buffer address inside a raw block at `raw`.
    pub fn user_addr(&self, raw: Addr) -> Addr {
        match self.structure {
            BufferStructure::S1 | BufferStructure::S2 => raw + META_SIZE,
            BufferStructure::S3 | BufferStructure::S4 => raw + self.raw_align,
        }
    }

    /// Recovers the raw (inner-allocator) pointer from a user pointer —
    /// the `pi` computation of paper Fig. 7.
    pub fn inner_ptr(aligned: bool, alignment: u64, user: Addr) -> Addr {
        if aligned {
            user - alignment
        } else {
            user - META_SIZE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_structure_selection() {
        use BufferStructure::*;
        // Rows of Table I: every vulnerability combination × plain/aligned.
        let cases = [
            (VulnFlags::NONE, S1, S3),
            (VulnFlags::OVERFLOW, S2, S4),
            (VulnFlags::USE_AFTER_FREE, S1, S3),
            (VulnFlags::UNINIT_READ, S1, S3),
            (VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE, S2, S4),
            (VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ, S2, S4),
            (VulnFlags::USE_AFTER_FREE | VulnFlags::UNINIT_READ, S1, S3),
            (VulnFlags::ALL, S2, S4),
        ];
        for (vuln, plain, aligned) in cases {
            assert_eq!(
                BufferStructure::select(AllocFn::Malloc, vuln),
                plain,
                "{vuln}"
            );
            assert_eq!(
                BufferStructure::select(AllocFn::Calloc, vuln),
                plain,
                "{vuln}"
            );
            assert_eq!(
                BufferStructure::select(AllocFn::Realloc, vuln),
                plain,
                "{vuln}"
            );
            assert_eq!(
                BufferStructure::select(AllocFn::Memalign, vuln),
                aligned,
                "{vuln}"
            );
        }
    }

    #[test]
    fn s1_layout_is_tight() {
        let l = Layout::plan(BufferStructure::S1, 100, 16);
        assert_eq!(l.raw_size, 108);
        assert_eq!(l.user_addr(0x1000), 0x1008);
    }

    #[test]
    fn s2_guard_page_ends_the_region_body() {
        for (size, pages) in [(1u64, 1), (100, 1), (4088, 1), (4089, 2), (10_000, 3)] {
            let l = Layout::plan(BufferStructure::S2, size, 16);
            assert_eq!(l.raw_size, pages * PAGE_SIZE, "size={size}");
            // The guard page follows the body of a region at `raw`.
            let raw = 0x10000;
            let user = l.user_addr(raw);
            let guard = raw + l.raw_size;
            assert_eq!(guard, align_up(user + size, PAGE_SIZE), "size={size}");
        }
    }

    #[test]
    fn s3_user_is_aligned_and_meta_fits() {
        let l = Layout::plan(BufferStructure::S3, 100, 64);
        assert_eq!(l.raw_align, 64);
        let raw = 0x4000; // inner memalign returns aligned raw
        let user = l.user_addr(raw);
        assert_eq!(user % 64, 0);
        assert_eq!(user - raw, 64, "pi = p − A recovers raw");
        assert!(user - META_SIZE >= raw, "meta word inside the pad");
        assert_eq!(Layout::inner_ptr(true, 64, user), raw);
    }

    #[test]
    fn s4_combines_alignment_and_guard() {
        for (size, align) in [(5000, 256), (100, 4096), (100, 16384)] {
            let l = Layout::plan(BufferStructure::S4, size, align);
            assert_eq!(l.raw_size, align_up(align + size, PAGE_SIZE));
            let raw = 0x10000; // aligned to every alignment above
            let user = l.user_addr(raw);
            assert_eq!(user % align, 0);
            assert_eq!(raw + l.raw_size, align_up(user + size, PAGE_SIZE));
        }
    }

    #[test]
    fn small_alignment_is_bumped_to_hold_meta() {
        let l = Layout::plan(BufferStructure::S3, 10, 2);
        assert!(l.raw_align >= 16);
    }

    #[test]
    fn inner_ptr_unaligned() {
        assert_eq!(Layout::inner_ptr(false, 0, 0x1008), 0x1000);
    }
}
