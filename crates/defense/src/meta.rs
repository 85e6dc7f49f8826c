//! The per-buffer metadata word (paper Fig. 6).
//!
//! One 64-bit word immediately before every user buffer:
//!
//! ```text
//! bits  0..=3   type field: OVERFLOW | UAF | UNINIT_READ | ALIGNED
//! bits  4..=39  (guarded buffers)    guard-page number (addr >> 12, 36 bits)
//! bits  4..=48  (unguarded buffers)  user size (45 bits)
//! bits 49..=57  (patched buffers)    patch-table slot (9 bits)
//! bits 58..=63  (aligned buffers)    log2(alignment) (6 bits)
//! ```
//!
//! 36 bits suffice for the guard-page location because 64-bit systems use a
//! 48-bit virtual address space and a guard page is 2¹²-aligned:
//! 48 − 12 = 36. For guarded buffers the user size is stored in the first
//! word of the guard page instead. The slot is the buffer's
//! [`ht_patch::PatchTable`] slot, whose capacity of 512 fits 9 bits; the
//! free path attributes quarantine telemetry through it.

use ht_memsim::Addr;
use ht_patch::VulnFlags;
use std::fmt;

/// Width of the metadata word in bytes.
pub const META_SIZE: u64 = 8;

const ALIGNED_BIT: u64 = 1 << 3;
const PAYLOAD_SHIFT: u32 = 4;
const GUARD_MASK: u64 = (1 << 36) - 1;
const SIZE_MASK: u64 = (1 << 45) - 1;
const SLOT_SHIFT: u32 = 49;
const SLOT_MASK: u64 = (1 << 9) - 1;
const ALIGN_SHIFT: u32 = 58;

/// The decoded/encoded metadata word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetaWord(pub u64);

impl MetaWord {
    /// Encodes a word for an *unguarded* buffer (Structures 1/3): the
    /// payload is the user size.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds 45 bits or `align_log2` exceeds 6 bits.
    pub fn unguarded(vuln: VulnFlags, size: u64, align_log2: Option<u8>) -> Self {
        assert!(size <= SIZE_MASK, "size {size} exceeds 45 bits");
        let mut w = (vuln.bits() as u64 & 0b111) | ((size & SIZE_MASK) << PAYLOAD_SHIFT);
        if let Some(a) = align_log2 {
            assert!(a < 64, "alignment log2 {a} exceeds 6 bits");
            w |= ALIGNED_BIT | ((a as u64) << ALIGN_SHIFT);
        }
        MetaWord(w)
    }

    /// Encodes a word for a *guarded* buffer (Structures 2/4): the payload
    /// is the guard page's page number; the size lives in the guard page.
    ///
    /// # Panics
    ///
    /// Panics if `guard_page` is not page-aligned, does not fit 36 bits, or
    /// `align_log2` exceeds 6 bits.
    pub fn guarded(vuln: VulnFlags, guard_page: Addr, align_log2: Option<u8>) -> Self {
        assert_eq!(guard_page % 4096, 0, "guard page must be page aligned");
        let pno = guard_page >> 12;
        assert!(pno <= GUARD_MASK, "guard page beyond 48-bit address space");
        let mut w = (vuln.bits() as u64 & 0b111) | (pno << PAYLOAD_SHIFT);
        if let Some(a) = align_log2 {
            assert!(a < 64, "alignment log2 {a} exceeds 6 bits");
            w |= ALIGNED_BIT | ((a as u64) << ALIGN_SHIFT);
        }
        debug_assert!(
            w & (VulnFlags::OVERFLOW.bits() as u64) != 0 || vuln.is_empty(),
            "guarded words should carry the overflow bit"
        );
        MetaWord(w)
    }

    /// The word with its slot field set to `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not fit 9 bits.
    #[must_use]
    pub fn with_slot(self, slot: usize) -> Self {
        assert!(slot as u64 <= SLOT_MASK, "slot {slot} exceeds 9 bits");
        MetaWord(self.0 & !(SLOT_MASK << SLOT_SHIFT) | (slot as u64) << SLOT_SHIFT)
    }

    /// The patch-table slot that matched at allocation time (0 for a
    /// buffer no patch matched).
    pub fn slot(self) -> usize {
        ((self.0 >> SLOT_SHIFT) & SLOT_MASK) as usize
    }

    /// The three vulnerability-type bits.
    pub fn vuln(self) -> VulnFlags {
        VulnFlags::from_bits_truncate((self.0 & 0b111) as u8)
    }

    /// Whether the buffer has a guard page (overflow defense active).
    pub fn has_guard(self) -> bool {
        self.vuln().contains(VulnFlags::OVERFLOW)
    }

    /// Whether the word is an unpatched Structure 1 buffer's: no type
    /// bits and not aligned, so its inner block starts one word before it.
    pub fn is_plain(self) -> bool {
        self.0 & (ALIGNED_BIT | 0b111) == 0
    }

    /// Whether the buffer was allocated with `memalign`.
    pub fn is_aligned(self) -> bool {
        self.0 & ALIGNED_BIT != 0
    }

    /// The guard page address (only meaningful when [`Self::has_guard`]).
    pub fn guard_page(self) -> Addr {
        ((self.0 >> PAYLOAD_SHIFT) & GUARD_MASK) << 12
    }

    /// The user size (only meaningful when `!has_guard()`).
    pub fn size(self) -> u64 {
        (self.0 >> PAYLOAD_SHIFT) & SIZE_MASK
    }

    /// The alignment in bytes (only meaningful when [`Self::is_aligned`]).
    pub fn alignment(self) -> u64 {
        1u64 << ((self.0 >> ALIGN_SHIFT) & 0x3F)
    }
}

impl fmt::Display for MetaWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "meta[{}", self.vuln())?;
        if self.is_aligned() {
            write!(f, ", align={}", self.alignment())?;
        }
        if self.has_guard() {
            write!(f, ", guard={:#x}]", self.guard_page())
        } else {
            write!(f, ", size={}]", self.size())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unguarded_round_trip() {
        let w = MetaWord::unguarded(VulnFlags::UNINIT_READ, 123_456, None);
        assert_eq!(w.vuln(), VulnFlags::UNINIT_READ);
        assert!(!w.has_guard());
        assert!(!w.is_aligned());
        assert_eq!(w.size(), 123_456);
    }

    #[test]
    fn guarded_round_trip() {
        let guard = 0x7f12_3456_7000;
        let w = MetaWord::guarded(VulnFlags::OVERFLOW, guard, None);
        assert!(w.has_guard());
        assert_eq!(w.guard_page(), guard);
        assert_eq!(w.vuln(), VulnFlags::OVERFLOW);
    }

    #[test]
    fn aligned_variants_carry_log2() {
        let w = MetaWord::unguarded(VulnFlags::USE_AFTER_FREE, 64, Some(12));
        assert!(w.is_aligned());
        assert_eq!(w.alignment(), 4096);
        assert_eq!(w.size(), 64);
        let g = MetaWord::guarded(VulnFlags::OVERFLOW, 0x1000, Some(6));
        assert!(g.is_aligned());
        assert_eq!(g.alignment(), 64);
        assert_eq!(g.guard_page(), 0x1000);
    }

    #[test]
    fn max_payloads_fit() {
        let w = MetaWord::unguarded(VulnFlags::ALL, SIZE_MASK, Some(63));
        assert_eq!(w.size(), SIZE_MASK);
        assert_eq!(w.alignment(), 1u64 << 63);
        // Highest representable guard page: 2^48 - 4096.
        let max_guard = ((1u64 << 48) - 1) & !0xFFF;
        let g = MetaWord::guarded(VulnFlags::OVERFLOW, max_guard, None);
        assert_eq!(g.guard_page(), max_guard);
        // The slot field sits between the payload and the alignment.
        let w = w.with_slot(511);
        assert_eq!(
            (w.slot(), w.size(), w.alignment()),
            (511, SIZE_MASK, 1 << 63)
        );
        let g = g.with_slot(511);
        assert_eq!(
            (g.slot(), g.guard_page(), g.vuln()),
            (511, max_guard, VulnFlags::OVERFLOW)
        );
    }

    #[test]
    fn slot_round_trips_and_defaults_to_zero() {
        let w = MetaWord::unguarded(VulnFlags::USE_AFTER_FREE, 64, Some(4));
        assert_eq!(w.slot(), 0);
        for slot in [0, 1, 300, 511] {
            let s = w.with_slot(slot);
            assert_eq!(s.slot(), slot);
            assert_eq!(s.with_slot(0), w, "the slot field is all it changes");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 9 bits")]
    fn oversized_slot_panics() {
        let _ = MetaWord::unguarded(VulnFlags::NONE, 1, None).with_slot(512);
    }

    #[test]
    #[should_panic(expected = "exceeds 45 bits")]
    fn oversized_size_panics() {
        MetaWord::unguarded(VulnFlags::NONE, 1 << 45, None);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn misaligned_guard_panics() {
        MetaWord::guarded(VulnFlags::OVERFLOW, 0x1001, None);
    }

    #[test]
    fn type_field_matches_patch_bits() {
        for bits in 0..8u8 {
            let v = VulnFlags::from_bits_truncate(bits);
            let w = MetaWord::unguarded(v, 16, None);
            assert_eq!(w.vuln(), v);
            assert_eq!(w.0 & 0b111, bits as u64, "low bits are the type field");
        }
    }

    #[test]
    fn display_forms() {
        let w = MetaWord::unguarded(VulnFlags::UNINIT_READ, 99, Some(5));
        let s = w.to_string();
        assert!(
            s.contains("UR") && s.contains("size=99") && s.contains("align=32"),
            "{s}"
        );
        let g = MetaWord::guarded(VulnFlags::OVERFLOW, 0x2000, None);
        assert!(g.to_string().contains("guard=0x2000"));
    }
}
