//! The header format of the hardened allocator: the paper's Fig. 6
//! metadata word just below every user pointer, the quarantine node a UAF
//! buffer keeps below its word, and the sizes of the headers and guarded
//! regions that hold them.
//!
//! This module holds the crate's only raw header accesses: [`load_word`],
//! [`store_word`], [`clear_word`] and [`Node`]'s load and store. The rest
//! is arithmetic on words, addresses and layouts.

use ht_patch::{PatchTable, VulnFlags};
use std::alloc::Layout;

pub(crate) const PAGE: usize = 4096;

fn page_up(n: usize) -> usize {
    (n + PAGE - 1) & !(PAGE - 1)
}

/// Width of the metadata word that precedes every interposed buffer.
pub(crate) const WORD: usize = 8;
const FREED: u64 = 1 << 3;
const GUARD_SHIFT: u32 = 4;
const GUARD_MASK: u64 = (1 << 36) - 1;
const SLOT_SHIFT: u32 = 40;
const CHECK_SHIFT: u32 = 49;

/// The per-buffer metadata word (paper Fig. 6), as the `WORD` bytes just
/// before the user pointer hold it, XORed with [`word_key`] of that
/// pointer:
///
/// ```text
/// bits  0..=2   type: OVERFLOW | USE_AFTER_FREE | UNINIT_READ
/// bit   3       freed
/// bits  4..=39  guard-page number (addr >> 12) of a guarded buffer, else 0
/// bits 40..=48  patch-table slot that matched at allocation time
/// bits 49..=63  check: bits 0..=48 folded to 15 bits
/// ```
///
/// Only buffers the free path must treat specially carry type bits (OF or
/// UAF); every other buffer carries the all-zero word. The check field
/// flips with any single flipped bit, and a guarded word must name the
/// guard page its buffer abuts, so a word that does not belong to its
/// pointer practically never decodes as live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetaWord {
    pub(crate) vuln: VulnFlags,
    pub(crate) freed: bool,
    pub(crate) guard: usize,
    pub(crate) slot: usize,
}

/// XOR-folds 64 bits to a 15-bit check field; every input bit lands on
/// exactly one output bit, and `fold(a ^ b) == fold(a) ^ fold(b)`.
fn fold(x: u64) -> u64 {
    (x ^ x >> 15 ^ x >> 30 ^ x >> 45 ^ x >> 60) & 0x7FFF
}

impl MetaWord {
    pub(crate) fn encode(self) -> u64 {
        debug_assert!(self.guard.is_multiple_of(PAGE) && (self.guard >> 12) as u64 <= GUARD_MASK);
        debug_assert!(self.slot < PatchTable::CAPACITY);
        let payload = u64::from(self.vuln.bits())
            | if self.freed { FREED } else { 0 }
            | (self.guard as u64 >> 12) << GUARD_SHIFT
            | (self.slot as u64) << SLOT_SHIFT;
        payload | fold(payload) << CHECK_SHIFT
    }

    pub(crate) fn decode(raw: u64) -> Option<Self> {
        let payload = raw & ((1 << CHECK_SHIFT) - 1);
        (raw >> CHECK_SHIFT == fold(payload)).then(|| Self {
            vuln: VulnFlags::from_bits_truncate(payload as u8 & 0b111),
            freed: payload & FREED != 0,
            guard: (((payload >> GUARD_SHIFT) & GUARD_MASK) << 12) as usize,
            slot: (payload >> SLOT_SHIFT) as usize,
        })
    }

    /// Whether this is the word of a tracked buffer at `ptr` with
    /// `layout`: OF or UAF, and a guarded buffer abuts its guard exactly as
    /// the allocator places it, at the highest `layout.align()` multiple
    /// that leaves room for `layout.size()` bytes below the guard.
    pub(crate) fn is_at(self, ptr: usize, layout: Layout) -> bool {
        if self.vuln.contains(VulnFlags::OVERFLOW) {
            self.guard >= layout.size()
                && (self.guard - layout.size()) & !(layout.align() - 1) == ptr
        } else {
            self.guard == 0 && self.vuln.contains(VulnFlags::USE_AFTER_FREE)
        }
    }

    /// Whether this is the word of a live tracked buffer at `ptr` with
    /// `layout`.
    pub(crate) fn is_live_at(self, ptr: usize, layout: Layout) -> bool {
        !self.freed && self.is_at(ptr, layout)
    }
}

/// Its address is the per-process key of the metadata words; ASLR moves
/// it from run to run. A `static` because an allocator can move.
static KEY_ANCHOR: u8 = 0;

/// The key the word before `ptr` is XORed with: a bijection of the
/// pointer, so one pointer's word never matches another's.
#[inline]
fn word_key(ptr: usize) -> u64 {
    let x = ((ptr ^ std::ptr::addr_of!(KEY_ANCHOR) as usize) as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ x >> 29
}

/// The decoded (key-stripped) word before `ptr`.
///
/// # Safety
///
/// The `WORD` bytes before `ptr` must be readable.
#[inline]
pub(crate) unsafe fn load_word(ptr: *mut u8) -> u64 {
    // SAFETY: the caller guarantees the `WORD` bytes before `ptr` are
    // readable; the read is unaligned.
    let raw = unsafe { ptr.sub(WORD).cast::<u64>().read_unaligned() };
    raw ^ word_key(ptr as usize)
}

/// Stores the word `raw` before `ptr`, keyed.
///
/// # Safety
///
/// The `WORD` bytes before `ptr` must be writable.
#[inline]
pub(crate) unsafe fn store_word(ptr: *mut u8, raw: u64) {
    // SAFETY: the caller guarantees the `WORD` bytes before `ptr` are
    // writable; the write is unaligned.
    unsafe {
        ptr.sub(WORD)
            .cast::<u64>()
            .write_unaligned(raw ^ word_key(ptr as usize));
    }
}

/// Zeroes the bytes of the word before `ptr` without the key, so they no
/// longer load as the plain word.
///
/// # Safety
///
/// The `WORD` bytes before `ptr` must be writable.
#[inline]
pub(crate) unsafe fn clear_word(ptr: *mut u8) {
    // SAFETY: the caller guarantees the `WORD` bytes before `ptr` are
    // writable; the write is unaligned.
    unsafe { ptr.sub(WORD).cast::<u64>().write_unaligned(0) };
}

/// Bytes in front of a system-served buffer: the word, padded so the user
/// pointer keeps the layout's alignment.
#[inline]
pub(crate) fn header_len(align: usize) -> usize {
    align.max(WORD)
}

/// Bytes of the quarantine node a UAF buffer keeps just below its word.
const NODE: usize = 2 * WORD;
const NODE_SIZE_SHIFT: u32 = 6;
/// Sizes a quarantine node can record: below 2⁴³ bytes.
pub(crate) const NODE_SIZE_LIMIT: usize = 1 << (CHECK_SHIFT - NODE_SIZE_SHIFT);

/// The header in front of a system-served UAF buffer: its quarantine node
/// and its word, padded so the user pointer keeps the layout's alignment
/// (24 bytes when `align <= 8`).
#[inline]
pub(crate) fn uaf_header_len(align: usize) -> usize {
    (NODE + WORD).next_multiple_of(align)
}

/// Bytes a guarded buffer with defenses `vuln` keeps below it: its word
/// and, for a UAF buffer, its quarantine node.
pub(crate) fn guarded_header(vuln: VulnFlags) -> usize {
    if vuln.contains(VulnFlags::USE_AFTER_FREE) {
        NODE + WORD
    } else {
        WORD
    }
}

/// Body bytes of the guarded region for a buffer of `layout` with defenses
/// `vuln`: room for the buffer, its alignment slack and its header.
pub(crate) fn guarded_body(layout: Layout, vuln: VulnFlags) -> usize {
    page_up(layout.size() + layout.align() + guarded_header(vuln))
}

/// The quarantine node of a freed UAF buffer: the two words just below its
/// metadata word, each XORed with [`word_key`] of the address just above
/// it, so neither appears in user bytes or in the clear:
///
/// ```text
/// ptr - 24   link: the next-newer buffer of the same FIFO, 0 at its tail
/// ptr - 16   bits  0..=5   log2 of the alignment
///            bits  6..=48  size
///            bits 49..=63  check: fold(bits 0..=48 ^ link)
/// ```
///
/// The check binds the link, so a node is refused before its link is
/// followed when either word was overwritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub(crate) link: usize,
    pub(crate) size: usize,
    pub(crate) align: usize,
}

impl Node {
    /// Writes the node of the buffer at `ptr`.
    ///
    /// # Safety
    ///
    /// The `NODE` bytes below the word of `ptr` must be writable, and
    /// `size` below [`NODE_SIZE_LIMIT`].
    pub(crate) unsafe fn store(self, ptr: usize) {
        debug_assert!(self.size < NODE_SIZE_LIMIT);
        let payload =
            u64::from(self.align.trailing_zeros()) | (self.size as u64) << NODE_SIZE_SHIFT;
        let meta = payload | fold(payload ^ self.link as u64) << CHECK_SHIFT;
        // SAFETY: `store_word(p, ..)` writes the 8 bytes below `p`, so these
        // are the `NODE` bytes below the word of `ptr`, which the caller
        // guarantees are writable.
        unsafe {
            store_word((ptr - WORD) as *mut u8, meta);
            store_word((ptr - NODE) as *mut u8, self.link as u64);
        }
    }

    /// The node of the buffer at `ptr`, if its check holds.
    ///
    /// # Safety
    ///
    /// The `NODE` bytes below the word of `ptr` must be readable.
    pub(crate) unsafe fn load(ptr: usize) -> Option<Self> {
        // SAFETY: these are the `NODE` bytes below the word of `ptr`, which
        // the caller guarantees are readable.
        let (meta, link) = unsafe {
            (
                load_word((ptr - WORD) as *mut u8),
                load_word((ptr - NODE) as *mut u8),
            )
        };
        let payload = meta & ((1 << CHECK_SHIFT) - 1);
        (meta >> CHECK_SHIFT == fold(payload ^ link)).then(|| Self {
            link: link as usize,
            size: (payload >> NODE_SIZE_SHIFT) as usize,
            align: 1 << (payload & 63),
        })
    }

    /// Links the node of the buffer at `tail`, whose link is 0, to `next`.
    ///
    /// The check is updated by XOR rather than recomputed from a decoded
    /// node, so a node that was overwritten stays refused.
    ///
    /// # Safety
    ///
    /// The `NODE` bytes below the word of `tail` must be readable and
    /// writable.
    pub(crate) unsafe fn set_link(tail: usize, next: usize) {
        let meta = (tail - NODE) as *mut u8;
        // SAFETY: the link is the word below `meta`, and the size word the
        // one at `meta`: the `NODE` bytes below the word of `tail`, which
        // the caller guarantees are readable and writable.
        unsafe {
            store_word(meta, next as u64);
            let meta = meta.cast::<u64>();
            meta.write_unaligned(meta.read_unaligned() ^ fold(next as u64) << CHECK_SHIFT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip_and_flipped_or_foreign_words_are_refused() {
        let l = Layout::from_size_align(100, 16).unwrap();
        for vuln in (0..8).map(VulnFlags::from_bits_truncate) {
            for guard in [0, 0x10_0000, 0x7f12_3456_7000, (1 << 48) - PAGE] {
                // Where the allocator puts a guarded buffer of `l` below
                // `guard`.
                let ptr = guard.max(0x10_0000) - 112;
                let live = if vuln.contains(VulnFlags::OVERFLOW) {
                    guard != 0
                } else {
                    guard == 0 && vuln.contains(VulnFlags::USE_AFTER_FREE)
                };
                for slot in 0..PatchTable::CAPACITY {
                    let w = MetaWord {
                        vuln,
                        freed: false,
                        guard,
                        slot,
                    };
                    let freed = MetaWord { freed: true, ..w };
                    let raw = w.encode();
                    assert_eq!(MetaWord::decode(raw), Some(w));
                    assert_eq!(MetaWord::decode(freed.encode()), Some(freed));
                    assert_eq!(
                        (w.is_live_at(ptr, l), freed.is_live_at(ptr, l)),
                        (live, false)
                    );
                    for bit in 0..64 {
                        assert_eq!(MetaWord::decode(raw ^ 1 << bit), None, "{w:?} bit {bit}");
                    }
                    // The word stored for `ptr`, read at other pointers.
                    let stored = raw ^ word_key(ptr);
                    for other in (1..16).map(|k| ptr + 16 * k) {
                        let foreign = MetaWord::decode(stored ^ word_key(other));
                        assert!(!foreign.is_some_and(|f| f.is_live_at(other, l)));
                    }
                }
            }
        }
    }
}
