//! Safe allocation-throughput drivers for the multi-threaded scaling
//! benchmark (`reproduce scaling`).
//!
//! The benchmark crate is `#![forbid(unsafe_code)]`, so the raw
//! [`GlobalAlloc`] loops live here: each function performs `pairs`
//! allocate–touch–free round trips of `size` bytes on the calling thread
//! and returns the number of pairs completed. The bench harness runs them
//! from N threads at once and divides by wall time.

use crate::ccid;
use crate::galloc::HardenedAlloc;
use std::alloc::{GlobalAlloc, Layout, System};

fn layout(size: usize) -> Layout {
    Layout::from_size_align(size.max(1), 8).expect("valid bench layout")
}

/// Allocate/touch/free `pairs` times straight against the system allocator
/// (the "native" series).
pub fn native_pairs(pairs: u64, size: usize) -> u64 {
    let l = layout(size);
    for i in 0..pairs {
        // SAFETY: `l` has a non-zero size; the buffer is checked non-null,
        // only its first byte is touched, and it is freed once with `l`.
        unsafe {
            // black_box the pointer: Rust allocator calls are elidable, and
            // LLVM happily removes the whole pair otherwise.
            let p = std::hint::black_box(System.alloc(l));
            assert!(!p.is_null());
            p.write((i as u8).wrapping_add(1));
            std::hint::black_box(p.read());
            System.dealloc(std::hint::black_box(p), l);
        }
    }
    pairs
}

/// What one [`hardened_pairs`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairsRun {
    /// Round trips completed.
    pub pairs: u64,
    /// Guarded (patched OVERFLOW) buffers that did not read all zero when
    /// handed out. Fresh and recycled guarded regions alike must.
    pub dirty_guarded: u64,
}

/// Allocate/touch/free `pairs` times through `a`.
///
/// When `patched_site` is set, every `patched_every`-th pair enters that
/// instrumented call site first, so the allocation's `(FUN, CCID)` probes
/// hot in the patch table — the "N-patch" series of Fig. 8, but threaded.
/// Each patched buffer that turns out guarded is checked to read zero.
pub fn hardened_pairs(
    a: &HardenedAlloc,
    pairs: u64,
    size: usize,
    patched_site: Option<u64>,
    patched_every: u64,
) -> PairsRun {
    let l = layout(size);
    let every = patched_every.max(1);
    let mut dirty_guarded = 0;
    for i in 0..pairs {
        // SAFETY: `l` has a non-zero size; the buffer is checked non-null,
        // only its own bytes are read or written, and it is freed once with
        // `l`; `a` handed it out, so its word is mapped.
        unsafe {
            let patched = patched_site.filter(|_| i % every == 0);
            let p = match patched {
                Some(site) => {
                    let _scope = ccid::CallScope::enter(site);
                    a.alloc(l)
                }
                None => a.alloc(l),
            };
            assert!(!p.is_null());
            if patched.is_some()
                && a.guard_page_of(p).is_some()
                && std::slice::from_raw_parts(p, l.size())
                    .iter()
                    .any(|&b| b != 0)
            {
                dirty_guarded += 1;
            }
            p.write((i as u8).wrapping_add(1));
            std::hint::black_box(p.read());
            a.dealloc(p, l);
        }
    }
    PairsRun {
        pairs,
        dirty_guarded,
    }
}

/// Allocates `count` buffers of `size` bytes inside patched call site
/// `site`, writes a per-buffer tag, then verifies every tag and frees in
/// allocation order. Returns the number of tag mismatches (0 = no buffer
/// was lost or corrupted while many patched allocations were live at once).
pub fn hardened_batch(a: &HardenedAlloc, count: usize, size: usize, site: u64) -> usize {
    let l = layout(size);
    let _scope = ccid::CallScope::enter(site);
    let mut ptrs = Vec::with_capacity(count);
    for i in 0..count {
        // SAFETY: `l` has a non-zero size, and the buffer is checked
        // non-null before its first byte is written.
        unsafe {
            let p = a.alloc(l);
            assert!(!p.is_null());
            p.write((i as u8) ^ 0x5A);
            ptrs.push(p);
        }
    }
    let mut corrupt = 0;
    for (i, p) in ptrs.into_iter().enumerate() {
        // SAFETY: `p` is a live buffer of `a` with layout `l`, freed once.
        unsafe {
            if p.read() != (i as u8) ^ 0x5A {
                corrupt += 1;
            }
            a.dealloc(p, l);
        }
    }
    corrupt
}

/// The allocation API a [`checked_round`] goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// `GlobalAlloc::alloc`.
    Malloc,
    /// `GlobalAlloc::alloc_zeroed`.
    Calloc,
    /// `GlobalAlloc::realloc` of a buffer first malloc'd elsewhere.
    Realloc {
        /// The old buffer's size (non-zero).
        from_size: usize,
        /// The call site the old buffer was malloc'd in, if any.
        from_site: Option<u64>,
    },
}

/// What [`checked_round`] saw of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// The pointer has the requested alignment.
    pub aligned: bool,
    /// Every byte not carried over from the old buffer reads zero.
    pub reads_zero: bool,
    /// Bytes between the buffer's end and its guard page, if it is guarded.
    pub guard_gap: Option<usize>,
    /// A realloc carried the old buffer's bytes over (always true for the
    /// other APIs).
    pub prefix_kept: bool,
    /// The free was deferred: the buffer sits in the quarantine.
    pub quarantined: bool,
    /// The buffer still reads the bytes written just before its free,
    /// unless its memory was handed back (a quarantined buffer keeps its
    /// FIFO link in its header, never in its bytes).
    pub freed_bytes_kept: bool,
}

/// Allocates one buffer of layout `l` through `api` inside call site `site`
/// (if any), inspects it, fills it and frees it.
pub fn checked_round(a: &HardenedAlloc, api: Api, l: Layout, site: Option<u64>) -> Round {
    let enter = |site: Option<u64>| site.map(ccid::CallScope::enter);
    let pattern = |i: usize| (i % 251) as u8 + 1;
    // SAFETY: every layout has a non-zero size; each buffer is freed once
    // with the layout it has, and only its own bytes are touched.
    unsafe {
        let (p, kept) = match api {
            Api::Malloc => {
                let _site = enter(site);
                (a.alloc(l), 0)
            }
            Api::Calloc => {
                let _site = enter(site);
                (a.alloc_zeroed(l), 0)
            }
            Api::Realloc {
                from_size,
                from_site,
            } => {
                let old =
                    Layout::from_size_align(from_size, l.align()).expect("valid round layout");
                let q = {
                    let _site = enter(from_site);
                    a.alloc(old)
                };
                assert!(!q.is_null());
                for i in 0..from_size {
                    q.add(i).write(pattern(i));
                }
                let _site = enter(site);
                (a.realloc(q, old, l.size()), from_size.min(l.size()))
            }
        };
        assert!(!p.is_null());
        let bytes = std::slice::from_raw_parts(p, l.size());
        let aligned = (p as usize).is_multiple_of(l.align());
        let reads_zero = bytes[kept..].iter().all(|&b| b == 0);
        let guard_gap = a
            .guard_page_of(p)
            .map(|guard| guard - (p as usize + l.size()));
        let prefix_kept = bytes[..kept]
            .iter()
            .enumerate()
            .all(|(i, &b)| b == pattern(i));
        std::ptr::write_bytes(p, 0xA5, l.size());
        a.dealloc(p, l);
        // A quarantined buffer's memory is still the allocator's to read.
        let quarantined = a.is_quarantined(p);
        let freed_bytes_kept = !quarantined
            || std::slice::from_raw_parts(p, l.size())
                .iter()
                .all(|&b| b == 0xA5);
        Round {
            aligned,
            reads_zero,
            guard_gap,
            prefix_kept,
            quarantined,
            freed_bytes_kept,
        }
    }
}

/// The CCID observed from inside instrumented site `site` on this thread —
/// what a patch targeting that site must carry.
pub fn site_ccid(site: u64) -> u64 {
    ccid::with_site(site, ccid::current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_patch::{AllocFn, Patch, VulnFlags};

    #[test]
    fn native_loop_completes() {
        assert_eq!(native_pairs(100, 64), 100);
    }

    #[test]
    fn batch_holds_live_buffers_without_corruption() {
        let _maps = crate::galloc::tests::maps_lock();
        let a = HardenedAlloc::new();
        a.install(&[Patch::new(
            AllocFn::Malloc,
            site_ccid(0xBA7C),
            VulnFlags::OVERFLOW,
        )]);
        assert_eq!(hardened_batch(&a, 100, 64, 0xBA7C), 0);
        let st = a.stats();
        assert_eq!(st.table_hits, 100);
        assert_eq!(st.interposed_allocs, st.interposed_frees);
        assert_eq!(a.registry_stats().live(), 0);
    }

    #[test]
    fn hardened_loop_unpatched_is_pass_through() {
        let a = HardenedAlloc::new();
        assert_eq!(hardened_pairs(&a, 50, 64, None, 1).pairs, 50);
        let st = a.stats();
        assert_eq!(st.interposed_allocs, 50);
        assert_eq!(st.interposed_frees, 50);
        assert_eq!(st.table_hits, 0);
    }

    #[test]
    fn hardened_loop_hits_the_patched_context() {
        let _maps = crate::galloc::tests::maps_lock();
        let a = HardenedAlloc::new();
        a.install(&[Patch::new(
            AllocFn::Malloc,
            site_ccid(0x5CA1),
            VulnFlags::OVERFLOW,
        )]);
        assert_eq!(
            hardened_pairs(&a, 64, 64, Some(0x5CA1), 16),
            PairsRun {
                pairs: 64,
                dirty_guarded: 0
            }
        );
        let st = a.stats();
        assert_eq!(st.table_hits, 4, "every 16th pair probes hot");
        assert_eq!(st.guard_pages, 4);
    }
}
