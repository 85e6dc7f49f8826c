//! Guarded regions (Structures 2 and 4): whole body pages followed by one
//! `PROT_NONE` guard page, mapped straight from the address space, and the
//! cache that keeps retired ones mapped for reuse, as the real allocator's
//! region cache does.
//!
//! A guarded buffer never goes through the inner allocator: it gets a
//! region of its own, sized to the pages it spans, where an inner size
//! class would map a whole arena chunk for it. A retired region keeps its
//! guard `PROT_NONE`, so reusing one costs no `protect`.

use crate::layout::Layout;
use ht_memsim::{Addr, AddressSpace, FastMap, MemFault, Perm, PAGE_SIZE};

/// One guarded region: `body` bytes of whole pages at `base`, then the
/// guard page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// The first body page.
    pub base: Addr,
    /// Body bytes, a whole number of pages.
    pub body: u64,
    /// The alignment of `base`: a page, or a larger buffer alignment.
    pub align: u64,
}

impl Region {
    /// The guard page, just past the body.
    pub fn guard(self) -> Addr {
        self.base + self.body
    }
}

/// The retired guarded regions of one backend, by body size and base
/// alignment, the newest last.
///
/// The backend keeps each handed-out region with its buffer's user pointer
/// until the buffer is freed, and retires it from there once, so a region is
/// either handed out or cached, never both, and cached at most once.
#[derive(Debug, Default)]
pub struct GuardedRegions {
    cache: FastMap<(u64, u64), Vec<Addr>>,
}

impl GuardedRegions {
    /// Hands out a region for a guarded buffer of `layout`, whose user
    /// pointer is then `layout.user_addr(region.base)`: the last region
    /// retired with its body size and alignment, else a fresh mapping whose
    /// guard page is made `PROT_NONE`. Also returns whether the region was
    /// retired before: its body then holds its last buffer's bytes, where a
    /// fresh body reads zero.
    ///
    /// # Errors
    ///
    /// A fault of the address space (none for a region it just mapped).
    pub fn take(
        &mut self,
        space: &mut AddressSpace,
        layout: &Layout,
    ) -> Result<(Region, bool), MemFault> {
        let (body, align) = (layout.raw_size, layout.raw_align.max(PAGE_SIZE));
        let cached = self.cache.get_mut(&(body, align)).and_then(Vec::pop);
        let base = match cached {
            Some(base) => base,
            None => {
                let base = space.map_aligned(body + PAGE_SIZE, align, Perm::ReadWrite);
                space.protect(base + body, PAGE_SIZE, Perm::None)?;
                base
            }
        };
        Ok((Region { base, body, align }, cached.is_some()))
    }

    /// Keeps a freed or evicted region mapped, its guard still
    /// `PROT_NONE`, for the next buffer of its body size and alignment.
    pub fn retire(&mut self, region: Region) {
        self.cache
            .entry((region.body, region.align))
            .or_default()
            .push(region.base);
    }

    /// Regions retired and not yet reused.
    #[cfg(test)]
    pub(crate) fn cached(&self) -> usize {
        self.cache.values().map(Vec::len).sum()
    }
}
