//! The sparse, permission-checked address space.
//!
//! Every page carries its permission, its bytes, whether it was ever
//! written (the RSS proxy) and whether it still reads zero (the zero fill's
//! shortcut; see [`AddressSpace::fill_raw`]).

use crate::hash::FastMap;
use std::fmt;

/// Simulated page size: 4 KiB, matching the paper's guard-page math
/// (a guard page is 2¹²-byte aligned; 48 − 12 = 36 bits locate it).
pub const PAGE_SIZE: u64 = 4096;

/// A simulated virtual address.
pub type Addr = u64;

/// Page protection, the subset of `mprotect` flags the defenses need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Perm {
    /// Inaccessible (`PROT_NONE`) — guard pages, red zones, freed blocks.
    None,
    /// Read-only (`PROT_READ`) — e.g. the frozen patch table.
    Read,
    /// Read/write (`PROT_READ|PROT_WRITE`) — ordinary heap memory.
    ReadWrite,
}

impl Perm {
    fn allows_read(self) -> bool {
        !matches!(self, Perm::None)
    }
    fn allows_write(self) -> bool {
        matches!(self, Perm::ReadWrite)
    }
}

/// The reason an access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The page is not mapped at all (wild pointer).
    Unmapped,
    /// The page is mapped but not readable.
    ReadProtected,
    /// The page is mapped but not writable.
    WriteProtected,
}

/// A simulated memory fault — the SIGSEGV of this substrate.
///
/// Accesses perform partial work up to the faulting byte, exactly like a real
/// CPU: an overflowing `memcpy` corrupts everything before the guard page and
/// then traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// First faulting address.
    pub addr: Addr,
    /// Why the access faulted.
    pub kind: FaultKind,
    /// Bytes successfully transferred before the fault.
    pub completed: u64,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault at {:#x} ({:?}) after {} bytes",
            self.addr, self.kind, self.completed
        )
    }
}

impl std::error::Error for MemFault {}

/// The offset of a `u64` at `addr` in its page, if the word lies inside
/// that one page.
fn word_offset(addr: Addr) -> Option<usize> {
    let off = (addr % PAGE_SIZE) as usize;
    (off <= PAGE_SIZE as usize - 8).then_some(off)
}

#[derive(Debug, Clone)]
struct Page {
    perm: Perm,
    data: Box<[u8]>,
    dirty: bool,
    /// Every byte of `data` is zero. `map` sets it, a zero fill of the
    /// whole page sets it again, and every store of a byte clears it, so a
    /// zero fill can skip a page that already reads zero. No statistic
    /// reads it: RSS counts `dirty` alone.
    reads_zero: bool,
}

impl Page {
    /// Marks the page written, counting it in `stats`' RSS the first time.
    #[inline]
    fn mark_dirty(&mut self, stats: &mut SpaceStats) {
        if !self.dirty {
            self.dirty = true;
            stats.rss_bytes += PAGE_SIZE;
            stats.peak_rss_bytes = stats.peak_rss_bytes.max(stats.rss_bytes);
        }
    }

    /// Marks the page dirty after a store that may have left a non-zero
    /// byte in it.
    #[inline]
    fn mark_stored(&mut self, stats: &mut SpaceStats) {
        self.reads_zero = false;
        self.mark_dirty(stats);
    }
}

/// Usage statistics for an [`AddressSpace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Currently mapped bytes (virtual size).
    pub mapped_bytes: u64,
    /// Currently dirtied bytes (the RSS proxy).
    pub rss_bytes: u64,
    /// High-water mark of `rss_bytes`.
    pub peak_rss_bytes: u64,
    /// Total `map` calls.
    pub maps: u64,
    /// Total `protect` calls.
    pub protects: u64,
}

/// A sparse, paged, permission-checked 64-bit address space.
///
/// Regions are handed out by a bump pointer starting high (like `mmap`
/// placements) so simulated heap addresses never collide with zero.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    pages: FastMap<u64, Page>,
    next_map: Addr,
    stats: SpaceStats,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Base of the simulated mapping area.
    pub const MAP_BASE: Addr = 0x7f00_0000_0000;

    /// An empty address space.
    pub fn new() -> Self {
        Self {
            pages: FastMap::default(),
            next_map: Self::MAP_BASE,
            stats: SpaceStats::default(),
        }
    }

    /// Maps `len` bytes (rounded up to whole pages) with permission `perm`
    /// and returns the page-aligned base address.
    ///
    /// Fresh pages are zero-filled, like anonymous `mmap`.
    pub fn map(&mut self, len: u64, perm: Perm) -> Addr {
        let len = crate::align_up(len.max(1), PAGE_SIZE);
        let base = self.next_map;
        self.next_map += len + PAGE_SIZE; // leave an unmapped gap between regions
        for pno in (base / PAGE_SIZE)..((base + len) / PAGE_SIZE) {
            self.pages.insert(
                pno,
                Page {
                    perm,
                    data: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
                    dirty: false,
                    reads_zero: true,
                },
            );
        }
        self.stats.mapped_bytes += len;
        self.stats.maps += 1;
        base
    }

    /// [`Self::map`] at a base aligned to `align` (a power of two), for
    /// alignments above a page.
    pub fn map_aligned(&mut self, len: u64, align: u64, perm: Perm) -> Addr {
        self.next_map = crate::align_up(self.next_map, align.max(PAGE_SIZE));
        self.map(len, perm)
    }

    /// Unmaps `len` bytes starting at the page containing `addr`.
    ///
    /// Unmapping pages that are not mapped is a no-op (like `munmap`).
    pub fn unmap(&mut self, addr: Addr, len: u64) {
        let len = crate::align_up(len.max(1), PAGE_SIZE);
        for pno in (addr / PAGE_SIZE)..((addr + len) / PAGE_SIZE) {
            if let Some(p) = self.pages.remove(&pno) {
                self.stats.mapped_bytes -= PAGE_SIZE;
                if p.dirty {
                    self.stats.rss_bytes -= PAGE_SIZE;
                }
            }
        }
    }

    /// Changes the protection of the pages covering `[addr, addr+len)`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] with [`FaultKind::Unmapped`] if any page in the
    /// range is not mapped (like `mprotect` returning `ENOMEM`).
    pub fn protect(&mut self, addr: Addr, len: u64, perm: Perm) -> Result<(), MemFault> {
        let len = crate::align_up(len.max(1), PAGE_SIZE);
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for pno in first..=last {
            if !self.pages.contains_key(&pno) {
                return Err(MemFault {
                    addr: pno * PAGE_SIZE,
                    kind: FaultKind::Unmapped,
                    completed: 0,
                });
            }
        }
        for pno in first..=last {
            self.pages.get_mut(&pno).unwrap().perm = perm;
        }
        self.stats.protects += 1;
        Ok(())
    }

    /// Permission-checked read into `buf`.
    ///
    /// # Errors
    ///
    /// Faults at the first unreadable byte; `completed` bytes were copied.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut done = 0u64;
        while (done as usize) < buf.len() {
            let a = addr + done;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let page = match self.pages.get(&pno) {
                Some(p) if p.perm.allows_read() => p,
                Some(_) => {
                    return Err(MemFault {
                        addr: a,
                        kind: FaultKind::ReadProtected,
                        completed: done,
                    })
                }
                None => {
                    return Err(MemFault {
                        addr: a,
                        kind: FaultKind::Unmapped,
                        completed: done,
                    })
                }
            };
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done as usize);
            buf[done as usize..done as usize + n].copy_from_slice(&page.data[off..off + n]);
            done += n as u64;
        }
        Ok(())
    }

    /// Permission-checked write of `data`.
    ///
    /// # Errors
    ///
    /// Faults at the first unwritable byte; `completed` bytes were written
    /// (partial writes persist — a trapped overflow has already corrupted the
    /// bytes before the guard page, as on real hardware).
    pub fn write(&mut self, addr: Addr, data: &[u8]) -> Result<(), MemFault> {
        let mut done = 0u64;
        while (done as usize) < data.len() {
            let a = addr + done;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let page = match self.pages.get_mut(&pno) {
                Some(p) if p.perm.allows_write() => p,
                Some(_) => {
                    return Err(MemFault {
                        addr: a,
                        kind: FaultKind::WriteProtected,
                        completed: done,
                    })
                }
                None => {
                    return Err(MemFault {
                        addr: a,
                        kind: FaultKind::Unmapped,
                        completed: done,
                    })
                }
            };
            let n = (PAGE_SIZE as usize - off).min(data.len() - done as usize);
            page.data[off..off + n].copy_from_slice(&data[done as usize..done as usize + n]);
            page.mark_stored(&mut self.stats);
            done += n as u64;
        }
        Ok(())
    }

    /// Permission-checked fill of `len` bytes with `byte`.
    ///
    /// # Errors
    ///
    /// Same semantics as [`AddressSpace::write`].
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), MemFault> {
        // Page-at-a-time through a stack chunk — no per-call allocation.
        let chunk = [byte; PAGE_SIZE as usize];
        let mut done = 0u64;
        while done < len {
            let n = (PAGE_SIZE - (addr + done) % PAGE_SIZE).min(len - done);
            self.write(addr + done, &chunk[..n as usize])
                .map_err(|mut f| {
                    f.completed += done;
                    f
                })?;
            done += n;
        }
        Ok(())
    }

    /// Privileged fill of `len` bytes with `byte`, ignoring permissions
    /// (kernel/analyzer view) — `memset` without materializing a buffer.
    ///
    /// A zero fill skips the `memset` on a page that still reads zero (one
    /// no store reached since it was mapped or last zeroed whole), so
    /// re-zeroing a reused region costs only the pages its tenants wrote.
    /// Every page in the range is marked dirty either way: what counts as
    /// resident does not depend on the skip.
    ///
    /// # Errors
    ///
    /// Same semantics as [`AddressSpace::write_raw`]: faults only on
    /// unmapped pages, bytes before the fault persist.
    pub fn fill_raw(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), MemFault> {
        let mut done = 0u64;
        while done < len {
            let a = addr + done;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE - a % PAGE_SIZE).min(len - done) as usize;
            let page = self.pages.get_mut(&pno).ok_or(MemFault {
                addr: a,
                kind: FaultKind::Unmapped,
                completed: done,
            })?;
            if byte != 0 {
                page.data[off..off + n].fill(byte);
                page.mark_stored(&mut self.stats);
            } else {
                if !page.reads_zero {
                    page.data[off..off + n].fill(0);
                    page.reads_zero = n == PAGE_SIZE as usize;
                }
                page.mark_dirty(&mut self.stats);
            }
            done += n as u64;
        }
        Ok(())
    }

    /// Writes a little-endian `u64`, permission-checked.
    ///
    /// # Errors
    ///
    /// Same semantics as [`AddressSpace::write`].
    pub fn write_u64(&mut self, addr: Addr, v: u64) -> Result<(), MemFault> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Privileged read that ignores permissions (kernel/allocator view).
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn read_raw(&self, addr: Addr, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut done = 0u64;
        while (done as usize) < buf.len() {
            let a = addr + done;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let page = self.pages.get(&pno).ok_or(MemFault {
                addr: a,
                kind: FaultKind::Unmapped,
                completed: done,
            })?;
            let n = (PAGE_SIZE as usize - off).min(buf.len() - done as usize);
            buf[done as usize..done as usize + n].copy_from_slice(&page.data[off..off + n]);
            done += n as u64;
        }
        Ok(())
    }

    /// Privileged write that ignores permissions (kernel/allocator view).
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn write_raw(&mut self, addr: Addr, data: &[u8]) -> Result<(), MemFault> {
        let mut done = 0u64;
        while (done as usize) < data.len() {
            let a = addr + done;
            let pno = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            let page = self.pages.get_mut(&pno).ok_or(MemFault {
                addr: a,
                kind: FaultKind::Unmapped,
                completed: done,
            })?;
            let n = (PAGE_SIZE as usize - off).min(data.len() - done as usize);
            page.data[off..off + n].copy_from_slice(&data[done as usize..done as usize + n]);
            page.mark_stored(&mut self.stats);
            done += n as u64;
        }
        Ok(())
    }

    /// Privileged `u64` read (ignores permissions). A word inside one page
    /// is one lookup and a fixed 8-byte copy in place of
    /// [`Self::read_raw`]'s chunk loop; the defense reads a metadata word
    /// on every free.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn read_u64_raw(&self, addr: Addr) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        match word_offset(addr) {
            Some(off) => {
                let page = self.pages.get(&(addr / PAGE_SIZE)).ok_or(MemFault {
                    addr,
                    kind: FaultKind::Unmapped,
                    completed: 0,
                })?;
                b.copy_from_slice(&page.data[off..off + 8]);
            }
            None => self.read_raw(addr, &mut b)?,
        }
        Ok(u64::from_le_bytes(b))
    }

    /// Privileged `u64` write (ignores permissions), one lookup for a word
    /// inside one page as in [`Self::read_u64_raw`].
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages.
    pub fn write_u64_raw(&mut self, addr: Addr, v: u64) -> Result<(), MemFault> {
        let Some(off) = word_offset(addr) else {
            return self.write_raw(addr, &v.to_le_bytes());
        };
        let page = self.pages.get_mut(&(addr / PAGE_SIZE)).ok_or(MemFault {
            addr,
            kind: FaultKind::Unmapped,
            completed: 0,
        })?;
        page.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
        page.mark_stored(&mut self.stats);
        Ok(())
    }

    /// First unmapped page in `[addr, addr+len)`, as the fault `read_raw`
    /// (src) or `write_raw` (dst) would report for that range. Probes one
    /// page at a time, so it stops after the mapped prefix whatever `len`.
    fn find_unmapped(&self, addr: Addr, len: u64) -> Option<MemFault> {
        let mut done = 0;
        while done < len {
            let a = addr.wrapping_add(done);
            if !self.pages.contains_key(&(a / PAGE_SIZE)) {
                return Some(MemFault {
                    addr: a,
                    kind: FaultKind::Unmapped,
                    completed: done,
                });
            }
            done += PAGE_SIZE - a % PAGE_SIZE;
        }
        None
    }

    /// How many bytes of `[addr, addr+len)` an access can reach: all `len`
    /// if the range is mapped, else the mapped prefix plus the first
    /// unmapped byte, where any access faults. A buffer of this size serves
    /// an access of `len` bytes with the same bytes and the same fault, and
    /// a hostile `len` costs no more than the memory that exists.
    pub fn reach(&self, addr: Addr, len: u64) -> u64 {
        self.find_unmapped(addr, len)
            .map_or(len, |f| f.completed + 1)
    }

    /// Copies `len` bytes between (possibly overlapping) mapped ranges with
    /// `memmove` semantics, ignoring permissions — used by `realloc`
    /// internally. Chunked page-to-page (direction-aware for overlap), so it
    /// never materializes a `len`-byte buffer.
    ///
    /// # Errors
    ///
    /// Faults only on unmapped pages (src reported before dst, like the
    /// read-then-write it replaces); both ranges are validated up front, so
    /// a faulting copy transfers nothing.
    pub fn copy_raw(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), MemFault> {
        if let Some(f) = self
            .find_unmapped(src, len)
            .or_else(|| self.find_unmapped(dst, len))
        {
            return Err(f);
        }
        let backward = dst > src && dst - src < len;
        let mut tmp = [0u8; PAGE_SIZE as usize];
        let mut copy_chunk = |this: &mut Self, s: Addr, d: Addr, n: usize| {
            let (spno, dpno) = (s / PAGE_SIZE, d / PAGE_SIZE);
            let soff = (s % PAGE_SIZE) as usize;
            let doff = (d % PAGE_SIZE) as usize;
            if spno == dpno {
                let page = this.pages.get_mut(&spno).expect("validated");
                page.data.copy_within(soff..soff + n, doff);
                page.mark_stored(&mut this.stats);
            } else {
                let spage = this.pages.get(&spno).expect("validated");
                tmp[..n].copy_from_slice(&spage.data[soff..soff + n]);
                let dpage = this.pages.get_mut(&dpno).expect("validated");
                dpage.data[doff..doff + n].copy_from_slice(&tmp[..n]);
                dpage.mark_stored(&mut this.stats);
            }
        };
        if backward {
            let mut i = len;
            while i > 0 {
                let s_room = (src + i - 1) % PAGE_SIZE + 1;
                let d_room = (dst + i - 1) % PAGE_SIZE + 1;
                let n = s_room.min(d_room).min(i);
                i -= n;
                copy_chunk(self, src + i, dst + i, n as usize);
            }
        } else {
            let mut i = 0;
            while i < len {
                let s_room = PAGE_SIZE - (src + i) % PAGE_SIZE;
                let d_room = PAGE_SIZE - (dst + i) % PAGE_SIZE;
                let n = s_room.min(d_room).min(len - i);
                copy_chunk(self, src + i, dst + i, n as usize);
                i += n;
            }
        }
        Ok(())
    }

    /// Current usage statistics.
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }

    /// Dirtied bytes — the resident-set-size proxy.
    pub fn rss_bytes(&self) -> u64 {
        self.stats.rss_bytes
    }

    /// Mapped bytes (virtual size).
    pub fn mapped_bytes(&self) -> u64 {
        self.stats.mapped_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The protection of the page containing `addr`, if mapped.
    fn perm_at(s: &AddressSpace, addr: Addr) -> Option<Perm> {
        s.pages.get(&(addr / PAGE_SIZE)).map(|p| p.perm)
    }

    /// Reads a little-endian `u64`, permission-checked.
    fn read_u64(s: &AddressSpace, addr: Addr) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        s.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    #[test]
    fn map_returns_page_aligned_zeroed_memory() {
        let mut s = AddressSpace::new();
        let a = s.map(100, Perm::ReadWrite);
        assert_eq!(a % PAGE_SIZE, 0);
        let mut buf = [1u8; 16];
        s.read(a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(s.mapped_bytes(), PAGE_SIZE);
    }

    #[test]
    fn regions_do_not_touch() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        let b = s.map(PAGE_SIZE, Perm::ReadWrite);
        assert!(b >= a + 2 * PAGE_SIZE, "guard gap between mappings");
        // The gap is unmapped.
        assert!(read_u64(&s, a + PAGE_SIZE).is_err());
    }

    #[test]
    fn map_aligned_places_the_base_on_the_alignment() {
        let mut s = AddressSpace::new();
        s.map(PAGE_SIZE, Perm::ReadWrite);
        let a = s.map_aligned(PAGE_SIZE, 64 * 1024, Perm::ReadWrite);
        assert_eq!(a % (64 * 1024), 0);
        // A page or less is plain `map`: the next page after the gap.
        let b = s.map_aligned(PAGE_SIZE, 256, Perm::ReadWrite);
        assert_eq!(b, a + 2 * PAGE_SIZE);
        assert_eq!(s.stats().maps, 3);
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        let data: Vec<u8> = (0..=255).collect();
        // Straddle the page boundary.
        s.write(a + PAGE_SIZE - 100, &data).unwrap();
        let mut back = vec![0u8; 256];
        s.read(a + PAGE_SIZE - 100, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unmapped_access_faults() {
        let s = AddressSpace::new();
        let mut b = [0u8; 1];
        let err = s.read(0xdead_0000, &mut b).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.completed, 0);
    }

    #[test]
    fn protect_none_blocks_reads_and_writes() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        s.protect(a, PAGE_SIZE, Perm::None).unwrap();
        let mut b = [0u8; 1];
        assert_eq!(
            s.read(a, &mut b).unwrap_err().kind,
            FaultKind::ReadProtected
        );
        assert_eq!(
            s.write(a, &[1]).unwrap_err().kind,
            FaultKind::WriteProtected
        );
        // Raw access still works (allocator view).
        s.write_raw(a, &[7]).unwrap();
        s.read_raw(a, &mut b).unwrap();
        assert_eq!(b[0], 7);
    }

    #[test]
    fn read_only_blocks_writes_only() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        s.write(a, &[42]).unwrap();
        s.protect(a, PAGE_SIZE, Perm::Read).unwrap();
        let mut b = [0u8; 1];
        s.read(a, &mut b).unwrap();
        assert_eq!(b[0], 42);
        assert_eq!(
            s.write(a, &[1]).unwrap_err().kind,
            FaultKind::WriteProtected
        );
    }

    #[test]
    fn partial_write_persists_up_to_fault() {
        // Two pages: RW then PROT_NONE (a guard). A 16-byte write starting 8
        // bytes before the guard writes 8 bytes and then traps — exactly the
        // paper's "overflow stopped at the guard page".
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        let guard = a + PAGE_SIZE;
        s.protect(guard, PAGE_SIZE, Perm::None).unwrap();
        let err = s.write(guard - 8, &[0xAA; 16]).unwrap_err();
        assert_eq!(err.kind, FaultKind::WriteProtected);
        assert_eq!(err.completed, 8);
        assert_eq!(err.addr, guard);
        let mut b = [0u8; 8];
        s.read(guard - 8, &mut b).unwrap();
        assert_eq!(b, [0xAA; 8]);
    }

    #[test]
    fn fill_and_u64_helpers() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.fill(a, PAGE_SIZE + 10, 0x5A).unwrap();
        let mut b = [0u8; 1];
        s.read(a + PAGE_SIZE + 9, &mut b).unwrap();
        assert_eq!(b[0], 0x5A);
        s.write_u64(a, 0xDEADBEEF).unwrap();
        assert_eq!(read_u64(&s, a).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn fill_reports_total_completed_on_fault() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.protect(a + PAGE_SIZE, PAGE_SIZE, Perm::None).unwrap();
        let err = s.fill(a, 2 * PAGE_SIZE, 1).unwrap_err();
        assert_eq!(err.completed, PAGE_SIZE);
    }

    #[test]
    fn fill_raw_ignores_permissions_and_reports_fault() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.protect(a, PAGE_SIZE, Perm::None).unwrap();
        // Privileged: fills through PROT_NONE, straddling the boundary.
        s.fill_raw(a + PAGE_SIZE - 4, 8, 0x7E).unwrap();
        let mut b = [0u8; 8];
        s.read_raw(a + PAGE_SIZE - 4, &mut b).unwrap();
        assert_eq!(b, [0x7E; 8]);
        assert_eq!(s.rss_bytes(), 2 * PAGE_SIZE, "both pages dirtied");
        // Runs off the end of the mapping: faults with completed count.
        let err = s.fill_raw(a + PAGE_SIZE, 2 * PAGE_SIZE, 1).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.completed, PAGE_SIZE);
        assert_eq!(err.addr, a + 2 * PAGE_SIZE);
    }

    #[test]
    fn reach_stops_at_the_first_unmapped_byte() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.protect(a, PAGE_SIZE, Perm::None).unwrap();
        assert_eq!(s.reach(a, 0), 0);
        assert_eq!(
            s.reach(a + 8, PAGE_SIZE),
            PAGE_SIZE,
            "guard pages are mapped"
        );
        assert_eq!(s.reach(a + 8, 1 << 50), 2 * PAGE_SIZE - 8 + 1);
        assert_eq!(s.reach(a - 1, 1 << 50), 1, "starts unmapped");
        assert_eq!(s.reach(u64::MAX - 3, u64::MAX), 1, "wraps without panic");
    }

    #[test]
    fn copy_raw_overlapping_is_memmove_both_directions() {
        let mut s = AddressSpace::new();
        let a = s.map(4 * PAGE_SIZE, Perm::ReadWrite);
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        // Forward-overlapping (dst above src), straddling a page boundary.
        let src = a + PAGE_SIZE - 80;
        s.write(src, &data).unwrap();
        s.copy_raw(src, src + 50, 200).unwrap();
        let mut back = vec![0u8; 200];
        s.read(src + 50, &mut back).unwrap();
        assert_eq!(back, data, "dst got the ORIGINAL src bytes");
        // Backward-overlapping (dst below src).
        let src2 = a + 3 * PAGE_SIZE - 60;
        s.write(src2, &data).unwrap();
        s.copy_raw(src2, src2 - 50, 200).unwrap();
        s.read(src2 - 50, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn copy_raw_faults_on_unmapped_pages() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        let b = s.map(PAGE_SIZE, Perm::ReadWrite);
        // Source runs off its mapping: src fault reported, nothing copied.
        let err = s.copy_raw(a + PAGE_SIZE - 4, b, 8).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.addr, a + PAGE_SIZE);
        assert_eq!(err.completed, 4);
        // Destination runs off: dst fault reported.
        let err = s.copy_raw(a, b + PAGE_SIZE - 4, 8).unwrap_err();
        assert_eq!(err.addr, b + PAGE_SIZE);
        assert_eq!(err.completed, 4);
    }

    #[test]
    fn rss_counts_dirty_pages_only() {
        let mut s = AddressSpace::new();
        let a = s.map(4 * PAGE_SIZE, Perm::ReadWrite);
        assert_eq!(s.rss_bytes(), 0, "mapping alone is not resident");
        s.write(a, &[1]).unwrap();
        assert_eq!(s.rss_bytes(), PAGE_SIZE);
        s.write(a + 1, &[2]).unwrap();
        assert_eq!(s.rss_bytes(), PAGE_SIZE, "same page stays one page");
        s.write(a + 3 * PAGE_SIZE, &[3]).unwrap();
        assert_eq!(s.rss_bytes(), 2 * PAGE_SIZE);
        assert_eq!(s.stats().peak_rss_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn unmap_releases_rss_and_mapping() {
        let mut s = AddressSpace::new();
        let a = s.map(2 * PAGE_SIZE, Perm::ReadWrite);
        s.write(a, &[1]).unwrap();
        s.unmap(a, 2 * PAGE_SIZE);
        assert_eq!(s.rss_bytes(), 0);
        assert_eq!(s.mapped_bytes(), 0);
        assert!(read_u64(&s, a).is_err());
    }

    #[test]
    fn protect_unmapped_range_errors() {
        let mut s = AddressSpace::new();
        let err = s.protect(0x1000, PAGE_SIZE, Perm::None).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
    }

    #[test]
    fn raw_words_round_trip_or_fault_at_the_page_end_at_every_offset() {
        let v = 0x0807_0605_0403_0201u64;
        for pages in [1u64, 2] {
            for off in [0, 4088, 4089, 4090, 4091, 4092, 4093, 4094, 4095] {
                // Raw access ignores the PROT_NONE page.
                let mut s = AddressSpace::new();
                let a = s.map(pages * PAGE_SIZE, Perm::ReadWrite);
                s.protect(a, PAGE_SIZE, Perm::None).unwrap();
                let addr = a + off;
                let crosses = off > PAGE_SIZE - 8;
                let touched = if crosses && pages == 2 { 2 } else { 1 };
                let wrote = s.write_u64_raw(addr, v);
                let st = s.stats();
                assert_eq!(st.rss_bytes, touched * PAGE_SIZE, "rss at {off}");
                assert_eq!(st.peak_rss_bytes, st.rss_bytes, "peak at {off}");
                if pages == 1 && crosses {
                    // The bytes before the page end land; the rest fault.
                    let fault = MemFault {
                        addr: a + PAGE_SIZE,
                        kind: FaultKind::Unmapped,
                        completed: PAGE_SIZE - off,
                    };
                    assert_eq!(wrote, Err(fault), "{off}");
                    assert_eq!(s.read_u64_raw(addr), Err(fault), "{off}");
                    let mut b = vec![0u8; (PAGE_SIZE - off) as usize];
                    s.read_raw(addr, &mut b).unwrap();
                    assert_eq!(b, v.to_le_bytes()[..b.len()], "{off}");
                } else {
                    assert_eq!(wrote, Ok(()), "{off}");
                    assert_eq!(s.read_u64_raw(addr), Ok(v), "{off}");
                    // The same bytes as through the chunk loops.
                    let mut b = [0u8; 8];
                    s.read_raw(addr, &mut b).unwrap();
                    assert_eq!(b, v.to_le_bytes(), "{off}");
                    s.write_raw(addr, &[9; 8]).unwrap();
                    assert_eq!(s.read_u64_raw(addr), Ok(u64::from_le_bytes([9; 8])));
                }
            }
        }
        // A word on an unmapped page faults at its first byte.
        let mut s = AddressSpace::new();
        let fault = MemFault {
            addr: 0xdead_0008,
            kind: FaultKind::Unmapped,
            completed: 0,
        };
        assert_eq!(s.read_u64_raw(0xdead_0008), Err(fault));
        assert_eq!(s.write_u64_raw(0xdead_0008, v), Err(fault));
        assert_eq!(s.stats(), SpaceStats::default());
    }

    #[test]
    fn protect_counts_once_per_call_and_changes_nothing_on_a_fault() {
        let mut s = AddressSpace::new();
        let a = s.map(3 * PAGE_SIZE, Perm::ReadWrite);
        s.protect(a + PAGE_SIZE + 100, 8, Perm::None).unwrap();
        assert_eq!(s.stats().protects, 1);
        s.protect(a, 3 * PAGE_SIZE, Perm::Read).unwrap();
        assert_eq!(s.stats().protects, 2, "three pages, one call");
        // One unmapped page: the gap after the region.
        let gap = a + 3 * PAGE_SIZE;
        let err = s.protect(gap + 100, 8, Perm::None).unwrap_err();
        assert_eq!(
            err,
            MemFault {
                addr: gap,
                kind: FaultKind::Unmapped,
                completed: 0,
            }
        );
        // A range over the region, the gap and the next region faults at
        // the gap and changes no page on either side of it.
        let b = s.map(PAGE_SIZE, Perm::ReadWrite);
        assert_eq!(b, gap + PAGE_SIZE);
        let err = s.protect(a, b + PAGE_SIZE - a, Perm::None).unwrap_err();
        assert_eq!((err.addr, err.kind), (gap, FaultKind::Unmapped));
        for page in 0..3 {
            assert_eq!(perm_at(&s, a + page * PAGE_SIZE), Some(Perm::Read));
        }
        assert_eq!(perm_at(&s, b), Some(Perm::ReadWrite));
        assert_eq!(s.stats().protects, 2, "a faulting call counts nothing");
    }

    #[test]
    fn perm_at_reports_current_permission() {
        let mut s = AddressSpace::new();
        let a = s.map(PAGE_SIZE, Perm::ReadWrite);
        assert_eq!(perm_at(&s, a), Some(Perm::ReadWrite));
        s.protect(a, PAGE_SIZE, Perm::None).unwrap();
        assert_eq!(perm_at(&s, a), Some(Perm::None));
        assert_eq!(perm_at(&s, 0x42), None);
    }

    #[test]
    fn fault_display_mentions_address() {
        let f = MemFault {
            addr: 0x1234,
            kind: FaultKind::Unmapped,
            completed: 3,
        };
        let s = f.to_string();
        assert!(s.contains("0x1234") && s.contains("3 bytes"), "{s}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn write_read_round_trip(
                off in 0u64..8192,
                data in proptest::collection::vec(any::<u8>(), 1..512),
            ) {
                let mut s = AddressSpace::new();
                let a = s.map(4 * PAGE_SIZE, Perm::ReadWrite);
                s.write(a + off, &data).unwrap();
                let mut back = vec![0u8; data.len()];
                s.read(a + off, &mut back).unwrap();
                prop_assert_eq!(back, data);
            }

            #[test]
            fn rss_never_exceeds_mapped(
                writes in proptest::collection::vec((0u64..16384, any::<u8>()), 1..64),
            ) {
                let mut s = AddressSpace::new();
                let a = s.map(8 * PAGE_SIZE, Perm::ReadWrite);
                for (off, byte) in writes {
                    let off = off % (8 * PAGE_SIZE);
                    s.write(a + off, &[byte]).unwrap();
                    prop_assert!(s.rss_bytes() <= s.mapped_bytes());
                }
            }
        }
    }
}
