//! Allocation interposition: the online defense as a [`HeapBackend`]
//! layered over the undefended [`PlainBackend`].

use crate::layout::{BufferStructure, Layout};
use crate::meta::{MetaWord, META_SIZE};
use crate::quarantine::{Home, Quarantine, QuarantinedBlock};
use crate::region::GuardedRegions;
use ht_memsim::{
    Addr, AllocError, AllocStats, BaseAllocator, FastMap, FreeListAllocator, SpaceStats,
    QUARANTINE_QUOTA,
};
use ht_patch::{AllocFn, PatchTable, VulnFlags};
use ht_simprog::{AllocRequest, HeapBackend, PlainBackend, ReadResult, Sink, StopCause};
use ht_telemetry::{Recorder, TelemetrySnapshot};

/// Online-defense configuration.
#[derive(Debug)]
pub struct DefenseConfig {
    /// The frozen patch table loaded from the configuration file, on the
    /// heap: built in place once per deployment (see [`PatchTable::boxed`])
    /// and never moved, so the config and the backend that owns it carry
    /// one pointer rather than the table's 8 KiB through every move, and a
    /// probe loads that pointer before its index position. `None` is the
    /// paper's "interposition only" configuration (Fig. 8's 1.9% bar): no
    /// probe and no per-buffer metadata word.
    pub table: Option<Box<PatchTable>>,
    /// Byte quota of the deferred-free FIFO.
    pub quarantine_quota: u64,
    /// Attack telemetry (paper Section VII's diagnosis report). Off by
    /// default: a backend without it holds no recorder, and the hot path
    /// pays nothing beyond one `Option` check on defended branches.
    pub telemetry: bool,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        Self::with_table(PatchTable::new())
    }
}

impl DefenseConfig {
    /// Full defenses driven by `table`.
    pub fn with_table(table: PatchTable) -> Self {
        Self {
            table: Some(Box::new(table)),
            quarantine_quota: QUARANTINE_QUOTA,
            telemetry: false,
        }
    }

    /// The interposition-only configuration: calls are intercepted and
    /// forwarded, nothing else (paper Fig. 8, "interposition" series).
    pub fn interpose_only() -> Self {
        Self {
            table: None,
            quarantine_quota: QUARANTINE_QUOTA,
            telemetry: false,
        }
    }

    /// The patch table, empty for interposition only.
    fn patches(&self) -> &PatchTable {
        static NO_PATCHES: PatchTable = PatchTable::new();
        self.table.as_deref().unwrap_or(&NO_PATCHES)
    }
}

/// Counters the defense maintains (feed Fig. 8 and the ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// Allocation-family calls intercepted.
    pub interposed_allocs: u64,
    /// `free` calls intercepted.
    pub interposed_frees: u64,
    /// Patch-table probes performed.
    pub table_lookups: u64,
    /// Probes that hit (vulnerable buffers recognized).
    pub table_hits: u64,
    /// Guard pages installed.
    pub guard_pages: u64,
    /// Bytes zero-filled for uninitialized-read defenses.
    pub zero_fill_bytes: u64,
    /// Blocks pushed into the deferred-free FIFO.
    pub quarantined_blocks: u64,
    /// Accesses stopped by a protection fault (attacks blocked).
    pub blocked_accesses: u64,
}

/// The online defense generator: a layer over the undefended
/// [`PlainBackend`] and its inner allocator.
///
/// Like the paper's library it interposes only the allocation calls:
/// buffers whose `(FUN, CCID)` hits the patch table are enhanced per paper
/// Section VI, everything else pays one hash probe plus one metadata word.
/// A guarded buffer takes a region of its own from the address space
/// (see [`crate::region`]); every other buffer comes from the inner
/// allocator. Buffer accesses and interposition-only calls go to the plain
/// backend as they are. A guard page that stops an access is seen only
/// when the run's fault is delivered through [`HeapBackend::fault`], the
/// simulator's SIGSEGV: that counts the blocked access and records its
/// trip.
#[derive(Debug)]
pub struct DefendedBackend<A: BaseAllocator = FreeListAllocator> {
    plain: PlainBackend<A>,
    cfg: DefenseConfig,
    quarantine: Quarantine,
    regions: GuardedRegions,
    /// Where each live tracked buffer (patched OF or UAF) goes once freed,
    /// by user pointer. A free of a tracked buffer that is not here (freed
    /// already, whether quarantined, evicted or released) stops as a
    /// double free.
    tracked: FastMap<Addr, Home>,
    stats: DefenseStats,
    /// `(hits, bytes)` per patch-table slot, counted on every placed
    /// table hit, armed or not.
    per_slot: Vec<(u64, u64)>,
    /// The recorder, present only when the configuration enables
    /// telemetry. Frees and evictions find their slot in the buffer's
    /// metadata word and quarantine entry.
    telemetry: Option<Box<Recorder>>,
}

impl DefendedBackend<FreeListAllocator> {
    /// A defended backend over the free-list allocator.
    pub fn new(cfg: DefenseConfig) -> Self {
        Self::with_allocator(FreeListAllocator::new(), cfg)
    }
}

impl<A: BaseAllocator> DefendedBackend<A> {
    /// A defended backend over a caller-chosen inner allocator —
    /// HeapTherapy+ is allocator-agnostic.
    pub fn with_allocator(inner: A, cfg: DefenseConfig) -> Self {
        Self {
            plain: PlainBackend::with_allocator(inner),
            quarantine: Quarantine::new(cfg.quarantine_quota),
            regions: GuardedRegions::default(),
            tracked: FastMap::default(),
            stats: DefenseStats::default(),
            per_slot: vec![(0, 0); cfg.patches().len()],
            telemetry: cfg.telemetry.then(|| Box::new(Recorder::new(true))),
            cfg,
        }
    }

    /// Defense counters.
    pub fn stats(&self) -> DefenseStats {
        self.stats
    }

    /// Quarantine state (for tests and the quota ablation).
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Counts a placed table hit of `slot` and records its events.
    fn note_hit(&mut self, slot: usize, vuln: VulnFlags, size: u64) {
        let c = &mut self.per_slot[slot];
        *c = (c.0 + 1, c.1 + size);
        if let Some(rec) = &self.telemetry {
            rec.hit(self.cfg.patches(), slot, vuln, size);
        }
    }

    /// Drains and returns everything telemetry observed so far, or `None`
    /// when the configuration disabled telemetry. Ring events drain
    /// destructively; per-patch counters and reports are cumulative.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let rec = self.telemetry.as_ref()?;
        Some(rec.snapshot(self.cfg.patches(), &self.per_slot))
    }

    /// Allocates one defended buffer (Structures 1–4) whose word records
    /// patch-table slot `slot`.
    fn defended_alloc(
        &mut self,
        fun: AllocFn,
        size: u64,
        align: u64,
        vuln: VulnFlags,
        slot: Option<usize>,
    ) -> Result<Addr, StopCause> {
        let structure = BufferStructure::select(fun, vuln);
        let layout = Layout::plan(structure, size, align);
        let align_log2 = structure
            .is_aligned()
            .then(|| layout.raw_align.trailing_zeros() as u8);
        let (space, inner) = self.plain.parts_mut();
        let (user, meta, home) = if structure.has_guard() {
            if !layout.raw_align.is_power_of_two() {
                return Err(StopCause::misuse(AllocError::BadAlign(layout.raw_align)));
            }
            let (region, reused) = self
                .regions
                .take(space, &layout)
                .map_err(StopCause::misuse)?;
            let user = layout.user_addr(region.base);
            // The body must read zero: UR and `calloc` rely on it below, and
            // an overread is stopped *at* the guard, so the slack before it
            // must not carry stale data. A reused region still holds its
            // last buffer's bytes and is zeroed whole. A fresh one reads
            // zero already; only its slack is written, so that the page a
            // guarded buffer ends in is resident either way.
            let from = if reused { region.base } else { user + size };
            space
                .fill_raw(from, region.guard() - from, 0)
                .map_err(StopCause::misuse)?;
            // User size lives in the first word of the guard page.
            space
                .write_u64_raw(region.guard(), size)
                .map_err(StopCause::misuse)?;
            self.stats.guard_pages += 1;
            let meta = MetaWord::guarded(vuln, region.guard(), align_log2);
            (user, meta, Home::Region(region))
        } else {
            let raw = if structure.is_aligned() {
                inner.memalign(space, layout.raw_align, layout.raw_size)
            } else {
                inner.malloc(space, layout.raw_size)
            }
            .map_err(StopCause::misuse)?;
            let meta = MetaWord::unguarded(vuln, size, align_log2);
            (layout.user_addr(raw), meta, Home::Inner(raw))
        };
        if is_tracked(vuln) {
            self.tracked.insert(user, home);
        }
        space
            .write_u64_raw(user - META_SIZE, meta.with_slot(slot.unwrap_or(0)).0)
            .map_err(StopCause::misuse)?;
        if vuln.contains(VulnFlags::UNINIT_READ) || fun == AllocFn::Calloc {
            if !structure.has_guard() {
                space.fill_raw(user, size, 0).map_err(StopCause::misuse)?;
            }
            self.stats.zero_fill_bytes += size;
        }
        Ok(user)
    }

    /// The miss path of `malloc`, `calloc` and a `realloc` with no old
    /// pointer: one Structure 1 block whose word has no type bits, zeroed
    /// for `calloc`. What [`Self::defended_alloc`] does for a miss, in one
    /// inner call and one word.
    #[inline]
    fn unpatched_alloc(&mut self, size: u64, zeroed: bool) -> Result<Addr, StopCause> {
        let (space, inner) = self.plain.parts_mut();
        let raw = inner
            .malloc(space, META_SIZE + size)
            .map_err(StopCause::misuse)?;
        let user = raw + META_SIZE;
        let meta = MetaWord::unguarded(VulnFlags::NONE, size, None);
        space
            .write_u64_raw(raw, meta.0)
            .map_err(StopCause::misuse)?;
        if zeroed {
            space.fill_raw(user, size, 0).map_err(StopCause::misuse)?;
            self.stats.zero_fill_bytes += size;
        }
        Ok(user)
    }

    /// Every allocation but a miss of [`Self::unpatched_alloc`]: a table
    /// hit, `memalign`, or `realloc` of a live pointer.
    #[cold]
    #[inline(never)]
    fn alloc_general(
        &mut self,
        req: &AllocRequest,
        vuln: VulnFlags,
        slot: Option<usize>,
    ) -> Result<Addr, StopCause> {
        let user = match (req.fun, req.old_ptr) {
            (AllocFn::Realloc, Some(old)) => {
                // Paper Section V: the buffer's CCID is updated to the
                // realloc-time context — the new buffer is enhanced per the
                // *realloc* patch lookup.
                let old_meta = self.read_meta(old)?;
                let old_size = self.user_size(old_meta)?;
                let user =
                    self.defended_alloc(AllocFn::Realloc, req.size, req.align, vuln, slot)?;
                let keep = old_size.min(req.size);
                if keep > 0 {
                    self.plain
                        .parts_mut()
                        .0
                        .copy_raw(old, user, keep)
                        .map_err(StopCause::misuse)?;
                }
                self.stats.interposed_frees += 1;
                self.defended_free(old, old_meta)?;
                user
            }
            _ => self.defended_alloc(req.fun, req.size, req.align, vuln, slot)?,
        };
        if let Some(slot) = slot {
            self.note_hit(slot, vuln, req.size);
        }
        Ok(user)
    }

    /// Reads the metadata of a previously defended buffer.
    #[inline]
    fn read_meta(&self, user: Addr) -> Result<MetaWord, StopCause> {
        self.plain
            .space()
            .read_u64_raw(user - META_SIZE)
            .map(MetaWord)
            .map_err(StopCause::misuse)
    }

    /// The user size of a defended buffer.
    fn user_size(&self, meta: MetaWord) -> Result<u64, StopCause> {
        if meta.has_guard() {
            self.plain
                .space()
                .read_u64_raw(meta.guard_page())
                .map_err(StopCause::misuse)
        } else {
            Ok(meta.size())
        }
    }

    /// The free-path of paper Fig. 7, for the buffer at `user` whose word
    /// is `meta`. A guarded buffer's region keeps its guard page
    /// `PROT_NONE` whether it is quarantined or retired.
    #[cold]
    #[inline(never)]
    fn defended_free(&mut self, user: Addr, meta: MetaWord) -> Result<(), StopCause> {
        let home = if is_tracked(meta.vuln()) {
            self.tracked
                .remove(&user)
                .ok_or_else(|| StopCause::misuse(AllocError::DoubleFree(user)))?
        } else {
            // Recover the inner pointer.
            Home::Inner(Layout::inner_ptr(meta.is_aligned(), meta.alignment(), user))
        };
        if !meta.vuln().contains(VulnFlags::USE_AFTER_FREE) {
            return self.release(home);
        }
        let size = self.user_size(meta)?;
        let block = QuarantinedBlock {
            home,
            size,
            slot: meta.slot() as u32,
        };
        self.stats.quarantined_blocks += 1;
        if let Some(rec) = &self.telemetry {
            rec.defer(self.cfg.patches(), block.slot as usize, size);
        }
        for b in self.quarantine.push(block) {
            if let Some(rec) = &self.telemetry {
                rec.evict(self.cfg.patches(), b.slot as usize, b.size);
            }
            self.release(b.home)?;
        }
        Ok(())
    }

    /// Gives a freed or evicted block back for reuse.
    fn release(&mut self, home: Home) -> Result<(), StopCause> {
        match home {
            Home::Inner(ptr) => {
                let (space, inner) = self.plain.parts_mut();
                inner.free(space, ptr).map_err(StopCause::misuse)
            }
            Home::Region(region) => {
                self.regions.retire(region);
                Ok(())
            }
        }
    }
}

/// Whether a buffer patched with `vuln` is tracked from its allocation to
/// its free: a guarded (OF) buffer's region and a quarantined (UAF)
/// buffer's block must go back exactly once.
fn is_tracked(vuln: VulnFlags) -> bool {
    vuln.contains(VulnFlags::OVERFLOW) || vuln.contains(VulnFlags::USE_AFTER_FREE)
}

impl<A: BaseAllocator> HeapBackend for DefendedBackend<A> {
    /// A miss of `malloc`, `calloc` or a `realloc` with no old pointer
    /// takes the inline miss path; everything else the cold one.
    #[inline]
    fn alloc(&mut self, req: &AllocRequest) -> Result<Addr, StopCause> {
        self.stats.interposed_allocs += 1;
        let Some(table) = &self.cfg.table else {
            // Interposition-only: forward untouched.
            return self.plain.alloc(req);
        };
        let hit = table
            .probe(req.fun, req.ccid.0)
            .filter(|(_, vuln)| !vuln.is_empty());
        self.stats.table_lookups += 1;
        self.stats.table_hits += u64::from(hit.is_some());
        let (slot, vuln) = hit.unzip();
        let vuln = vuln.unwrap_or(VulnFlags::NONE);
        let miss = slot.is_none()
            && match req.fun {
                AllocFn::Malloc | AllocFn::Calloc => true,
                AllocFn::Realloc => req.old_ptr.is_none(),
                AllocFn::Memalign => false,
            };
        if miss {
            self.unpatched_alloc(req.size, req.fun == AllocFn::Calloc)
        } else {
            self.alloc_general(req, vuln, slot)
        }
    }

    /// One word read; a plain word (no type bits, not aligned) frees its
    /// Structure 1 block straight to the inner allocator.
    #[inline]
    fn free(&mut self, ptr: Addr) -> Result<(), StopCause> {
        self.stats.interposed_frees += 1;
        if self.cfg.table.is_none() {
            return self.plain.free(ptr);
        }
        let meta = self.read_meta(ptr)?;
        if !meta.is_plain() {
            return self.defended_free(ptr, meta);
        }
        let (space, inner) = self.plain.parts_mut();
        inner
            .free(space, ptr - META_SIZE)
            .map_err(StopCause::misuse)
    }

    fn write(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), StopCause> {
        self.plain.write(addr, len, byte)
    }

    fn read(&mut self, addr: Addr, len: u64, sink: Sink) -> ReadResult {
        self.plain.read(addr, len, sink)
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), StopCause> {
        self.plain.copy(src, dst, len)
    }

    /// Counts the access a guard page stopped and records its trip.
    fn fault(&mut self, _cause: &StopCause) {
        self.stats.blocked_accesses += 1;
        if let Some(rec) = &self.telemetry {
            rec.trip();
        }
    }

    fn mem_stats(&self) -> Option<(SpaceStats, AllocStats)> {
        self.plain.mem_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_callgraph::FuncId;
    use ht_encoding::Ccid;
    use ht_memsim::{BumpAllocator, FaultKind, PAGE_SIZE};
    use ht_patch::Patch;
    use ht_telemetry::EventKind;

    fn req(fun: AllocFn, size: u64, ccid: u64) -> AllocRequest {
        AllocRequest {
            fun,
            size,
            align: 16,
            ccid: Ccid(ccid),
            target: FuncId(0),
            old_ptr: None,
        }
    }

    fn table(fun: AllocFn, ccid: u64, vuln: VulnFlags) -> PatchTable {
        PatchTable::from_patches([Patch::new(fun, ccid, vuln)])
    }

    const VULN: u64 = 0xBAD;
    const SAFE: u64 = 0x600D;

    #[test]
    fn the_backend_holds_its_patch_table_by_pointer() {
        let size = std::mem::size_of::<DefendedBackend>();
        assert!(
            size <= 1024,
            "DefendedBackend is {size} B: the {} B PatchTable belongs behind \
             DefenseConfig::table's Box, not inline in every move of the backend",
            std::mem::size_of::<PatchTable>()
        );
    }

    #[test]
    fn unpatched_buffers_behave_normally() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let p = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        assert!(d.write(p, 64, 0xAA).is_ok());
        let r = d.read(p, 64, Sink::Discard);
        assert_eq!(r.data, vec![0xAA; 64]);
        assert!(d.free(p).is_ok());
        let st = d.stats();
        assert_eq!(st.guard_pages, 0);
        assert_eq!(st.table_lookups, 1);
        assert_eq!(st.table_hits, 0);
    }

    /// The metadata word in front of the buffer at `p`.
    fn word_before<A: BaseAllocator>(d: &DefendedBackend<A>, p: Addr) -> MetaWord {
        MetaWord(d.plain.space().read_u64_raw(p - META_SIZE).unwrap())
    }

    #[test]
    fn a_miss_writes_the_plain_word_of_its_size() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::ALL,
        )));
        for (fun, size) in [
            (AllocFn::Malloc, 1),
            (AllocFn::Calloc, 100),
            (AllocFn::Realloc, 4096),
            (AllocFn::Malloc, 70_000),
        ] {
            let p = d.alloc(&req(fun, size, SAFE)).unwrap();
            let word = word_before(&d, p);
            assert_eq!(word.0, MetaWord::unguarded(VulnFlags::NONE, size, None).0);
            assert!(word.is_plain());
        }
        let st = d.stats();
        assert_eq!((st.table_lookups, st.table_hits), (4, 0));
        assert_eq!(st.zero_fill_bytes, 100, "only the calloc is zeroed");
    }

    #[test]
    fn a_double_free_of_a_miss_buffer_stops() {
        let mut d = DefendedBackend::new(DefenseConfig::default());
        let p = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        assert!(d.free(p).is_ok());
        match d.free(p) {
            Err(StopCause::HeapMisuse(m)) => {
                assert!(m.contains("double free"), "{m}");
            }
            other => panic!("expected a heap-misuse stop, got {other:?}"),
        }
        assert_eq!(d.stats().interposed_frees, 2);
    }

    #[test]
    fn memalign_and_realloc_misses_keep_the_general_path() {
        let mut d = DefendedBackend::new(DefenseConfig::default());
        // A memalign miss is Structure 3: aligned, with the aligned bit.
        let mut r = req(AllocFn::Memalign, 100, SAFE);
        r.align = 256;
        let a = d.alloc(&r).unwrap();
        assert_eq!(a % 256, 0);
        let word = word_before(&d, a);
        assert_eq!(word.0, MetaWord::unguarded(VulnFlags::NONE, 100, Some(8)).0);
        assert!(word.is_aligned() && !word.is_plain());
        assert!(d.free(a).is_ok(), "pi = p − A on the cold free path");
        // A realloc of a live pointer copies the prefix and frees the old.
        let p = d.alloc(&req(AllocFn::Malloc, 48, SAFE)).unwrap();
        d.write(p, 48, 0x5C).unwrap();
        let mut r = req(AllocFn::Realloc, 5000, SAFE);
        r.old_ptr = Some(p);
        let q = d.alloc(&r).unwrap();
        assert_ne!(q, p);
        assert_eq!(d.read(q, 48, Sink::Discard).data, vec![0x5C; 48]);
        assert_eq!(
            word_before(&d, q).0,
            MetaWord::unguarded(VulnFlags::NONE, 5000, None).0
        );
        let st = d.stats();
        assert_eq!((st.interposed_allocs, st.interposed_frees), (3, 2));
        assert!(d.free(p).is_err(), "the old buffer was freed");
        assert!(d.free(q).is_ok());
    }

    #[test]
    fn overflow_patch_blocks_overwrite_at_guard() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let p = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        assert_eq!(d.stats().guard_pages, 1);
        assert!(d.write(p, 100, 0x41).is_ok(), "in-bounds fine");
        // A long contiguous overflow is stopped at the page boundary.
        match d.write(p, 100_000, 0x41) {
            Err(cause @ StopCause::Segfault { addr, write: true }) => {
                assert_eq!(addr % PAGE_SIZE, 0, "fault exactly at the guard page");
                assert!(addr >= p + 100 && addr - (p + 100) < PAGE_SIZE);
                d.fault(&cause);
            }
            other => panic!("expected guard fault, got {other:?}"),
        }
        assert_eq!(d.stats().blocked_accesses, 1);
    }

    #[test]
    fn overflow_patch_blocks_overread() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let p = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        d.write(p, 100, 0x41).unwrap();
        let r = d.read(p, 100_000, Sink::Leak);
        assert!(r.outcome.is_err(), "overread blocked");
        assert!(
            r.data.len() < 100 + PAGE_SIZE as usize,
            "leak capped at guard"
        );
    }

    #[test]
    fn uaf_patch_defers_reuse() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::USE_AFTER_FREE,
        )));
        let p = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
        d.write(p, 64, 0x01).unwrap();
        assert!(d.free(p).is_ok());
        assert_eq!(d.quarantine().len(), 1);
        // Attacker's same-size allocation must not land on the block.
        let q = d
            .alloc(&req(AllocFn::Malloc, 64 + META_SIZE, SAFE))
            .unwrap();
        assert_ne!(q, p);
        d.write(q, 64, 0x66).unwrap();
        // Dangling read sees stale victim data, not attacker bytes.
        let r = d.read(p, 8, Sink::Addr);
        assert_eq!(r.data, vec![0x01; 8], "no hijack: stale data only");
    }

    #[test]
    fn unpatched_free_is_promptly_reused() {
        // Contrast with the UAF test: without a patch the inner allocator's
        // LIFO behaviour shows through (the defense adds nothing).
        let mut d = DefendedBackend::new(DefenseConfig::default());
        let p = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        d.free(p).unwrap();
        let q = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        assert_eq!(q, p, "same raw block recycled immediately");
    }

    #[test]
    fn ur_patch_zero_fills() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::UNINIT_READ,
        )));
        // Pollute two blocks through an unpatched context and free both.
        let warm1 = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        d.write(warm1, 64, 0xEE).unwrap();
        let warm2 = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        d.write(warm2, 64, 0xEE).unwrap();
        d.free(warm1).unwrap();
        d.free(warm2).unwrap();
        // Patched context reuses the LIFO head (warm2): must come back zeroed.
        let q = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
        let r = d.read(q, 64, Sink::Leak);
        assert_eq!(r.data, vec![0u8; 64], "nothing but zeros leaks");
        assert_eq!(d.stats().zero_fill_bytes, 64);
        // An unpatched sibling (reusing warm1) still sees stale bytes —
        // the defense is targeted, not global.
        let s = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        let r = d.read(s, 64, Sink::Leak);
        assert_eq!(r.data, vec![0xEE; 64], "unpatched context untouched");
    }

    #[test]
    fn memalign_patched_gets_structure_4() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Memalign,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let mut r = req(AllocFn::Memalign, 1000, VULN);
        r.align = 256;
        let p = d.alloc(&r).unwrap();
        assert_eq!(p % 256, 0, "alignment honored");
        assert!(d.write(p, 1000, 1).is_ok());
        assert!(d.write(p, 50_000, 1).is_err(), "guard present");
        assert!(d.free(p).is_ok());
    }

    /// Whether the page at `addr` refuses reads, as a `PROT_NONE` guard
    /// page does.
    fn guarded<A: BaseAllocator>(d: &DefendedBackend<A>, addr: Addr) -> bool {
        let fault = d.plain.space().read(addr, &mut [0; 1]).unwrap_err();
        fault.kind == FaultKind::ReadProtected
    }

    #[test]
    fn a_recycled_region_keeps_its_guard_and_reads_zero() {
        // (fun, size, align, body pages, resident pages after the first
        // allocation and after each later one). Structure 4 puts the
        // buffer `align` bytes into its region, so a tenant can write
        // below it without touching the word. A reuse zeroes the whole
        // body, so from then on every body page and the guard page are
        // resident, whichever pages the zero fill could skip.
        let cases = [
            (AllocFn::Malloc, 5000, 16, 2, [3, 3]),
            (AllocFn::Memalign, 3 * PAGE_SIZE, 512, 4, [3, 5]),
        ];
        for (fun, size, align, pages, resident) in cases {
            let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
                fun,
                VULN,
                VulnFlags::OVERFLOW,
            )));
            let mut r = req(fun, size, VULN);
            r.align = align;
            let mut first = None;
            for round in 0..100 {
                let p = d.alloc(&r).unwrap();
                assert_eq!(p, *first.get_or_insert(p), "the retired region is reused");
                let (word, end) = (p - META_SIZE, (p + size).next_multiple_of(PAGE_SIZE));
                let base = end - pages * PAGE_SIZE;
                let rss = resident[usize::from(round > 0)] * PAGE_SIZE;
                let st = d.mem_stats().unwrap().0;
                assert_eq!((st.rss_bytes, st.peak_rss_bytes), (rss, rss), "{fun:?}");
                // All of `[region, guard)` but the word reads zero, though
                // the last tenant wrote all of it.
                let body = d.read(base, end - base, Sink::Discard);
                assert_eq!(body.outcome, Ok(()));
                for (a, &b) in (base..).zip(&body.data) {
                    let stale = b != 0 && !(word..p).contains(&a);
                    assert!(!stale, "{fun:?}: stale byte at region + {}", a - base);
                }
                // An underflow no guard stops, then a write one byte past
                // the page-rounded end, which faults at the guard.
                d.write(base, word - base, 0xEE).unwrap();
                match d.write(p, end - p + 1, 0xEE) {
                    Err(StopCause::Segfault { addr, write: true }) => assert_eq!(addr, end),
                    other => panic!("expected a guard fault, got {other:?}"),
                }
                d.free(p).unwrap();
                assert!(guarded(&d, end), "a retired region keeps its guard");
            }
            let (space, inner) = d.mem_stats().unwrap();
            assert_eq!((space.maps, space.protects), (1, 1), "one region mapped");
            assert_eq!(inner, AllocStats::default(), "no guarded buffer is inner");
            assert_eq!(d.stats().guard_pages, 100);
        }
    }

    #[test]
    fn a_quota_evicted_overflow_uaf_region_is_reused() {
        let mut cfg = DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE,
        ));
        cfg.quarantine_quota = 100;
        let mut d = DefendedBackend::new(cfg);
        let p = d.alloc(&req(AllocFn::Malloc, 80, VULN)).unwrap();
        d.write(p, 80, 0x11).unwrap();
        d.free(p).unwrap();
        assert_eq!(d.quarantine().len(), 1);
        let guard = (p + 80).next_multiple_of(PAGE_SIZE);
        assert!(guarded(&d, guard), "a quarantined region keeps its guard");
        assert_eq!(d.read(p, 8, Sink::Addr).data, vec![0x11; 8], "not reused");
        let q = d.alloc(&req(AllocFn::Malloc, 80, VULN)).unwrap();
        assert_ne!(q, p, "a quarantined region is not handed out");
        d.free(q).unwrap(); // evicts p's block
        assert_eq!(d.quarantine().evictions(), 1);
        let r = d.alloc(&req(AllocFn::Malloc, 80, VULN)).unwrap();
        assert_eq!(r, p, "the evicted region is reused");
        assert_eq!(d.read(r, 80, Sink::Discard).data, vec![0; 80]);
        assert!(guarded(&d, guard));
        let (space, inner) = d.mem_stats().unwrap();
        assert_eq!((space.maps, space.protects), (2, 2));
        assert_eq!(inner, AllocStats::default());
    }

    #[test]
    fn a_second_free_of_a_tracked_buffer_stops_as_a_double_free() {
        let double_free = |result: Result<(), StopCause>, vuln: VulnFlags| match result {
            Err(StopCause::HeapMisuse(m)) => assert!(m.contains("double free"), "{vuln}: {m}"),
            other => panic!("{vuln}: expected a heap-misuse stop, got {other:?}"),
        };
        let uaf = VulnFlags::USE_AFTER_FREE;
        for vuln in [
            VulnFlags::OVERFLOW,
            VulnFlags::OVERFLOW | uaf,
            uaf,
            uaf | VulnFlags::UNINIT_READ,
        ] {
            let cfg = || DefenseConfig::with_table(table(AllocFn::Malloc, VULN, vuln));
            let mut d = DefendedBackend::new(cfg());
            let p = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
            d.free(p).unwrap();
            double_free(d.free(p), vuln);
            let held = usize::from(vuln.contains(uaf));
            assert_eq!(d.quarantine().len(), held, "{vuln}: quarantined once");
            assert_eq!(d.stats().quarantined_blocks, held as u64, "{vuln}");
            let retired = usize::from(vuln == VulnFlags::OVERFLOW);
            assert_eq!(d.regions.cached(), retired, "{vuln}: retired once");
            let a = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
            let b = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
            assert_ne!(a, b, "{vuln}: one block handed out twice");
            assert_eq!(d.regions.cached(), 0, "{vuln}");
            if held == 0 {
                continue;
            }
            // Freed again after the quota evicted it.
            let mut d = DefendedBackend::new(DefenseConfig {
                quarantine_quota: 64,
                ..cfg()
            });
            let p = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
            let q = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
            d.free(p).unwrap();
            d.free(q).unwrap();
            assert_eq!(d.quarantine().evictions(), 1, "{vuln}: p evicted");
            double_free(d.free(p), vuln);
            assert_eq!(d.quarantine().len(), 1, "{vuln}: only q held");
            assert_eq!(d.stats().quarantined_blocks, 2, "{vuln}");
            let retired = usize::from(vuln.contains(VulnFlags::OVERFLOW));
            assert_eq!(d.regions.cached(), retired, "{vuln}: retired once");
        }
    }

    #[test]
    fn a_guarded_alignment_above_a_page_has_its_own_regions() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(PatchTable::from_patches([
            Patch::new(AllocFn::Memalign, VULN, VulnFlags::OVERFLOW),
            Patch::new(AllocFn::Malloc, VULN, VulnFlags::OVERFLOW),
        ])));
        let mut r = req(AllocFn::Memalign, 100, VULN);
        r.align = 4 * PAGE_SIZE;
        let p = d.alloc(&r).unwrap();
        assert_eq!(p % r.align, 0, "alignment honored");
        // [pad = align][user]: four pad pages, one body page, the guard.
        assert!(d.write(p, PAGE_SIZE, 1).is_ok());
        assert!(d.write(p, PAGE_SIZE + 1, 1).is_err(), "guard present");
        d.free(p).unwrap();
        // A malloc of as many body pages does not take the aligned region.
        let m = d.alloc(&req(AllocFn::Malloc, 4 * PAGE_SIZE, VULN)).unwrap();
        assert_ne!(m - META_SIZE, p - r.align);
        assert_eq!(d.alloc(&r).unwrap(), p, "the aligned region is reused");
        assert_eq!(d.mem_stats().unwrap().0.maps, 2);
        r.align = 3 * PAGE_SIZE;
        match d.alloc(&r) {
            Err(StopCause::HeapMisuse(m)) => assert!(m.contains("bad alignment"), "{m}"),
            other => panic!("expected a heap-misuse stop, got {other:?}"),
        }
    }

    #[test]
    fn realloc_reprobes_under_new_context() {
        // The realloc-time CCID decides the defense (paper Section V).
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Realloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let p = d.alloc(&req(AllocFn::Malloc, 32, SAFE)).unwrap();
        d.write(p, 32, 0x22).unwrap();
        let mut r = req(AllocFn::Realloc, 64, VULN);
        r.old_ptr = Some(p);
        let q = d.alloc(&r).unwrap();
        // Content preserved.
        let got = d.read(q, 32, Sink::Discard);
        assert_eq!(got.data, vec![0x22; 32]);
        // New buffer is guarded.
        assert!(d.write(q, 10_000, 1).is_err());
    }

    #[test]
    fn realloc_shrink_keeps_prefix() {
        let mut d = DefendedBackend::new(DefenseConfig::default());
        let p = d.alloc(&req(AllocFn::Malloc, 100, SAFE)).unwrap();
        d.write(p, 100, 0x77).unwrap();
        let mut r = req(AllocFn::Realloc, 10, SAFE);
        r.old_ptr = Some(p);
        let q = d.alloc(&r).unwrap();
        let got = d.read(q, 10, Sink::Discard);
        assert_eq!(got.data, vec![0x77; 10]);
    }

    #[test]
    fn quarantine_quota_eviction_releases_to_inner() {
        let mut cfg =
            DefenseConfig::with_table(table(AllocFn::Malloc, VULN, VulnFlags::USE_AFTER_FREE));
        cfg.quarantine_quota = 100;
        let mut d = DefendedBackend::new(cfg);
        let p1 = d.alloc(&req(AllocFn::Malloc, 80, VULN)).unwrap();
        let p2 = d.alloc(&req(AllocFn::Malloc, 80, VULN)).unwrap();
        d.free(p1).unwrap();
        d.free(p2).unwrap(); // evicts p1's block
        assert_eq!(d.quarantine().len(), 1);
        assert_eq!(d.quarantine().evictions(), 1);
        assert_eq!(d.stats().quarantined_blocks, 2);
    }

    #[test]
    fn multi_vulnerability_patch_applies_all_defenses() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::ALL,
        )));
        // Pre-pollute the size class.
        let warm = d.alloc(&req(AllocFn::Malloc, 6000, SAFE)).unwrap();
        d.write(warm, 6000, 0xEE).unwrap();
        d.free(warm).unwrap();
        let p = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        // UR: zeroed.
        let r = d.read(p, 100, Sink::Leak);
        assert_eq!(r.data, vec![0u8; 100]);
        // OF: guarded.
        assert!(d.write(p, 9_000, 1).is_err());
        // UAF: deferred.
        d.free(p).unwrap();
        assert_eq!(d.quarantine().len(), 1);
    }

    #[test]
    fn interpose_only_forwards_everything() {
        let mut d = DefendedBackend::new(DefenseConfig::interpose_only());
        let p = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
        d.write(p, 64, 1).unwrap();
        assert!(d.free(p).is_ok());
        let st = d.stats();
        assert_eq!(st.interposed_allocs, 1);
        assert_eq!(st.interposed_frees, 1);
        assert_eq!(st.table_lookups, 0, "no probe without metadata");
        // calloc zeroes even here.
        let c = d.alloc(&req(AllocFn::Calloc, 32, SAFE)).unwrap();
        let r = d.read(c, 32, Sink::Discard);
        assert_eq!(r.data, vec![0u8; 32]);
    }

    #[test]
    fn interpose_only_with_telemetry_files_nothing() {
        let mut d = DefendedBackend::new(DefenseConfig {
            telemetry: true,
            ..DefenseConfig::interpose_only()
        });
        let p = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
        assert!(d.free(p).is_ok());
        let snap = d.telemetry_snapshot().expect("armed");
        assert!(snap.is_empty(), "{snap:?}");
        assert_eq!(d.stats().table_lookups, 0);
    }

    #[test]
    fn allocator_independence_bump_allocator() {
        // The same defenses over a completely different inner allocator.
        let mut d = DefendedBackend::with_allocator(
            BumpAllocator::new(),
            DefenseConfig::with_table(table(AllocFn::Malloc, VULN, VulnFlags::OVERFLOW)),
        );
        let p = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        assert!(d.write(p, 100, 1).is_ok());
        assert!(d.write(p, 50_000, 1).is_err(), "guard works over bump too");
        assert!(d.free(p).is_ok());
    }

    #[test]
    fn guard_all_ablation_guards_everything() {
        // "Guard every buffer" is a table with OVERFLOW on every context.
        let every = (0..10u64).map(|i| Patch::new(AllocFn::Malloc, i, VulnFlags::OVERFLOW));
        let mut d =
            DefendedBackend::new(DefenseConfig::with_table(PatchTable::from_patches(every)));
        for i in 0..10u64 {
            let p = d.alloc(&req(AllocFn::Malloc, 64, i)).unwrap();
            assert!(d.write(p, 10_000, 1).is_err(), "every buffer guarded");
            d.free(p).unwrap();
        }
        assert_eq!(d.stats().guard_pages, 10);
    }

    #[test]
    fn calloc_still_zeroes_under_defense() {
        let mut d = DefendedBackend::new(DefenseConfig::default());
        let p = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        d.write(p, 64, 0xFF).unwrap();
        d.free(p).unwrap();
        let q = d.alloc(&req(AllocFn::Calloc, 64, SAFE)).unwrap();
        assert_eq!(q, p, "the stale block is recycled");
        let r = d.read(q, 64, Sink::Discard);
        assert_eq!(r.data, vec![0u8; 64]);
        assert_eq!(d.stats().zero_fill_bytes, 64);
    }

    #[test]
    fn copy_respects_guard_pages() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let src = d.alloc(&req(AllocFn::Malloc, 8192, SAFE)).unwrap();
        d.write(src, 8192, 0x11).unwrap();
        let dst = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        // In-bounds memcpy is fine.
        assert!(d.copy(src, dst, 100).is_ok());
        // An oversized memcpy into the guarded buffer traps at the guard.
        match d.copy(src, dst, 8192) {
            Err(cause @ StopCause::Segfault { addr, write: true }) => {
                assert_eq!(addr % PAGE_SIZE, 0, "stopped at the guard page");
                d.fault(&cause);
            }
            other => panic!("expected guard fault, got {other:?}"),
        }
        assert!(d.stats().blocked_accesses >= 1);
        // Reading out of the guarded buffer as a memcpy source is capped too.
        let r = d.copy(dst, src, 8192);
        assert!(r.is_err(), "overread via memcpy blocked");
    }

    fn telemetry_cfg(table: PatchTable) -> DefenseConfig {
        DefenseConfig {
            telemetry: true,
            ..DefenseConfig::with_table(table)
        }
    }

    #[test]
    fn telemetry_disabled_by_default_and_stateless() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let p = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
        assert!(d.write(p, 10_000, 1).is_err());
        assert!(
            d.telemetry_snapshot().is_none(),
            "disabled telemetry has no snapshot, even after defenses fired"
        );
    }

    #[test]
    fn telemetry_files_one_report_per_t_and_counts_hits() {
        let mut d =
            DefendedBackend::new(telemetry_cfg(table(AllocFn::Malloc, VULN, VulnFlags::ALL)));
        for _ in 0..3 {
            let p = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
            d.free(p).unwrap();
        }
        let snap = d.telemetry_snapshot().unwrap();
        // Exactly one report per (FUN, CCID, T) despite three activations.
        assert_eq!(
            snap.reports.len(),
            3,
            "one report per T bit: {:?}",
            snap.reports
        );
        for t in [
            VulnFlags::OVERFLOW,
            VulnFlags::USE_AFTER_FREE,
            VulnFlags::UNINIT_READ,
        ] {
            let matching: Vec<_> = snap.reports.iter().filter(|r| r.vuln == t).collect();
            assert_eq!(matching.len(), 1, "exactly one report for {t:?}");
            assert_eq!(matching[0].fun, AllocFn::Malloc);
            assert_eq!(matching[0].ccid, VULN);
            assert_eq!(matching[0].slot, 0);
        }
        // Per-patch counters accumulate every hit.
        assert_eq!(snap.per_patch.len(), 1);
        assert_eq!(snap.per_patch[0].hits, 3);
        assert_eq!(snap.per_patch[0].bytes, 300);
        // Event stream: 3 hits, 3 guard installs, 3 zero-inits, 3 defers,
        // 3 reports (one per T).
        let count = |k: EventKind| snap.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::PatchHit), 3);
        assert_eq!(count(EventKind::GuardInstall), 3);
        assert_eq!(count(EventKind::ZeroInit), 3);
        assert_eq!(count(EventKind::QuarantineDefer), 3);
        assert_eq!(count(EventKind::AttackReported), 3);
        assert_eq!(snap.dropped, 0);
        // A second snapshot drains nothing new but keeps cumulative state.
        let again = d.telemetry_snapshot().unwrap();
        assert!(again.events.is_empty(), "ring drained destructively");
        assert_eq!(again.reports.len(), 3, "reports are cumulative");
        assert_eq!(again.per_patch[0].hits, 3);
    }

    #[test]
    fn telemetry_attributes_guard_trips_and_evictions() {
        let mut cfg = telemetry_cfg(table(AllocFn::Malloc, VULN, VulnFlags::USE_AFTER_FREE));
        cfg.quarantine_quota = 100;
        let mut d = DefendedBackend::new(cfg);
        let p1 = d.alloc(&req(AllocFn::Malloc, 80, VULN)).unwrap();
        let p2 = d.alloc(&req(AllocFn::Malloc, 80, VULN)).unwrap();
        d.free(p1).unwrap();
        d.free(p2).unwrap(); // quota forces p1's block out
        let snap = d.telemetry_snapshot().unwrap();
        let evicts: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::QuarantineEvict)
            .collect();
        assert_eq!(evicts.len(), 1);
        assert_eq!(evicts[0].slot, 0, "eviction resolves back to the patch");
        assert_eq!(evicts[0].ccid, VULN);
        assert_eq!(evicts[0].size, 80);
        // Only the first deferred free files the UAF report.
        assert_eq!(snap.reports.len(), 1);
        assert_eq!(snap.reports[0].vuln, VulnFlags::USE_AFTER_FREE);
    }

    #[test]
    fn telemetry_records_blocked_accesses_as_guard_trips() {
        let mut d = DefendedBackend::new(telemetry_cfg(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let p = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        let Err(cause) = d.write(p, 50_000, 1) else {
            panic!("the overflow passed the guard");
        };
        d.fault(&cause);
        let r = d.read(p, 50_000, Sink::Leak);
        let Err(cause) = r.outcome else {
            panic!("the overread passed the guard");
        };
        d.fault(&cause);
        let snap = d.telemetry_snapshot().unwrap();
        let trips = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::GuardTrip)
            .count();
        assert_eq!(trips, 2, "write + read both tripped the guard");
    }

    #[test]
    fn telemetry_does_not_change_defense_behavior() {
        // The same workload with telemetry on and off must produce identical
        // allocation results, stats, and quarantine state (observation only;
        // the cross-crate proptest widens this to random workloads).
        let run = |telemetry: bool| {
            let mut cfg = DefenseConfig::with_table(table(AllocFn::Malloc, VULN, VulnFlags::ALL));
            cfg.telemetry = telemetry;
            cfg.quarantine_quota = 200;
            let mut d = DefendedBackend::new(cfg);
            let mut log = Vec::new();
            for i in 0..20u64 {
                let ccid = if i % 3 == 0 { VULN } else { SAFE };
                let p = d.alloc(&req(AllocFn::Malloc, 64 + i, ccid)).unwrap();
                log.push(p);
                d.write(p, 8, i as u8).unwrap();
                if i % 2 == 0 {
                    d.free(p).unwrap();
                }
            }
            (log, d.stats(), d.quarantine().len())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stats_count_interpositions() {
        let mut d = DefendedBackend::new(DefenseConfig::default());
        for i in 0..5u64 {
            let p = d.alloc(&req(AllocFn::Malloc, 32, i)).unwrap();
            d.free(p).unwrap();
        }
        let st = d.stats();
        assert_eq!(st.interposed_allocs, 5);
        assert_eq!(st.interposed_frees, 5);
        assert_eq!(st.table_lookups, 5);
        assert_eq!(st.table_hits, 0);
    }
}
