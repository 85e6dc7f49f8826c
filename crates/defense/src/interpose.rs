//! Allocation interposition: the online defense as a [`HeapBackend`].

use crate::layout::{BufferStructure, Layout};
use crate::meta::{MetaWord, META_SIZE};
use crate::quarantine::{Quarantine, QuarantinedBlock};
use ht_memsim::{
    Addr, AddressSpace, AllocStats, BaseAllocator, FreeListAllocator, Perm, SpaceStats, PAGE_SIZE,
};
use ht_patch::{AllocFn, PatchTable, VulnFlags};
use ht_simprog::{AccessOutcome, AllocRequest, HeapBackend, ReadResult, Sink, StopCause};
use ht_telemetry::{
    AttackReport, Event, EventKind, EventRing, PatchCounterRow, TelemetryConfig, TelemetrySnapshot,
    NO_SLOT,
};

/// Online-defense configuration.
#[derive(Debug)]
pub struct DefenseConfig {
    /// The frozen patch table loaded from the configuration file.
    pub table: PatchTable,
    /// Maintain the per-buffer metadata word. Disabling this yields the
    /// paper's "interposition only" configuration (Fig. 8's 1.9% bar) and
    /// requires an empty table.
    pub maintain_metadata: bool,
    /// Byte quota of the deferred-free FIFO.
    pub quarantine_quota: u64,
    /// Ablation: append a guard page to *every* buffer regardless of the
    /// table — the prohibitively expensive policy HeapTherapy+'s targeting
    /// avoids (paper Section VI).
    pub guard_all: bool,
    /// Attack telemetry (paper Section VII's diagnosis report). Disabled by
    /// default: a disabled backend allocates no telemetry state and the hot
    /// path pays nothing beyond one `Option` check on defended branches.
    pub telemetry: TelemetryConfig,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        Self {
            table: PatchTable::new(),
            maintain_metadata: true,
            quarantine_quota: 2 * 1024 * 1024 * 1024,
            guard_all: false,
            telemetry: TelemetryConfig::disabled(),
        }
    }
}

impl DefenseConfig {
    /// Full defenses driven by `table`.
    pub fn with_table(table: PatchTable) -> Self {
        Self {
            table,
            ..Self::default()
        }
    }

    /// The interposition-only configuration: calls are intercepted and
    /// forwarded, nothing else (paper Fig. 8, "interposition" series).
    pub fn interpose_only() -> Self {
        Self {
            maintain_metadata: false,
            ..Self::default()
        }
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

/// Telemetry state of a defended backend. Allocated only when the
/// configuration enables telemetry, so the disabled mode carries no state.
///
/// The sim reuses the allocator's lock-free [`EventRing`] (identical
/// overflow-and-drop semantics) even though the interpreter is
/// single-threaded. Counters are keyed by [`PatchTable`] slot, report
/// dedup uses the table's once-bits, and frees and evictions find their
/// slot in the buffer's metadata word and quarantine entry.
#[derive(Debug)]
struct Telemetry {
    ring: Box<EventRing>,
    /// `(hits, bytes)` per patch-table slot.
    per_patch: Vec<(u64, u64)>,
    /// Attack reports in first-activation order.
    reports: Vec<AttackReport>,
}

impl Telemetry {
    fn new(patches: usize) -> Self {
        Self {
            ring: Box::new(EventRing::new()),
            per_patch: vec![(0, 0); patches],
            reports: Vec::new(),
        }
    }

    /// Files the one-time attack report for `(slot, t)` if `table`'s
    /// once-bit says this is the first activation; later activations of
    /// the same pair are silent.
    fn report_once(&mut self, table: &PatchTable, slot: u32, t: VulnFlags, size: u64) {
        let Some((fun, ccid, _)) = table.entry(slot as usize) else {
            return;
        };
        if !table.report_once(slot as usize, t) {
            return;
        }
        self.ring.push(Event::patched(
            EventKind::AttackReported,
            fun,
            t,
            slot,
            ccid,
            size,
        ));
        self.reports.push(AttackReport {
            fun,
            ccid,
            vuln: t,
            slot,
            size,
            call_chain: Vec::new(),
        });
    }
}

/// The online defense generator over an arbitrary inner allocator.
///
/// All heap traffic flows through this backend; buffers whose
/// `(FUN, CCID)` hits the patch table are enhanced per paper Section VI,
/// everything else pays one hash probe plus one metadata word.
#[derive(Debug)]
pub struct DefendedBackend<A: BaseAllocator = FreeListAllocator> {
    space: AddressSpace,
    inner: A,
    cfg: DefenseConfig,
    quarantine: Quarantine,
    stats: DefenseStats,
    telemetry: Option<Telemetry>,
}

impl DefendedBackend<FreeListAllocator> {
    /// A defended backend over the free-list allocator.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` disables metadata but carries patches — the defenses
    /// cannot be applied without per-buffer metadata.
    pub fn new(cfg: DefenseConfig) -> Self {
        Self::with_allocator(FreeListAllocator::new(), cfg)
    }
}

impl<A: BaseAllocator> DefendedBackend<A> {
    /// A defended backend over a caller-chosen inner allocator —
    /// HeapTherapy+ is allocator-agnostic.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` disables metadata but carries patches.
    pub fn with_allocator(inner: A, cfg: DefenseConfig) -> Self {
        assert!(
            cfg.maintain_metadata || (cfg.table.is_empty() && !cfg.guard_all),
            "defenses require metadata maintenance"
        );
        let quota = cfg.quarantine_quota;
        let telemetry = cfg
            .telemetry
            .is_enabled()
            .then(|| Telemetry::new(cfg.table.len()));
        Self {
            space: AddressSpace::new(),
            inner,
            cfg,
            quarantine: Quarantine::new(quota),
            stats: DefenseStats::default(),
            telemetry,
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

    /// The simulated address space (RSS measurements).
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    fn misuse(e: impl std::fmt::Display) -> StopCause {
        StopCause::HeapMisuse(e.to_string())
    }

    /// The vulnerability bits and the patch-table slot, if any, for an
    /// allocation about to happen.
    fn probe(&mut self, fun: AllocFn, ccid: u64) -> (VulnFlags, Option<usize>) {
        self.stats.table_lookups += 1;
        let hit = self.cfg.table.probe(fun, ccid);
        let mut vuln = hit.map_or(VulnFlags::NONE, |(_, vuln)| vuln);
        if !vuln.is_empty() {
            self.stats.table_hits += 1;
        }
        if self.cfg.guard_all {
            vuln |= VulnFlags::OVERFLOW;
        }
        (vuln, hit.map(|(slot, _)| slot))
    }

    /// Records telemetry for one successful defended allocation.
    fn note_alloc(
        &mut self,
        fun: AllocFn,
        ccid: u64,
        size: u64,
        vuln: VulnFlags,
        slot: Option<usize>,
    ) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        if vuln.is_empty() {
            return;
        }
        let slot = slot.map_or(NO_SLOT, |s| s as u32);
        if slot != NO_SLOT {
            let c = &mut tel.per_patch[slot as usize];
            c.0 += 1;
            c.1 += size;
            tel.ring.push(Event::patched(
                EventKind::PatchHit,
                fun,
                vuln,
                slot,
                ccid,
                size,
            ));
        }
        for (t, kind) in [
            (VulnFlags::OVERFLOW, EventKind::GuardInstall),
            (VulnFlags::UNINIT_READ, EventKind::ZeroInit),
        ] {
            if vuln.contains(t) {
                tel.ring
                    .push(Event::patched(kind, fun, t, slot, ccid, size));
                // Alloc-time defenses count as activations: first one per
                // `(FUN, CCID, T)` files the attack report.
                if slot != NO_SLOT {
                    tel.report_once(&self.cfg.table, slot, t, size);
                }
            }
        }
    }

    /// Records a quarantine defer or evict of a UAF-patched block, filing
    /// the one-time UAF attack report on the first defer of its patch.
    fn note_quarantine(&mut self, kind: EventKind, b: &QuarantinedBlock) {
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let table = &self.cfg.table;
        let Some((fun, ccid, _)) = table.entry(b.slot as usize) else {
            return;
        };
        let uaf = VulnFlags::USE_AFTER_FREE;
        tel.ring
            .push(Event::patched(kind, fun, uaf, b.slot, ccid, b.size));
        if kind == EventKind::QuarantineDefer {
            tel.report_once(table, b.slot, uaf, b.size);
        }
    }

    /// Records an access stopped at a guard page. The faulting access does
    /// not identify its buffer, so the event is unattributed (the paper's
    /// SIGSEGV handler recovers the context from the fault address; the sim
    /// keeps only the count and the attempted length).
    fn note_trip(&mut self, len: u64) {
        if let Some(tel) = &mut self.telemetry {
            tel.ring.push(Event::unattributed(
                EventKind::GuardTrip,
                AllocFn::Malloc,
                len,
            ));
        }
    }

    /// Drains and returns everything telemetry observed so far, or `None`
    /// when the configuration disabled telemetry. Ring events drain
    /// destructively; per-patch counters and reports are cumulative.
    pub fn telemetry_snapshot(&mut self) -> Option<TelemetrySnapshot> {
        let tel = self.telemetry.as_mut()?;
        let events = tel.ring.drain_vec();
        let table = &self.cfg.table;
        let per_patch = tel
            .per_patch
            .iter()
            .enumerate()
            .filter(|&(_, &(hits, _))| hits > 0)
            .map(|(s, &(hits, bytes))| {
                let (fun, ccid, vuln) = table.entry(s).expect("counter slot within table");
                PatchCounterRow {
                    slot: s,
                    fun,
                    ccid,
                    vuln,
                    hits,
                    bytes,
                }
            })
            .collect();
        Some(TelemetrySnapshot {
            events,
            delivered: tel.ring.delivered(),
            dropped: tel.ring.dropped(),
            per_patch,
            reports: tel.reports.clone(),
        })
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
        let raw = if structure.is_aligned() {
            self.inner
                .memalign(&mut self.space, layout.raw_align, layout.raw_size)
                .map_err(Self::misuse)?
        } else {
            self.inner
                .malloc(&mut self.space, layout.raw_size)
                .map_err(Self::misuse)?
        };
        let user = layout.user_addr(raw);
        let align_log2 = structure
            .is_aligned()
            .then(|| layout.raw_align.trailing_zeros() as u8);
        let meta = if let Some(guard) = layout.guard_addr(user, size) {
            // Zero the slack between the buffer end and the guard page: an
            // overread is stopped *at* the guard, so the bytes before it
            // must not carry stale data.
            self.space
                .fill(user + size, guard - (user + size), 0)
                .map_err(Self::misuse)?;
            // User size lives in the first word of the guard page; write it
            // before the page becomes inaccessible.
            self.space
                .write_u64_raw(guard, size)
                .map_err(Self::misuse)?;
            self.space
                .protect(guard, PAGE_SIZE, Perm::None)
                .map_err(Self::misuse)?;
            self.stats.guard_pages += 1;
            MetaWord::guarded(vuln, guard, align_log2)
        } else {
            MetaWord::unguarded(vuln, size, align_log2)
        }
        .with_slot(slot.unwrap_or(0));
        self.space
            .write_u64_raw(user - META_SIZE, meta.0)
            .map_err(Self::misuse)?;
        if vuln.contains(VulnFlags::UNINIT_READ) || fun == AllocFn::Calloc {
            self.space.fill(user, size, 0).map_err(Self::misuse)?;
            self.stats.zero_fill_bytes += size;
        }
        Ok(user)
    }

    /// Reads the metadata of a previously defended buffer.
    fn read_meta(&self, user: Addr) -> Result<MetaWord, StopCause> {
        self.space
            .read_u64_raw(user - META_SIZE)
            .map(MetaWord)
            .map_err(Self::misuse)
    }

    /// The user size of a defended buffer.
    fn user_size(&self, user: Addr, meta: MetaWord) -> Result<u64, StopCause> {
        if meta.has_guard() {
            let _ = user;
            self.space
                .read_u64_raw(meta.guard_page())
                .map_err(Self::misuse)
        } else {
            Ok(meta.size())
        }
    }

    /// The free-path of paper Fig. 7.
    fn defended_free(&mut self, user: Addr) -> Result<(), StopCause> {
        let meta = self.read_meta(user)?;
        let size = self.user_size(user, meta)?;
        if meta.has_guard() {
            // (1) make the guard page accessible again so the block can be
            // recycled.
            self.space
                .protect(meta.guard_page(), PAGE_SIZE, Perm::ReadWrite)
                .map_err(Self::misuse)?;
        }
        // (2) recover the inner pointer.
        let pi = Layout::inner_ptr(meta.is_aligned(), meta.alignment(), user);
        // (3) defer or release.
        if meta.vuln().contains(VulnFlags::USE_AFTER_FREE) {
            let block = QuarantinedBlock {
                inner_ptr: pi,
                size,
                slot: meta.slot() as u32,
            };
            self.stats.quarantined_blocks += 1;
            self.note_quarantine(EventKind::QuarantineDefer, &block);
            for b in self.quarantine.push(block) {
                self.note_quarantine(EventKind::QuarantineEvict, &b);
                self.inner
                    .free(&mut self.space, b.inner_ptr)
                    .map_err(Self::misuse)?;
            }
            Ok(())
        } else {
            self.inner.free(&mut self.space, pi).map_err(Self::misuse)
        }
    }
}

impl<A: BaseAllocator> HeapBackend for DefendedBackend<A> {
    fn alloc(&mut self, req: &AllocRequest) -> Result<Addr, StopCause> {
        self.stats.interposed_allocs += 1;
        if !self.cfg.maintain_metadata {
            // Interposition-only: forward untouched.
            let ptr = match (req.fun, req.old_ptr) {
                (AllocFn::Realloc, Some(old)) => self.inner.realloc(&mut self.space, old, req.size),
                (AllocFn::Memalign, _) => self.inner.memalign(&mut self.space, req.align, req.size),
                _ => self.inner.malloc(&mut self.space, req.size),
            }
            .map_err(Self::misuse)?;
            if req.fun == AllocFn::Calloc {
                self.space.fill(ptr, req.size, 0).map_err(Self::misuse)?;
            }
            return Ok(ptr);
        }
        let (vuln, slot) = self.probe(req.fun, req.ccid.0);
        let user = match (req.fun, req.old_ptr) {
            (AllocFn::Realloc, Some(old)) => {
                // Paper Section V: the buffer's CCID is updated to the
                // realloc-time context — the new buffer is enhanced per the
                // *realloc* patch lookup.
                let old_meta = self.read_meta(old)?;
                let old_size = self.user_size(old, old_meta)?;
                let user =
                    self.defended_alloc(AllocFn::Realloc, req.size, req.align, vuln, slot)?;
                let keep = old_size.min(req.size);
                if keep > 0 {
                    self.space.copy_raw(old, user, keep).map_err(Self::misuse)?;
                }
                self.stats.interposed_frees += 1;
                self.defended_free(old)?;
                user
            }
            _ => self.defended_alloc(req.fun, req.size, req.align, vuln, slot)?,
        };
        self.note_alloc(req.fun, req.ccid.0, req.size, vuln, slot);
        Ok(user)
    }

    fn free(&mut self, ptr: Addr) -> AccessOutcome {
        self.stats.interposed_frees += 1;
        if !self.cfg.maintain_metadata {
            return match self.inner.free(&mut self.space, ptr) {
                Ok(()) => AccessOutcome::Ok,
                Err(e) => AccessOutcome::Stop(Self::misuse(e)),
            };
        }
        match self.defended_free(ptr) {
            Ok(()) => AccessOutcome::Ok,
            Err(c) => AccessOutcome::Stop(c),
        }
    }

    fn write(&mut self, addr: Addr, len: u64, byte: u8) -> AccessOutcome {
        match self.space.fill(addr, len, byte) {
            Ok(()) => AccessOutcome::Ok,
            Err(f) => {
                self.stats.blocked_accesses += 1;
                self.note_trip(len);
                AccessOutcome::Stop(StopCause::Segfault {
                    addr: f.addr,
                    write: true,
                })
            }
        }
    }

    fn read(&mut self, addr: Addr, len: u64, _sink: Sink) -> ReadResult {
        let mut data = vec![0u8; len as usize];
        match self.space.read(addr, &mut data) {
            Ok(()) => ReadResult {
                data,
                outcome: AccessOutcome::Ok,
            },
            Err(f) => {
                self.stats.blocked_accesses += 1;
                self.note_trip(len);
                data.truncate(f.completed as usize);
                ReadResult {
                    data,
                    outcome: AccessOutcome::Stop(StopCause::Segfault {
                        addr: f.addr,
                        write: false,
                    }),
                }
            }
        }
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> AccessOutcome {
        let mut buf = vec![0u8; len as usize];
        if let Err(f) = self.space.read(src, &mut buf) {
            self.stats.blocked_accesses += 1;
            self.note_trip(len);
            return AccessOutcome::Stop(StopCause::Segfault {
                addr: f.addr,
                write: false,
            });
        }
        match self.space.write(dst, &buf) {
            Ok(()) => AccessOutcome::Ok,
            Err(f) => {
                self.stats.blocked_accesses += 1;
                self.note_trip(len);
                AccessOutcome::Stop(StopCause::Segfault {
                    addr: f.addr,
                    write: true,
                })
            }
        }
    }

    fn mem_stats(&self) -> Option<(SpaceStats, AllocStats)> {
        Some((self.space.stats(), self.inner.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_callgraph::FuncId;
    use ht_encoding::Ccid;
    use ht_memsim::BumpAllocator;
    use ht_patch::Patch;

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
            AccessOutcome::Stop(StopCause::Segfault { addr, write: true }) => {
                assert_eq!(addr % PAGE_SIZE, 0, "fault exactly at the guard page");
                assert!(addr >= p + 100 && addr - (p + 100) < PAGE_SIZE);
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
        d.write(p, 100, 0x41);
        let r = d.read(p, 100_000, Sink::Leak);
        assert!(!r.outcome.is_ok(), "overread blocked");
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
        d.write(p, 64, 0x01);
        assert!(d.free(p).is_ok());
        assert_eq!(d.quarantine().len(), 1);
        // Attacker's same-size allocation must not land on the block.
        let q = d
            .alloc(&req(AllocFn::Malloc, 64 + META_SIZE, SAFE))
            .unwrap();
        assert_ne!(q, p);
        d.write(q, 64, 0x66);
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
        d.free(p);
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
        d.write(warm1, 64, 0xEE);
        let warm2 = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        d.write(warm2, 64, 0xEE);
        d.free(warm1);
        d.free(warm2);
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
        assert!(!d.write(p, 50_000, 1).is_ok(), "guard present");
        assert!(d.free(p).is_ok());
    }

    #[test]
    fn free_restores_guard_page_for_reuse() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let p = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        assert!(d.free(p).is_ok());
        // Reallocate through an unpatched context of a size that recycles
        // the same class block; writing across the former guard's location
        // must now succeed.
        let q = d
            .alloc(&req(AllocFn::Malloc, 2 * PAGE_SIZE + 100, SAFE))
            .unwrap();
        assert!(d.write(q, 2 * PAGE_SIZE + 100, 3).is_ok());
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
        d.write(p, 32, 0x22);
        let mut r = req(AllocFn::Realloc, 64, VULN);
        r.old_ptr = Some(p);
        let q = d.alloc(&r).unwrap();
        // Content preserved.
        let got = d.read(q, 32, Sink::Discard);
        assert_eq!(got.data, vec![0x22; 32]);
        // New buffer is guarded.
        assert!(!d.write(q, 10_000, 1).is_ok());
    }

    #[test]
    fn realloc_shrink_keeps_prefix() {
        let mut d = DefendedBackend::new(DefenseConfig::default());
        let p = d.alloc(&req(AllocFn::Malloc, 100, SAFE)).unwrap();
        d.write(p, 100, 0x77);
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
        d.free(p1);
        d.free(p2); // evicts p1's block
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
        d.write(warm, 6000, 0xEE);
        d.free(warm);
        let p = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        // UR: zeroed.
        let r = d.read(p, 100, Sink::Leak);
        assert_eq!(r.data, vec![0u8; 100]);
        // OF: guarded.
        assert!(!d.write(p, 9_000, 1).is_ok());
        // UAF: deferred.
        d.free(p);
        assert_eq!(d.quarantine().len(), 1);
    }

    #[test]
    fn interpose_only_forwards_everything() {
        let mut d = DefendedBackend::new(DefenseConfig::interpose_only());
        let p = d.alloc(&req(AllocFn::Malloc, 64, VULN)).unwrap();
        d.write(p, 64, 1);
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
    #[should_panic(expected = "require metadata")]
    fn interpose_only_with_patches_panics() {
        let mut cfg = DefenseConfig::interpose_only();
        cfg.table = table(AllocFn::Malloc, 1, VulnFlags::OVERFLOW);
        let _ = DefendedBackend::new(cfg);
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
        assert!(!d.write(p, 50_000, 1).is_ok(), "guard works over bump too");
        assert!(d.free(p).is_ok());
    }

    #[test]
    fn guard_all_ablation_guards_everything() {
        let cfg = DefenseConfig {
            guard_all: true,
            ..DefenseConfig::default()
        };
        let mut d = DefendedBackend::new(cfg);
        for i in 0..10u64 {
            let p = d.alloc(&req(AllocFn::Malloc, 64, i)).unwrap();
            assert!(!d.write(p, 10_000, 1).is_ok(), "every buffer guarded");
            d.free(p);
        }
        assert_eq!(d.stats().guard_pages, 10);
    }

    #[test]
    fn calloc_still_zeroes_under_defense() {
        let mut d = DefendedBackend::new(DefenseConfig::default());
        let p = d.alloc(&req(AllocFn::Malloc, 64, SAFE)).unwrap();
        d.write(p, 64, 0xFF);
        d.free(p);
        let q = d.alloc(&req(AllocFn::Calloc, 64, SAFE)).unwrap();
        let r = d.read(q, 64, Sink::Discard);
        assert_eq!(r.data, vec![0u8; 64]);
    }

    #[test]
    fn copy_respects_guard_pages() {
        let mut d = DefendedBackend::new(DefenseConfig::with_table(table(
            AllocFn::Malloc,
            VULN,
            VulnFlags::OVERFLOW,
        )));
        let src = d.alloc(&req(AllocFn::Malloc, 8192, SAFE)).unwrap();
        d.write(src, 8192, 0x11);
        let dst = d.alloc(&req(AllocFn::Malloc, 100, VULN)).unwrap();
        // In-bounds memcpy is fine.
        assert!(d.copy(src, dst, 100).is_ok());
        // An oversized memcpy into the guarded buffer traps at the guard.
        match d.copy(src, dst, 8192) {
            AccessOutcome::Stop(StopCause::Segfault { addr, write: true }) => {
                assert_eq!(addr % PAGE_SIZE, 0, "stopped at the guard page");
            }
            other => panic!("expected guard fault, got {other:?}"),
        }
        assert!(d.stats().blocked_accesses >= 1);
        // Reading out of the guarded buffer as a memcpy source is capped too.
        let r = d.copy(dst, src, 8192);
        assert!(!r.is_ok(), "overread via memcpy blocked");
    }

    fn telemetry_cfg(table: PatchTable) -> DefenseConfig {
        DefenseConfig {
            telemetry: TelemetryConfig::enabled(),
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
        assert!(!d.write(p, 10_000, 1).is_ok());
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
            d.free(p);
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
        d.free(p1);
        d.free(p2); // quota forces p1's block out
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
        assert!(!d.write(p, 50_000, 1).is_ok());
        let r = d.read(p, 50_000, Sink::Leak);
        assert!(!r.outcome.is_ok());
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
        let run = |telemetry: TelemetryConfig| {
            let mut cfg = DefenseConfig::with_table(table(AllocFn::Malloc, VULN, VulnFlags::ALL));
            cfg.telemetry = telemetry;
            cfg.quarantine_quota = 200;
            let mut d = DefendedBackend::new(cfg);
            let mut log = Vec::new();
            for i in 0..20u64 {
                let ccid = if i % 3 == 0 { VULN } else { SAFE };
                let p = d.alloc(&req(AllocFn::Malloc, 64 + i, ccid)).unwrap();
                log.push(p);
                d.write(p, 8, i as u8);
                if i % 2 == 0 {
                    d.free(p);
                }
            }
            (log, d.stats(), d.quarantine().len())
        };
        assert_eq!(
            run(TelemetryConfig::disabled()),
            run(TelemetryConfig::enabled()),
        );
    }

    #[test]
    fn stats_count_interpositions() {
        let mut d = DefendedBackend::new(DefenseConfig::default());
        for i in 0..5u64 {
            let p = d.alloc(&req(AllocFn::Malloc, 32, i)).unwrap();
            d.free(p);
        }
        let st = d.stats();
        assert_eq!(st.interposed_allocs, 5);
        assert_eq!(st.interposed_frees, 5);
        assert_eq!(st.table_lookups, 5);
        assert_eq!(st.table_hits, 0);
    }
}
