//! The shadow-memory analyzer backend: detection, warning-resume, patch
//! generation.

use crate::bits::{KernelMode, ShadowBits};
use crate::heap::{BufId, BufState, HeapMap, Region};
use crate::warning::{Warning, WarningKind};
use ht_memsim::{
    Addr, AddressSpace, AllocStats, BaseAllocator, FastMap, FreeListAllocator, MemFault,
    SpaceStats, QUARANTINE_QUOTA,
};
use ht_patch::{AllocFn, Patch};
use ht_simprog::{AllocRequest, HeapBackend, ReadResult, Sink, StopCause};
use std::collections::{HashSet, VecDeque};

/// CCID-subspace partitioning (paper §IX).
///
/// When a program's memory profile would drain the quarantine quota, the
/// attack is replayed in `of` executions; execution `index` defers the
/// deallocation only of buffers whose allocation-time CCID falls in its
/// subspace (`ccid % of == index`), so each replay consumes roughly `1/of`
/// of the memory. The union of the per-replay patches equals the
/// single-replay result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcidPartition {
    /// This replay's subspace index (`< of`).
    pub index: u64,
    /// Number of subspaces.
    pub of: u64,
}

impl CcidPartition {
    /// Whether a CCID belongs to this replay's subspace.
    pub fn covers(&self, ccid: u64) -> bool {
        self.of <= 1 || ccid % self.of == self.index
    }
}

/// Analyzer tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowConfig {
    /// Byte quota of the freed-blocks FIFO (paper default: 2 GB).
    pub quarantine_quota: u64,
    /// Optional CCID-subspace partition (paper §IX): only buffers in this
    /// replay's subspace are quarantined; the rest release immediately.
    pub partition: Option<CcidPartition>,
    /// Run the byte-at-a-time reference shadow kernels
    /// ([`KernelMode::Reference`]) and disable the [`HeapMap`] lookup
    /// cache — the benchmark baseline and differential-test oracle.
    pub reference_kernels: bool,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        Self {
            quarantine_quota: QUARANTINE_QUOTA,
            partition: None,
            reference_kernels: false,
        }
    }
}

/// The offline analyzer as a [`HeapBackend`].
///
/// Replay the attack input through an
/// [`Interpreter`](ht_simprog::Interpreter) over this backend, then collect
/// [`ShadowBackend::warnings`] or ready-made patches via
/// [`ShadowBackend::generate_patches`].
///
/// Detection follows paper Section V:
///
/// * overflow — the contiguous access crosses into a red zone (A-bit clear),
/// * use-after-free — the access lands in a quarantined freed block,
/// * uninitialized read — a value with clear V-bits reaches a checked sink
///   ([`Sink::checks_vbits`]); the V-bits are then set to valid so one root
///   cause produces one warning,
/// * execution resumes after every warning, so one replay can expose
///   multiple vulnerabilities (Heartbleed: `UR` + `OF`).
#[derive(Debug)]
pub struct ShadowBackend {
    space: AddressSpace,
    heap: FreeListAllocator,
    bits: ShadowBits,
    map: HeapMap,
    quarantine: VecDeque<BufId>,
    quarantine_bytes: u64,
    warnings: Vec<Warning>,
    /// The `(kind, buffer)` pairs already reported: each is reported at
    /// most once (the paper post-processes chained warnings with a script;
    /// deduplication here is the equivalent).
    seen: HashSet<(WarningKind, u64)>,
    /// Origin tracking through copies (paper §V): for an *invalid* byte that
    /// was `memcpy`'d out of its allocation, the buffer whose
    /// uninitialized memory it originally was.
    copied_origins: FastMap<Addr, BufId>,
    cfg: ShadowConfig,
}

impl Default for ShadowBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowBackend {
    /// An analyzer with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(ShadowConfig::default())
    }

    /// An analyzer with a custom configuration.
    pub fn with_config(cfg: ShadowConfig) -> Self {
        let mode = if cfg.reference_kernels {
            KernelMode::Reference
        } else {
            KernelMode::Word
        };
        Self {
            space: AddressSpace::new(),
            heap: FreeListAllocator::new(),
            bits: ShadowBits::with_mode(mode),
            map: HeapMap::with_cache(!cfg.reference_kernels),
            quarantine: VecDeque::new(),
            quarantine_bytes: 0,
            warnings: Vec::new(),
            seen: HashSet::new(),
            copied_origins: FastMap::default(),
            cfg,
        }
    }

    /// All warnings recorded so far, in detection order.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Number of warnings of a given kind.
    pub fn count(&self, kind: WarningKind) -> usize {
        self.warnings.iter().filter(|w| w.kind == kind).count()
    }

    /// Folds the recorded warnings into patches with [`ht_patch::merge`]:
    /// one patch per `(FUN, CCID)` with the union of the vulnerability bits
    /// observed (paper Section V's post-processing script), in key order.
    pub fn generate_patches(&self, origin: &str) -> Vec<Patch> {
        let found = self.warnings.iter().filter_map(|w| {
            let (fun, ccid) = w.patch_key()?;
            Some(Patch::new(fun, ccid, w.kind.to_vuln_flags()?))
        });
        ht_patch::merge(found, origin)
    }

    fn warn(&mut self, kind: WarningKind, addr: Addr, write: bool, origin: Option<BufId>) {
        let dedup_key = (kind, origin.map(|b| b.0).unwrap_or(u64::MAX - addr % 4096));
        if !self.seen.insert(dedup_key) {
            return;
        }
        let (fun, ccid, buf_size) = match origin.and_then(|id| self.map.record(id)) {
            Some(r) => (Some(r.fun), Some(r.ccid), Some(r.size)),
            None => (None, None, None),
        };
        self.warnings.push(Warning {
            kind,
            addr,
            write,
            fun,
            ccid,
            buf_size,
        });
    }

    /// Reports the wild access that `fault` stopped and returns the
    /// segfault that ends the replay.
    fn wild(&mut self, fault: MemFault, write: bool) -> StopCause {
        self.warn(WarningKind::Wild, fault.addr, write, None);
        StopCause::segfault(fault, write)
    }

    /// Scans `[addr, addr+len)` for accessibility violations, classifying
    /// and recording each (deduplicated), then resumes. The scan ends at
    /// the first unmapped byte (reported as wild), where the access faults.
    fn check_accessible(&mut self, addr: Addr, len: u64, write: bool) {
        let mut a = addr;
        let end = addr.saturating_add(self.space.reach(addr, len));
        while a < end {
            match self.bits.first_inaccessible(a, end - a) {
                None => break,
                Some(bad) => {
                    let (kind, origin) = match self.map.lookup(bad) {
                        Some((rec, _)) if rec.state == BufState::Freed => {
                            (WarningKind::UseAfterFree, Some(rec.id))
                        }
                        Some((rec, Region::LeftRedZone | Region::RightRedZone)) => {
                            (WarningKind::Overflow, Some(rec.id))
                        }
                        Some((rec, Region::User)) => {
                            // Live user bytes marked inaccessible cannot
                            // happen; treat defensively as overflow.
                            (WarningKind::Overflow, Some(rec.id))
                        }
                        None => (WarningKind::Wild, None),
                    };
                    self.warn(kind, bad, write, origin);
                    // Skip the rest of this contiguous inaccessible run.
                    a = self.bits.first_accessible(bad, end - bad).unwrap_or(end);
                }
            }
        }
    }

    fn evict_until_within_quota(&mut self) {
        while self.quarantine_bytes > self.cfg.quarantine_quota {
            let Some(id) = self.quarantine.pop_front() else {
                break;
            };
            if let Some(rec) = self.map.remove(id) {
                self.quarantine_bytes -= rec.size;
                // Memory really goes back to the inner allocator now.
                let _ = self.heap.free(&mut self.space, rec.inner_ptr);
            }
        }
    }

    fn fresh_alloc(
        &mut self,
        fun: AllocFn,
        size: u64,
        align: u64,
        ccid: ht_encoding::Ccid,
    ) -> Result<Addr, StopCause> {
        let rz = crate::REDZONE;
        let (inner_ptr, user) = if fun == AllocFn::Memalign {
            let inner = self
                .heap
                .malloc(&mut self.space, size + rz * 2 + align)
                .map_err(StopCause::misuse)?;
            let user = ht_memsim::align_up(inner + rz, align);
            (inner, user)
        } else {
            let inner = self
                .heap
                .malloc(&mut self.space, size + rz * 2)
                .map_err(StopCause::misuse)?;
            (inner, inner + rz)
        };
        // Shadow state: red zones inaccessible, user accessible; user bytes
        // invalid unless calloc zero-fills them.
        self.bits.set_accessible(user - rz, rz, false);
        self.bits.set_accessible(user, size, true);
        self.bits.set_accessible(user + size, rz, false);
        if fun == AllocFn::Calloc {
            self.space.fill(user, size, 0).map_err(StopCause::misuse)?;
            self.bits.set_valid(user, size, true);
        } else {
            self.bits.set_valid(user, size, false);
        }
        self.map.insert(user, size, inner_ptr, fun, ccid);
        Ok(user)
    }

    /// Propagates per-byte uninitialized-data origins across a copy: an
    /// invalid byte keeps pointing at the buffer whose fresh memory it came
    /// from; a valid byte clears any stale origin at the destination.
    ///
    /// Runs of fully valid bytes (the common case) are located with the
    /// word scanners and handled without touching the shadow planes again;
    /// per-byte work is confined to the invalid runs, in the same forward
    /// order as a byte-at-a-time walk (observable state is identical).
    fn propagate_origins(&mut self, src: Addr, dst: Addr, len: u64) {
        let end = src.saturating_add(len);
        let mut a = src;
        while a < end {
            let bad = self.bits.first_invalid(a, end - a).unwrap_or(end);
            // Valid run [a, bad): clear any stale destination origins.
            if !self.copied_origins.is_empty() {
                for i in a..bad {
                    self.copied_origins.remove(&(dst + (i - src)));
                }
            }
            if bad >= end {
                break;
            }
            // Invalid run [bad, stop): per-byte origin propagation (rare).
            let stop = self.bits.first_fully_valid(bad, end - bad).unwrap_or(end);
            for i in bad..stop {
                let origin = self
                    .copied_origins
                    .get(&i)
                    .copied()
                    .or_else(|| self.map.lookup(i).map(|(rec, _)| rec.id));
                if let Some(o) = origin {
                    self.copied_origins.insert(dst + (i - src), o);
                }
            }
            a = stop;
        }
    }

    fn quarantine_buffer(&mut self, id: BufId) {
        let rec = *self.map.record(id).expect("buffer exists");
        // Entire footprint becomes inaccessible; memory is retained.
        self.bits.set_accessible(
            rec.footprint_start(),
            rec.footprint_end() - rec.footprint_start(),
            false,
        );
        self.map.mark_freed(id);
        // §IX: under CCID-subspace partitioning, only this replay's
        // subspace is deferred; foreign buffers release immediately (their
        // use-after-free detection belongs to another replay).
        let covered = self.cfg.partition.is_none_or(|p| p.covers(rec.ccid.0));
        if covered {
            self.quarantine.push_back(id);
            self.quarantine_bytes += rec.size;
            self.evict_until_within_quota();
        } else {
            self.map.remove(id);
            let _ = self.heap.free(&mut self.space, rec.inner_ptr);
        }
    }
}

impl HeapBackend for ShadowBackend {
    fn alloc(&mut self, req: &AllocRequest) -> Result<Addr, StopCause> {
        match (req.fun, req.old_ptr) {
            (AllocFn::Realloc, Some(old)) => {
                let old_rec = self.map.by_user_ptr(old).copied();
                match old_rec {
                    Some(rec) if rec.state == BufState::Live => {
                        let new_user =
                            self.fresh_alloc(AllocFn::Realloc, req.size, req.align, req.ccid)?;
                        let keep = rec.size.min(req.size);
                        if keep > 0 {
                            self.propagate_origins(old, new_user, keep);
                            self.space
                                .copy_raw(old, new_user, keep)
                                .map_err(StopCause::misuse)?;
                            self.bits.copy_valid(old, new_user, keep);
                        }
                        self.quarantine_buffer(rec.id);
                        Ok(new_user)
                    }
                    _ => {
                        // realloc of an unknown/freed pointer: warn, then
                        // behave like malloc so the replay continues.
                        self.warn(WarningKind::InvalidFree, old, false, None);
                        self.fresh_alloc(AllocFn::Realloc, req.size, req.align, req.ccid)
                    }
                }
            }
            _ => self.fresh_alloc(req.fun, req.size, req.align, req.ccid),
        }
    }

    fn free(&mut self, ptr: Addr) -> Result<(), StopCause> {
        match self.map.by_user_ptr(ptr).map(|r| (r.id, r.state)) {
            Some((id, BufState::Live)) => self.quarantine_buffer(id),
            _ => {
                // Double free (quarantined ptr no longer resolves as a live
                // user base) or foreign pointer: warn and resume.
                let origin = self.map.lookup(ptr).map(|(r, _)| r.id);
                self.warn(WarningKind::InvalidFree, ptr, false, origin);
            }
        }
        Ok(())
    }

    fn write(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), StopCause> {
        self.check_accessible(addr, len, true);
        // Resume: the store proceeds into retained memory (red zones and
        // quarantined blocks are still mapped — only truly wild stores
        // crash, as they would under Valgrind).
        self.space
            .fill_raw(addr, len, byte)
            .map_err(|f| self.wild(f, true))?;
        self.bits.set_valid(addr, len, true);
        if !self.copied_origins.is_empty() {
            for a in addr..addr.saturating_add(len) {
                self.copied_origins.remove(&a);
            }
        }
        Ok(())
    }

    fn copy(&mut self, src: Addr, dst: Addr, len: u64) -> Result<(), StopCause> {
        // A memcpy is an access to both ranges (red zones / freed memory
        // still trip A-bit checks) but never a *use* of the value: no V-bit
        // check, validity and origins just flow along (paper Fig. 4).
        self.check_accessible(src, len, false);
        self.check_accessible(dst, len, true);
        let mut buf = vec![0u8; self.space.reach(src, len) as usize];
        self.space
            .read_raw(src, &mut buf)
            .map_err(|f| self.wild(f, false))?;
        self.propagate_origins(src, dst, len);
        self.space
            .write_raw(dst, &buf)
            .map_err(|f| self.wild(f, true))?;
        self.bits.copy_valid(src, dst, len);
        Ok(())
    }

    fn read(&mut self, addr: Addr, len: u64, sink: Sink) -> ReadResult {
        self.check_accessible(addr, len, false);
        let mut data = vec![0u8; self.space.reach(addr, len) as usize];
        if let Err(f) = self.space.read_raw(addr, &mut data) {
            data.truncate(f.completed as usize);
            let outcome = Err(self.wild(f, false));
            return ReadResult { data, outcome };
        }
        if sink.checks_vbits() {
            // Bit-precision uninitialized-read detection, restricted to live
            // user bytes (red-zone bytes already reported as overflow).
            let mut a = addr;
            let end = addr + len;
            while a < end {
                match self.bits.first_invalid(a, end - a) {
                    None => break,
                    Some(bad) => {
                        // Origin tracking (paper §V): a copied invalid byte
                        // is traced back to the buffer whose fresh memory it
                        // originally was, not the buffer it sits in now.
                        let origin = self.copied_origins.get(&bad).copied().or_else(|| match self
                            .map
                            .lookup(bad)
                        {
                            Some((rec, Region::User)) if rec.state == BufState::Live => {
                                Some(rec.id)
                            }
                            _ => None,
                        });
                        if let Some(id) = origin {
                            self.warn(WarningKind::UninitRead, bad, false, Some(id));
                        }
                        let skip = self.bits.first_fully_valid(bad, end - bad).unwrap_or(end);
                        // Once checked, mark valid to avoid chained warnings
                        // (paper Section V).
                        self.bits.set_valid(bad, skip - bad, true);
                        a = skip;
                    }
                }
            }
        }
        ReadResult {
            data,
            outcome: Ok(()),
        }
    }

    fn mem_stats(&self) -> Option<(SpaceStats, AllocStats)> {
        Some((self.space.stats(), self.heap.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_callgraph::{FuncId, Strategy};
    use ht_encoding::{Ccid, InstrumentationPlan, Scheme};
    use ht_patch::VulnFlags;
    use ht_simprog::{Expr, Interpreter, ProgramBuilder};

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

    #[test]
    fn clean_program_produces_no_warnings() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 64, 1)).unwrap();
        assert!(s.write(p, 64, 0xAA).is_ok());
        let r = s.read(p, 64, Sink::Branch);
        assert!(r.outcome.is_ok());
        assert!(s.free(p).is_ok());
        assert!(s.warnings().is_empty(), "{:?}", s.warnings());
    }

    #[test]
    fn overflow_write_detected_with_origin() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 32, 0xCAFE)).unwrap();
        // 8 bytes past the end — lands in the right red zone.
        s.write(p, 40, 0x41).unwrap();
        assert_eq!(s.count(WarningKind::Overflow), 1);
        let w = &s.warnings()[0];
        assert_eq!(w.kind, WarningKind::Overflow);
        assert!(w.write);
        assert_eq!(w.addr, p + 32);
        assert_eq!(w.fun, Some(AllocFn::Malloc));
        assert_eq!(w.ccid, Some(Ccid(0xCAFE)));
        assert_eq!(w.buf_size, Some(32));
    }

    #[test]
    fn overread_detected_as_overflow() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 32, 7)).unwrap();
        s.write(p, 32, 1).unwrap();
        let r = s.read(p, 48, Sink::Leak);
        assert!(r.outcome.is_ok(), "analyzer resumes");
        assert_eq!(r.data.len(), 48, "data still returned (leak modeled)");
        assert_eq!(s.count(WarningKind::Overflow), 1);
        assert!(!s.warnings()[0].write);
    }

    #[test]
    fn underflow_detected_via_left_red_zone() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 32, 7)).unwrap();
        s.write(p - 4, 4, 0x41).unwrap();
        assert_eq!(s.count(WarningKind::Overflow), 1);
    }

    #[test]
    fn use_after_free_detected_on_read_and_write() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 64, 0x11)).unwrap();
        s.write(p, 64, 5).unwrap();
        s.free(p).unwrap();
        let r = s.read(p, 8, Sink::Addr);
        assert!(r.outcome.is_ok());
        assert_eq!(s.count(WarningKind::UseAfterFree), 1);
        s.write(p, 8, 9).unwrap();
        assert_eq!(
            s.count(WarningKind::UseAfterFree),
            1,
            "one warning per (kind, buffer): the write dedupes"
        );
        let w = &s.warnings()[0];
        assert_eq!(w.ccid, Some(Ccid(0x11)));
    }

    #[test]
    fn quarantine_defers_reuse() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 64, 1)).unwrap();
        s.free(p).unwrap();
        // Same-size alloc must NOT reuse the quarantined block.
        let q = s.alloc(&req(AllocFn::Malloc, 64, 2)).unwrap();
        assert_ne!(p, q);
        assert_eq!(s.quarantine.len(), 1);
        assert_eq!(s.quarantine_bytes, 64);
    }

    #[test]
    fn quarantine_quota_evicts_fifo() {
        let mut s = ShadowBackend::with_config(ShadowConfig {
            quarantine_quota: 100,
            ..ShadowConfig::default()
        });
        let a = s.alloc(&req(AllocFn::Malloc, 60, 1)).unwrap();
        let b = s.alloc(&req(AllocFn::Malloc, 60, 2)).unwrap();
        s.free(a).unwrap();
        assert_eq!(s.quarantine.len(), 1);
        s.free(b).unwrap(); // 120 > 100: evicts a.
        assert_eq!(s.quarantine.len(), 1);
        assert_eq!(s.quarantine_bytes, 60);
        // a's memory is back with the inner allocator; touching it is now a
        // wild access (or a fresh block), not UAF.
        s.write(a, 4, 1).unwrap();
        assert_eq!(s.count(WarningKind::UseAfterFree), 0);
    }

    #[test]
    fn uninit_read_checked_sinks_only() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 32, 0x77)).unwrap();
        // Discard sink: copying uninitialized data is fine (paper Fig. 4 —
        // padding copies must not warn).
        let r = s.read(p, 32, Sink::Discard);
        assert!(r.outcome.is_ok());
        assert_eq!(s.count(WarningKind::UninitRead), 0);
        // Branch sink: warning, attributed to the buffer.
        s.read(p, 32, Sink::Branch);
        assert_eq!(s.count(WarningKind::UninitRead), 1);
        assert_eq!(s.warnings()[0].ccid, Some(Ccid(0x77)));
    }

    #[test]
    fn vbits_revalidated_after_check() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 32, 1)).unwrap();
        s.read(p, 32, Sink::Branch);
        s.read(p, 32, Sink::Branch);
        assert_eq!(
            s.count(WarningKind::UninitRead),
            1,
            "second check sees valid bits"
        );
    }

    #[test]
    fn calloc_memory_is_valid() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Calloc, 32, 1)).unwrap();
        let r = s.read(p, 32, Sink::Syscall);
        assert!(r.outcome.is_ok());
        assert_eq!(r.data, vec![0u8; 32]);
        assert_eq!(s.count(WarningKind::UninitRead), 0);
    }

    #[test]
    fn partial_init_detected_bit_precisely() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 32, 1)).unwrap();
        s.write(p, 16, 0xAB).unwrap(); // initialize first half
        s.read(p, 16, Sink::Branch);
        assert_eq!(s.count(WarningKind::UninitRead), 0);
        s.read(p, 32, Sink::Branch);
        assert_eq!(s.count(WarningKind::UninitRead), 1);
        assert_eq!(s.warnings()[0].addr, p + 16, "first uninit byte");
    }

    #[test]
    fn realloc_copies_validity_and_quarantines_old() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 16, 1)).unwrap();
        s.write(p, 16, 0x33).unwrap();
        let mut r = req(AllocFn::Realloc, 64, 2);
        r.old_ptr = Some(p);
        let q = s.alloc(&r).unwrap();
        assert_ne!(p, q);
        // Copied prefix valid, grown region invalid.
        let rd = s.read(q, 16, Sink::Branch);
        assert_eq!(rd.data, vec![0x33; 16]);
        assert_eq!(s.count(WarningKind::UninitRead), 0);
        s.read(q, 64, Sink::Branch);
        assert_eq!(s.count(WarningKind::UninitRead), 1);
        // Old block quarantined: UAF on it is detected.
        s.write(p, 4, 1).unwrap();
        assert_eq!(s.count(WarningKind::UseAfterFree), 1);
    }

    #[test]
    fn double_free_warns_and_resumes() {
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 16, 1)).unwrap();
        assert!(s.free(p).is_ok());
        assert!(s.free(p).is_ok(), "analyzer resumes");
        assert_eq!(s.count(WarningKind::InvalidFree), 1);
    }

    #[test]
    fn memalign_respects_alignment_and_red_zones() {
        let mut s = ShadowBackend::new();
        let mut r = req(AllocFn::Memalign, 100, 1);
        r.align = 256;
        let p = s.alloc(&r).unwrap();
        assert_eq!(p % 256, 0);
        s.write(p, 104, 1).unwrap(); // 4 bytes over
        assert_eq!(s.count(WarningKind::Overflow), 1);
        s.write(p - 2, 2, 1).unwrap(); // underflow
        assert_eq!(s.count(WarningKind::Overflow), 1, "deduped same buffer");
    }

    #[test]
    fn multi_vulnerability_single_replay() {
        // Heartbleed shape: uninitialized read AND overread of one buffer in
        // one run — both must be captured (warning-resume).
        let mut s = ShadowBackend::new();
        let p = s.alloc(&req(AllocFn::Malloc, 64, 0x4842)).unwrap();
        s.write(p, 16, 0x55).unwrap(); // only partially initialized
        let r = s.read(p, 96, Sink::Leak); // past the end
        assert!(r.outcome.is_ok());
        assert_eq!(s.count(WarningKind::Overflow), 1);
        assert_eq!(s.count(WarningKind::UninitRead), 1);
        let patches = s.generate_patches("heartbleed-model");
        assert_eq!(patches.len(), 1);
        assert!(patches[0].vuln.contains(VulnFlags::OVERFLOW));
        assert!(patches[0].vuln.contains(VulnFlags::UNINIT_READ));
        assert_eq!(patches[0].origin, "heartbleed-model");
    }

    #[test]
    fn patches_grouped_by_context() {
        let mut s = ShadowBackend::new();
        let p1 = s.alloc(&req(AllocFn::Malloc, 16, 100)).unwrap();
        let p2 = s.alloc(&req(AllocFn::Malloc, 16, 200)).unwrap();
        let p3 = s.alloc(&req(AllocFn::Calloc, 16, 100)).unwrap();
        s.write(p1, 20, 1).unwrap();
        s.write(p2, 20, 1).unwrap();
        s.write(p3, 20, 1).unwrap();
        let patches = s.generate_patches("t");
        assert_eq!(patches.len(), 3, "calloc@100 distinct from malloc@100");
    }

    #[test]
    fn copy_propagates_validity_without_warning() {
        // Paper Fig. 4: copying uninitialized (padding) bytes is legal.
        let mut s = ShadowBackend::new();
        let src = s.alloc(&req(AllocFn::Malloc, 32, 1)).unwrap();
        let dst = s.alloc(&req(AllocFn::Malloc, 32, 2)).unwrap();
        s.write(src, 16, 0xAA).unwrap(); // half initialized
        assert!(s.copy(src, dst, 32).is_ok());
        assert!(s.warnings().is_empty(), "{:?}", s.warnings());
        // Valid half stays valid at the destination...
        s.read(dst, 16, Sink::Branch);
        assert_eq!(s.count(WarningKind::UninitRead), 0);
        // ...and the copied-invalid half still trips on use.
        s.read(dst + 16, 16, Sink::Branch);
        assert_eq!(s.count(WarningKind::UninitRead), 1);
    }

    #[test]
    fn origin_tracking_blames_the_source_buffer() {
        // alloc A (uninit, CCID 0xA11) → memcpy into B (CCID 0xB22) → leak
        // B: the warning and the patch must point at A's context.
        let mut s = ShadowBackend::new();
        let a = s.alloc(&req(AllocFn::Malloc, 64, 0xA11)).unwrap();
        let b = s.alloc(&req(AllocFn::Calloc, 64, 0xB22)).unwrap();
        assert!(s.copy(a, b, 64).is_ok());
        let r = s.read(b, 64, Sink::Leak);
        assert!(r.outcome.is_ok());
        assert_eq!(s.count(WarningKind::UninitRead), 1);
        let w = &s.warnings()[0];
        assert_eq!(w.ccid, Some(Ccid(0xA11)), "blames the origin, not B");
        let patches = s.generate_patches("copy-origin");
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0].ccid, 0xA11);
        assert_eq!(patches[0].vuln, VulnFlags::UNINIT_READ);
    }

    #[test]
    fn origin_tracking_chains_through_two_copies() {
        let mut s = ShadowBackend::new();
        let a = s.alloc(&req(AllocFn::Malloc, 16, 0xA)).unwrap();
        let b = s.alloc(&req(AllocFn::Calloc, 16, 0xB)).unwrap();
        let c = s.alloc(&req(AllocFn::Calloc, 16, 0xC)).unwrap();
        s.copy(a, b, 16).unwrap();
        s.copy(b, c, 16).unwrap();
        s.read(c, 16, Sink::Syscall);
        assert_eq!(s.warnings()[0].ccid, Some(Ccid(0xA)), "two-hop origin");
    }

    #[test]
    fn overwriting_clears_copied_origins() {
        let mut s = ShadowBackend::new();
        let a = s.alloc(&req(AllocFn::Malloc, 16, 0xA)).unwrap();
        let b = s.alloc(&req(AllocFn::Calloc, 16, 0xB)).unwrap();
        s.copy(a, b, 16).unwrap();
        s.write(b, 16, 0x33).unwrap(); // program initializes B properly after all
        s.read(b, 16, Sink::Branch);
        assert_eq!(s.count(WarningKind::UninitRead), 0);
    }

    #[test]
    fn copy_into_red_zone_is_an_overflow() {
        let mut s = ShadowBackend::new();
        let a = s.alloc(&req(AllocFn::Malloc, 32, 1)).unwrap();
        let b = s.alloc(&req(AllocFn::Malloc, 32, 2)).unwrap();
        s.write(a, 32, 1).unwrap();
        // memcpy writes 8 bytes past b's end.
        assert!(s.copy(a, b + 8, 32).is_ok(), "analyzer resumes");
        assert_eq!(s.count(WarningKind::Overflow), 1);
    }

    #[test]
    fn partition_covers_subspaces_exhaustively() {
        let p0 = CcidPartition { index: 0, of: 4 };
        let p3 = CcidPartition { index: 3, of: 4 };
        for ccid in 0..100u64 {
            let covering = (0..4)
                .filter(|&i| CcidPartition { index: i, of: 4 }.covers(ccid))
                .count();
            assert_eq!(covering, 1, "exactly one replay owns CCID {ccid}");
        }
        assert!(p0.covers(8));
        assert!(p3.covers(7));
        // Degenerate single-partition covers everything.
        assert!(CcidPartition { index: 0, of: 1 }.covers(42));
    }

    #[test]
    fn partitioned_replay_halves_quarantine_pressure() {
        // 10 buffers across CCIDs 0..10; partition 0-of-2 defers only even
        // CCIDs.
        let mut s = ShadowBackend::with_config(ShadowConfig {
            partition: Some(CcidPartition { index: 0, of: 2 }),
            ..ShadowConfig::default()
        });
        for ccid in 0..10u64 {
            let p = s.alloc(&req(AllocFn::Malloc, 64, ccid)).unwrap();
            s.free(p).unwrap();
        }
        assert_eq!(s.quarantine.len(), 5, "only the even subspace deferred");
        assert_eq!(s.quarantine_bytes, 5 * 64);
    }

    #[test]
    fn partitioned_replays_union_to_full_detection() {
        // A UAF exploit on CCID 7 is only *detected* by the replay owning
        // 7 % 2 == 1; the union over replays finds it.
        let run = |partition| {
            let mut s = ShadowBackend::with_config(ShadowConfig {
                partition,
                ..ShadowConfig::default()
            });
            let p = s.alloc(&req(AllocFn::Malloc, 64, 7)).unwrap();
            s.free(p).unwrap();
            s.read(p, 8, Sink::Addr);
            s.generate_patches("uaf")
        };
        let full = run(None);
        assert_eq!(full.len(), 1);
        let replay0 = run(Some(CcidPartition { index: 0, of: 2 }));
        let replay1 = run(Some(CcidPartition { index: 1, of: 2 }));
        assert!(replay0.is_empty(), "wrong subspace misses the UAF");
        assert_eq!(replay1, full, "owning subspace reproduces the patch");
    }

    #[test]
    fn end_to_end_replay_via_interpreter() {
        let mut pb = ProgramBuilder::new();
        let main = pb.entry();
        let parse = pb.func("parse");
        let buf = pb.slot();
        pb.define(main, |b| b.call(parse));
        pb.define(parse, |b| {
            b.alloc(buf, AllocFn::Malloc, Expr::Input(0));
            b.write(buf, 0u64, Expr::Input(1), 0x41);
            b.free(buf);
        });
        let prog = pb.build();
        let plan = InstrumentationPlan::build(prog.graph(), Strategy::Slim, Scheme::Positional);

        // Benign input: in-bounds write → no patches.
        let mut i1 = Interpreter::new(&prog, &plan, ShadowBackend::new());
        i1.run(&[64, 64]);
        assert!(i1.backend().generate_patches("x").is_empty());

        // Attack input: overflow → one patch whose CCID decodes back to the
        // allocation context main→parse→malloc.
        let mut i2 = Interpreter::new(&prog, &plan, ShadowBackend::new());
        i2.run(&[64, 80]);
        let patches = i2.backend().generate_patches("bugbench-bc");
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0].alloc_fn, AllocFn::Malloc);
        assert_eq!(patches[0].vuln, VulnFlags::OVERFLOW);
        let malloc = prog.graph().func_by_name("malloc").unwrap();
        let path = ht_encoding::decode(
            prog.graph(),
            &plan,
            ht_encoding::Ccid(patches[0].ccid),
            malloc,
        )
        .expect("positional CCIDs decode");
        assert_eq!(path.len(), 2, "main→parse→malloc");
    }
}
