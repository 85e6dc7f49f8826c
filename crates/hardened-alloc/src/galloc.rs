//! The hardened global allocator.

use crate::ccid;
use crate::registry::{
    Entry, QuarantineRing, Registry, RegistryStats, StripedCounter, NO_PATCH_SLOT,
};
use ht_patch::{AllocFn, Patch, VulnFlags};
use ht_telemetry::{
    AttackReport, Event, EventKind, EventRing, PatchCounterRow, PatchStripes, TelemetrySnapshot,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// One installed patch, allocation-free representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchEntry {
    /// Allocation API the patch applies to.
    pub fun: AllocFn,
    /// Allocation-time CCID (from [`ccid::current`] at the patched site).
    pub ccid: u64,
    /// Defenses to apply.
    pub vuln: VulnFlags,
}

impl PatchEntry {
    /// A new patch entry.
    pub fn new(fun: AllocFn, ccid: u64, vuln: VulnFlags) -> Self {
        Self { fun, ccid, vuln }
    }
}

impl From<&Patch> for PatchEntry {
    fn from(p: &Patch) -> Self {
        Self::new(p.alloc_fn, p.ccid, p.vuln)
    }
}

/// Snapshot of the allocator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardenedStats {
    /// Allocation-family calls intercepted.
    pub interposed_allocs: u64,
    /// Deallocations intercepted.
    pub interposed_frees: u64,
    /// Patch-table hits (vulnerable buffers recognized).
    pub table_hits: u64,
    /// Guard pages installed.
    pub guard_pages: u64,
    /// Buffers zero-filled for UR defenses.
    pub zero_fills: u64,
    /// Blocks pushed into the quarantine.
    pub quarantined: u64,
    /// Blocks evicted from the quarantine back to the system.
    pub evictions: u64,
    /// Bytes ever pushed into the quarantine.
    pub quarantined_bytes: u64,
    /// Bytes evicted from the quarantine back to the system.
    pub evicted_bytes: u64,
    /// Defenses skipped because a fixed table was full (fail-open).
    pub fail_open: u64,
}

const PATCH_SLOTS: usize = 512;

/// One published patch slot. `meta` packs
/// `READY | fun << FUN_SHIFT | reported << REPORTED_SHIFT | vuln`; `ccid`
/// holds the key's context ID. The `reported` field mirrors the vuln bit
/// layout and carries the telemetry once-bits: bit `REPORTED_SHIFT + t` is
/// set the first time the `T = 1 << t` defense of this patch fires, so the
/// runtime files exactly one attack report per `(FUN, CCID, T)` without a
/// lock.
struct PatchSlot {
    meta: AtomicU64,
    ccid: AtomicU64,
}

const READY: u64 = 1 << 63;
const FUN_SHIFT: u32 = 32;
const REPORTED_SHIFT: u32 = 8;

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const EMPTY_SLOT: PatchSlot = PatchSlot {
    meta: AtomicU64::new(0),
    ccid: AtomicU64::new(0),
};

/// The online patch table: a fixed open-addressing probe whose **lookups
/// take no lock and touch no shared mutable state** — the hot path's common
/// case (table miss) is one Acquire load per probed slot.
///
/// Writes (rare: patch installation at startup) serialize on a spin lock
/// and publish each slot by storing `ccid` first, then the `meta` word with
/// `READY` set (Release). A reader that observes `READY` (Acquire)
/// therefore sees the matching `ccid`. Keys are never deleted, so probe
/// sequences are stable forever; merged vulnerability bits only ever grow
/// (`fetch_or`), so a racing reader sees a valid past or present value.
///
/// [`PatchSet::freeze`] seals the table against further installs — the
/// moral equivalent of the paper `mprotect`-ing its table read-only after
/// the configuration file is loaded. The telemetry once-bits (see
/// [`PatchSlot`]) are the one field that still mutates after freeze; they
/// are purely observational and masked out of every lookup.
struct PatchSet {
    lock: crate::registry::SpinLock,
    frozen: AtomicBool,
    slots: [PatchSlot; PATCH_SLOTS],
}

impl PatchSet {
    const fn new() -> Self {
        Self {
            lock: crate::registry::SpinLock::new(),
            frozen: AtomicBool::new(false),
            slots: [EMPTY_SLOT; PATCH_SLOTS],
        }
    }

    fn slot_of(fun: AllocFn, ccid: u64) -> usize {
        let key = ccid ^ ((fun as u64) << 56);
        (key.wrapping_mul(0x9E3779B97F4A7C15) >> (64 - 9)) as usize // log2(512)
    }

    fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Returns whether the entry fit (false: table full or frozen).
    fn insert(&self, e: PatchEntry) -> bool {
        let _g = self.lock.lock();
        if self.is_frozen() {
            return false;
        }
        let start = Self::slot_of(e.fun, e.ccid);
        for i in 0..PATCH_SLOTS {
            let s = (start + i) % PATCH_SLOTS;
            let slot = &self.slots[s];
            // The lock holder is the only writer, so Relaxed reads suffice
            // here; publication to readers happens via the Release below.
            let meta = slot.meta.load(Ordering::Relaxed);
            if meta & READY == 0 {
                slot.ccid.store(e.ccid, Ordering::Relaxed);
                slot.meta.store(
                    READY | ((e.fun as u64) << FUN_SHIFT) | u64::from(e.vuln.bits()),
                    Ordering::Release,
                );
                return true;
            }
            if (meta >> FUN_SHIFT) & 0xFF == e.fun as u64
                && slot.ccid.load(Ordering::Relaxed) == e.ccid
            {
                slot.meta
                    .fetch_or(u64::from(e.vuln.bits()), Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Lock-free probe (see the type-level comment for the protocol).
    /// Returns the vulnerability bits and the slot index of the hit.
    #[inline]
    fn lookup_slot(&self, fun: AllocFn, ccid: u64) -> Option<(usize, VulnFlags)> {
        let start = Self::slot_of(fun, ccid);
        for i in 0..PATCH_SLOTS {
            let s = (start + i) % PATCH_SLOTS;
            let slot = &self.slots[s];
            let meta = slot.meta.load(Ordering::Acquire);
            if meta & READY == 0 {
                return None;
            }
            if (meta >> FUN_SHIFT) & 0xFF == fun as u64 && slot.ccid.load(Ordering::Relaxed) == ccid
            {
                return Some((s, VulnFlags::from_bits_truncate(meta as u8)));
            }
        }
        None
    }

    #[cfg(test)]
    fn lookup(&self, fun: AllocFn, ccid: u64) -> VulnFlags {
        self.lookup_slot(fun, ccid)
            .map_or(VulnFlags::NONE, |(_, v)| v)
    }

    /// The published patch in slot `s`, if any.
    fn entry_at(&self, s: usize) -> Option<PatchEntry> {
        let slot = self.slots.get(s)?;
        let meta = slot.meta.load(Ordering::Acquire);
        if meta & READY == 0 {
            return None;
        }
        let fun = *AllocFn::ALL.get(((meta >> FUN_SHIFT) & 0xFF) as usize)?;
        Some(PatchEntry::new(
            fun,
            slot.ccid.load(Ordering::Relaxed),
            VulnFlags::from_bits_truncate(meta as u8),
        ))
    }

    /// Sets the once-bit for vulnerability type `t` (a single bit) in slot
    /// `s`. Returns `true` exactly once per `(slot, t)` — the caller files
    /// the attack report on `true`.
    fn report_once(&self, s: usize, t: VulnFlags) -> bool {
        let bit = u64::from(t.bits()) << REPORTED_SHIFT;
        let prev = self.slots[s].meta.fetch_or(bit, Ordering::Relaxed);
        prev & bit == 0
    }
}

const PAGE: usize = 4096;

fn page_up(n: usize) -> usize {
    (n + PAGE - 1) & !(PAGE - 1)
}

/// Body page counts the guarded-region cache keeps: a retired region whose
/// body spans `1..=REGION_CLASSES` pages goes back to that class.
const REGION_CLASSES: usize = 4;
/// Retired regions one class holds at most; a region retired into a full
/// class is unmapped.
const REGION_CLASS_CAP: usize = 64;

/// `mmap`s a region of `body` bytes followed by a `PROT_NONE` guard page.
/// Returns its base, or `None` when the kernel refuses.
///
/// # Safety
///
/// `body` must be a non-zero multiple of [`PAGE`].
unsafe fn map_region(body: usize) -> Option<usize> {
    let total = body + PAGE;
    let region = libc::mmap(
        std::ptr::null_mut(),
        total,
        libc::PROT_READ | libc::PROT_WRITE,
        libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
        -1,
        0,
    );
    if region == libc::MAP_FAILED {
        return None;
    }
    if libc::mprotect(region.cast::<u8>().add(body).cast(), PAGE, libc::PROT_NONE) != 0 {
        libc::munmap(region, total);
        return None;
    }
    Some(region as usize)
}

/// The stack of one cache class: region bases, the top at `len - 1`.
struct RegionStack {
    bases: [usize; REGION_CLASS_CAP],
    len: usize,
}

struct RegionClass {
    lock: crate::registry::SpinLock,
    stack: std::cell::UnsafeCell<RegionStack>,
}

// SAFETY: `lock` is a plain atomic flag; `stack` is only read or written
// while `lock` is held.
unsafe impl Sync for RegionClass {}

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const EMPTY_REGION_CLASS: RegionClass = RegionClass {
    lock: crate::registry::SpinLock::new(),
    stack: std::cell::UnsafeCell::new(RegionStack {
        bases: [0; REGION_CLASS_CAP],
        len: 0,
    }),
};

/// Retired guarded regions, kept mapped with their guard page still
/// `PROT_NONE`, so a guarded allocation that finds one makes no syscall.
///
/// One fixed-capacity stack of region base addresses per body page count,
/// each behind its own spin lock. The stacks live here and never in the
/// regions' own bytes, so a dangling read of a retired buffer cannot see
/// allocator pointers. A cached region holds its last user's bytes until
/// [`HardenedAlloc`] zeroes it on reuse. Dropping the cache unmaps every
/// region it holds.
struct RegionCache {
    classes: [RegionClass; REGION_CLASSES],
}

impl std::fmt::Debug for RegionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionCache").finish_non_exhaustive()
    }
}

impl RegionCache {
    const fn new() -> Self {
        Self {
            classes: [EMPTY_REGION_CLASS; REGION_CLASSES],
        }
    }

    /// The class of regions with a `body`-byte body, if the cache keeps
    /// them.
    fn class(&self, body: usize) -> Option<&RegionClass> {
        self.classes.get((body / PAGE).checked_sub(1)?)
    }

    /// Pops a retired region with a `body`-byte body, if one is cached.
    fn take(&self, body: usize) -> Option<usize> {
        let class = self.class(body)?;
        let _g = class.lock.lock();
        // SAFETY: the class lock is held.
        let st = unsafe { &mut *class.stack.get() };
        st.len = st.len.checked_sub(1)?;
        Some(st.bases[st.len])
    }

    /// Takes back a region with a `body`-byte body, or unmaps it when its
    /// class is full or the cache keeps no class for it.
    ///
    /// # Safety
    ///
    /// `region` must come from [`map_region`]`(body)`, be referenced by no
    /// live allocation, and be retired once.
    unsafe fn retire(&self, region: usize, body: usize) {
        if let Some(class) = self.class(body) {
            let _g = class.lock.lock();
            // SAFETY: the class lock is held.
            let st = &mut *class.stack.get();
            if st.len < REGION_CLASS_CAP {
                st.bases[st.len] = region;
                st.len += 1;
                return;
            }
        }
        libc::munmap(region as *mut libc::c_void, body + PAGE);
    }
}

impl Drop for RegionCache {
    fn drop(&mut self) {
        for pages in 1..=REGION_CLASSES {
            let body = pages * PAGE;
            while let Some(region) = self.take(body) {
                // SAFETY: every cached region came from `map_region(body)`
                // and is referenced by no allocation.
                unsafe { libc::munmap(region as *mut libc::c_void, body + PAGE) };
            }
        }
    }
}

/// The HeapTherapy+ hardened allocator over the system allocator.
///
/// Usable as a `static` (all state is fixed-size and allocation-free) and
/// therefore as `#[global_allocator]`. Defenses are driven by the patch set
/// installed with [`HardenedAlloc::install`]; unpatched allocations pay one
/// table probe and otherwise go straight to [`System`].
#[derive(Debug)]
pub struct HardenedAlloc {
    patches: PatchSet,
    registry: Registry,
    quarantine: QuarantineRing,
    regions: RegionCache,
    quota: AtomicUsize,
    interposed_allocs: StripedCounter,
    interposed_frees: StripedCounter,
    table_hits: StripedCounter,
    guard_pages: StripedCounter,
    zero_fills: StripedCounter,
    quarantined: StripedCounter,
    evictions: StripedCounter,
    quarantined_bytes: StripedCounter,
    evicted_bytes: StripedCounter,
    fail_open: StripedCounter,
    /// Telemetry arm switch. Checked only on defense-relevant paths (table
    /// hit, patched free), never on the unpatched fast path — disabled
    /// telemetry therefore costs zero atomics per ordinary allocation.
    telemetry_on: AtomicBool,
    /// Defense-activation events (telemetry; lock-free, allocation-free).
    events: EventRing,
    /// Per-patch-slot hit/byte counters (telemetry).
    patch_counters: PatchStripes<PATCH_SLOTS>,
}

impl std::fmt::Debug for PatchSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchSet").finish_non_exhaustive()
    }
}

impl Default for HardenedAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl HardenedAlloc {
    /// A hardened allocator with an empty patch set and a 64 MiB quarantine
    /// quota.
    pub const fn new() -> Self {
        Self {
            patches: PatchSet::new(),
            registry: Registry::new(),
            quarantine: QuarantineRing::new(),
            regions: RegionCache::new(),
            quota: AtomicUsize::new(64 * 1024 * 1024),
            interposed_allocs: StripedCounter::new(),
            interposed_frees: StripedCounter::new(),
            table_hits: StripedCounter::new(),
            guard_pages: StripedCounter::new(),
            zero_fills: StripedCounter::new(),
            quarantined: StripedCounter::new(),
            evictions: StripedCounter::new(),
            quarantined_bytes: StripedCounter::new(),
            evicted_bytes: StripedCounter::new(),
            fail_open: StripedCounter::new(),
            telemetry_on: AtomicBool::new(false),
            events: EventRing::new(),
            patch_counters: PatchStripes::new(),
        }
    }

    /// Installs patches (idempotent per `(FUN, CCID)`; bits merge).
    ///
    /// Returns how many entries were accepted (the fixed table holds 512;
    /// a [frozen](Self::freeze) table accepts none).
    pub fn install(&self, patches: &[PatchEntry]) -> usize {
        if self.patches.is_frozen() {
            return 0;
        }
        patches
            .iter()
            .filter(|&&p| {
                let ok = self.patches.insert(p);
                if !ok {
                    self.fail_open.incr();
                }
                ok
            })
            .count()
    }

    /// Seals the patch table: further [`Self::install`] calls accept
    /// nothing. The paper `mprotect`s its table read-only once the
    /// configuration file is loaded; this is the same promise — after
    /// `freeze`, the table is immutable and every lookup is a pure read.
    pub fn freeze(&self) {
        self.patches.freeze();
    }

    /// Whether [`Self::freeze`] has been called.
    pub fn is_frozen(&self) -> bool {
        self.patches.is_frozen()
    }

    /// Live-pointer registry counters, merged across shards. Conservation
    /// invariant: `inserts == removes + live()` at any quiescent point.
    pub fn registry_stats(&self) -> RegistryStats {
        self.registry.stats()
    }

    /// Installs patches from a configuration file in the standard text
    /// format (`FUN CCID TYPE`, see [`ht_patch::from_config_text`]) — the
    /// online defense generator's startup step on real memory.
    ///
    /// Returns how many entries were accepted.
    ///
    /// # Errors
    ///
    /// Propagates [`ht_patch::ConfigError`] for malformed input.
    pub fn install_from_config(&self, text: &str) -> Result<usize, ht_patch::ConfigError> {
        let patches = ht_patch::from_config_text(text)?;
        let entries: Vec<PatchEntry> = patches.iter().map(PatchEntry::from).collect();
        Ok(self.install(&entries))
    }

    /// Sets the quarantine quota in bytes.
    pub fn set_quarantine_quota(&self, bytes: usize) {
        self.quota.store(bytes, Ordering::Relaxed);
    }

    /// Counter snapshot. Byte conservation: at any quiescent point,
    /// `quarantined_bytes == evicted_bytes + quarantine_usage().1` — bytes
    /// deferred either went back to the system (eviction) or are still
    /// held.
    pub fn stats(&self) -> HardenedStats {
        HardenedStats {
            interposed_allocs: self.interposed_allocs.load(),
            interposed_frees: self.interposed_frees.load(),
            table_hits: self.table_hits.load(),
            guard_pages: self.guard_pages.load(),
            zero_fills: self.zero_fills.load(),
            quarantined: self.quarantined.load(),
            evictions: self.evictions.load(),
            quarantined_bytes: self.quarantined_bytes.load(),
            evicted_bytes: self.evicted_bytes.load(),
            fail_open: self.fail_open.load(),
        }
    }

    /// Arms or disarms telemetry recording. Off by default; switching is
    /// safe at any time (events race benignly around the flip).
    pub fn set_telemetry(&self, on: bool) {
        self.telemetry_on.store(on, Ordering::Relaxed);
    }

    /// Whether telemetry recording is armed.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry_on.load(Ordering::Relaxed)
    }

    #[inline]
    fn note(&self, ev: Event) {
        if self.telemetry_on.load(Ordering::Relaxed) {
            self.events.push(ev);
        }
    }

    /// Records a table hit plus the defenses about to be applied, files
    /// one-time attack reports per newly fired `(FUN, CCID, T)` with
    /// `T != UAF` (the UAF report files on the free path, where the
    /// quarantine defense actually runs).
    #[inline]
    fn note_patch_hit(&self, fun: AllocFn, ccid: u64, vuln: VulnFlags, slot: usize, size: usize) {
        if !self.telemetry_on.load(Ordering::Relaxed) {
            return;
        }
        let size = size as u64;
        self.patch_counters.record(slot, size);
        let slot32 = slot as u32;
        self.events.push(Event::patched(
            EventKind::PatchHit,
            fun,
            vuln,
            slot32,
            ccid,
            size,
        ));
        for (t, kind) in [
            (VulnFlags::OVERFLOW, EventKind::GuardInstall),
            (VulnFlags::UNINIT_READ, EventKind::ZeroInit),
        ] {
            if vuln.contains(t) {
                self.events
                    .push(Event::patched(kind, fun, t, slot32, ccid, size));
                if self.patches.report_once(slot, t) {
                    self.events.push(Event::patched(
                        EventKind::AttackReported,
                        fun,
                        t,
                        slot32,
                        ccid,
                        size,
                    ));
                }
            }
        }
    }

    /// Records a quarantine defer/evict for a registered entry, filing the
    /// one-time UAF attack report on the first defer of its patch.
    #[inline]
    fn note_quarantine(&self, kind: EventKind, e: &Entry) {
        if !self.telemetry_on.load(Ordering::Relaxed) || e.slot == NO_PATCH_SLOT {
            return;
        }
        let slot = e.slot as usize;
        let Some(p) = self.patches.entry_at(slot) else {
            return;
        };
        let size = e.size as u64;
        self.events.push(Event::patched(
            kind,
            p.fun,
            VulnFlags::USE_AFTER_FREE,
            e.slot,
            p.ccid,
            size,
        ));
        if kind == EventKind::QuarantineDefer
            && self.patches.report_once(slot, VulnFlags::USE_AFTER_FREE)
        {
            self.events.push(Event::patched(
                EventKind::AttackReported,
                p.fun,
                VulnFlags::USE_AFTER_FREE,
                e.slot,
                p.ccid,
                size,
            ));
        }
    }

    /// Drains the event ring (observer API — allocates, so never call it
    /// from inside an allocation).
    pub fn drain_events(&self) -> Vec<Event> {
        self.events.drain_vec()
    }

    /// Drains the ring and merges the per-patch counters into a full
    /// telemetry snapshot. Attack reports are rebuilt from the drained
    /// `attack-reported` events (call chains stay undecoded here — the
    /// allocator has no encoding plan; `heaptherapy-core` decodes).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let events = self.drain_events();
        let reports = events
            .iter()
            .filter(|e| e.kind == EventKind::AttackReported)
            .map(|e| AttackReport {
                fun: e.fun,
                ccid: e.ccid,
                vuln: e.vuln,
                slot: e.slot,
                size: e.size,
                call_chain: Vec::new(),
            })
            .collect();
        let merged = self.patch_counters.merge();
        let per_patch = merged
            .iter()
            .enumerate()
            .filter(|(_, c)| c.hits > 0)
            .filter_map(|(slot, c)| {
                let p = self.patches.entry_at(slot)?;
                Some(PatchCounterRow {
                    slot,
                    fun: p.fun,
                    ccid: p.ccid,
                    vuln: p.vuln,
                    hits: c.hits,
                    bytes: c.bytes,
                })
            })
            .collect();
        TelemetrySnapshot {
            events,
            delivered: self.events.delivered(),
            dropped: self.events.dropped(),
            per_patch,
            reports,
        }
    }

    /// Whether `ptr` is currently in the deferred-free quarantine.
    pub fn is_quarantined(&self, ptr: *mut u8) -> bool {
        self.quarantine.contains(ptr as usize)
    }

    /// Current quarantine usage: (blocks, bytes).
    pub fn quarantine_usage(&self) -> (usize, usize) {
        self.quarantine.usage()
    }

    /// The guard-page address of a guarded live allocation, if any.
    pub fn guard_page_of(&self, ptr: *mut u8) -> Option<usize> {
        let e = self.registry.get(ptr as usize)?;
        if e.region == 0 {
            return None;
        }
        Some(e.region + e.region_len - PAGE)
    }

    /// Takes a region with a trailing `PROT_NONE` guard page — a cached
    /// one, else a fresh `mmap` — and places the user buffer so its end
    /// abuts the guard (modulo alignment). The whole body reads zero, as
    /// fresh `mmap` memory does, which covers UR patches and `calloc`.
    unsafe fn guarded_alloc(
        &self,
        layout: Layout,
        zeroed: bool,
        vuln: VulnFlags,
        slot: u32,
    ) -> *mut u8 {
        let size = layout.size().max(1);
        let align = layout.align().max(1);
        let body = page_up(size + align);
        let region = match self.regions.take(body) {
            // SAFETY: a cached region's `body` bytes are mapped read-write
            // and belong to no live allocation.
            Some(region) => {
                std::ptr::write_bytes(region as *mut u8, 0, body);
                region
            }
            None => match map_region(body) {
                Some(region) => region,
                None => return std::ptr::null_mut(),
            },
        };
        let guard = region + body;
        let user = (guard - size) & !(align - 1);
        debug_assert!(user >= region);
        let entry = Entry {
            ptr: user,
            region,
            region_len: body + PAGE,
            vuln: vuln.bits(),
            slot,
            size,
            align,
        };
        if !self.registry.insert(entry) {
            // Fail open: no room to remember the region; fall back to the
            // system allocator so dealloc stays correct, still zeroed when
            // the call or the patch asks for zeroed memory.
            self.regions.retire(region, body);
            self.fail_open.incr();
            self.note(Event::unattributed(
                EventKind::FailOpen,
                AllocFn::Malloc,
                size as u64,
            ));
            return if zeroed || vuln.contains(VulnFlags::UNINIT_READ) {
                System.alloc_zeroed(layout)
            } else {
                System.alloc(layout)
            };
        }
        self.guard_pages.incr();
        user as *mut u8
    }

    unsafe fn alloc_with(&self, fun: AllocFn, layout: Layout, zeroed: bool) -> *mut u8 {
        self.interposed_allocs.incr();
        let ccid = ccid::current();
        let (slot, vuln) = self
            .patches
            .lookup_slot(fun, ccid)
            .unwrap_or((NO_PATCH_SLOT as usize, VulnFlags::NONE));
        if !vuln.is_empty() {
            self.table_hits.incr();
            self.note_patch_hit(fun, ccid, vuln, slot, layout.size());
        }
        if vuln.contains(VulnFlags::OVERFLOW) {
            // Guarded bodies always read zero, which also covers UR.
            if vuln.contains(VulnFlags::UNINIT_READ) {
                self.zero_fills.incr();
            }
            return self.guarded_alloc(layout, zeroed, vuln, slot as u32);
        }
        let p = if zeroed {
            System.alloc_zeroed(layout)
        } else {
            System.alloc(layout)
        };
        if p.is_null() {
            return p;
        }
        if vuln.contains(VulnFlags::UNINIT_READ) && !zeroed {
            std::ptr::write_bytes(p, 0, layout.size());
            self.zero_fills.incr();
        }
        if vuln.contains(VulnFlags::USE_AFTER_FREE) {
            let entry = Entry {
                ptr: p as usize,
                region: 0,
                region_len: 0,
                vuln: vuln.bits(),
                slot: slot as u32,
                size: layout.size(),
                align: layout.align(),
            };
            if !self.registry.insert(entry) {
                self.fail_open.incr();
                self.note(Event::unattributed(
                    EventKind::FailOpen,
                    fun,
                    layout.size() as u64,
                ));
            }
        }
        p
    }

    /// Returns a freed block for good: a guarded region to the region
    /// cache, a system block to [`System`].
    unsafe fn release(&self, e: Entry) {
        if e.region != 0 {
            self.regions.retire(e.region, e.region_len - PAGE);
        } else {
            let layout = Layout::from_size_align_unchecked(e.size.max(1), e.align.max(1));
            System.dealloc(e.ptr as *mut u8, layout);
        }
    }
}

impl Drop for HardenedAlloc {
    /// Hands the quarantined blocks back; the region cache's own `Drop`
    /// then unmaps every retired region. Buffers still live belong to
    /// their callers and stay as they are.
    fn drop(&mut self) {
        while let Some(e) = self.quarantine.pop() {
            // SAFETY: a quarantined block was freed by its owner, and
            // popping it out of the quarantine releases it exactly once.
            unsafe { self.release(e) };
        }
    }
}

unsafe impl GlobalAlloc for HardenedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.alloc_with(AllocFn::Malloc, layout, false)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.alloc_with(AllocFn::Calloc, layout, true)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.interposed_frees.incr();
        match self.registry.remove(ptr as usize) {
            Some(e) => {
                let vuln = VulnFlags::from_bits_truncate(e.vuln);
                if vuln.contains(VulnFlags::USE_AFTER_FREE) {
                    self.quarantined.incr();
                    self.quarantined_bytes.add(e.size as u64);
                    self.note_quarantine(EventKind::QuarantineDefer, &e);
                    let quota = self.quota.load(Ordering::Relaxed);
                    for evicted in self.quarantine.push(e, quota) {
                        self.evictions.incr();
                        self.evicted_bytes.add(evicted.size as u64);
                        self.note_quarantine(EventKind::QuarantineEvict, &evicted);
                        self.release(evicted);
                    }
                } else {
                    self.release(e);
                }
            }
            None => System.dealloc(ptr, layout),
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Interpose as the realloc API: the *realloc-time* context decides
        // the defense (paper Section V).
        let Ok(new_layout) = Layout::from_size_align(new_size, layout.align()) else {
            return std::ptr::null_mut();
        };
        let new_ptr = self.alloc_with(AllocFn::Realloc, new_layout, false);
        if new_ptr.is_null() {
            return new_ptr;
        }
        std::ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
        self.dealloc(ptr, layout);
        new_ptr
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    /// Reads /proc/self/maps and returns the permission string covering
    /// `addr`, e.g. `"---p"`.
    fn perms_at(addr: usize) -> Option<String> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        for line in maps.lines() {
            let (range, rest) = line.split_once(' ')?;
            let (lo, hi) = range.split_once('-')?;
            let lo = usize::from_str_radix(lo, 16).ok()?;
            let hi = usize::from_str_radix(hi, 16).ok()?;
            if addr >= lo && addr < hi {
                return Some(rest.split(' ').next()?.to_string());
            }
        }
        None
    }

    /// Serializes the tests that map guarded regions. Tests run on parallel
    /// threads of one process, so a region another test maps could land
    /// where a test expects its own retired region to be gone.
    pub(crate) fn maps_lock() -> std::sync::MutexGuard<'static, ()> {
        static MAPS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        MAPS.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A fresh allocator with one malloc patch for call site `site`.
    fn patched(site: u64, vuln: VulnFlags) -> HardenedAlloc {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(site, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Malloc, here, vuln)]);
        a
    }

    /// Allocates `l` inside call site `site`.
    unsafe fn alloc_at(a: &HardenedAlloc, site: u64, l: Layout) -> *mut u8 {
        let _site = ccid::CallScope::enter(site);
        let p = a.alloc(l);
        assert!(!p.is_null());
        p
    }

    #[test]
    fn recycled_region_keeps_its_guard_and_reads_zero() {
        let _maps = maps_lock();
        let a = patched(0xC1, VulnFlags::OVERFLOW);
        unsafe {
            let big = layout(3000, 16);
            let p = alloc_at(&a, 0xC1, big);
            std::ptr::write_bytes(p, 0xFF, 3000);
            let guard = a.guard_page_of(p).expect("guarded allocation");
            a.dealloc(p, big);
            // 3000 B and 100 B both have a one-page body: same class.
            let small = layout(100, 8);
            let q = alloc_at(&a, 0xC1, small);
            assert_eq!(a.guard_page_of(q), Some(guard), "region reused");
            assert_eq!(perms_at(guard).as_deref(), Some("---p"));
            let region = a.registry.get(q as usize).expect("registered").region;
            let body = std::slice::from_raw_parts(region as *const u8, guard - region);
            assert!(body.iter().all(|&b| b == 0), "reused body reads zero");
            a.dealloc(q, small);
        }
        assert_eq!(a.stats().guard_pages, 2, "one guard page per allocation");
    }

    #[test]
    fn regions_beyond_class_capacity_are_unmapped() {
        let _maps = maps_lock();
        let a = patched(0xC2, VulnFlags::OVERFLOW);
        let l = layout(64, 8);
        unsafe {
            let ptrs: Vec<*mut u8> = (0..REGION_CLASS_CAP + 4)
                .map(|_| alloc_at(&a, 0xC2, l))
                .collect();
            let guards: Vec<usize> = ptrs
                .iter()
                .map(|&p| a.guard_page_of(p).expect("guarded allocation"))
                .collect();
            for p in ptrs {
                a.dealloc(p, l);
            }
            // The first frees fill the class; the last four find it full.
            for &g in &guards[..REGION_CLASS_CAP] {
                assert_eq!(perms_at(g).as_deref(), Some("---p"), "cached");
            }
            for &g in &guards[REGION_CLASS_CAP..] {
                assert_ne!(perms_at(g).as_deref(), Some("---p"), "unmapped");
            }
        }
    }

    #[test]
    fn quota_evicted_overflow_uaf_region_is_reused() {
        let _maps = maps_lock();
        let a = patched(0xC3, VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE);
        a.set_quarantine_quota(0);
        let l = layout(64, 8);
        unsafe {
            let p = alloc_at(&a, 0xC3, l);
            let guard = a.guard_page_of(p).expect("guarded allocation");
            a.dealloc(p, l);
            assert!(!a.is_quarantined(p), "a zero quota evicts at once");
            let q = alloc_at(&a, 0xC3, l);
            assert_eq!(a.guard_page_of(q), Some(guard), "evicted region reused");
            a.dealloc(q, l);
        }
        assert_eq!(a.stats().evictions, 2);
    }

    #[test]
    fn drop_unmaps_cached_and_quarantined_regions() {
        let _maps = maps_lock();
        let a = Box::new(HardenedAlloc::new());
        let guarded = ccid::with_site(0xC4, ccid::current);
        let deferred = ccid::with_site(0xC5, ccid::current);
        a.install(&[
            PatchEntry::new(AllocFn::Malloc, guarded, VulnFlags::OVERFLOW),
            PatchEntry::new(
                AllocFn::Malloc,
                deferred,
                VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE,
            ),
        ]);
        let l = layout(64, 8);
        let mut guards = Vec::new();
        unsafe {
            let ptrs: Vec<*mut u8> = (0..8)
                .map(|i| alloc_at(&a, if i < 6 { 0xC4 } else { 0xC5 }, l))
                .collect();
            for p in ptrs {
                guards.push(a.guard_page_of(p).expect("guarded allocation"));
                a.dealloc(p, l);
            }
        }
        assert_eq!(a.quarantine_usage().0, 2, "OF|UAF regions held back");
        for &g in &guards {
            assert_eq!(perms_at(g).as_deref(), Some("---p"));
        }
        drop(a);
        for &g in &guards {
            assert_ne!(perms_at(g).as_deref(), Some("---p"), "unmapped on drop");
        }
    }

    #[test]
    fn fail_open_keeps_calloc_and_ur_buffers_zeroed() {
        let _maps = maps_lock();
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0xC6, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Calloc,
            here,
            VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ,
        )]);
        let l = layout(64, 8);
        let mut live = Vec::with_capacity(crate::registry::REGISTRY_CAP + 1);
        unsafe {
            // A full registry has no room for one more guarded buffer.
            for _ in 0..=crate::registry::REGISTRY_CAP {
                // Leave a dirty block of this size where the system
                // allocator hands out its next one.
                let d = System.alloc(l);
                std::ptr::write_bytes(d, 0xFF, 64);
                System.dealloc(d, l);
                let _site = ccid::CallScope::enter(0xC6);
                live.push(a.alloc_zeroed(l));
                if a.stats().fail_open > 0 {
                    break;
                }
            }
            assert_eq!(a.stats().fail_open, 1, "a registry shard filled up");
            let p = *live.last().expect("allocated");
            assert!(a.guard_page_of(p).is_none(), "served by the system");
            assert!(
                std::slice::from_raw_parts(p, 64).iter().all(|&b| b == 0),
                "fail-open buffer reads zero"
            );
            for p in live {
                a.dealloc(p, l);
            }
        }
    }

    #[test]
    fn unpatched_allocations_pass_through() {
        let a = HardenedAlloc::new();
        unsafe {
            let l = layout(128, 8);
            let p = a.alloc(l);
            assert!(!p.is_null());
            std::ptr::write_bytes(p, 0xAB, 128);
            assert_eq!(*p.add(127), 0xAB);
            a.dealloc(p, l);
        }
        let st = a.stats();
        assert_eq!(st.interposed_allocs, 1);
        assert_eq!(st.interposed_frees, 1);
        assert_eq!(st.table_hits, 0);
        assert_eq!(st.guard_pages, 0);
    }

    #[test]
    fn guard_page_is_mapped_inaccessible() {
        let _maps = maps_lock();
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x0F, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Malloc, here, VulnFlags::OVERFLOW)]);
        unsafe {
            let _site = ccid::CallScope::enter(0x0F);
            let l = layout(1000, 16);
            let p = a.alloc(l);
            assert!(!p.is_null());
            // Whole buffer writable.
            std::ptr::write_bytes(p, 0x55, 1000);
            // The guard page directly follows (mod alignment slack) and is
            // PROT_NONE.
            let guard = a.guard_page_of(p).expect("guarded allocation");
            assert!(guard >= p as usize + 1000);
            assert!(guard - (p as usize + 1000) < 16, "end abuts the guard");
            assert_eq!(perms_at(guard).as_deref(), Some("---p"));
            a.dealloc(p, l);
            assert!(a.guard_page_of(p).is_none(), "region retired on free");
        }
        assert_eq!(a.stats().guard_pages, 1);
        assert_eq!(a.stats().table_hits, 1);
    }

    #[test]
    fn ur_patch_zero_fills_real_memory() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x11, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::UNINIT_READ,
        )]);
        unsafe {
            // Warm the system allocator with dirty blocks.
            let l = layout(512, 16);
            for _ in 0..8 {
                let p = a.alloc(l);
                std::ptr::write_bytes(p, 0xEE, 512);
                a.dealloc(p, l);
            }
            let _site = ccid::CallScope::enter(0x11);
            let p = a.alloc(l);
            let buf = std::slice::from_raw_parts(p, 512);
            assert!(buf.iter().all(|&b| b == 0), "patched context zero-filled");
            a.dealloc(p, l);
        }
        assert_eq!(a.stats().zero_fills, 1);
    }

    #[test]
    fn uaf_patch_quarantines_real_frees() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x22, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        unsafe {
            let l = layout(256, 16);
            let p = {
                let _site = ccid::CallScope::enter(0x22);
                a.alloc(l)
            };
            std::ptr::write_bytes(p, 0x11, 256);
            a.dealloc(p, l);
            assert!(a.is_quarantined(p), "free deferred");
            // The memory is still mapped and carries the stale bytes.
            assert_eq!(*p, 0x11);
            assert_eq!(a.quarantine_usage(), (1, 256));
        }
        assert_eq!(a.stats().quarantined, 1);
        assert_eq!(a.stats().evictions, 0);
    }

    #[test]
    fn quarantine_quota_evicts_to_system() {
        let a = HardenedAlloc::new();
        a.set_quarantine_quota(600);
        let here = ccid::with_site(0x33, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        unsafe {
            let l = layout(256, 16);
            for _ in 0..4 {
                let p = {
                    let _site = ccid::CallScope::enter(0x33);
                    a.alloc(l)
                };
                a.dealloc(p, l);
            }
        }
        let st = a.stats();
        assert_eq!(st.quarantined, 4);
        assert!(st.evictions >= 2, "quota forces evictions: {st:?}");
        assert!(a.quarantine_usage().1 <= 600);
    }

    #[test]
    fn realloc_probes_realloc_context() {
        let _maps = maps_lock();
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x44, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Realloc, here, VulnFlags::OVERFLOW)]);
        unsafe {
            let l = layout(64, 8);
            let p = a.alloc(l);
            std::ptr::write_bytes(p, 0x77, 64);
            let q = {
                let _site = ccid::CallScope::enter(0x44);
                a.realloc(p, l, 256)
            };
            assert!(!q.is_null());
            // Contents preserved.
            assert!(std::slice::from_raw_parts(q, 64).iter().all(|&b| b == 0x77));
            // New buffer is guarded.
            assert!(a.guard_page_of(q).is_some());
            a.dealloc(q, layout(256, 8));
        }
    }

    #[test]
    fn alloc_zeroed_probes_calloc() {
        let _maps = maps_lock();
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x55, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Calloc, here, VulnFlags::OVERFLOW)]);
        unsafe {
            let l = layout(100, 8);
            let _site = ccid::CallScope::enter(0x55);
            let p = a.alloc_zeroed(l);
            assert!(a.guard_page_of(p).is_some(), "calloc patch hit");
            assert!(std::slice::from_raw_parts(p, 100).iter().all(|&b| b == 0));
            a.dealloc(p, l);
        }
    }

    #[test]
    fn different_context_same_site_constant_misses() {
        let a = HardenedAlloc::new();
        let patched = ccid::with_site(1, || ccid::with_site(2, ccid::current));
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            patched,
            VulnFlags::OVERFLOW,
        )]);
        unsafe {
            let l = layout(64, 8);
            // Same leaf site (2) under a different caller (3): different
            // CCID, no defense.
            let p = ccid::with_site(3, || ccid::with_site(2, || a.alloc(l)));
            assert!(a.guard_page_of(p).is_none());
            a.dealloc(p, l);
        }
    }

    #[test]
    fn install_from_config_text() {
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x77, ccid::current);
        let text = format!("malloc {here:#x} UR|UAF  # from-disk\nbogus-line-free\n");
        assert!(a.install_from_config(&text).is_err(), "malformed rejected");
        let text = format!("malloc {here:#x} UR|UAF  # from-disk\n");
        assert_eq!(a.install_from_config(&text).unwrap(), 1);
        unsafe {
            let l = layout(64, 8);
            let p = {
                let _site = ccid::CallScope::enter(0x77);
                a.alloc(l)
            };
            assert!(
                std::slice::from_raw_parts(p, 64).iter().all(|&b| b == 0),
                "UR bit from the config applied"
            );
            a.dealloc(p, l);
            assert!(a.is_quarantined(p), "UAF bit from the config applied");
        }
    }

    #[test]
    fn patch_entry_from_patch() {
        let p = Patch::new(AllocFn::Malloc, 7, VulnFlags::ALL);
        let e = PatchEntry::from(&p);
        assert_eq!(e.ccid, 7);
        assert_eq!(e.vuln, VulnFlags::ALL);
    }

    #[test]
    fn install_merges_duplicate_keys() {
        let a = HardenedAlloc::new();
        assert_eq!(
            a.install(&[
                PatchEntry::new(AllocFn::Malloc, 9, VulnFlags::OVERFLOW),
                PatchEntry::new(AllocFn::Malloc, 9, VulnFlags::UNINIT_READ),
            ]),
            2
        );
        assert_eq!(
            a.patches.lookup(AllocFn::Malloc, 9),
            VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ
        );
    }

    #[test]
    fn concurrent_allocation_stress() {
        use std::sync::Arc;
        let a = Arc::new(HardenedAlloc::new());
        let here = ccid::with_site(0x66, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || unsafe {
                let l = layout(64, 8);
                for i in 0..200 {
                    let p = if i % 3 == 0 {
                        let _site = ccid::CallScope::enter(0x66);
                        a.alloc(l)
                    } else {
                        a.alloc(l)
                    };
                    assert!(!p.is_null());
                    std::ptr::write_bytes(p, t, 64);
                    assert_eq!(*p.add(63), t);
                    a.dealloc(p, l);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let st = a.stats();
        assert_eq!(st.interposed_allocs, 800);
        assert_eq!(st.interposed_frees, 800);
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let _maps = maps_lock();
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x88, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Malloc, here, VulnFlags::ALL)]);
        unsafe {
            let l = layout(128, 8);
            let p = {
                let _site = ccid::CallScope::enter(0x88);
                a.alloc(l)
            };
            a.dealloc(p, l);
        }
        assert!(!a.telemetry_enabled());
        let snap = a.telemetry_snapshot();
        assert!(snap.is_empty(), "disabled telemetry observed {snap:?}");
        assert_eq!(snap.delivered, 0);
    }

    #[test]
    fn telemetry_records_defenses_and_files_one_report_per_t() {
        let _maps = maps_lock();
        let a = HardenedAlloc::new();
        a.set_telemetry(true);
        let here = ccid::with_site(0x99, ccid::current);
        a.install(&[PatchEntry::new(AllocFn::Malloc, here, VulnFlags::ALL)]);
        a.freeze();
        unsafe {
            let l = layout(200, 8);
            for _ in 0..3 {
                let p = {
                    let _site = ccid::CallScope::enter(0x99);
                    a.alloc(l)
                };
                a.dealloc(p, l);
            }
        }
        let snap = a.telemetry_snapshot();
        // 3 hits of one ALL-patch: OF + UR report at first alloc, UAF
        // report at first defer — exactly one report per (FUN, CCID, T).
        assert_eq!(snap.reports.len(), 3, "{:?}", snap.reports);
        let mut types: Vec<VulnFlags> = snap.reports.iter().map(|r| r.vuln).collect();
        types.sort();
        assert_eq!(
            types,
            vec![
                VulnFlags::OVERFLOW,
                VulnFlags::USE_AFTER_FREE,
                VulnFlags::UNINIT_READ
            ]
        );
        for r in &snap.reports {
            assert_eq!(r.fun, AllocFn::Malloc);
            assert_eq!(r.ccid, here);
            assert_eq!(r.size, 200);
        }
        // Per-patch counters: 3 hits x 200 bytes against the one patch.
        assert_eq!(snap.per_patch.len(), 1);
        assert_eq!(snap.per_patch[0].hits, 3);
        assert_eq!(snap.per_patch[0].bytes, 600);
        assert_eq!(snap.per_patch[0].ccid, here);
        // Events: per round one patch-hit + guard-install + zero-init +
        // quarantine-defer, plus the 3 one-time attack reports.
        let count = |k: EventKind| snap.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::PatchHit), 3);
        assert_eq!(count(EventKind::GuardInstall), 3);
        assert_eq!(count(EventKind::ZeroInit), 3);
        assert_eq!(count(EventKind::QuarantineDefer), 3);
        assert_eq!(count(EventKind::AttackReported), 3);
        assert_eq!(snap.dropped, 0);
        // A second snapshot delivers no stale events and no new reports.
        let again = a.telemetry_snapshot();
        assert!(again.events.is_empty(), "events delivered exactly once");
        assert!(again.reports.is_empty());
    }

    #[test]
    fn telemetry_eviction_events_attribute_the_patch() {
        let a = HardenedAlloc::new();
        a.set_telemetry(true);
        a.set_quarantine_quota(600);
        let here = ccid::with_site(0xAA, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        unsafe {
            let l = layout(256, 16);
            for _ in 0..4 {
                let p = {
                    let _site = ccid::CallScope::enter(0xAA);
                    a.alloc(l)
                };
                a.dealloc(p, l);
            }
        }
        let snap = a.telemetry_snapshot();
        let evicts: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::QuarantineEvict)
            .collect();
        assert!(!evicts.is_empty(), "quota forces evictions");
        for e in evicts {
            assert_eq!(e.ccid, here, "eviction attributed to its patch");
            assert_eq!(e.size, 256);
        }
        let st = a.stats();
        assert_eq!(st.quarantined_bytes, 4 * 256);
        assert_eq!(
            st.quarantined_bytes,
            st.evicted_bytes + a.quarantine_usage().1 as u64,
            "byte conservation through evictions"
        );
    }

    #[test]
    fn quarantine_quota_is_honored_with_remainder() {
        // End-to-end satellite regression: a quota that is not a multiple
        // of the shard count must still be reachable within one block size
        // per shard (the old `quota / 8` truncation lost the remainder and
        // let a saturated shard evict early).
        let a = HardenedAlloc::new();
        let quota = 2055; // 8 * 256 + 7
        a.set_quarantine_quota(quota);
        let here = ccid::with_site(0xBB, ccid::current);
        a.install(&[PatchEntry::new(
            AllocFn::Malloc,
            here,
            VulnFlags::USE_AFTER_FREE,
        )]);
        unsafe {
            // Hold all allocations live first so 200 *distinct* pointers
            // are pushed, spreading across every quarantine shard.
            let l = layout(64, 8);
            let ptrs: Vec<*mut u8> = (0..200)
                .map(|_| {
                    let _site = ccid::CallScope::enter(0xBB);
                    a.alloc(l)
                })
                .collect();
            for p in ptrs {
                a.dealloc(p, l);
            }
        }
        let (_, bytes) = a.quarantine_usage();
        assert!(bytes <= quota);
        assert!(
            bytes + 8 * 64 > quota,
            "usage {bytes} cannot reach quota {quota} within one 64-byte \
             block per shard"
        );
        let st = a.stats();
        assert_eq!(st.quarantined_bytes, 200 * 64);
        assert_eq!(st.quarantined_bytes, st.evicted_bytes + bytes as u64);
    }
}
