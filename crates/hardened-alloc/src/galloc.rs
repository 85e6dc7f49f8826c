//! The hardened global allocator: the policy that picks each buffer's
//! defenses from the patch table, built on the crate's header format
//! (`word`), guarded regions (`region`), quarantine and counter block.

use crate::ccid;
use crate::counters::{Counters, Total, CELLS};
use crate::quarantine::{Entry, Quarantine};
use crate::region::{map_region, RegionCache};
use crate::word::{
    clear_word, guarded_body, guarded_header, header_len, load_word, store_word, uaf_header_len,
    MetaWord, Node, NODE_SIZE_LIMIT,
};
use ht_patch::{AllocFn, Patch, PatchTable, VulnFlags};
use ht_telemetry::{Event, Recorder, TelemetrySnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Snapshot of the allocator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardenedStats {
    /// Allocation-family calls intercepted.
    pub interposed_allocs: u64,
    /// Deallocations intercepted.
    pub interposed_frees: u64,
    /// Patch-table hits whose buffer was placed: the sum of the per-slot
    /// hits.
    pub table_hits: u64,
    /// Guard pages installed: one per guarded allocation, whether its
    /// region came from the region cache or was mapped fresh.
    pub guard_pages: u64,
    /// Guarded regions mapped fresh (`mmap` + `mprotect`) because the
    /// region cache held none of their body size; the rest of
    /// `guard_pages` reused a cached region. Once a run's guarded buffers
    /// live or quarantined at once have reached their peak per body size
    /// (of at most four pages), this stops moving.
    pub region_maps: u64,
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
    /// Patches the fixed patch table could not take (fail-open).
    pub fail_open: u64,
    /// Frees refused because the buffer's metadata word did not decode as
    /// a live tracked buffer (OF or UAF) of this allocator: double frees of
    /// tracked buffers, and foreign pointers whose word is not the plain
    /// one. An unpatched buffer freed twice is not reliably refused: its
    /// second free reads a header that [`System`] owns again, so it fares
    /// as a double free does with no defense.
    pub invalid_frees: u64,
    /// Counter increments made with atomic adds on the allocator's one
    /// shared counter row because the calling thread had no counter cell:
    /// the pool of [`HardenedAlloc::COUNTER_CELLS`] cells was full, or the
    /// thread was claiming a cell or exiting.
    pub fallback_counts: u64,
}

/// Counters of tracked buffers: those allocated with a guard page or bound
/// for the quarantine (an OF or UAF patch), and their frees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Tracked buffers ever allocated.
    pub inserts: u64,
    /// Tracked buffers ever freed.
    pub removes: u64,
}

impl RegistryStats {
    /// Tracked buffers currently live (inserts = removes + live).
    pub fn live(&self) -> u64 {
        self.inserts - self.removes
    }
}

/// The HeapTherapy+ hardened allocator over the system allocator.
///
/// Usable as a `static` (`new` is `const` and nothing it owns is ever
/// allocated through an allocator: its tables are fixed-size, and the
/// region cache's arrays start empty and grow in mappings of their own)
/// and therefore as `#[global_allocator]`. Defenses are driven by the patches
/// installed with [`HardenedAlloc::install`] into its [`PatchTable`], the
/// same table type the simulated defense probes. Every buffer is preceded by
/// the paper's 8-byte metadata word (Fig. 6). An unpatched allocation pays
/// one count, one CCID read, one table probe and one word store; an
/// unpatched free one count and one word load and compare; both otherwise
/// go straight to [`System`]. A count is a plain load and store on the
/// calling thread's own counter cell, no atomic read-modify-write, once
/// the thread's first count has claimed the cell (see
/// [`Self::COUNTER_CELLS`]).
///
/// A guarded (OVERFLOW) buffer's region of whole body pages and a trailing
/// `PROT_NONE` guard page is mapped once and, when the buffer is freed or
/// leaves the quarantine, kept for the next guarded buffer of its body size
/// (up to four pages): a run maps as many regions of a size as it ever
/// holds live or quarantined at once ([`HardenedStats::region_maps`]) and
/// unmaps them when the allocator is dropped.
pub struct HardenedAlloc {
    patches: PatchTable,
    quarantine: Quarantine,
    regions: RegionCache,
    quota: AtomicUsize,
    /// Every count behind [`Self::stats`], [`Self::registry_stats`] and
    /// the per-patch rows of [`Self::telemetry_snapshot`].
    counters: Counters,
    /// Events and attack reports. Called only on defense-relevant paths
    /// (table hit, patched free), never on the unpatched fast path, so
    /// disarmed telemetry costs an ordinary allocation nothing.
    telemetry: Recorder,
}

impl std::fmt::Debug for HardenedAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("HardenedAlloc")
            .field("stats", &stats)
            .finish_non_exhaustive()
    }
}

impl Default for HardenedAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl HardenedAlloc {
    /// Threads that can count at once with a cell of their own, across
    /// every allocator of the process. A thread claims a cell at its first
    /// count for an allocator, gives it up when it counts for another one
    /// or exits, and a later thread of the same allocator takes it back
    /// with its counts. A thread that finds every cell taken counts on the
    /// allocator's one shared row with atomic adds instead, until a cell
    /// frees up; [`HardenedStats::fallback_counts`] counts those
    /// increments.
    pub const COUNTER_CELLS: usize = CELLS;

    /// A hardened allocator with an empty patch table and a 64 MiB quarantine
    /// quota.
    pub const fn new() -> Self {
        Self {
            patches: PatchTable::new(),
            quarantine: Quarantine::new(),
            regions: RegionCache::new(),
            quota: AtomicUsize::new(64 * 1024 * 1024),
            counters: Counters::new(),
            telemetry: Recorder::new(false),
        }
    }

    /// Installs patches (idempotent per `(FUN, CCID)`; bits merge). Each
    /// new key takes the next [`PatchTable`] slot, in slice order.
    ///
    /// [`GlobalAlloc::alloc`] serves `malloc` and `memalign` alike, so a
    /// memalign patch is keyed under [`AllocFn::Malloc`], where `alloc`
    /// probes, and its slot names `memalign`. It then also defends a malloc
    /// at its CCID; a malloc and a memalign patch of one CCID share one
    /// slot, their bits merged, named by the first installed.
    ///
    /// Returns how many entries were accepted. A patch beyond
    /// [`PatchTable::CAPACITY`] keys is refused and counted in `fail_open`;
    /// a [frozen](Self::freeze) table accepts none.
    pub fn install(&self, patches: &[Patch]) -> usize {
        if self.patches.is_frozen() {
            return 0;
        }
        patches
            .iter()
            .filter(|p| {
                let key = match p.alloc_fn {
                    AllocFn::Memalign => AllocFn::Malloc,
                    fun => fun,
                };
                let ok = self.patches.insert_as(p, key).is_some();
                if !ok {
                    self.counters.incr(Total::FailOpen);
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

    /// Tracked-buffer counters (guarded or quarantine-bound buffers).
    /// Conservation invariant: `inserts == removes + live()` at any
    /// quiescent point.
    pub fn registry_stats(&self) -> RegistryStats {
        let totals = self.counters.totals();
        RegistryStats {
            inserts: totals[Total::TrackedAllocs as usize],
            removes: totals[Total::TrackedFrees as usize],
        }
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
        Ok(self.install(&ht_patch::from_config_text(text)?))
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
        let totals = self.counters.totals();
        let total = |t: Total| totals[t as usize];
        HardenedStats {
            interposed_allocs: total(Total::InterposedAllocs),
            interposed_frees: total(Total::InterposedFrees),
            table_hits: self.counters.hits(self.patches.len()),
            guard_pages: total(Total::GuardPages),
            region_maps: total(Total::RegionMaps),
            zero_fills: total(Total::ZeroFills),
            quarantined: total(Total::Quarantined),
            evictions: total(Total::Evictions),
            quarantined_bytes: total(Total::QuarantinedBytes),
            evicted_bytes: total(Total::EvictedBytes),
            fail_open: total(Total::FailOpen),
            invalid_frees: total(Total::InvalidFrees),
            fallback_counts: self.counters.fallbacks(),
        }
    }

    /// Arms or disarms telemetry recording: the event ring and the attack
    /// reports. Off by default; switching is safe at any time (events race
    /// benignly around the flip). Per-patch hits and bytes are counted
    /// either way, and listed by [`Self::telemetry_snapshot`] while armed.
    pub fn set_telemetry(&self, on: bool) {
        self.telemetry.arm(on);
    }

    /// Drains the event ring (observer API — allocates, so never call it
    /// from inside an allocation).
    pub fn drain_events(&self) -> Vec<Event> {
        self.telemetry.drain_events()
    }

    /// Drains the ring into a telemetry snapshot: every report filed so
    /// far, and while armed the per-patch rows of the installed patches
    /// (call chains stay undecoded here — the allocator has no encoding
    /// plan; `heaptherapy-core` decodes).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let per_slot = self.counters.per_slot(self.patches.len());
        self.telemetry.snapshot(&self.patches, &per_slot)
    }

    /// Whether `ptr` is currently in the deferred-free quarantine.
    pub fn is_quarantined(&self, ptr: *mut u8) -> bool {
        self.quarantine.contains(ptr as usize)
    }

    /// Current quarantine usage: (blocks, bytes), counting blocks held
    /// past a FIFO cut at a forged node.
    pub fn quarantine_usage(&self) -> (usize, usize) {
        self.quarantine.usage()
    }

    /// The guard-page address of a guarded live allocation, if any.
    ///
    /// # Safety
    ///
    /// `ptr` must come from this allocator, and the word before it must
    /// still be mapped: a live buffer, or a freed one that is quarantined
    /// or whose region is cached.
    pub unsafe fn guard_page_of(&self, ptr: *mut u8) -> Option<usize> {
        // SAFETY: the caller guarantees the word before `ptr` is mapped.
        MetaWord::decode(unsafe { load_word(ptr) })
            .filter(|w| !w.freed && w.vuln.contains(VulnFlags::OVERFLOW))
            .map(|w| w.guard)
    }

    /// Takes a region with a trailing `PROT_NONE` guard page — a cached
    /// one, else a fresh `mmap` — and places the user buffer so its end
    /// abuts the guard (modulo alignment). The whole body reads zero, as
    /// fresh `mmap` memory does, which covers UR patches and `calloc`.
    /// Returns the user pointer and the guard page.
    fn guarded_alloc(&self, layout: Layout, vuln: VulnFlags) -> Option<(*mut u8, usize)> {
        let body = guarded_body(layout, vuln);
        let region = match self.regions.take(body) {
            Some(region) => {
                // SAFETY: a cached region's `body` bytes are mapped
                // read-write and belong to no live allocation.
                unsafe { std::ptr::write_bytes(region as *mut u8, 0, body) };
                region
            }
            None => {
                let region = map_region(body)?;
                self.counters.incr(Total::RegionMaps);
                region
            }
        };
        let guard = region + body;
        let user = (guard - layout.size()) & !(layout.align() - 1);
        debug_assert!(user >= region + guarded_header(vuln));
        Some((user as *mut u8, guard))
    }

    #[inline]
    fn alloc_with(&self, fun: AllocFn, layout: Layout, zeroed: bool) -> *mut u8 {
        self.counters.incr(Total::InterposedAllocs);
        let ccid = ccid::current();
        match self.patches.probe(fun, ccid) {
            Some((slot, vuln)) if !vuln.is_empty() => {
                self.alloc_patched(layout, zeroed, slot, vuln)
            }
            _ => alloc_system(layout, false, zeroed),
        }
    }

    /// The table-hit half of [`Self::alloc_with`], kept out of line so the
    /// miss path stays a leaf-like call into [`System`]. A hit is counted,
    /// and its events and reports recorded, only once its buffer is
    /// placed: a refused request leaves no trace.
    #[cold]
    #[inline(never)]
    fn alloc_patched(&self, layout: Layout, zeroed: bool, slot: usize, vuln: VulnFlags) -> *mut u8 {
        let uaf = vuln.contains(VulnFlags::USE_AFTER_FREE);
        if uaf && layout.size() >= NODE_SIZE_LIMIT {
            return std::ptr::null_mut();
        }
        let (p, guard) = if vuln.contains(VulnFlags::OVERFLOW) {
            let Some(placed) = self.guarded_alloc(layout, vuln) else {
                return std::ptr::null_mut();
            };
            self.counters.incr(Total::GuardPages);
            // Guarded bodies always read zero, which also covers UR.
            if vuln.contains(VulnFlags::UNINIT_READ) {
                self.counters.incr(Total::ZeroFills);
            }
            placed
        } else {
            let p = alloc_system(layout, uaf, zeroed);
            if p.is_null() {
                return p;
            }
            if vuln.contains(VulnFlags::UNINIT_READ) && !zeroed {
                // SAFETY: `p` is a fresh block of `layout.size()` bytes.
                unsafe { std::ptr::write_bytes(p, 0, layout.size()) };
                self.counters.incr(Total::ZeroFills);
            }
            (p, 0)
        };
        if vuln.contains(VulnFlags::OVERFLOW) || uaf {
            let word = MetaWord {
                vuln,
                freed: false,
                guard,
                slot,
            };
            // SAFETY: `p` was just placed with a header of at least `WORD`
            // bytes below it.
            unsafe { store_word(p, word.encode()) };
            self.counters.incr(Total::TrackedAllocs);
        }
        self.counters.hit(slot, layout.size() as u64);
        self.telemetry
            .hit(&self.patches, slot, vuln, layout.size() as u64);
        p
    }

    /// The free path of a buffer whose word is not the plain one: a
    /// tracked buffer goes to the quarantine or the region cache, anything
    /// else is refused and counted.
    ///
    /// # Safety
    ///
    /// `ptr` and `layout` must meet [`GlobalAlloc::dealloc`]'s contract for
    /// this allocator.
    #[cold]
    #[inline(never)]
    unsafe fn dealloc_patched(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so its word is mapped.
        let word = MetaWord::decode(unsafe { load_word(ptr) })
            .filter(|w| w.is_live_at(ptr as usize, layout));
        let Some(word) = word else {
            self.counters.incr(Total::InvalidFrees);
            return;
        };
        self.counters.incr(Total::TrackedFrees);
        let freed = MetaWord {
            freed: true,
            ..word
        };
        // SAFETY: as above.
        unsafe { store_word(ptr, freed.encode()) };
        if !word.vuln.contains(VulnFlags::USE_AFTER_FREE) {
            // A tracked buffer without UAF is a guarded one.
            let body = guarded_body(layout, word.vuln);
            // SAFETY: a live guarded word names the guard its region ends
            // at; the region came from `map_region(body)`, and its one
            // buffer is freed here, once: its word now reads freed.
            unsafe { self.regions.retire(word.guard - body, body) };
            return;
        }
        let node = Node {
            link: 0,
            size: layout.size(),
            align: layout.align(),
        };
        // SAFETY: a live UAF word means a UAF header, whose node lies just
        // below the word; its size was checked against `NODE_SIZE_LIMIT`.
        unsafe { node.store(ptr as usize) };
        self.counters.incr(Total::Quarantined);
        self.counters
            .add(Total::QuarantinedBytes, layout.size() as u64);
        self.telemetry
            .defer(&self.patches, word.slot, layout.size() as u64);
        let quota = self.quota.load(Ordering::Relaxed);
        // SAFETY: `ptr` is a freed UAF buffer with its word and node
        // written, and its free was not deferred before: its word was live.
        let evicted = unsafe { self.quarantine.push(ptr as usize, layout.size(), quota) };
        for popped in evicted {
            let Ok(evicted) = popped else {
                self.counters.incr(Total::InvalidFrees);
                continue;
            };
            self.counters.incr(Total::Evictions);
            self.counters.add(Total::EvictedBytes, evicted.size as u64);
            let (slot, size) = (evicted.slot as usize, evicted.size as u64);
            self.telemetry.evict(&self.patches, slot, size);
            // SAFETY: the quarantine gives each block back once.
            unsafe { self.release(evicted) };
        }
    }

    /// Returns a block taken out of the quarantine for good: a guarded
    /// region to the region cache, a system block with its header to
    /// [`System`].
    ///
    /// # Safety
    ///
    /// `e` must come out of this allocator's quarantine, and be released
    /// once.
    unsafe fn release(&self, e: Entry) {
        // SAFETY: the entry's size and alignment passed
        // `Layout::from_size_align` when the quarantine took it, and its
        // region and pointer are those of the UAF buffer it was pushed as.
        unsafe {
            let layout = Layout::from_size_align_unchecked(e.size, e.align);
            if e.region != 0 {
                let body = guarded_body(layout, VulnFlags::USE_AFTER_FREE);
                self.regions.retire(e.region, body);
            } else {
                let header = uaf_header_len(e.align);
                let block = Layout::from_size_align_unchecked(e.size + header, e.align);
                System.dealloc((e.ptr - header) as *mut u8, block);
            }
        }
    }
}

/// A [`System`] block with the header of a plain or (`uaf`) a UAF buffer
/// in front, whose word is the plain one; null when refused. Inlined into
/// the cold [`HardenedAlloc::alloc_patched`] too, which would otherwise
/// call it.
#[inline(always)]
fn alloc_system(layout: Layout, uaf: bool, zeroed: bool) -> *mut u8 {
    let header = if uaf {
        uaf_header_len(layout.align())
    } else {
        header_len(layout.align())
    };
    let Ok(full) = Layout::from_size_align(layout.size() + header, layout.align()) else {
        return std::ptr::null_mut();
    };
    // SAFETY: `full` spans at least `header` bytes, so it is not zero-sized.
    let base = unsafe {
        if zeroed {
            System.alloc_zeroed(full)
        } else {
            System.alloc(full)
        }
    };
    if base.is_null() {
        return base;
    }
    // SAFETY: the block spans `header` bytes, at least `WORD` of them, and
    // then the buffer: the user pointer and the word below it lie inside.
    unsafe {
        let p = base.add(header);
        store_word(p, 0);
        p
    }
}

impl Drop for HardenedAlloc {
    /// Hands the quarantined blocks back; the region cache's own `Drop`
    /// then unmaps every retired region. Buffers still live belong to
    /// their callers and stay as they are.
    fn drop(&mut self) {
        while let Some(popped) = self.quarantine.pop() {
            if let Ok(e) = popped {
                // SAFETY: a quarantined block was freed by its owner, and
                // taking it out of the quarantine releases it exactly once.
                unsafe { self.release(e) };
            }
        }
    }
}

// SAFETY: every block handed out is a fresh `System` block or a region of
// this allocator's own, holding the layout's size at its alignment, and is
// not handed out again until freed; a block is freed with the header and
// layout it was allocated with.
unsafe impl GlobalAlloc for HardenedAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.alloc_with(AllocFn::Malloc, layout, false)
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.alloc_with(AllocFn::Calloc, layout, true)
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.counters.incr(Total::InterposedFrees);
        // SAFETY: `ptr` came from this allocator with `layout`, so its
        // header, word included, lies just below it.
        if unsafe { load_word(ptr) } != 0 {
            // SAFETY: the caller's contract is this method's.
            return unsafe { self.dealloc_patched(ptr, layout) };
        }
        // SAFETY: a plain word heads a `System` block with the plain header.
        // Clearing the word keeps a second free that finds these bytes
        // untouched off the plain path.
        unsafe {
            clear_word(ptr);
            let header = header_len(layout.align());
            System.dealloc(
                ptr.sub(header),
                Layout::from_size_align_unchecked(layout.size() + header, layout.align()),
            );
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
        // SAFETY: `ptr` is live with `layout` and `new_ptr` is a fresh
        // block of `new_size` bytes, so both spans are valid and disjoint;
        // `ptr` is then freed once, with its own layout.
        unsafe {
            std::ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
            self.dealloc(ptr, layout);
        }
        new_ptr
    }
}

#[cfg(test)]
#[allow(clippy::undocumented_unsafe_blocks)] // each test's unsafe is its allocator calls
pub(crate) mod tests {
    use super::*;
    use crate::region::{tests::first_class, FIRST_SLOTS};
    use crate::word::{PAGE, WORD};
    use ht_telemetry::EventKind;

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
        a.install(&[Patch::new(AllocFn::Malloc, here, vuln)]);
        a
    }

    /// Allocates `l` inside call site `site`.
    ///
    /// # Safety
    ///
    /// `l` must have a non-zero size.
    unsafe fn alloc_at(a: &HardenedAlloc, site: u64, l: Layout) -> *mut u8 {
        let _site = ccid::CallScope::enter(site);
        let p = unsafe { a.alloc(l) };
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
            let region = guard - guarded_body(small, VulnFlags::OVERFLOW);
            let body = std::slice::from_raw_parts(region as *const u8, guard - region);
            let (below, above) = body.split_at(q as usize - WORD - region);
            let zero = below.iter().chain(&above[WORD..]).all(|&b| b == 0);
            assert!(zero, "reused body reads zero but for the word");
            a.dealloc(q, small);
        }
        assert_eq!(a.stats().guard_pages, 2, "one guard page per allocation");
    }

    #[test]
    fn every_retired_region_stays_cached_and_is_reused_newest_first() {
        let _maps = maps_lock();
        let a = patched(0xC2, VulnFlags::OVERFLOW);
        let l = layout(64, 8);
        let guards_of = |ptrs: &[*mut u8]| -> Vec<usize> {
            ptrs.iter()
                .map(|&p| unsafe { a.guard_page_of(p) }.expect("guarded allocation"))
                .collect()
        };
        unsafe {
            let ptrs: Vec<*mut u8> = (0..300).map(|_| alloc_at(&a, 0xC2, l)).collect();
            let guards = guards_of(&ptrs);
            for p in ptrs {
                a.dealloc(p, l);
            }
            for &g in &guards {
                assert_eq!(perms_at(g).as_deref(), Some("---p"), "cached");
            }
            let again: Vec<*mut u8> = (0..300).map(|_| alloc_at(&a, 0xC2, l)).collect();
            let newest_first: Vec<usize> = guards.iter().rev().copied().collect();
            assert_eq!(guards_of(&again), newest_first);
            for p in again {
                a.dealloc(p, l);
            }
        }
        let st = a.stats();
        assert_eq!((st.guard_pages, st.region_maps), (600, 300));
    }

    #[test]
    fn region_maps_count_the_peak_of_live_guarded_buffers() {
        let _maps = maps_lock();
        let a = patched(0xCC, VulnFlags::OVERFLOW);
        let l = layout(64, 8);
        let mut live: Vec<*mut u8> = Vec::new();
        let alloc = |live: &mut Vec<*mut u8>, n: usize| {
            live.extend((0..n).map(|_| unsafe { alloc_at(&a, 0xCC, l) }));
        };
        let free = |live: &mut Vec<*mut u8>, n: usize| {
            for p in live.drain(..n) {
                unsafe { a.dealloc(p, l) };
            }
        };
        alloc(&mut live, 100);
        free(&mut live, 60);
        alloc(&mut live, 90);
        assert_eq!(live.len(), 130, "the peak");
        free(&mut live, 130);
        alloc(&mut live, 50);
        let st = a.stats();
        assert_eq!((st.guard_pages, st.region_maps), (240, 130));
        free(&mut live, 50);
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
            Patch::new(AllocFn::Malloc, guarded, VulnFlags::OVERFLOW),
            Patch::new(
                AllocFn::Malloc,
                deferred,
                VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE,
            ),
        ]);
        // Both kinds have a one-page body: one class, and more of them
        // than its first page-sized array holds.
        let (cached, held) = (FIRST_SLOTS + 100, 2);
        let l = layout(64, 8);
        let mut guards = Vec::new();
        unsafe {
            let ptrs: Vec<*mut u8> = (0..cached + held)
                .map(|i| alloc_at(&a, if i < cached { 0xC4 } else { 0xC5 }, l))
                .collect();
            for p in ptrs {
                guards.push(a.guard_page_of(p).expect("guarded allocation"));
                a.dealloc(p, l);
            }
        }
        assert_eq!(a.quarantine_usage().0, held, "OF|UAF regions held back");
        for &g in &guards {
            assert_eq!(perms_at(g).as_deref(), Some("---p"));
        }
        // The class's array, as the quarantined regions will find it on
        // drop: grown past its first page, with room for them.
        let (len, cap, array, array_len) = first_class(&a.regions);
        assert_eq!(len, cached);
        assert!(cap > FIRST_SLOTS && cap >= cached + held);
        drop(a);
        for &g in &guards {
            assert_ne!(perms_at(g).as_deref(), Some("---p"), "unmapped on drop");
        }
        for page in (array..array + array_len).step_by(PAGE) {
            assert_eq!(perms_at(page), None, "array unmapped on drop");
        }
    }

    #[test]
    fn more_tracked_buffers_than_any_fixed_table_stay_defended() {
        let _maps = maps_lock();
        let a = patched(0xC6, VulnFlags::USE_AFTER_FREE);
        let guarded = ccid::with_site(0xC7, ccid::current);
        a.install(&[Patch::new(AllocFn::Malloc, guarded, VulnFlags::OVERFLOW)]);
        let l = layout(64, 8);
        unsafe {
            let uaf: Vec<*mut u8> = (0..5000).map(|_| alloc_at(&a, 0xC6, l)).collect();
            let of: Vec<*mut u8> = (0..300).map(|_| alloc_at(&a, 0xC7, l)).collect();
            assert_eq!(a.registry_stats().live(), 5300);
            for &p in &of {
                let guard = a.guard_page_of(p).expect("guarded allocation");
                assert_eq!(guard - (p as usize + 64), 0, "end abuts the guard");
                assert_eq!(perms_at(guard).as_deref(), Some("---p"));
            }
            for p in uaf {
                a.dealloc(p, l);
                assert!(a.is_quarantined(p), "free deferred");
            }
            for p in of {
                a.dealloc(p, l);
            }
        }
        let st = a.stats();
        assert_eq!(st.guard_pages, 300);
        assert_eq!(st.quarantined, 5000);
        // The default 64 MiB quota holds every one of them.
        assert_eq!(st.evictions, 0);
        assert_eq!(a.quarantine_usage(), (5000, 5000 * 64));
        assert_eq!((st.fail_open, st.invalid_frees), (0, 0));
        let rs = a.registry_stats();
        assert_eq!((rs.inserts, rs.live()), (5300, 0));
    }

    #[test]
    fn double_free_of_a_quarantined_block_is_refused() {
        let a = patched(0xC8, VulnFlags::USE_AFTER_FREE);
        let l = layout(256, 16);
        unsafe {
            let p = alloc_at(&a, 0xC8, l);
            a.dealloc(p, l);
            let held = a.quarantine_usage();
            a.dealloc(p, l);
            assert_eq!(a.quarantine_usage(), held, "pushed once");
            assert!(a.is_quarantined(p));
        }
        let st = a.stats();
        assert_eq!((st.quarantined, st.invalid_frees), (1, 1));
        assert_eq!(
            st.quarantined_bytes,
            st.evicted_bytes + a.quarantine_usage().1 as u64
        );
        assert_eq!(a.registry_stats().live(), 0);
    }

    #[test]
    fn a_forged_quarantine_node_is_refused_and_cuts_its_fifo() {
        // Three places an overflow into a quarantined buffer's header can
        // hit: the FIFO link, the size/alignment word, the metadata word.
        for below in [3 * WORD, 2 * WORD, WORD] {
            let a = patched(0xCB, VulnFlags::USE_AFTER_FREE);
            let l = layout(48, 8);
            unsafe {
                let p: Vec<*mut u8> = (0..4).map(|_| alloc_at(&a, 0xCB, l)).collect();
                for &q in &p[..3] {
                    a.dealloc(q, l);
                }
                *p[1].sub(below) ^= 0x40;
                a.set_quarantine_quota(0);
                a.dealloc(p[3], l);
                let st = a.stats();
                assert_eq!((st.evictions, st.invalid_frees), (1, 1), "{below}");
                assert!(!a.is_quarantined(p[0]), "the first block went");
                assert!(!a.is_quarantined(p[2]) && !a.is_quarantined(p[3]));
                // The cut blocks stay held and counted.
                assert_eq!(a.quarantine_usage(), (3, 3 * 48));
                assert_eq!(st.quarantined_bytes, st.evicted_bytes + 3 * 48);
                // The allocator never releases them: give them back.
                let header = uaf_header_len(8);
                for &q in &p[1..] {
                    System.dealloc(q.sub(header), layout(48 + header, 8));
                }
            }
        }
    }

    #[test]
    fn double_free_of_a_cached_region_retires_it_once() {
        let _maps = maps_lock();
        let a = patched(0xC9, VulnFlags::OVERFLOW);
        let l = layout(64, 8);
        unsafe {
            let p = alloc_at(&a, 0xC9, l);
            let guard = a.guard_page_of(p).expect("guarded allocation");
            a.dealloc(p, l);
            a.dealloc(p, l);
            assert_eq!(a.stats().invalid_frees, 1);
            // A region retired twice would be handed out twice.
            let q = alloc_at(&a, 0xC9, l);
            let r = alloc_at(&a, 0xC9, l);
            assert_eq!(a.guard_page_of(q), Some(guard), "region reused");
            assert_ne!(a.guard_page_of(r), Some(guard), "and only once");
            a.dealloc(q, l);
            a.dealloc(r, l);
        }
        assert_eq!(a.registry_stats().live(), 0);
    }

    #[test]
    fn a_word_moved_to_another_buffer_is_refused() {
        let a = patched(0xCA, VulnFlags::USE_AFTER_FREE);
        let l = layout(64, 8);
        unsafe {
            let p = alloc_at(&a, 0xCA, l);
            let q = alloc_at(&a, 0xCA, l);
            let plain = a.alloc(l);
            std::ptr::copy_nonoverlapping(q.sub(WORD), p.sub(WORD), WORD);
            a.dealloc(p, l);
            std::ptr::copy_nonoverlapping(q.sub(WORD), plain.sub(WORD), WORD);
            a.dealloc(plain, l);
            assert_eq!(a.stats().invalid_frees, 2);
            assert!(!a.is_quarantined(p));
            a.dealloc(q, l);
            assert!(a.is_quarantined(q));
            // The refused blocks stay with their caller: give them back.
            let header = uaf_header_len(8);
            System.dealloc(p.sub(header), layout(64 + header, 8));
            System.dealloc(plain.sub(header_len(8)), layout(64 + header_len(8), 8));
        }
    }

    #[test]
    fn unpatched_allocations_pass_through_and_free_once() {
        let a = HardenedAlloc::new();
        unsafe {
            let l = layout(128, 8);
            let p = a.alloc(l);
            assert!(!p.is_null());
            std::ptr::write_bytes(p, 0xAB, 128);
            assert_eq!(*p.add(127), 0xAB);
            a.dealloc(p, l);
        }
        // A second free of an unpatched buffer is not checked: it would
        // read a header that `System` owns again, as with no defense.
        let st = a.stats();
        assert_eq!((st.interposed_allocs, st.interposed_frees), (1, 1));
        assert_eq!(st.invalid_frees, 0);
        assert_eq!((st.table_hits, st.guard_pages), (0, 0));
        assert_eq!(a.registry_stats(), RegistryStats::default());
    }

    #[test]
    fn guard_page_is_mapped_inaccessible() {
        let _maps = maps_lock();
        let a = patched(0x0F, VulnFlags::OVERFLOW);
        unsafe {
            let l = layout(1000, 16);
            let p = alloc_at(&a, 0x0F, l);
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
        let a = patched(0x11, VulnFlags::UNINIT_READ);
        unsafe {
            // Warm the system allocator with dirty blocks.
            let l = layout(512, 16);
            for _ in 0..8 {
                let p = a.alloc(l);
                std::ptr::write_bytes(p, 0xEE, 512);
                a.dealloc(p, l);
            }
            let p = alloc_at(&a, 0x11, l);
            let buf = std::slice::from_raw_parts(p, 512);
            assert!(buf.iter().all(|&b| b == 0), "patched context zero-filled");
            a.dealloc(p, l);
        }
        assert_eq!(a.stats().zero_fills, 1);
    }

    #[test]
    fn uaf_patch_quarantines_real_frees() {
        let a = patched(0x22, VulnFlags::USE_AFTER_FREE);
        unsafe {
            let l = layout(256, 16);
            let p = alloc_at(&a, 0x22, l);
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
        let a = patched(0x33, VulnFlags::USE_AFTER_FREE);
        a.set_quarantine_quota(600);
        unsafe {
            let l = layout(256, 16);
            for _ in 0..4 {
                a.dealloc(alloc_at(&a, 0x33, l), l);
            }
        }
        let st = a.stats();
        assert_eq!((st.quarantined, st.evictions), (4, 2), "{st:?}");
        assert_eq!(a.quarantine_usage(), (2, 512));
    }

    #[test]
    fn any_buffer_up_to_the_quota_is_quarantined() {
        let a = patched(0x34, VulnFlags::USE_AFTER_FREE);
        a.set_quarantine_quota(64 * 1024);
        let sizes = [4096, 8192, 8193, 16384, 32768];
        unsafe {
            let mut freed = Vec::new();
            for size in sizes {
                let l = layout(size, 16);
                let p = alloc_at(&a, 0x34, l);
                a.dealloc(p, l);
                assert!(a.is_quarantined(p), "a {size} B buffer is held");
                freed.push(p);
            }
            let held: Vec<bool> = freed.iter().map(|&p| a.is_quarantined(p)).collect();
            assert_eq!(held, [false, false, true, true, true], "oldest first");
        }
        let st = a.stats();
        assert_eq!((st.quarantined, st.evictions), (5, 2));
        assert_eq!(a.quarantine_usage(), (3, 57_345));
    }

    #[test]
    fn realloc_probes_realloc_context() {
        let _maps = maps_lock();
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x44, ccid::current);
        a.install(&[Patch::new(AllocFn::Realloc, here, VulnFlags::OVERFLOW)]);
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
        a.install(&[Patch::new(AllocFn::Calloc, here, VulnFlags::OVERFLOW)]);
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
    fn a_memalign_patch_guards_alloc_at_any_alignment_and_names_memalign() {
        let _maps = maps_lock();
        let a = HardenedAlloc::new();
        let here = ccid::with_site(0x56, ccid::current);
        let patch = Patch::new(AllocFn::Memalign, here, VulnFlags::OVERFLOW);
        assert_eq!(a.install(&[patch]), 1);
        a.set_telemetry(true);
        unsafe {
            for align in [16, 64, 4096] {
                let l = layout(64, align);
                let p = alloc_at(&a, 0x56, l);
                assert!(a.guard_page_of(p).is_some(), "align {align}");
                a.dealloc(p, l);
            }
            // `alloc_zeroed` (calloc) keeps its own key.
            let l = layout(64, 16);
            let _site = ccid::CallScope::enter(0x56);
            let p = a.alloc_zeroed(l);
            assert!(a.guard_page_of(p).is_none(), "calloc misses");
            a.dealloc(p, l);
        }
        let st = a.stats();
        assert_eq!((st.table_hits, st.guard_pages, st.fail_open), (3, 3, 0));
        let snap = a.telemetry_snapshot();
        let funs: Vec<AllocFn> = snap.reports.iter().map(|r| r.fun).collect();
        assert_eq!(funs, [AllocFn::Memalign]);
        assert_eq!(snap.per_patch[0].fun, AllocFn::Memalign);
    }

    #[test]
    fn different_context_same_site_constant_misses() {
        let a = HardenedAlloc::new();
        let patched = ccid::with_site(1, || ccid::with_site(2, ccid::current));
        a.install(&[Patch::new(AllocFn::Malloc, patched, VulnFlags::OVERFLOW)]);
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
    fn the_allocator_fits_in_96_kib() {
        // The per-slot counts are kept once, in the shared counter row: a
        // copy per thread (or per lane) of their 512 slots would not fit.
        let size = std::mem::size_of::<HardenedAlloc>();
        assert!(size <= 96 * 1024, "HardenedAlloc is {size} bytes");
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
            let p = alloc_at(&a, 0x77, l);
            assert!(
                std::slice::from_raw_parts(p, 64).iter().all(|&b| b == 0),
                "UR bit from the config applied"
            );
            a.dealloc(p, l);
            assert!(a.is_quarantined(p), "UAF bit from the config applied");
        }
    }

    #[test]
    fn install_merges_duplicate_keys() {
        let a = HardenedAlloc::new();
        assert_eq!(
            a.install(&[
                Patch::new(AllocFn::Malloc, 9, VulnFlags::OVERFLOW),
                Patch::new(AllocFn::Malloc, 9, VulnFlags::UNINIT_READ),
            ]),
            2
        );
        let merged = a.patches.lookup(AllocFn::Malloc, 9);
        assert_eq!(merged, Some(VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ));
    }

    #[test]
    fn concurrent_allocation_stress() {
        use std::sync::Arc;
        let a = Arc::new(patched(0x66, VulnFlags::USE_AFTER_FREE));
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
        let a = patched(0x88, VulnFlags::ALL);
        unsafe {
            let l = layout(128, 8);
            a.dealloc(alloc_at(&a, 0x88, l), l);
        }
        assert!(!a.telemetry.is_armed());
        let snap = a.telemetry_snapshot();
        assert!(snap.is_empty(), "disabled telemetry observed {snap:?}");
        assert_eq!(snap.delivered, 0);
    }

    #[test]
    fn telemetry_records_defenses_and_files_one_report_per_t() {
        let _maps = maps_lock();
        let a = patched(0x99, VulnFlags::ALL);
        let here = ccid::with_site(0x99, ccid::current);
        a.set_telemetry(true);
        a.freeze();
        unsafe {
            let l = layout(200, 8);
            for _ in 0..3 {
                a.dealloc(alloc_at(&a, 0x99, l), l);
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
        // A second snapshot delivers no stale events and the same reports:
        // reports are cumulative, as the simulated defense's are.
        let again = a.telemetry_snapshot();
        assert!(again.events.is_empty(), "events delivered exactly once");
        assert_eq!(again.reports, snap.reports);
    }

    #[test]
    fn reports_survive_a_full_event_ring() {
        // Regression: reports were rebuilt from the drained ring, so a
        // report whose event found the ring full was lost, and its
        // once-bit kept it from ever being filed again.
        let a = HardenedAlloc::new();
        let (first, second) = (
            ccid::with_site(0xD1, ccid::current),
            ccid::with_site(0xD2, ccid::current),
        );
        a.install(&[
            Patch::new(AllocFn::Malloc, first, VulnFlags::UNINIT_READ),
            Patch::new(AllocFn::Malloc, second, VulnFlags::UNINIT_READ),
        ]);
        a.set_telemetry(true);
        let l = layout(32, 8);
        unsafe {
            for _ in 0..600 {
                a.dealloc(alloc_at(&a, 0xD1, l), l);
            }
            a.dealloc(alloc_at(&a, 0xD2, l), l);
        }
        let snap = a.telemetry_snapshot();
        assert!(snap.dropped > 0, "600 hits overflow the event ring");
        let hits: Vec<(usize, u64)> = snap.per_patch.iter().map(|r| (r.slot, r.hits)).collect();
        assert_eq!(hits, [(0, 600), (1, 1)]);
        let reports: Vec<(u32, u64)> = snap.reports.iter().map(|r| (r.slot, r.ccid)).collect();
        assert_eq!(reports, [(0, first), (1, second)], "filing order");
        assert_eq!(a.telemetry_snapshot().reports, snap.reports);
    }

    #[test]
    fn a_refused_patched_allocation_counts_emits_and_reports_nothing() {
        // Regression: the hit was counted, its events pushed and its OF
        // report filed before the request was placed, so a refused request
        // burnt the patch's once-bit on a size it never served.
        let _maps = maps_lock();
        let uaf = VulnFlags::USE_AFTER_FREE;
        for (site, vuln) in [(0xE1, uaf), (0xE2, VulnFlags::OVERFLOW | uaf)] {
            let a = patched(site, vuln);
            a.set_telemetry(true);
            let huge = layout(1 << 43, 8);
            let p = {
                let _site = ccid::CallScope::enter(site);
                unsafe { a.alloc(huge) }
            };
            assert!(p.is_null(), "{vuln:?}: a node cannot record 2^43 B");
            let refused = HardenedStats {
                interposed_allocs: 1,
                ..HardenedStats::default()
            };
            assert_eq!(a.stats(), refused, "{vuln:?}");
            let snap = a.telemetry_snapshot();
            assert!(snap.is_empty(), "{vuln:?}: {snap:?}");
            // The patch still files its reports for the first buffer it
            // serves.
            let l = layout(64, 8);
            unsafe { a.dealloc(alloc_at(&a, site, l), l) };
            let reports: Vec<(VulnFlags, u64)> = a
                .telemetry_snapshot()
                .reports
                .iter()
                .map(|r| (r.vuln, r.size))
                .collect();
            let mut want = vec![(uaf, 64)];
            if vuln.contains(VulnFlags::OVERFLOW) {
                want.insert(0, (VulnFlags::OVERFLOW, 64));
            }
            assert_eq!(reports, want, "{vuln:?}");
            assert_eq!(a.stats().table_hits, 1);
        }
    }

    #[test]
    fn telemetry_eviction_events_attribute_the_patch() {
        let a = patched(0xAA, VulnFlags::USE_AFTER_FREE);
        let here = ccid::with_site(0xAA, ccid::current);
        a.set_telemetry(true);
        a.set_quarantine_quota(600);
        unsafe {
            let l = layout(256, 16);
            for _ in 0..4 {
                a.dealloc(alloc_at(&a, 0xAA, l), l);
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
        // A quota that is no multiple of the block size holds as many
        // whole blocks as fit in it.
        let a = patched(0xBB, VulnFlags::USE_AFTER_FREE);
        let quota = 2055; // 32 * 64 + 7
        a.set_quarantine_quota(quota);
        unsafe {
            // Hold all allocations live first so 200 *distinct* pointers
            // are pushed.
            let l = layout(64, 8);
            let ptrs: Vec<*mut u8> = (0..200).map(|_| alloc_at(&a, 0xBB, l)).collect();
            for p in ptrs {
                a.dealloc(p, l);
            }
        }
        let (blocks, bytes) = a.quarantine_usage();
        assert_eq!((blocks, bytes), (32, 2048));
        let st = a.stats();
        assert_eq!(st.quarantined_bytes, 200 * 64);
        assert_eq!(st.quarantined_bytes, st.evicted_bytes + bytes as u64);
    }
}
