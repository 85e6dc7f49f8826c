//! The online patch table, one for both backends.

use crate::{AllocFn, Patch, VulnFlags};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Hash positions of the probe index: twice the capacity, so a full table
/// stays at 50% load and every probe sequence reaches an empty position.
const POSITIONS: usize = 2 * PatchTable::CAPACITY;
const FUN_SHIFT: u32 = 16;
const REPORTED_SHIFT: u32 = 8;
const NAME_SHIFT: u32 = 4;

/// The hash table the online defense probes on every allocation (paper
/// Section VI), used as is by the simulated defense (`ht-defense`) and the
/// real allocator (`ht-hardened-alloc`). `const`-constructible and
/// allocation-free, so a `static` global allocator can embed it.
///
/// Up to [`CAPACITY`](Self::CAPACITY) patches live at dense *slots* handed
/// out in insertion order; a probe index of hash positions maps each
/// `(FUN, CCID)` key to its slot. The slot is the one per-patch key of both
/// backends' telemetry and metadata words. An entry names the FUN of its
/// patch, which is its key's FUN unless it was installed with
/// [`insert_as`](Self::insert_as). Installs serialize on a lock
/// and publish each entry with a Release store of its index position;
/// lookups take no lock, only Acquire loads. Keys are never deleted, and
/// duplicates merge their bits (paper Section V, multiple
/// vulnerabilities). [`freeze`](Self::freeze) seals the table, as the paper
/// `mprotect`s it. The report once-bits are the one field that changes
/// after that, and no lookup reads them.
pub struct PatchTable {
    install: Mutex<()>,
    frozen: AtomicBool,
    len: AtomicUsize,
    /// Hash position → slot + 1; 0 marks an empty position.
    index: [AtomicU16; POSITIONS],
    /// By slot: `fun << FUN_SHIFT | reported << REPORTED_SHIFT | name <<
    /// NAME_SHIFT | vuln`, where `fun` is the key's FUN, `name` the
    /// patch's, and the `reported` byte holds the report once-bits.
    metas: [AtomicU32; PatchTable::CAPACITY],
    /// By slot: the CCID of the key.
    ccids: [AtomicU64; PatchTable::CAPACITY],
}

#[inline]
fn position(fun: AllocFn, ccid: u64) -> usize {
    let key = ccid ^ ((fun as u64) << 56);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - POSITIONS.trailing_zeros())) as usize
}

impl PatchTable {
    /// Distinct `(FUN, CCID)` keys a table holds: the limit the real
    /// allocator's 9-bit metadata-word slot field sets.
    pub const CAPACITY: usize = 512;

    /// An empty, unfrozen table (no buffer is considered vulnerable).
    pub const fn new() -> Self {
        Self {
            install: Mutex::new(()),
            frozen: AtomicBool::new(false),
            len: AtomicUsize::new(0),
            index: [const { AtomicU16::new(0) }; POSITIONS],
            metas: [const { AtomicU32::new(0) }; PatchTable::CAPACITY],
            ccids: [const { AtomicU64::new(0) }; PatchTable::CAPACITY],
        }
    }

    /// A frozen table of `patches`, inserted in `(FUN, CCID)` order so that
    /// slots are sorted positions and iteration order is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the patches hold more than [`Self::CAPACITY`] distinct
    /// keys. [`from_config_text`](crate::from_config_text) refuses such
    /// files with
    /// [`ConfigError::TooManyPatches`](crate::ConfigError::TooManyPatches).
    pub fn from_patches<I: IntoIterator<Item = Patch>>(patches: I) -> Self {
        let patches: Vec<Patch> = patches.into_iter().collect();
        let table = Self::new();
        table.install_frozen(patches.iter().collect());
        table
    }

    /// [`Self::from_patches`] of borrowed patches, built in place on the
    /// heap: no patch is cloned, and the table never moves, so a holder
    /// passes one pointer around instead of the table's 8 KiB.
    ///
    /// # Panics
    ///
    /// Panics if the patches hold more than [`Self::CAPACITY`] distinct
    /// keys, as [`Self::from_patches`] does.
    pub fn boxed(patches: &[Patch]) -> Box<Self> {
        // `Box::default` writes the empty table into the allocation;
        // `Box::new(Self::new())` builds it on the stack and copies it over.
        let table = Box::<Self>::default();
        table.install_frozen(patches.iter().collect());
        table
    }

    /// Inserts `patches` in `(FUN, CCID)` order and freezes the table.
    fn install_frozen(&self, mut patches: Vec<&Patch>) {
        patches.sort_by_key(|p| p.key());
        for p in patches {
            assert!(
                self.insert(p).is_some(),
                "patch table capacity is {} distinct (FUN, CCID) keys",
                Self::CAPACITY
            );
        }
        self.freeze();
    }

    /// Installs `p`, merging its bits into an existing entry of the same
    /// key. Returns its slot, or `None` when the table is frozen or full.
    pub fn insert(&self, p: &Patch) -> Option<usize> {
        self.insert_as(p, p.alloc_fn)
    }

    /// Installs `p` under the key `(fun, p.ccid)`, a new entry naming
    /// `p.alloc_fn`: for a backend whose `fun` entry point also serves
    /// `p.alloc_fn`'s calls, so a probe of `fun` must find the patch. Its
    /// bits merge into an existing entry of the key, which keeps the name
    /// it has. Returns its slot, or `None` when the table is frozen or
    /// full.
    pub fn insert_as(&self, p: &Patch, fun: AllocFn) -> Option<usize> {
        let _g = self.install.lock().unwrap_or_else(PoisonError::into_inner);
        if self.is_frozen() {
            return None;
        }
        let vuln = u32::from(p.vuln.bits());
        let mut pos = position(fun, p.ccid);
        // The lock holder is the only writer, so Relaxed reads suffice.
        while let Some(slot) = usize::from(self.index[pos].load(Ordering::Relaxed)).checked_sub(1) {
            if self.key_at(slot) == (fun, p.ccid) {
                self.metas[slot].fetch_or(vuln, Ordering::Release);
                return Some(slot);
            }
            pos = (pos + 1) % POSITIONS;
        }
        let slot = self.len.load(Ordering::Relaxed);
        if slot == Self::CAPACITY {
            return None;
        }
        let meta = (fun as u32) << FUN_SHIFT | (p.alloc_fn as u32) << NAME_SHIFT | vuln;
        self.ccids[slot].store(p.ccid, Ordering::Relaxed);
        self.metas[slot].store(meta, Ordering::Relaxed);
        self.index[pos].store(slot as u16 + 1, Ordering::Release);
        self.len.store(slot + 1, Ordering::Release);
        Some(slot)
    }

    fn key_at(&self, slot: usize) -> (AllocFn, u64) {
        let fun = AllocFn::ALL[(self.metas[slot].load(Ordering::Relaxed) >> FUN_SHIFT) as usize];
        (fun, self.ccids[slot].load(Ordering::Relaxed))
    }

    /// Seals the table: every later [`Self::insert`] is refused.
    pub fn freeze(&self) {
        let _g = self.install.lock().unwrap_or_else(PoisonError::into_inner);
        self.frozen.store(true, Ordering::Release);
    }

    /// Whether [`Self::freeze`] has been called.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// The slot and vulnerability bits of `(fun, ccid)`, if patched. Takes
    /// no lock: one Acquire load per probed position, and a miss usually
    /// ends at the first.
    #[inline]
    pub fn probe(&self, fun: AllocFn, ccid: u64) -> Option<(usize, VulnFlags)> {
        let mut pos = position(fun, ccid);
        loop {
            let slot = usize::from(self.index[pos].load(Ordering::Acquire)).checked_sub(1)?;
            let meta = self.metas[slot].load(Ordering::Relaxed);
            if meta >> FUN_SHIFT == fun as u32 && self.ccids[slot].load(Ordering::Relaxed) == ccid {
                return Some((slot, VulnFlags::from_bits_truncate(meta as u8)));
            }
            pos = (pos + 1) % POSITIONS;
        }
    }

    /// Is a buffer allocated via `fun` under context `ccid` vulnerable, and
    /// to what? [`Self::probe`] without the slot.
    #[inline]
    pub fn lookup(&self, fun: AllocFn, ccid: u64) -> Option<VulnFlags> {
        self.probe(fun, ccid).map(|(_, vuln)| vuln)
    }

    /// The patch at `slot`, with the FUN it names.
    pub fn entry(&self, slot: usize) -> Option<(AllocFn, u64, VulnFlags)> {
        if slot >= self.len() {
            return None;
        }
        let meta = self.metas[slot].load(Ordering::Relaxed);
        let name = AllocFn::ALL[(meta >> NAME_SHIFT & 3) as usize];
        let ccid = self.ccids[slot].load(Ordering::Relaxed);
        Some((name, ccid, VulnFlags::from_bits_truncate(meta as u8)))
    }

    /// Sets the once-bit of vulnerability type `t` (a single bit) at
    /// `slot`. Returns `true` exactly once per `(slot, t)`: the caller files
    /// the attack report then.
    pub fn report_once(&self, slot: usize, t: VulnFlags) -> bool {
        let bit = u32::from(t.bits()) << REPORTED_SHIFT;
        self.metas[slot].fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    /// Number of distinct `(FUN, CCID)` entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the table holds no patches.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries in slot order: ascending `(FUN, CCID)` for a table built
    /// by [`Self::from_patches`] or [`Self::boxed`], insertion order
    /// otherwise.
    pub fn iter(&self) -> impl Iterator<Item = (AllocFn, u64, VulnFlags)> + '_ {
        (0..self.len()).filter_map(|slot| self.entry(slot))
    }
}

impl Default for PatchTable {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for PatchTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PatchTable")
            .field("frozen", &self.is_frozen())
            .field("entries", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl FromIterator<Patch> for PatchTable {
    fn from_iter<I: IntoIterator<Item = Patch>>(iter: I) -> Self {
        Self::from_patches(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_and_misses() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
            Patch::new(AllocFn::Calloc, 2, VulnFlags::UNINIT_READ),
        ]);
        assert_eq!(t.lookup(AllocFn::Malloc, 1), Some(VulnFlags::OVERFLOW));
        assert_eq!(t.lookup(AllocFn::Calloc, 2), Some(VulnFlags::UNINIT_READ));
        assert_eq!(t.lookup(AllocFn::Malloc, 2), None, "key includes FUN");
        assert_eq!(t.lookup(AllocFn::Calloc, 1), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicates_merge_bits() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Malloc, 9, VulnFlags::OVERFLOW),
            Patch::new(AllocFn::Malloc, 9, VulnFlags::UNINIT_READ),
        ]);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(AllocFn::Malloc, 9),
            Some(VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ)
        );
    }

    #[test]
    fn empty_table() {
        let t = PatchTable::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(AllocFn::Malloc, 0), None);
    }

    #[test]
    fn collect_builds_a_frozen_table() {
        let t: PatchTable = [Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW)]
            .into_iter()
            .collect();
        assert_eq!(t.lookup(AllocFn::Malloc, 1), Some(VulnFlags::OVERFLOW));
        assert!(t.is_frozen());
        let late = Patch::new(AllocFn::Realloc, 7, VulnFlags::OVERFLOW);
        assert_eq!(t.insert(&late), None, "a frozen table takes nothing");
        assert_eq!(t.lookup(AllocFn::Realloc, 7), None);
    }

    #[test]
    fn iter_yields_all_entries_sorted() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Realloc, 2, VulnFlags::ALL),
            Patch::new(AllocFn::Malloc, 5, VulnFlags::USE_AFTER_FREE),
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
        ]);
        let got: Vec<_> = t.iter().collect();
        assert_eq!(
            got,
            vec![
                (AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
                (AllocFn::Malloc, 5, VulnFlags::USE_AFTER_FREE),
                (AllocFn::Realloc, 2, VulnFlags::ALL),
            ],
            "iteration order is sorted (FUN, CCID), not hash order"
        );
    }

    #[test]
    fn from_patches_slots_are_sorted_positions() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Realloc, 2, VulnFlags::ALL),
            Patch::new(AllocFn::Malloc, 5, VulnFlags::USE_AFTER_FREE),
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
        ]);
        assert_eq!(t.probe(AllocFn::Malloc, 1), Some((0, VulnFlags::OVERFLOW)));
        assert_eq!(
            t.probe(AllocFn::Malloc, 5),
            Some((1, VulnFlags::USE_AFTER_FREE))
        );
        assert_eq!(t.probe(AllocFn::Realloc, 2), Some((2, VulnFlags::ALL)));
        assert_eq!(t.probe(AllocFn::Malloc, 2), None);
        assert_eq!(
            t.entry(2),
            Some((AllocFn::Realloc, 2, VulnFlags::ALL)),
            "entry() resolves the slot back to the patch"
        );
        assert_eq!(t.entry(3), None);
    }

    #[test]
    fn insert_hands_out_dense_slots_in_insertion_order() {
        let t = PatchTable::new();
        let p = |c| Patch::new(AllocFn::Malloc, c, VulnFlags::OVERFLOW);
        assert_eq!(t.insert(&p(30)), Some(0));
        assert_eq!(t.insert(&p(10)), Some(1));
        assert_eq!(t.insert(&p(30)), Some(0), "a known key keeps its slot");
        assert_eq!(t.insert(&p(20)), Some(2));
        assert_eq!(t.probe(AllocFn::Malloc, 10), Some((1, VulnFlags::OVERFLOW)));
        let keys: Vec<u64> = t.iter().map(|(_, c, _)| c).collect();
        assert_eq!(keys, [30, 10, 20]);
    }

    #[test]
    fn insert_as_keys_under_one_fun_and_names_another() {
        let t = PatchTable::new();
        let memalign = |c, v| Patch::new(AllocFn::Memalign, c, v);
        let of = VulnFlags::OVERFLOW;
        assert_eq!(t.insert_as(&memalign(5, of), AllocFn::Malloc), Some(0));
        let ur = memalign(5, VulnFlags::UNINIT_READ);
        assert_eq!(t.insert_as(&ur, AllocFn::Malloc), Some(0), "merges");
        let both = of | VulnFlags::UNINIT_READ;
        assert_eq!(t.probe(AllocFn::Malloc, 5), Some((0, both)));
        assert_eq!(t.probe(AllocFn::Memalign, 5), None);
        assert_eq!(t.entry(0), Some((AllocFn::Memalign, 5, both)));
        // A patch of another name merges into the key's entry, which keeps
        // its first name.
        let uaf = VulnFlags::USE_AFTER_FREE;
        assert_eq!(t.insert(&Patch::new(AllocFn::Malloc, 5, uaf)), Some(0));
        let all = VulnFlags::ALL;
        assert_eq!(t.entry(0), Some((AllocFn::Memalign, 5, all)));
        assert_eq!(t.insert(&Patch::new(AllocFn::Malloc, 6, of)), Some(1));
        assert_eq!(t.insert_as(&memalign(6, uaf), AllocFn::Malloc), Some(1));
        assert_eq!(t.entry(1), Some((AllocFn::Malloc, 6, of | uaf)));
        assert_eq!(t.len(), 2);
        assert!(t.report_once(0, VulnFlags::OVERFLOW));
        assert_eq!(t.entry(0), Some((AllocFn::Memalign, 5, all)), "once-bits");
    }

    #[test]
    fn capacity_is_enforced_and_full_tables_still_probe() {
        let t = PatchTable::new();
        for c in 0..PatchTable::CAPACITY as u64 {
            let p = Patch::new(AllocFn::Calloc, c * 7, VulnFlags::UNINIT_READ);
            assert_eq!(t.insert(&p), Some(c as usize));
        }
        let extra = Patch::new(AllocFn::Calloc, 1, VulnFlags::UNINIT_READ);
        assert_eq!(t.insert(&extra), None, "the 513th key is refused");
        let known = Patch::new(AllocFn::Calloc, 7, VulnFlags::OVERFLOW);
        assert_eq!(t.insert(&known), Some(1), "a full table still merges bits");
        for c in 0..PatchTable::CAPACITY as u64 {
            assert_eq!(
                t.probe(AllocFn::Calloc, c * 7).map(|(s, _)| s),
                Some(c as usize)
            );
            assert_eq!(t.lookup(AllocFn::Calloc, c * 7 + 1), None);
        }
    }

    #[test]
    #[should_panic(expected = "patch table capacity is 512")]
    fn from_patches_panics_beyond_capacity() {
        let patches = (0..=PatchTable::CAPACITY as u64)
            .map(|c| Patch::new(AllocFn::Malloc, c, VulnFlags::OVERFLOW));
        let _ = PatchTable::from_patches(patches);
    }

    #[test]
    fn once_bits_fire_once_per_slot_and_type_and_hide_from_lookups() {
        let t = PatchTable::from_patches([
            Patch::new(AllocFn::Malloc, 1, VulnFlags::ALL),
            Patch::new(AllocFn::Malloc, 2, VulnFlags::OVERFLOW),
        ]);
        assert!(t.report_once(0, VulnFlags::OVERFLOW));
        assert!(!t.report_once(0, VulnFlags::OVERFLOW));
        assert!(t.report_once(0, VulnFlags::USE_AFTER_FREE));
        assert!(t.report_once(1, VulnFlags::OVERFLOW), "per slot");
        assert_eq!(t.lookup(AllocFn::Malloc, 1), Some(VulnFlags::ALL));
        assert_eq!(t.entry(1), Some((AllocFn::Malloc, 2, VulnFlags::OVERFLOW)));
    }

    #[test]
    fn concurrent_lookups_see_whole_entries() {
        let t = PatchTable::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                for c in 0..PatchTable::CAPACITY as u64 {
                    t.insert(&Patch::new(AllocFn::Malloc, c, VulnFlags::OVERFLOW));
                }
            });
            s.spawn(|| {
                for c in (0..PatchTable::CAPACITY as u64).cycle().take(20_000) {
                    if let Some((slot, vuln)) = t.probe(AllocFn::Malloc, c) {
                        assert_eq!(slot as u64, c);
                        assert_eq!(vuln, VulnFlags::OVERFLOW);
                    }
                }
            });
        });
        assert_eq!(t.len(), PatchTable::CAPACITY);
    }

    #[test]
    fn equal_patch_sets_build_equal_tables() {
        let a = PatchTable::from_patches([
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
            Patch::new(AllocFn::Calloc, 2, VulnFlags::UNINIT_READ),
        ]);
        let b = PatchTable::from_patches([
            Patch::new(AllocFn::Calloc, 2, VulnFlags::UNINIT_READ),
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
        ]);
        assert!(a.iter().eq(b.iter()));

        // The borrowing builder and `from_patches` agree on entries, slots
        // and probes: for unsorted input, a duplicate key whose bits
        // merge, and no patches at all.
        let unsorted = [
            Patch::new(AllocFn::Realloc, 2, VulnFlags::ALL),
            Patch::new(AllocFn::Malloc, 5, VulnFlags::USE_AFTER_FREE),
            Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW),
        ];
        let duplicate = [
            Patch::new(AllocFn::Calloc, 9, VulnFlags::UNINIT_READ),
            Patch::new(AllocFn::Malloc, 3, VulnFlags::OVERFLOW),
            Patch::new(AllocFn::Calloc, 9, VulnFlags::OVERFLOW),
        ];
        let probes = [
            (AllocFn::Malloc, 1),
            (AllocFn::Malloc, 3),
            (AllocFn::Malloc, 5),
            (AllocFn::Calloc, 9),
            (AllocFn::Realloc, 2),
            (AllocFn::Malloc, 2),
            (AllocFn::Calloc, 1),
        ];
        for patches in [&unsorted[..], &duplicate[..], &[]] {
            let owned = PatchTable::from_patches(patches.to_vec());
            let boxed = PatchTable::boxed(patches);
            assert!(boxed.is_frozen());
            assert_eq!(boxed.len(), owned.len());
            assert!(boxed.iter().eq(owned.iter()), "entries in slot order");
            for (fun, ccid) in probes {
                assert_eq!(boxed.probe(fun, ccid), owned.probe(fun, ccid));
            }
        }
        let merged = PatchTable::boxed(&duplicate);
        assert_eq!(merged.len(), 2);
        let both = VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ;
        assert_eq!(merged.probe(AllocFn::Calloc, 9), Some((1, both)));
        assert!(PatchTable::boxed(&[]).is_empty());
    }
}
