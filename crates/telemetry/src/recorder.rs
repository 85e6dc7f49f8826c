//! The one telemetry recorder both backends call (paper Section VII).
//!
//! Recording never allocates and never blocks, so a `static` allocator can
//! record from inside an allocation; only [`Recorder::snapshot`] and
//! [`Recorder::drain_events`] allocate, and they are observer calls.

use crate::event::{Event, EventKind};
use crate::report::AttackReport;
use crate::ring::EventRing;
use crate::{PatchCounterRow, TelemetrySnapshot};
use ht_patch::{AllocFn, PatchTable, VulnFlags};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Attack reports that can be filed at most: one per patch slot and
/// defended type (OF, UAF, UR).
const REPORT_CELLS: usize = 3 * PatchTable::CAPACITY;
const REPORT_SLOT_SHIFT: u32 = 3;
const REPORT_SIZE_SHIFT: u32 = 12;

/// The attack reports filed so far, in filing order, in a fixed array.
///
/// Every `(slot, T)` files once, under its patch table once-bit, so the
/// array cannot fill up. A cell holds `T`'s bit in bits 0..=2, the slot in
/// bits 3..=11 and the size of the buffer that filed it above (saturated);
/// 0 marks a cell whose filing is still being written. A cell publishes
/// nothing but itself, so every access is `Relaxed`.
struct ReportLog {
    cells: [AtomicU64; REPORT_CELLS],
    filed: AtomicUsize,
}

#[allow(clippy::declare_interior_mutable_const)] // used once per array slot
const EMPTY_REPORT_CELL: AtomicU64 = AtomicU64::new(0);

impl ReportLog {
    const fn new() -> Self {
        Self {
            cells: [EMPTY_REPORT_CELL; REPORT_CELLS],
            filed: AtomicUsize::new(0),
        }
    }

    /// Files the report of type `t` (one bit) for patch `slot`, raised by a
    /// buffer of `size` bytes. Call it once per `(slot, t)`.
    fn file(&self, slot: usize, t: VulnFlags, size: u64) {
        let size = size.min(u64::MAX >> REPORT_SIZE_SHIFT);
        let cell =
            u64::from(t.bits()) | (slot as u64) << REPORT_SLOT_SHIFT | size << REPORT_SIZE_SHIFT;
        let i = self.filed.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.cells.get(i) {
            c.store(cell, Ordering::Relaxed);
        }
    }

    /// The reports filed so far as `(slot, T, size)`, in filing order.
    fn filed(&self) -> impl Iterator<Item = (usize, VulnFlags, u64)> + '_ {
        let n = self.filed.load(Ordering::Relaxed).min(REPORT_CELLS);
        self.cells[..n]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .filter(|&c| c != 0)
            .map(|c| {
                let t = VulnFlags::from_bits_truncate(c as u8 & 0b111);
                let slot = (c >> REPORT_SLOT_SHIFT) as usize & (PatchTable::CAPACITY - 1);
                (slot, t, c >> REPORT_SIZE_SHIFT)
            })
    }
}

/// The arm flag, the event ring and the attack-report log of one backend.
///
/// The recorder alone decides which events a defense activation emits and
/// in what order, when a `(FUN, CCID, T)` files its one-time report, and
/// how a snapshot is assembled. Backends tell it what their defenses did,
/// and each keeps its own per-slot hit and byte counts, armed or not.
/// Every `slot` is a slot of the [`PatchTable`] the caller passes. A
/// disarmed recorder records nothing.
pub struct Recorder {
    armed: AtomicBool,
    events: EventRing,
    reports: ReportLog,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("armed", &self.is_armed())
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// An empty recorder, armed or not. `const` so it can live inside a
    /// `static` allocator.
    pub const fn new(armed: bool) -> Self {
        Self {
            armed: AtomicBool::new(armed),
            events: EventRing::new(),
            reports: ReportLog::new(),
        }
    }

    /// Arms or disarms recording; safe at any time (records race benignly
    /// around the flip).
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Whether recording is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// A placed buffer of `size` bytes that hit patch `slot` and got the
    /// defenses `vuln`: a `patch-hit` event, then for OF and UR, in that
    /// order, the defense's event and, on the patch's first activation of
    /// that type, its attack report.
    #[inline]
    pub fn hit(&self, table: &PatchTable, slot: usize, vuln: VulnFlags, size: u64) {
        let Some(ev) = self.event(table, slot, size) else {
            return;
        };
        self.push(ev, EventKind::PatchHit, vuln);
        for (t, kind) in [
            (VulnFlags::OVERFLOW, EventKind::GuardInstall),
            (VulnFlags::UNINIT_READ, EventKind::ZeroInit),
        ] {
            if vuln.contains(t) {
                self.push(ev, kind, t);
                self.report_once(table, ev, t);
            }
        }
    }

    /// A freed buffer of `size` bytes, patched UAF at `slot`, deferred into
    /// the quarantine. The patch's first defer files its UAF report.
    #[inline]
    pub fn defer(&self, table: &PatchTable, slot: usize, size: u64) {
        if let Some(ev) = self.event(table, slot, size) {
            self.push(ev, EventKind::QuarantineDefer, VulnFlags::USE_AFTER_FREE);
            self.report_once(table, ev, VulnFlags::USE_AFTER_FREE);
        }
    }

    /// A quarantined buffer of `size` bytes, patched at `slot`, evicted
    /// back to its allocator.
    #[inline]
    pub fn evict(&self, table: &PatchTable, slot: usize, size: u64) {
        if let Some(ev) = self.event(table, slot, size) {
            self.push(ev, EventKind::QuarantineEvict, VulnFlags::USE_AFTER_FREE);
        }
    }

    /// An access stopped at a guard page. The fault names an address, not
    /// a buffer or a length, so the event is unattributed and its size is
    /// 0 (the paper's SIGSEGV handler recovers the context from the fault
    /// address).
    pub fn trip(&self) {
        if self.is_armed() {
            let ev = Event::unattributed(EventKind::GuardTrip, AllocFn::Malloc, 0);
            self.events.push(ev);
        }
    }

    /// The event of patch `slot` about a `size`-byte buffer, with the
    /// kind and bits still to set; `None` while disarmed or for a slot
    /// outside `table`.
    #[inline]
    fn event(&self, table: &PatchTable, slot: usize, size: u64) -> Option<Event> {
        let (fun, ccid, vuln) = self.is_armed().then(|| table.entry(slot))??;
        let kind = EventKind::PatchHit;
        Some(Event::patched(kind, fun, vuln, slot as u32, ccid, size))
    }

    /// Pushes `ev` as a `kind` event about bits `vuln`.
    #[inline]
    fn push(&self, ev: Event, kind: EventKind, vuln: VulnFlags) {
        self.events.push(Event { kind, vuln, ..ev });
    }

    /// Files the type-`t` report of `ev`'s patch unless it already has
    /// one: into the report log, and as an `attack-reported` event.
    fn report_once(&self, table: &PatchTable, ev: Event, t: VulnFlags) {
        if table.report_once(ev.slot as usize, t) {
            self.reports.file(ev.slot as usize, t, ev.size);
            self.push(ev, EventKind::AttackReported, t);
        }
    }

    /// Drains the event ring (observer call; allocates).
    pub fn drain_events(&self) -> Vec<Event> {
        self.events.drain_vec()
    }

    /// Drains the ring and assembles a snapshot. Reports are every report
    /// filed so far, in filing order, with undecoded call chains. While
    /// armed, `per_slot` — the caller's `(hits, bytes)` of each slot —
    /// becomes one row per slot with hits.
    pub fn snapshot(&self, table: &PatchTable, per_slot: &[(u64, u64)]) -> TelemetrySnapshot {
        let events = self.drain_events();
        let reports = self
            .reports
            .filed()
            .filter_map(|(slot, vuln, size)| {
                let (fun, ccid, _) = table.entry(slot)?;
                Some(AttackReport {
                    fun,
                    ccid,
                    vuln,
                    slot: slot as u32,
                    size,
                    call_chain: Vec::new(),
                })
            })
            .collect();
        let per_slot = if self.is_armed() { per_slot } else { &[] };
        let per_patch = per_slot
            .iter()
            .enumerate()
            .filter(|&(_, &(hits, _))| hits > 0)
            .filter_map(|(slot, &(hits, bytes))| {
                let (fun, ccid, vuln) = table.entry(slot)?;
                Some(PatchCounterRow {
                    slot,
                    fun,
                    ccid,
                    vuln,
                    hits,
                    bytes,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_patch::Patch;

    #[test]
    fn report_log_lists_filings_in_order() {
        let log = ReportLog::new();
        log.file(511, VulnFlags::UNINIT_READ, 40);
        log.file(0, VulnFlags::OVERFLOW, u64::MAX);
        log.file(7, VulnFlags::USE_AFTER_FREE, 0);
        let filed: Vec<_> = log.filed().collect();
        assert_eq!(
            filed,
            [
                (511, VulnFlags::UNINIT_READ, 40),
                (0, VulnFlags::OVERFLOW, u64::MAX >> REPORT_SIZE_SHIFT),
                (7, VulnFlags::USE_AFTER_FREE, 0),
            ]
        );
    }

    fn all_patch() -> PatchTable {
        PatchTable::from_patches([Patch::new(AllocFn::Malloc, 0xBAD, VulnFlags::ALL)])
    }

    fn kinds(rec: &Recorder) -> Vec<(EventKind, VulnFlags)> {
        rec.drain_events()
            .iter()
            .map(|e| (e.kind, e.vuln))
            .collect()
    }

    #[test]
    fn a_hit_and_a_defer_emit_in_policy_order_and_report_once() {
        let (table, rec) = (all_patch(), Recorder::new(true));
        let (of, uaf, ur) = (
            VulnFlags::OVERFLOW,
            VulnFlags::USE_AFTER_FREE,
            VulnFlags::UNINIT_READ,
        );
        rec.hit(&table, 0, VulnFlags::ALL, 100);
        assert_eq!(
            kinds(&rec),
            [
                (EventKind::PatchHit, VulnFlags::ALL),
                (EventKind::GuardInstall, of),
                (EventKind::AttackReported, of),
                (EventKind::ZeroInit, ur),
                (EventKind::AttackReported, ur),
            ]
        );
        rec.defer(&table, 0, 100);
        assert_eq!(
            kinds(&rec),
            [
                (EventKind::QuarantineDefer, uaf),
                (EventKind::AttackReported, uaf),
            ]
        );
        // A second activation files no report.
        rec.hit(&table, 0, VulnFlags::ALL, 50);
        rec.defer(&table, 0, 50);
        let again = kinds(&rec);
        assert_eq!(again.len(), 4, "{again:?}");
        assert!(again.iter().all(|&(k, _)| k != EventKind::AttackReported));
        let snap = rec.snapshot(&table, &[(2, 150)]);
        let reports: Vec<_> = snap.reports.iter().map(|r| (r.vuln, r.size)).collect();
        assert_eq!(reports, [(of, 100), (ur, 100), (uaf, 100)]);
        assert_eq!(snap.per_patch.len(), 1);
        assert_eq!((snap.per_patch[0].hits, snap.per_patch[0].ccid), (2, 0xBAD));
    }

    #[test]
    fn a_disarmed_recorder_records_nothing() {
        let (table, rec) = (all_patch(), Recorder::new(false));
        rec.hit(&table, 0, VulnFlags::ALL, 100);
        rec.defer(&table, 0, 100);
        rec.evict(&table, 0, 100);
        rec.trip();
        let snap = rec.snapshot(&table, &[(1, 100)]);
        assert!(snap.is_empty(), "{snap:?}");
        assert_eq!(snap.delivered, 0);
        // No once-bit was spent: arming later still files the report.
        rec.arm(true);
        rec.hit(&table, 0, VulnFlags::OVERFLOW, 100);
        assert_eq!(rec.snapshot(&table, &[]).reports.len(), 1);
    }
}
