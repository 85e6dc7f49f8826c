//! Runtime attack telemetry for the online defense (paper Section VII,
//! "diagnosis report").
//!
//! HeapTherapy+ does not defend silently: when a targeted defense fires the
//! runtime records *which* patch fired, ties it back to `{FUN, CCID, T}`,
//! and renders a one-time attack report an operator can audit. This crate
//! is the machinery, shared by the simulated defense (`ht-defense`) and the
//! real hardened allocator (`ht-hardened-alloc`):
//!
//! - [`Recorder`] — the one recorder both backends call: the arm flag,
//!   the event ring and the attack-report log. It alone decides which
//!   events a defense activation emits, when a report files, and how a
//!   [`TelemetrySnapshot`] is assembled.
//! - [`EventRing`] — a bounded lock-free multi-producer event queue with
//!   cache-line-padded, sequence-numbered slots. Producers never block and
//!   never allocate (a full ring counts a drop instead), so the ring is
//!   safe to feed from inside a `#[global_allocator]`.
//! - [`PatchCounterRow`] — one patch's hits and requested bytes. Each
//!   backend keeps its own per-slot counts (the hardened allocator in the
//!   shared row of its counter block) and the recorder resolves them to
//!   rows.
//! - [`AttackReport`] — the paper-style structured report, filed exactly
//!   once per distinct `(FUN, CCID, T)`; dedup lives with the patch table
//!   (a lock-free once-bit per slot).
//! - [`Timeline`] — wall-clock phase spans for the offline pipeline
//!   (instrument / analyze / patch-gen), printed by the `reproduce` tables.
//!
//! Every `slot` here — in events, counter rows and reports — is the
//! patch's slot in the one [`ht_patch::PatchTable`] both backends use: a
//! dense index in insertion order, the sorted position of the key for a
//! table loaded from a configuration. The two backends therefore name a
//! patch the same way.
//!
//! Everything exports as JSON through `ht-jsonio`. Telemetry is strictly
//! observational: enabling it must not change any allocation decision, and
//! it is off by default — a simulated defense without telemetry holds no
//! recorder at all, and a disarmed recorder pushes no event and files no
//! report.

#![forbid(unsafe_code)]

mod event;
mod recorder;
mod report;
mod ring;
mod spans;

pub use event::{Event, EventKind, NO_SLOT};
pub use recorder::Recorder;
pub use report::{defense_for, AttackReport};
pub use ring::{EventRing, RING_CAPACITY};
pub use spans::{PhaseSpan, Timeline};

use ht_jsonio::{obj, Json, ToJson};

/// One merged per-patch counter row, resolved back to the patch identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchCounterRow {
    /// [`ht_patch::PatchTable`] slot the counters were keyed by.
    pub slot: usize,
    /// Allocation API of the patch.
    pub fun: ht_patch::AllocFn,
    /// Calling-context ID of the patch.
    pub ccid: u64,
    /// Vulnerability bits of the patch.
    pub vuln: ht_patch::VulnFlags,
    /// Allocations that hit this patch.
    pub hits: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl ToJson for PatchCounterRow {
    fn to_json(&self) -> Json {
        obj([
            ("slot", Json::U64(self.slot as u64)),
            ("fun", self.fun.to_json()),
            ("ccid", Json::U64(self.ccid)),
            ("vuln", self.vuln.to_json()),
            ("hits", Json::U64(self.hits)),
            ("bytes", Json::U64(self.bytes)),
        ])
    }
}

/// Everything the runtime observed, drained at a quiescent point.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Events delivered through the ring, in order.
    pub events: Vec<Event>,
    /// Events accepted by the ring over its lifetime (delivered + pending).
    pub delivered: u64,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Per-patch hit/byte counters (patches with activity only).
    pub per_patch: Vec<PatchCounterRow>,
    /// One-time attack reports, in first-activation order.
    pub reports: Vec<AttackReport>,
}

impl TelemetrySnapshot {
    /// Whether nothing at all was observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.reports.is_empty() && self.per_patch.is_empty()
    }
}

impl ToJson for TelemetrySnapshot {
    fn to_json(&self) -> Json {
        obj([
            (
                "events",
                Json::Arr(self.events.iter().map(ToJson::to_json).collect()),
            ),
            ("delivered", Json::U64(self.delivered)),
            ("dropped", Json::U64(self.dropped)),
            (
                "per_patch",
                Json::Arr(self.per_patch.iter().map(ToJson::to_json).collect()),
            ),
            (
                "reports",
                Json::Arr(self.reports.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_shape() {
        let snap = TelemetrySnapshot {
            events: vec![],
            delivered: 3,
            dropped: 1,
            per_patch: vec![PatchCounterRow {
                slot: 0,
                fun: ht_patch::AllocFn::Malloc,
                ccid: 0xBAD,
                vuln: ht_patch::VulnFlags::OVERFLOW,
                hits: 2,
                bytes: 128,
            }],
            reports: vec![],
        };
        let j = snap.to_json();
        assert_eq!(j.get("dropped").and_then(Json::as_u64), Some(1));
        let rows = j.get("per_patch").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("hits").and_then(Json::as_u64), Some(2));
        assert!(!snap.is_empty());
        assert!(TelemetrySnapshot::default().is_empty());
    }
}
