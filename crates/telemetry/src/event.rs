//! The fixed-width telemetry event record.
//!
//! An event must fit a handful of `u64` words so the ring can publish it
//! with plain atomic stores — no allocation, no pointer chasing. Three
//! payload words carry everything:
//!
//! ```text
//! w0: kind (bits 0..8) | fun (8..16) | vuln bits (16..24) | slot+1 (32..64)
//! w1: ccid
//! w2: size in bytes
//! ```
//!
//! `slot` is the [`ht_patch::PatchTable`] slot of the patch involved
//! (shifted by one so an all-zero word means "no patch"); `vuln` is the single `T` bit
//! (or merged bits) relevant to the event.

use ht_jsonio::{obj, Json, ToJson};
use ht_patch::{AllocFn, VulnFlags};

/// Sentinel slot value for events not tied to a patch-table slot.
pub const NO_SLOT: u32 = u32::MAX;

/// What happened. Discriminants are the wire encoding (stable, u8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A patched allocation was placed with its defenses.
    PatchHit = 1,
    /// A guard page was installed behind an overflow-patched buffer.
    GuardInstall = 2,
    /// An uninit-read-patched buffer was zero-filled.
    ZeroInit = 3,
    /// A UAF-patched free was deferred into the quarantine.
    QuarantineDefer = 4,
    /// A quarantined block was evicted back to the system (quota/capacity).
    QuarantineEvict = 5,
    /// An access was stopped at a guard page (overflow attack blocked).
    GuardTrip = 6,
    /// First activation of a `(FUN, CCID, T)` — an attack report was filed.
    AttackReported = 9,
}

impl EventKind {
    /// All kinds, for iteration in tests and decoding.
    pub const ALL: [EventKind; 7] = [
        EventKind::PatchHit,
        EventKind::GuardInstall,
        EventKind::ZeroInit,
        EventKind::QuarantineDefer,
        EventKind::QuarantineEvict,
        EventKind::GuardTrip,
        EventKind::AttackReported,
    ];

    /// Short display name (used in tables and JSON).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PatchHit => "patch-hit",
            EventKind::GuardInstall => "guard-install",
            EventKind::ZeroInit => "zero-init",
            EventKind::QuarantineDefer => "quarantine-defer",
            EventKind::QuarantineEvict => "quarantine-evict",
            EventKind::GuardTrip => "guard-trip",
            EventKind::AttackReported => "attack-reported",
        }
    }

    fn from_wire(v: u64) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| *k as u64 == v)
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One telemetry event, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global delivery sequence number (the ring ticket).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Allocation API involved.
    pub fun: AllocFn,
    /// Vulnerability bits relevant to the event.
    pub vuln: VulnFlags,
    /// Patch-table slot index, or [`NO_SLOT`] when no patch is involved.
    pub slot: u32,
    /// Allocation-time calling-context ID (0 when unknown, e.g. a guard
    /// trip detected at access time).
    pub ccid: u64,
    /// Byte size involved (allocation size, zeroed bytes, ...).
    pub size: u64,
}

impl Event {
    /// An event not attributed to a specific patch slot.
    pub fn unattributed(kind: EventKind, fun: AllocFn, size: u64) -> Self {
        Self {
            seq: 0,
            kind,
            fun,
            vuln: VulnFlags::NONE,
            slot: NO_SLOT,
            ccid: 0,
            size,
        }
    }

    /// An event attributed to patch-table slot `slot`.
    pub fn patched(
        kind: EventKind,
        fun: AllocFn,
        vuln: VulnFlags,
        slot: u32,
        ccid: u64,
        size: u64,
    ) -> Self {
        Self {
            seq: 0,
            kind,
            fun,
            vuln,
            slot,
            ccid,
            size,
        }
    }

    /// Packs into the ring's three payload words.
    pub(crate) fn pack(&self) -> [u64; 3] {
        let slot_plus1 = if self.slot == NO_SLOT {
            0
        } else {
            u64::from(self.slot) + 1
        };
        let w0 = self.kind as u64
            | ((self.fun as u64) << 8)
            | (u64::from(self.vuln.bits()) << 16)
            | (slot_plus1 << 32);
        [w0, self.ccid, self.size]
    }

    /// Decodes the ring's payload words; `seq` is the delivery ticket.
    /// Returns `None` for a corrupt kind byte (cannot happen through the
    /// public API; defends the decoder anyway).
    pub(crate) fn unpack(seq: u64, w: [u64; 3]) -> Option<Event> {
        let kind = EventKind::from_wire(w[0] & 0xFF)?;
        let fun = *AllocFn::ALL.get(((w[0] >> 8) & 0xFF) as usize)?;
        let vuln = VulnFlags::from_bits_truncate(((w[0] >> 16) & 0xFF) as u8);
        let slot_plus1 = w[0] >> 32;
        let slot = if slot_plus1 == 0 {
            NO_SLOT
        } else {
            (slot_plus1 - 1) as u32
        };
        Some(Event {
            seq,
            kind,
            fun,
            vuln,
            slot,
            ccid: w[1],
            size: w[2],
        })
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        obj([
            ("seq", Json::U64(self.seq)),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("fun", self.fun.to_json()),
            ("vuln", self.vuln.to_json()),
            (
                "slot",
                if self.slot == NO_SLOT {
                    Json::Null
                } else {
                    Json::U64(u64::from(self.slot))
                },
            ),
            ("ccid", Json::U64(self.ccid)),
            ("size", Json::U64(self.size)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_every_kind_and_fun() {
        for kind in EventKind::ALL {
            for fun in AllocFn::ALL {
                let ev = Event {
                    seq: 7,
                    kind,
                    fun,
                    vuln: VulnFlags::USE_AFTER_FREE,
                    slot: 511,
                    ccid: 0xDEAD_BEEF_0BAD_F00D,
                    size: u64::MAX,
                };
                let back = Event::unpack(7, ev.pack()).unwrap();
                assert_eq!(back, ev);
            }
        }
    }

    #[test]
    fn unattributed_round_trips_no_slot() {
        let ev = Event::unattributed(EventKind::GuardTrip, AllocFn::Malloc, 64);
        let back = Event::unpack(0, ev.pack()).unwrap();
        assert_eq!(back.slot, NO_SLOT);
        assert_eq!(back, ev);
        assert_eq!(ev.to_json().get("slot"), Some(&Json::Null));
    }

    #[test]
    fn corrupt_kind_rejected() {
        assert!(Event::unpack(0, [0, 0, 0]).is_none());
        assert!(Event::unpack(0, [0xFF, 0, 0]).is_none());
        // 7 and 8 are retired kinds; `attack-reported` keeps 9.
        assert!(Event::unpack(0, [7, 0, 0]).is_none());
        assert!(Event::unpack(0, [8, 0, 0]).is_none());
        assert_eq!(EventKind::AttackReported as u8, 9);
    }

    #[test]
    fn kind_names_are_distinct() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
