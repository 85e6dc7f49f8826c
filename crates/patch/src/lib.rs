//! Heap patches as configuration (paper Sections V–VI).
//!
//! A HeapTherapy+ patch is a tuple `{FUN, CCID, T}`:
//!
//! * `FUN` — the [`AllocFn`] used to request the vulnerable buffer,
//! * `CCID` — the allocation-time calling-context ID,
//! * `T` — a three-bit [`VulnFlags`] value naming the vulnerability type(s):
//!   overflow, use-after-free, uninitialized read.
//!
//! Patches are *code-less*: installing one never alters the program. They
//! live in a configuration file ([`config`]) that the online defense loads at
//! startup into a [`PatchTable`] — a frozen hash table probed in O(1) on
//! every allocation. The simulated defense and the real allocator share this
//! one table, so a patch's *slot* (its dense index there, the sorted
//! position of its key for a table loaded from a configuration) names it the
//! same way in both backends' counters and attack reports.
//!
//! # Example
//!
//! ```
//! use ht_patch::{AllocFn, Patch, PatchTable, VulnFlags};
//!
//! let patch = Patch::new(AllocFn::Malloc, 0x1234, VulnFlags::OVERFLOW);
//! let table = PatchTable::from_patches([patch]);
//! assert_eq!(
//!     table.lookup(AllocFn::Malloc, 0x1234),
//!     Some(VulnFlags::OVERFLOW)
//! );
//! assert_eq!(table.lookup(AllocFn::Malloc, 0x9999), None);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod table;
pub mod vuln;

pub use config::{from_config_json, from_config_text, to_config_json, to_config_text, ConfigError};
pub use table::PatchTable;
pub use vuln::{AllocFn, VulnFlags};

use ht_jsonio::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;
use std::fmt;

/// One heap patch: `{FUN, CCID, T}` plus optional provenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Patch {
    /// The allocation API through which the vulnerable buffer is requested.
    pub alloc_fn: AllocFn,
    /// The allocation-time calling-context ID of the vulnerable buffer.
    pub ccid: u64,
    /// Vulnerability type bits: which defenses to apply.
    pub vuln: VulnFlags,
    /// Free-form provenance (e.g. the CVE id the attack input exploited).
    /// Omitted from the JSON form when empty.
    pub origin: String,
}

impl Patch {
    /// A patch without provenance.
    pub fn new(alloc_fn: AllocFn, ccid: u64, vuln: VulnFlags) -> Self {
        Self {
            alloc_fn,
            ccid,
            vuln,
            origin: String::new(),
        }
    }

    /// Attaches provenance (builder style).
    #[must_use]
    pub fn with_origin(mut self, origin: impl Into<String>) -> Self {
        self.origin = origin.into();
        self
    }

    /// The hash-table key of this patch.
    pub fn key(&self) -> (AllocFn, u64) {
        (self.alloc_fn, self.ccid)
    }
}

/// Folds `patches` into one patch per `(FUN, CCID)` holding the union of
/// their bits, in [`Patch::key`] order, each attributed to `origin`: the
/// paper's §V post-processing step. Unlike a [`PatchTable`], it holds any
/// number of keys.
pub fn merge(patches: impl IntoIterator<Item = Patch>, origin: &str) -> Vec<Patch> {
    let mut merged: BTreeMap<(AllocFn, u64), VulnFlags> = BTreeMap::new();
    for p in patches {
        *merged.entry(p.key()).or_default() |= p.vuln;
    }
    merged
        .into_iter()
        .map(|((fun, ccid), vuln)| Patch::new(fun, ccid, vuln).with_origin(origin))
        .collect()
}

impl ToJson for Patch {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("alloc_fn".to_string(), self.alloc_fn.to_json()),
            ("ccid".to_string(), Json::U64(self.ccid)),
            ("vuln".to_string(), self.vuln.to_json()),
        ];
        if !self.origin.is_empty() {
            members.push(("origin".to_string(), Json::Str(self.origin.clone())));
        }
        Json::Obj(members)
    }
}

impl FromJson for Patch {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let alloc_fn = AllocFn::from_json(
            v.get("alloc_fn")
                .ok_or_else(|| JsonError::shape("patch missing `alloc_fn`"))?,
        )?;
        let ccid = v.req_u64("ccid")?;
        let vuln = VulnFlags::from_json(
            v.get("vuln")
                .ok_or_else(|| JsonError::shape("patch missing `vuln`"))?,
        )?;
        let origin = match v.get("origin") {
            None => String::new(),
            Some(o) => o
                .as_str()
                .ok_or_else(|| JsonError::shape("patch `origin` must be a string"))?
                .to_string(),
        };
        Ok(Patch {
            alloc_fn,
            ccid,
            vuln,
            origin,
        })
    }
}

impl fmt::Display for Patch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {:#x}, {}}}", self.alloc_fn, self.ccid, self.vuln)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_display_matches_paper_form() {
        let p = Patch::new(
            AllocFn::Malloc,
            0xab,
            VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ,
        );
        assert_eq!(p.to_string(), "{malloc, 0xab, OF|UR}");
    }

    #[test]
    fn key_combines_fun_and_ccid() {
        let p = Patch::new(AllocFn::Memalign, 7, VulnFlags::USE_AFTER_FREE);
        assert_eq!(p.key(), (AllocFn::Memalign, 7));
    }

    #[test]
    fn merge_ors_duplicates_in_key_order_under_one_origin() {
        let (of, uaf) = (VulnFlags::OVERFLOW, VulnFlags::USE_AFTER_FREE);
        let merged = merge(
            [
                Patch::new(AllocFn::Realloc, 3, of).with_origin("a"),
                Patch::new(AllocFn::Malloc, 9, uaf),
                Patch::new(AllocFn::Malloc, 2, of).with_origin("b"),
                Patch::new(AllocFn::Malloc, 9, of),
            ],
            "cve",
        );
        assert_eq!(
            merged,
            [
                Patch::new(AllocFn::Malloc, 2, of).with_origin("cve"),
                Patch::new(AllocFn::Malloc, 9, of | uaf).with_origin("cve"),
                Patch::new(AllocFn::Realloc, 3, of).with_origin("cve"),
            ]
        );
        // No table capacity: every distinct key survives.
        let many = (0..600).map(|c| Patch::new(AllocFn::Malloc, c, of));
        let merged = merge(many.clone().chain(many), "x");
        assert_eq!(merged.len(), 600);
        assert!(merged.windows(2).all(|w| w[0].key() < w[1].key()));
    }

    #[test]
    fn origin_builder() {
        let p = Patch::new(AllocFn::Malloc, 1, VulnFlags::OVERFLOW).with_origin("CVE-2014-0160");
        assert_eq!(p.origin, "CVE-2014-0160");
    }
}
