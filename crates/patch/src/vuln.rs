//! Vulnerability-type flags and allocation-API names.

use ht_jsonio::{Json, ToJson};
use std::fmt;
use std::ops::{BitOr, BitOrAssign};
use std::str::FromStr;

/// The allocation APIs the online defense interposes.
///
/// `calloc` is distinguished from `malloc` because the pair
/// `(FUN, CCID)` is the patch key under the Incremental encoding — different
/// interception functions are invoked per API (paper Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AllocFn {
    /// `malloc(size)`
    Malloc,
    /// `calloc(n, size)` — zero-initializing
    Calloc,
    /// `realloc(ptr, size)`
    Realloc,
    /// `memalign(align, size)` / `aligned_alloc`
    Memalign,
}

impl AllocFn {
    /// All allocation APIs.
    pub const ALL: [AllocFn; 4] = [
        AllocFn::Malloc,
        AllocFn::Calloc,
        AllocFn::Realloc,
        AllocFn::Memalign,
    ];

    /// The C-level symbol name.
    pub fn name(self) -> &'static str {
        match self {
            AllocFn::Malloc => "malloc",
            AllocFn::Calloc => "calloc",
            AllocFn::Realloc => "realloc",
            AllocFn::Memalign => "memalign",
        }
    }
}

impl fmt::Display for AllocFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing an [`AllocFn`] or [`VulnFlags`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVulnError(pub String);

impl fmt::Display for ParseVulnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognized token `{}`", self.0)
    }
}

impl std::error::Error for ParseVulnError {}

impl FromStr for AllocFn {
    type Err = ParseVulnError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "malloc" => Ok(AllocFn::Malloc),
            "calloc" => Ok(AllocFn::Calloc),
            "realloc" => Ok(AllocFn::Realloc),
            "memalign" | "aligned_alloc" | "posix_memalign" => Ok(AllocFn::Memalign),
            other => Err(ParseVulnError(other.to_string())),
        }
    }
}

impl ToJson for AllocFn {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// The paper's three-bit vulnerability-type field `T`.
///
/// A hand-rolled bitflag type (the `bitflags` crate is outside this
/// project's dependency allowance); the bit layout matches the metadata-word
/// type field of the online defense (crate `ht-defense`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VulnFlags(u8);

impl VulnFlags {
    /// No vulnerability.
    pub const NONE: VulnFlags = VulnFlags(0);
    /// Buffer overflow (overwrite or overread) — bit 0.
    pub const OVERFLOW: VulnFlags = VulnFlags(1 << 0);
    /// Use after free — bit 1.
    pub const USE_AFTER_FREE: VulnFlags = VulnFlags(1 << 1);
    /// Uninitialized read — bit 2.
    pub const UNINIT_READ: VulnFlags = VulnFlags(1 << 2);
    /// All three bits.
    pub const ALL: VulnFlags = VulnFlags(0b111);

    /// Constructs from raw bits, truncating to the low three.
    pub fn from_bits_truncate(bits: u8) -> Self {
        VulnFlags(bits & 0b111)
    }

    /// The raw bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Whether every bit of `other` is set in `self`.
    pub fn contains(self, other: VulnFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union (builder style).
    #[must_use]
    pub fn union(self, other: VulnFlags) -> VulnFlags {
        VulnFlags(self.0 | other.0)
    }

    /// Number of distinct vulnerability types present.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

impl ToJson for VulnFlags {
    fn to_json(&self) -> Json {
        // Wire form is the bare bit pattern, matching the metadata word.
        Json::U64(self.0 as u64)
    }
}

impl BitOr for VulnFlags {
    type Output = VulnFlags;
    fn bitor(self, rhs: VulnFlags) -> VulnFlags {
        self.union(rhs)
    }
}

impl BitOrAssign for VulnFlags {
    fn bitor_assign(&mut self, rhs: VulnFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for VulnFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("NONE");
        }
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                f.write_str("|")?;
            }
            first = false;
            f.write_str(s)
        };
        if self.contains(VulnFlags::OVERFLOW) {
            put(f, "OF")?;
        }
        if self.contains(VulnFlags::USE_AFTER_FREE) {
            put(f, "UAF")?;
        }
        if self.contains(VulnFlags::UNINIT_READ) {
            put(f, "UR")?;
        }
        Ok(())
    }
}

impl FromStr for VulnFlags {
    type Err = ParseVulnError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "NONE" {
            return Ok(VulnFlags::NONE);
        }
        let mut flags = VulnFlags::NONE;
        for tok in s.split('|') {
            flags |= match tok {
                "OF" | "OVERFLOW" => VulnFlags::OVERFLOW,
                "UAF" | "USE_AFTER_FREE" => VulnFlags::USE_AFTER_FREE,
                "UR" | "UNINIT_READ" => VulnFlags::UNINIT_READ,
                other => return Err(ParseVulnError(other.to_string())),
            };
        }
        Ok(flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_union_and_contains() {
        let f = VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ;
        assert!(f.contains(VulnFlags::OVERFLOW));
        assert!(f.contains(VulnFlags::UNINIT_READ));
        assert!(!f.contains(VulnFlags::USE_AFTER_FREE));
        assert_eq!(f.count(), 2);
        assert!(VulnFlags::ALL.contains(f));
    }

    #[test]
    fn flags_display_round_trip() {
        for bits in 0..8u8 {
            let f = VulnFlags::from_bits_truncate(bits);
            let s = f.to_string();
            let back: VulnFlags = s.parse().unwrap();
            assert_eq!(f, back, "{s}");
        }
    }

    #[test]
    fn flags_parse_long_names() {
        assert_eq!(
            "OVERFLOW|USE_AFTER_FREE".parse::<VulnFlags>().unwrap(),
            VulnFlags::OVERFLOW | VulnFlags::USE_AFTER_FREE
        );
        assert!("BOGUS".parse::<VulnFlags>().is_err());
    }

    #[test]
    fn from_bits_truncates_high_bits() {
        assert_eq!(VulnFlags::from_bits_truncate(0xFF), VulnFlags::ALL);
    }

    #[test]
    fn alloc_fn_names_round_trip() {
        for fun in AllocFn::ALL {
            let s = fun.to_string();
            assert_eq!(s.parse::<AllocFn>().unwrap(), fun);
        }
        assert_eq!(
            "aligned_alloc".parse::<AllocFn>().unwrap(),
            AllocFn::Memalign
        );
        assert!("mmap".parse::<AllocFn>().is_err());
    }

    #[test]
    fn json_wire_forms() {
        assert_eq!(AllocFn::Malloc.to_json().to_compact(), "\"malloc\"");
        assert_eq!(
            (VulnFlags::OVERFLOW | VulnFlags::UNINIT_READ)
                .to_json()
                .to_compact(),
            "5"
        );
    }

    #[test]
    fn or_assign() {
        let mut f = VulnFlags::NONE;
        f |= VulnFlags::USE_AFTER_FREE;
        assert_eq!(f, VulnFlags::USE_AFTER_FREE);
        assert!(VulnFlags::NONE.is_empty());
        assert_eq!(VulnFlags::NONE.to_string(), "NONE");
    }
}
