//! Encoding schemes and the CCID newtype.

use std::fmt;

/// An encoded calling context — the paper's *Calling Context ID*.
///
/// A CCID only has meaning relative to the [`InstrumentationPlan`] that
/// produced it; comparing CCIDs across plans is meaningless.
///
/// [`InstrumentationPlan`]: crate::InstrumentationPlan
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ccid(pub u64);

impl fmt::Display for Ccid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Ccid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Ccid {
    fn from(v: u64) -> Self {
        Ccid(v)
    }
}

/// How `V` is updated at an instrumented call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Probabilistic Calling Context (Bond & McKinley): `V = 3·V + c`
    /// (wrapping), with `c` a pseudo-random per-site constant. Collisions are
    /// possible but astronomically unlikely for realistic context counts; a
    /// collision in HeapTherapy+ merely over-protects a buffer and never
    /// breaks correctness.
    Pcc,
    /// PCCE/DeltaPath-style additive encoding, the one precise scheme:
    /// `V = V + c` with constants from a Ball–Larus numbering of the
    /// target-reaching sub-DAG, so CCIDs are *dense* — context `i` of `N`
    /// encodes exactly as `i ∈ [0, N)` — and decodable. Like PCCE's
    /// decoder it needs that subgraph acyclic: when it is recursive the
    /// plan falls back to pseudo-random constants (PCC-grade probabilistic
    /// identity, not decodable), the restriction PCCE lifts with a
    /// push-down escape mechanism the paper does not rely on.
    Additive,
}

impl Scheme {
    /// All schemes.
    pub const ALL: [Scheme; 2] = [Scheme::Pcc, Scheme::Additive];

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Pcc => "pcc",
            Scheme::Additive => "additive",
        }
    }

    /// Applies the update rule for one instrumented call site.
    #[inline]
    pub fn update(self, v: u64, c: u64) -> u64 {
        match self {
            Scheme::Pcc => v.wrapping_mul(3).wrapping_add(c),
            Scheme::Additive => v.wrapping_add(c),
        }
    }

    /// Whether encodings of this scheme can *ever* be decoded back into
    /// contexts (also check
    /// [`InstrumentationPlan::is_precise`](crate::InstrumentationPlan::is_precise):
    /// an additive plan over a recursive graph degrades to probabilistic).
    pub fn is_decodable(self) -> bool {
        self == Scheme::Additive
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SplitMix64 — the per-site constant generator for PCC.
///
/// Deterministic so that a plan rebuilt from the same graph yields the same
/// CCIDs (patches must stay valid across runs, paper Section VI).
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcc_update_matches_paper_formula() {
        assert_eq!(Scheme::Pcc.update(10, 7), 37);
        // wrapping behaviour
        let big = u64::MAX;
        assert_eq!(
            Scheme::Pcc.update(big, 5),
            big.wrapping_mul(3).wrapping_add(5)
        );
    }

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let a = splitmix64(1);
        let b = splitmix64(1);
        let c = splitmix64(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ccid_display_is_hex() {
        assert_eq!(Ccid(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", Ccid(255)), "ff");
        assert_eq!(Ccid::from(7u64), Ccid(7));
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Pcc.name(), "pcc");
        assert_eq!(Scheme::Additive.to_string(), "additive");
        assert!(!Scheme::Pcc.is_decodable());
        assert!(Scheme::Additive.is_decodable());
    }
}
