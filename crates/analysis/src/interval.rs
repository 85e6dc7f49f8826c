//! Unsigned interval arithmetic mirroring [`ht_simprog::Expr`] semantics.
//!
//! Every modeled expression evaluates over `u64` with *saturating* addition,
//! subtraction and multiplication, and `checked_div` division (`x / 0 = 0`).
//! The interval transfer functions below are the exact abstractions of those
//! operators: for all `a ∈ A`, `b ∈ B`, `op(a, b) ∈ A.op(B)`.

use std::fmt;

/// A closed interval `[lo, hi]` over `u64`. Invariant: `lo <= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u64,
    /// Largest possible value.
    pub hi: u64,
}

impl Interval {
    /// The full range `[0, u64::MAX]` — an unconstrained attack input.
    pub const FULL: Interval = Interval {
        lo: 0,
        hi: u64::MAX,
    };

    /// The interval containing exactly `v`.
    pub const fn exact(v: u64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`; panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Whether the interval is a single value.
    pub(crate) fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `v` lies in the interval.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Smallest interval containing both operands.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Abstract saturating addition.
    pub fn sat_add(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    /// Abstract saturating subtraction.
    pub fn sat_sub(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(other.hi),
            hi: self.hi.saturating_sub(other.lo),
        }
    }

    /// Abstract saturating multiplication (monotone over unsigned operands).
    pub fn sat_mul(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_mul(other.lo),
            hi: self.hi.saturating_mul(other.hi),
        }
    }

    /// Abstract `checked_div(..).unwrap_or(0)` — the modeled `Div`.
    pub fn checked_div(&self, other: &Interval) -> Interval {
        if other.hi == 0 {
            // Denominator is definitely 0: result is definitely 0.
            return Interval::exact(0);
        }
        // Quotient range for a non-zero denominator.
        let q = Interval {
            lo: self.lo / other.hi,
            hi: self.hi / other.lo.max(1),
        };
        if other.lo == 0 {
            // Denominator may be 0, which yields 0.
            q.join(&Interval::exact(0))
        } else {
            q
        }
    }

    /// Abstract minimum.
    pub fn min(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Abstract maximum.
    pub fn max(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_exact() {
            write!(f, "{}", self.lo)
        } else if *self == Interval::FULL {
            f.write_str("[0, max]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_join() {
        let a = Interval::exact(4);
        assert!(a.is_exact());
        assert!(a.contains(4));
        assert!(!a.contains(5));
        let j = a.join(&Interval::exact(10));
        assert_eq!(j, Interval::new(4, 10));
        assert!(!j.is_exact());
    }

    #[test]
    fn arithmetic_mirrors_expr_semantics() {
        let a = Interval::new(2, 5);
        let b = Interval::new(3, 4);
        assert_eq!(a.sat_add(&b), Interval::new(5, 9));
        assert_eq!(a.sat_sub(&b), Interval::new(0, 2), "saturating");
        assert_eq!(a.sat_mul(&b), Interval::new(6, 20));
        assert_eq!(a.min(&b), Interval::new(2, 4));
        assert_eq!(a.max(&b), Interval::new(3, 5));
    }

    #[test]
    fn saturation_at_bounds() {
        let big = Interval::exact(u64::MAX);
        assert_eq!(big.sat_add(&Interval::exact(1)).hi, u64::MAX);
        assert_eq!(big.sat_mul(&Interval::exact(2)).lo, u64::MAX);
        assert_eq!(Interval::exact(0).sat_sub(&big), Interval::exact(0));
    }

    #[test]
    fn division_by_possibly_zero() {
        let a = Interval::new(10, 20);
        assert_eq!(a.checked_div(&Interval::exact(2)), Interval::new(5, 10));
        assert_eq!(a.checked_div(&Interval::exact(0)), Interval::exact(0));
        // Denominator [0, 2]: either 0 (division by zero) or >= 5.
        let d = a.checked_div(&Interval::new(0, 2));
        assert!(d.contains(0));
        assert!(d.contains(10));
        assert!(d.contains(20));
    }

    #[test]
    fn division_soundness_spot_checks() {
        // op(a, b) ∈ A.op(B) for every concrete pair in small ranges.
        let ranges = [
            Interval::new(0, 7),
            Interval::new(3, 9),
            Interval::exact(0),
            Interval::new(0, 1),
        ];
        for a_iv in ranges {
            for b_iv in ranges {
                let abs = a_iv.checked_div(&b_iv);
                for a in a_iv.lo..=a_iv.hi {
                    for b in b_iv.lo..=b_iv.hi {
                        let c = a.checked_div(b).unwrap_or(0);
                        assert!(abs.contains(c), "{a}/{b}={c} not in {abs}");
                    }
                }
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Interval::exact(7).to_string(), "7");
        assert_eq!(Interval::new(1, 3).to_string(), "[1, 3]");
        assert_eq!(Interval::FULL.to_string(), "[0, max]");
    }
}
