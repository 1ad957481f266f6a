//! Exact rational arithmetic over `i128`.
//!
//! [`Rational`] backs the exact simplex path used to cross-validate the
//! floating-point solver. Values are kept in lowest terms with a positive
//! denominator. All arithmetic is overflow-checked: an overflow panics with
//! a descriptive message rather than silently wrapping, because a wrapped
//! value would corrupt an "exact" answer. The intended domain (divisible-load
//! LPs with single-digit worker counts and small decimal inputs) stays far
//! below `i128` limits.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};

use crate::scalar::Scalar;

/// An exact rational number `num/den` in lowest terms, `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Greatest common divisor (non-negative), `gcd(0, 0) = 0`.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Builds `num/den`, normalizing sign and reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rational with zero denominator");
        if num == 0 {
            return Self::ZERO;
        }
        let sign = if (num < 0) != (den < 0) { -1 } else { 1 };
        let g = gcd(num, den);
        Rational {
            num: sign * (num.abs() / g),
            den: den.abs() / g,
        }
    }

    /// Builds the integer `n`.
    pub fn from_int(n: i64) -> Self {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "Rational::recip of zero");
        Rational::new(self.den, self.num)
    }

    fn checked(num: Option<i128>, den: Option<i128>, op: &str) -> Self {
        match (num, den) {
            (Some(n), Some(d)) => Rational::new(n, d),
            _ => panic!("Rational overflow during {op}"),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Rational {
    type Output = Rational;

    fn add(self, rhs: Rational) -> Rational {
        // Cross-reduce first to keep intermediates small:
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g * d)   with g = gcd(b, d).
        let g = gcd(self.den, rhs.den);
        let (db, dd) = (self.den / g, rhs.den / g);
        let num = self
            .num
            .checked_mul(dd)
            .and_then(|l| rhs.num.checked_mul(db).and_then(|r| l.checked_add(r)));
        let den = db.checked_mul(rhs.den);
        Rational::checked(num, den, "add")
    }
}

impl Sub for Rational {
    type Output = Rational;

    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;

    fn mul(self, rhs: Rational) -> Rational {
        // Cross-cancel before multiplying.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        let num = (self.num / g1).checked_mul(rhs.num / g2);
        let den = (self.den / g2).checked_mul(rhs.den / g1);
        Rational::checked(num, den, "mul")
    }
}

impl Div for Rational {
    type Output = Rational;

    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "Rational division by zero");
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;

    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b vs c/d via a*d vs c*b with cross-reduction.
        let g = gcd(self.den, other.den).max(1);
        let (db, dd) = (self.den / g, other.den / g);
        let lhs = self.num.checked_mul(dd);
        let rhs = other.num.checked_mul(db);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l.cmp(&r),
            // Fall back to f64 comparison only on overflow; magnitudes this
            // large are far outside the solver's intended domain anyway.
            _ => self.to_f64().total_cmp(&other.to_f64()),
        }
    }
}

impl Scalar for Rational {
    fn zero() -> Self {
        Self::ZERO
    }

    fn one() -> Self {
        Self::ONE
    }

    fn from_f64(v: f64) -> Self {
        assert!(v.is_finite(), "cannot convert non-finite f64 to Rational");
        // Round to 9 decimal digits: exact for the decimal-valued platform
        // parameters used throughout this workspace, and safely within i128.
        const SCALE: i128 = 1_000_000_000;
        let scaled = (v * SCALE as f64).round();
        assert!(
            scaled.abs() < 9e17,
            "f64 value {v} too large for Rational conversion"
        );
        Rational::new(scaled as i128, SCALE)
    }

    fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    fn abs(&self) -> Self {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    fn tolerance() -> Self {
        Self::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

#[cfg(test)]
// Unit tests assert exact outcomes of exact arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn construction_reduces_to_lowest_terms() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 7), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic_matches_hand_computation() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn ordering_is_exact() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == r(1, 1));
        assert!(r(10, 3) > r(3, 1));
    }

    #[test]
    fn recip_inverts() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
    }

    #[test]
    #[should_panic(expected = "recip of zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn from_f64_exact_on_short_decimals() {
        assert_eq!(<Rational as Scalar>::from_f64(0.5), r(1, 2));
        assert_eq!(<Rational as Scalar>::from_f64(0.125), r(1, 8));
        assert_eq!(<Rational as Scalar>::from_f64(3.0), r(3, 1));
        assert_eq!(<Rational as Scalar>::from_f64(-0.2), r(-1, 5));
    }

    #[test]
    fn to_f64_roundtrip() {
        assert_eq!(r(1, 4).to_f64(), 0.25);
        assert_eq!(r(-3, 2).to_f64(), -1.5);
    }

    #[test]
    fn scalar_predicates_are_exact() {
        assert!(Scalar::is_zero(&Rational::ZERO));
        assert!(!Scalar::is_zero(&r(1, 1_000_000_000_000)));
        assert!(Scalar::is_positive(&r(1, 1_000_000_000_000)));
        assert!(Scalar::is_negative(&r(-1, 1_000_000_000_000)));
    }

    #[test]
    fn gcd_edge_cases() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(12, 18), 6);
    }

    #[test]
    fn large_intermediate_cross_cancellation() {
        // Without cross-cancellation this would overflow i64-sized numerators;
        // the implementation must survive comfortably.
        let big = r(1_000_000_007, 998_244_353);
        let prod = big * big.recip();
        assert_eq!(prod, Rational::ONE);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", r(3, 1)), "3");
        assert_eq!(format!("{}", r(-1, 2)), "-1/2");
    }
}
