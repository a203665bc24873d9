//! Exact rational arithmetic over `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A rational number `num/den` in lowest terms with `den > 0`.
///
/// Used as the scalar field of the exact simplex so that pivoting is free
/// of floating-point drift. Delay values in this workspace are `i64`
/// fixed-point, far below the `i128` headroom; intermediate products are
/// reduced by GCD after every operation. A zero operand and two integer
/// operands take exact fast paths with no GCD: the path LPs' 0/±1
/// tableaux mostly stay on them. The representation is canonical, so a
/// fast path returns the very value the general path would.
///
/// # Panics
///
/// Arithmetic panics on division by zero and on (astronomically unlikely
/// for timing-sized inputs) `i128` overflow, via the standard checked
/// operators in debug builds and wrapping UB-free semantics in release —
/// we use explicit `checked_*` and panic uniformly.
///
/// # Example
///
/// ```
/// use tbf_lp::Rat;
/// let a = Rat::new(1, 3);
/// let b = Rat::new(1, 6);
/// assert_eq!(a + b, Rat::new(1, 2));
/// assert!(a > b);
/// assert_eq!((a / b), Rat::from_int(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

const OVERFLOW: &str = "rational arithmetic overflow (i128)";

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num/den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates the integer `n` as a rational.
    pub fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (after reduction, sign-carrying).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (after reduction, always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// True if exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// True if strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// True if strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        // Lowest terms stay lowest terms; only the sign moves.
        let sign = self.num.signum();
        Rat {
            num: sign * self.den,
            den: sign * self.num,
        }
    }

    fn is_int(self) -> bool {
        self.den == 1
    }

    /// Nearest `f64` (for reporting only; never used in pivoting).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Largest integer `≤ self`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `≥ self`.
    pub fn ceil(self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }

    fn checked_bin(
        a: Rat,
        b: Rat,
        f: impl Fn(i128, i128, i128, i128) -> Option<(i128, i128)>,
    ) -> Rat {
        let (num, den) = f(a.num, a.den, b.num, b.den).expect(OVERFLOW);
        Rat::new(num, den)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        if self.is_int() && rhs.is_int() {
            return Rat::from_int(self.num.checked_add(rhs.num).expect(OVERFLOW));
        }
        Rat::checked_bin(self, rhs, |an, ad, bn, bd| {
            let num = an.checked_mul(bd)?.checked_add(bn.checked_mul(ad)?)?;
            let den = ad.checked_mul(bd)?;
            Some((num, den))
        })
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.is_zero() || rhs.is_zero() {
            return Rat::ZERO;
        }
        if self.is_int() && rhs.is_int() {
            return Rat::from_int(self.num.checked_mul(rhs.num).expect(OVERFLOW));
        }
        // Cross-reduce first to keep magnitudes small.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rat::checked_bin(
            Rat {
                num: self.num / g1,
                den: self.den / g2,
            },
            Rat {
                num: rhs.num / g2,
                den: rhs.den / g1,
            },
            |an, ad, bn, bd| Some((an.checked_mul(bn)?, ad.checked_mul(bd)?)),
        )
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division = multiply by reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // den > 0 on both sides, so cross-multiplication preserves order.
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflow");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::from_int(n as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_sign_normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
        assert!(Rat::new(1, -2).is_negative());
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
        let mut c = a;
        c += b;
        assert_eq!(c, Rat::new(5, 6));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Rat::new(1, 3) < Rat::new(34, 100));
        assert!(Rat::new(1, 3) > Rat::new(33, 100));
        assert_eq!(Rat::new(10, 30), Rat::new(1, 3));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 1).to_string(), "3");
        assert_eq!(Rat::new(3, 7).to_string(), "3/7");
        assert_eq!(Rat::new(-3, 7).to_string(), "-3/7");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn zero_reciprocal_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    fn to_f64_reporting() {
        assert!((Rat::new(1, 4).to_f64() - 0.25).abs() < 1e-12);
    }
}
