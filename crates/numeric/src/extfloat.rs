//! Extended-range non-negative floating point.
//!
//! The FPRAS works with count estimates `N(qℓ)` up to `k^n` and with the
//! sampler's acceptance probability `φ`, which starts at `≈ 1/N(qℓ)` and
//! is divided by branch probabilities on the way down (Algorithm 2). For
//! `n` in the thousands both ends leave `f64` range, so every estimate in
//! `fpras-core` is an [`ExtFloat`]: a `f64` mantissa in `[1, 2)` paired
//! with an `i64` binary exponent. This keeps arithmetic at `f64` speed
//! while extending the exponent range to `±2^63`.
//!
//! Only non-negative values are representable — the algorithms never
//! produce negative estimates, and ruling them out at the type level
//! removes a class of sign-handling bugs.

use crate::BigUint;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul};

/// A non-negative number `mantissa * 2^exp` with `mantissa ∈ [1, 2)`,
/// or exactly zero (`mantissa == 0`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExtFloat {
    mantissa: f64,
    exp: i64,
}

impl ExtFloat {
    /// The value 0.
    pub const ZERO: ExtFloat = ExtFloat { mantissa: 0.0, exp: 0 };

    /// The value 1.
    pub const ONE: ExtFloat = ExtFloat { mantissa: 1.0, exp: 0 };

    /// Builds from an `f64`.
    ///
    /// # Panics
    /// Panics if `v` is negative, NaN, or infinite: such values indicate a
    /// logic error upstream and must not propagate into estimates.
    pub fn from_f64(v: f64) -> Self {
        assert!(v.is_finite() && v >= 0.0, "ExtFloat requires finite non-negative input, got {v}");
        if v == 0.0 {
            return Self::ZERO;
        }
        let (m, e) = decompose(v);
        ExtFloat { mantissa: m, exp: e }
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Self::from_f64(v as f64)
    }

    /// Builds from a [`BigUint`] (rounded to `f64` mantissa precision).
    pub fn from_biguint(v: &BigUint) -> Self {
        if v.is_zero() {
            return Self::ZERO;
        }
        let log2 = v.log2();
        Self::from_log2(log2)
    }

    /// Builds `2^log2`.
    pub fn from_log2(log2: f64) -> Self {
        assert!(log2.is_finite(), "ExtFloat::from_log2 requires finite input");
        let e = log2.floor();
        let frac = log2 - e;
        ExtFloat { mantissa: 2f64.powf(frac), exp: e as i64 }.normalized()
    }

    /// `2^k` exactly.
    pub fn pow2(k: i64) -> Self {
        ExtFloat { mantissa: 1.0, exp: k }
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.mantissa == 0.0
    }

    /// The value as `f64`; `f64::INFINITY` if the exponent is too large,
    /// `0.0` if too small.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        if self.exp > 1023 {
            return f64::INFINITY;
        }
        if self.exp < -1074 {
            return 0.0;
        }
        if self.exp < -1022 {
            // Subnormal result: `powi` with exponent below -1022 computes
            // `1/2^|e| = 1/inf = 0`, so split the scaling into two normal
            //-range factors.
            return (self.mantissa * 2f64.powi(-500)) * 2f64.powi((self.exp + 500) as i32);
        }
        self.mantissa * 2f64.powi(self.exp as i32)
    }

    /// `log2` of the value; `-inf` for 0.
    pub fn log2(&self) -> f64 {
        if self.is_zero() {
            return f64::NEG_INFINITY;
        }
        self.exp as f64 + self.mantissa.log2()
    }

    /// Natural log of the value; `-inf` for 0.
    pub fn ln(&self) -> f64 {
        self.log2() * std::f64::consts::LN_2
    }

    /// Multiplies by a plain `f64` factor (must be finite and `>= 0`).
    pub fn scale(&self, factor: f64) -> Self {
        *self * ExtFloat::from_f64(factor)
    }

    /// Reciprocal.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero ExtFloat");
        ExtFloat { mantissa: 1.0 / self.mantissa, exp: -self.exp }.normalized()
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    pub fn saturating_sub(&self, rhs: &ExtFloat) -> Self {
        if self <= rhs {
            return Self::ZERO;
        }
        // self > rhs > 0 here (or rhs == 0).
        if rhs.is_zero() {
            return *self;
        }
        let shift = self.exp - rhs.exp;
        if shift > 64 {
            return *self; // rhs is negligible at f64 precision
        }
        let diff = self.mantissa - rhs.mantissa * 2f64.powi(-(shift as i32));
        if diff <= 0.0 {
            return Self::ZERO;
        }
        let (m, e) = decompose(diff);
        ExtFloat { mantissa: m, exp: e + self.exp }
    }

    /// Ratio `self / rhs` as plain `f64` (may overflow to `inf`).
    pub fn ratio(&self, rhs: &ExtFloat) -> f64 {
        if rhs.is_zero() {
            return if self.is_zero() { f64::NAN } else { f64::INFINITY };
        }
        if self.is_zero() {
            return 0.0;
        }
        let e = self.exp - rhs.exp;
        let m = self.mantissa / rhs.mantissa;
        if e > 1500 {
            return f64::INFINITY;
        }
        if e < -1500 {
            return 0.0;
        }
        m * 2f64.powi(e as i32)
    }

    /// Relative error `|self - reference| / reference` as `f64`.
    ///
    /// Returns `f64::INFINITY` when `reference` is zero but `self` is not,
    /// and `0.0` when both are zero.
    pub fn relative_error(&self, reference: &ExtFloat) -> f64 {
        if reference.is_zero() {
            return if self.is_zero() { 0.0 } else { f64::INFINITY };
        }
        let r = self.ratio(reference);
        (r - 1.0).abs()
    }

    /// Rounds to the nearest [`BigUint`] (mantissa-precision accurate).
    pub fn to_biguint(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        if self.exp < 0 {
            // Value < 2; round.
            return if self.to_f64() >= 0.5 { BigUint::one() } else { BigUint::zero() };
        }
        // mantissa * 2^exp = (mantissa * 2^52) * 2^(exp-52)
        let scaled = (self.mantissa * 2f64.powi(52)).round() as u64;
        let big = BigUint::from_u64(scaled);
        if self.exp >= 52 {
            &big << (self.exp - 52) as usize
        } else {
            let (q, _r) = big.div_rem_u64(1u64 << (52 - self.exp) as u32);
            q
        }
    }

    fn normalized(self) -> Self {
        if self.mantissa == 0.0 {
            return Self::ZERO;
        }
        let (m, e) = decompose(self.mantissa);
        ExtFloat { mantissa: m, exp: e + self.exp }
    }
}

/// Steps between an [`ExtFloatChain`]'s renormalisations. A step moves
/// `log₂` of the raw mantissa by at most 1 (it multiplies by `a.m ∈ [1, 2)`
/// and divides by `b.m ∈ [1, 2)`), so between renormalisations it stays
/// within `2^±(PERIOD + 2)`, deep inside `f64`'s normal range.
const CHAIN_PERIOD: u32 = 256;

/// An [`ExtFloat`] under a chain of `x ← x · a / b` updates, with its
/// normalisation deferred.
///
/// `ExtFloat`'s `x * a / b` normalises after the multiply and again
/// after the divide. Both only scale the mantissa by a power of two, and
/// in `f64`'s normal range such a scaling commutes with rounding:
/// `fl(2ᵗ·y) = 2ᵗ·fl(y)`. So a chain that keeps a raw `f64` mantissa and
/// an `i64` exponent, and per step does `m ← m·a.m / b.m` and
/// `e ← e + a.e − b.e`, holds the *same value* as the `ExtFloat` fold at
/// every step, and [`ExtFloatChain::value`] returns it bit for bit. The
/// chain renormalises every 256 steps to stay in range.
#[derive(Clone, Copy, Debug)]
pub struct ExtFloatChain {
    /// Raw mantissa: the value is `mantissa · 2^exp`, or 0.
    mantissa: f64,
    exp: i64,
    /// Steps since the last renormalisation.
    steps: u32,
}

impl ExtFloatChain {
    /// A chain starting at `x`.
    pub fn new(x: ExtFloat) -> Self {
        ExtFloatChain { mantissa: x.mantissa, exp: x.exp, steps: 0 }
    }

    /// One step `x ← x * a / b`, with `ExtFloat`'s result bits.
    ///
    /// # Panics
    /// Panics if `b` is zero, like `ExtFloat` division.
    #[inline]
    pub fn mul_div(&mut self, a: ExtFloat, b: ExtFloat) {
        assert!(!b.is_zero(), "ExtFloat division by zero");
        // A zero `x` or `a` makes the mantissa 0, which stays 0.
        self.mantissa = self.mantissa * a.mantissa / b.mantissa;
        self.exp += a.exp - b.exp;
        self.steps += 1;
        if self.steps == CHAIN_PERIOD {
            *self = ExtFloatChain::new(self.value());
        }
    }

    /// The chain's current value, normalised.
    pub fn value(&self) -> ExtFloat {
        ExtFloat { mantissa: self.mantissa, exp: self.exp }.normalized()
    }
}

/// Splits a positive finite `f64` into `(mantissa ∈ [1,2), exponent)`.
fn decompose(v: f64) -> (f64, i64) {
    debug_assert!(v > 0.0 && v.is_finite());
    let bits = v.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i64;
    if raw_exp == 0 {
        // Subnormal: scale up by 2^64 first.
        let scaled = v * 2f64.powi(64);
        let (m, e) = decompose(scaled);
        return (m, e - 64);
    }
    let e = raw_exp - 1023;
    let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1023u64 << 52));
    (m, e)
}

impl Mul for ExtFloat {
    type Output = ExtFloat;
    fn mul(self, rhs: ExtFloat) -> ExtFloat {
        if self.is_zero() || rhs.is_zero() {
            return ExtFloat::ZERO;
        }
        ExtFloat { mantissa: self.mantissa * rhs.mantissa, exp: self.exp + rhs.exp }.normalized()
    }
}

impl Div for ExtFloat {
    type Output = ExtFloat;
    fn div(self, rhs: ExtFloat) -> ExtFloat {
        assert!(!rhs.is_zero(), "ExtFloat division by zero");
        if self.is_zero() {
            return ExtFloat::ZERO;
        }
        ExtFloat { mantissa: self.mantissa / rhs.mantissa, exp: self.exp - rhs.exp }.normalized()
    }
}

impl Add for ExtFloat {
    type Output = ExtFloat;
    fn add(self, rhs: ExtFloat) -> ExtFloat {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        let (big, small) = if self.exp >= rhs.exp { (self, rhs) } else { (rhs, self) };
        let shift = big.exp - small.exp;
        if shift > 64 {
            return big; // small vanishes at f64 precision
        }
        let m = big.mantissa + small.mantissa * 2f64.powi(-(shift as i32));
        ExtFloat { mantissa: m, exp: big.exp }.normalized()
    }
}

impl std::iter::Sum for ExtFloat {
    fn sum<I: Iterator<Item = ExtFloat>>(iter: I) -> Self {
        iter.fold(ExtFloat::ZERO, |acc, x| acc + x)
    }
}

impl PartialOrd for ExtFloat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.is_zero() && other.is_zero() {
            return Some(Ordering::Equal);
        }
        if self.is_zero() {
            return Some(Ordering::Less);
        }
        if other.is_zero() {
            return Some(Ordering::Greater);
        }
        match self.exp.cmp(&other.exp) {
            Ordering::Equal => self.mantissa.partial_cmp(&other.mantissa),
            ord => Some(ord),
        }
    }
}

impl From<u64> for ExtFloat {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl fmt::Display for ExtFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let v = self.to_f64();
        if v.is_finite() && (1e-4..1e15).contains(&v) {
            return write!(f, "{v}");
        }
        // Scientific via log10.
        let log10 = self.log2() * std::f64::consts::LOG10_2;
        let e = log10.floor();
        let mant = 10f64.powf(log10 - e);
        write!(f, "{mant:.4}e{e:+}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        if b == 0.0 {
            return a == 0.0;
        }
        ((a - b) / b).abs() < 1e-12
    }

    #[test]
    fn zero_identities() {
        let z = ExtFloat::ZERO;
        let x = ExtFloat::from_f64(3.5);
        assert!(z.is_zero());
        assert_eq!((z + x).to_f64(), 3.5);
        assert_eq!((x + z).to_f64(), 3.5);
        assert!((z * x).is_zero());
        assert_eq!((z / x).to_f64(), 0.0);
    }

    #[test]
    fn one_is_normalized() {
        let one = ExtFloat::ONE;
        assert_eq!(one.to_f64(), 1.0);
        assert_eq!(one.log2(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        ExtFloat::from_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_rejected() {
        let _ = ExtFloat::ONE / ExtFloat::ZERO;
    }

    #[test]
    fn pow2_extreme_exponents() {
        let huge = ExtFloat::pow2(100_000);
        let tiny = ExtFloat::pow2(-100_000);
        assert_eq!(huge.log2(), 100_000.0);
        assert_eq!(tiny.log2(), -100_000.0);
        assert_eq!((huge * tiny).to_f64(), 1.0);
        assert_eq!(huge.to_f64(), f64::INFINITY);
        assert_eq!(tiny.to_f64(), 0.0);
    }

    #[test]
    fn mul_beyond_f64_range() {
        let a = ExtFloat::pow2(900);
        let b = a * a; // 2^1800, infinite as f64
        assert_eq!(b.log2(), 1800.0);
        let c = b / ExtFloat::pow2(1799);
        assert_eq!(c.to_f64(), 2.0);
    }

    #[test]
    fn add_with_large_gap() {
        let big = ExtFloat::pow2(200);
        let small = ExtFloat::pow2(-200);
        assert_eq!((big + small).log2(), 200.0);
    }

    #[test]
    fn saturating_sub_basics() {
        let a = ExtFloat::from_f64(5.0);
        let b = ExtFloat::from_f64(3.0);
        assert!(close(a.saturating_sub(&b).to_f64(), 2.0));
        assert!(b.saturating_sub(&a).is_zero());
        assert!(a.saturating_sub(&a).is_zero());
    }

    #[test]
    fn ratio_and_relative_error() {
        let a = ExtFloat::from_f64(110.0);
        let b = ExtFloat::from_f64(100.0);
        assert!(close(a.ratio(&b), 1.1));
        assert!((a.relative_error(&b) - 0.1).abs() < 1e-12);
        assert_eq!(ExtFloat::ZERO.relative_error(&ExtFloat::ZERO), 0.0);
        assert_eq!(a.relative_error(&ExtFloat::ZERO), f64::INFINITY);
    }

    #[test]
    fn biguint_round_trip_exact_powers() {
        for k in [0i64, 1, 5, 64, 130, 500] {
            let v = ExtFloat::pow2(k);
            assert_eq!(v.to_biguint(), BigUint::pow2(k as usize), "2^{k}");
        }
    }

    #[test]
    fn from_biguint_log_accuracy() {
        let big = BigUint::pow(3, 300);
        let ef = ExtFloat::from_biguint(&big);
        assert!((ef.log2() - big.log2()).abs() < 1e-9);
    }

    #[test]
    fn ordering() {
        let a = ExtFloat::from_f64(1.5);
        let b = ExtFloat::pow2(10);
        let z = ExtFloat::ZERO;
        assert!(z < a);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(z.partial_cmp(&ExtFloat::ZERO), Some(Ordering::Equal));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ExtFloat::ZERO.to_string(), "0");
        assert_eq!(ExtFloat::from_f64(42.0).to_string(), "42");
        let huge = ExtFloat::pow2(1000);
        assert!(huge.to_string().contains('e'), "{huge}");
    }

    #[test]
    fn subnormal_input() {
        let v = f64::MIN_POSITIVE / 4.0; // subnormal
        let ef = ExtFloat::from_f64(v);
        assert!(close(ef.to_f64(), v));
    }

    /// A value `m·2^e` with `m ∈ [1, 2)`, or zero for kind 0.
    fn ext(kind: u8, m: f64, e: i64) -> ExtFloat {
        if kind == 0 {
            ExtFloat::ZERO
        } else {
            ExtFloat { mantissa: m, exp: e }
        }
    }

    /// An `ExtFloat`'s exact bits.
    fn bits(x: ExtFloat) -> (u64, i64) {
        (x.mantissa.to_bits(), x.exp)
    }

    proptest! {
        /// Every prefix of a chain of 257–1,000 `x ← x·a/b` steps, with
        /// mantissas in `[1, 2)` and exponents spread to ±2⁴⁰, gives
        /// the `ExtFloat` fold's bits, across renormalisations.
        #[test]
        fn deferred_chain_matches_extfloat_chain(
            x in (0u8..20, 1.0f64..2.0, -(1i64 << 40)..(1i64 << 40)),
            steps in proptest::collection::vec(
                (0u8..40, 1.0f64..2.0, -(1i64 << 40)..(1i64 << 40), 1.0f64..2.0, -(1i64 << 40)..(1i64 << 40)),
                257..1001,
            ),
        ) {
            let mut folded = ext(x.0, x.1, x.2);
            let mut chain = ExtFloatChain::new(folded);
            for (i, &(kind, am, ae, bm, be)) in steps.iter().enumerate() {
                let (a, b) = (ext(kind, am, ae), ext(1, bm, be));
                folded = folded * a / b;
                chain.mul_div(a, b);
                prop_assert_eq!(bits(chain.value()), bits(folded), "after step {}", i + 1);
            }
        }
    }

    proptest! {
        #[test]
        fn round_trip_f64(v in 1e-300f64..1e300) {
            prop_assert!(close(ExtFloat::from_f64(v).to_f64(), v));
        }

        #[test]
        fn mul_matches_f64(a in 1e-100f64..1e100, b in 1e-100f64..1e100) {
            let got = (ExtFloat::from_f64(a) * ExtFloat::from_f64(b)).to_f64();
            prop_assert!(close(got, a * b));
        }

        #[test]
        fn div_matches_f64(a in 1e-100f64..1e100, b in 1e-100f64..1e100) {
            let got = (ExtFloat::from_f64(a) / ExtFloat::from_f64(b)).to_f64();
            prop_assert!(close(got, a / b));
        }

        #[test]
        fn add_matches_f64(a in 1e-10f64..1e10, b in 1e-10f64..1e10) {
            let got = (ExtFloat::from_f64(a) + ExtFloat::from_f64(b)).to_f64();
            let expect = a + b;
            prop_assert!(((got - expect) / expect).abs() < 1e-9);
        }

        #[test]
        fn ord_matches_f64(a in 1e-100f64..1e100, b in 1e-100f64..1e100) {
            let got = ExtFloat::from_f64(a).partial_cmp(&ExtFloat::from_f64(b));
            prop_assert_eq!(got, a.partial_cmp(&b));
        }

        #[test]
        fn log2_matches_f64(v in 1e-300f64..1e300) {
            let got = ExtFloat::from_f64(v).log2();
            prop_assert!((got - v.log2()).abs() < 1e-9);
        }

        #[test]
        fn sum_matches_f64(vals in proptest::collection::vec(0.0f64..1e6, 0..20)) {
            let got: ExtFloat = vals.iter().map(|&v| ExtFloat::from_f64(v)).sum();
            let expect: f64 = vals.iter().sum();
            if expect == 0.0 {
                prop_assert!(got.is_zero());
            } else {
                prop_assert!(((got.to_f64() - expect) / expect).abs() < 1e-9);
            }
        }

        #[test]
        fn recip_involution(v in 1e-100f64..1e100) {
            let ef = ExtFloat::from_f64(v);
            prop_assert!(close(ef.recip().recip().to_f64(), v));
        }

        #[test]
        fn to_biguint_matches_u64(v in 0u64..) {
            // Mantissa precision: compare up to f64 rounding.
            let ef = ExtFloat::from_u64(v);
            let back = ef.to_biguint();
            let diff = if back > BigUint::from_u64(v) {
                back.checked_sub(&BigUint::from_u64(v)).unwrap()
            } else {
                BigUint::from_u64(v).checked_sub(&back).unwrap()
            };
            // Error at most one ulp of the 53-bit mantissa.
            let tolerance = BigUint::from_u64((v >> 52).max(1));
            prop_assert!(diff <= tolerance);
        }
    }
}
