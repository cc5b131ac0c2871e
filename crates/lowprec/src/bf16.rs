//! bfloat16: IEEE-754 single precision truncated to 16 bits (1 sign, 8
//! exponent, 7 mantissa bits), rounded to nearest-even.
//!
//! bfloat16 keeps the full `f32` exponent range, so BCPNN's log-odds weights
//! (which span several orders of magnitude around zero) never overflow; what
//! it loses is mantissa precision (~2–3 decimal digits).

/// A bfloat16 value stored as its 16 raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);
    /// Smallest positive normal value (`2^-126`).
    pub const MIN_POSITIVE: Bf16 = Bf16(0x0080);
    /// Largest finite value (`≈ 3.39e38`).
    pub const MAX: Bf16 = Bf16(0x7F7F);

    /// Convert from `f32` with round-to-nearest-even on the dropped 16
    /// mantissa bits. NaN maps to a quiet NaN, infinities are preserved.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        if value.is_nan() {
            // Quiet NaN with the payload truncated; force a mantissa bit so
            // the result stays a NaN after truncation.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest, ties to even, on the 16 dropped mantissa bits:
        // adding 0x7FFF plus the kept LSB rounds halfway cases towards the
        // even neighbour and everything else to the nearest value.
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x0000_7FFF + lsb);
        Bf16((rounded >> 16) as u16)
    }

    /// Convert back to `f32` (exact: every bfloat16 value is an `f32`).
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Build from a raw bit pattern.
    pub fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Whether the value is NaN.
    pub fn is_nan(self) -> bool {
        self.to_f32().is_nan()
    }

    /// Round an `f32` through bfloat16 and back.
    pub fn round_f32(value: f32) -> f32 {
        Self::from_f32(value).to_f32()
    }
}

impl From<f32> for Bf16 {
    fn from(v: f32) -> Self {
        Bf16::from_f32(v)
    }
}

impl From<Bf16> for f32 {
    fn from(v: Bf16) -> Self {
        v.to_f32()
    }
}

impl std::ops::Add for Bf16 {
    type Output = Bf16;
    fn add(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl std::ops::Sub for Bf16 {
    type Output = Bf16;
    fn sub(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl std::ops::Mul for Bf16 {
    type Output = Bf16;
    fn mul(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl std::ops::Div for Bf16 {
    type Output = Bf16;
    fn div(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl std::ops::Neg for Bf16 {
    type Output = Bf16;
    fn neg(self) -> Bf16 {
        Bf16::from_f32(-self.to_f32())
    }
}

impl std::fmt::Display for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_values_round_trip() {
        for &v in &[0.0f32, 1.0, -1.0, 2.0, 0.5, -0.25, 1.5, 3.0, 256.0] {
            assert_eq!(Bf16::round_f32(v), v, "{v} should be exactly representable");
        }
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
    }

    #[test]
    fn rounding_is_to_nearest() {
        // 1.0 + 2^-8 is exactly halfway between 1.0 and the next bf16
        // (1 + 2^-7); ties-to-even keeps 1.0.
        let halfway = 1.0 + 2f32.powi(-8);
        assert_eq!(Bf16::round_f32(halfway), 1.0);
        // Slightly above the halfway point rounds up.
        let above = 1.0 + 2f32.powi(-8) + 2f32.powi(-12);
        assert_eq!(Bf16::round_f32(above), 1.0 + 2f32.powi(-7));
    }

    #[test]
    fn relative_error_is_bounded() {
        // 8 mantissa bits (incl. hidden) -> relative error <= 2^-8.
        for i in 1..2000 {
            let v = i as f32 * 0.137;
            let r = Bf16::round_f32(v);
            assert!(
                ((r - v) / v).abs() <= 2f32.powi(-8),
                "value {v} rounded to {r}"
            );
        }
    }

    #[test]
    fn specials_are_preserved() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(
            Bf16::from_f32(f32::NEG_INFINITY).to_f32(),
            f32::NEG_INFINITY
        );
        assert_eq!(Bf16::from_f32(-0.0).to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn arithmetic_goes_through_f32() {
        let a = Bf16::from_f32(1.5);
        let b = Bf16::from_f32(0.25);
        assert_eq!((a + b).to_f32(), 1.75);
        assert_eq!((a - b).to_f32(), 1.25);
        assert_eq!((a * b).to_f32(), 0.375);
        assert_eq!((a / b).to_f32(), 6.0);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn max_is_largest_finite() {
        assert!(Bf16::MAX.to_f32().is_finite());
        let next = f32::from_bits((Bf16::MAX.to_bits() as u32 + 1) << 16);
        assert!(next.is_infinite());
    }

    proptest! {
        #[test]
        fn roundtrip_is_idempotent(v in -1e30f32..1e30f32) {
            let once = Bf16::round_f32(v);
            let twice = Bf16::round_f32(once);
            prop_assert_eq!(once.to_bits(), twice.to_bits());
        }

        #[test]
        fn rounding_is_monotone(a in -1e6f32..1e6f32, b in -1e6f32..1e6f32) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(Bf16::round_f32(lo) <= Bf16::round_f32(hi));
        }

        #[test]
        fn relative_error_bound_holds(v in prop::num::f32::NORMAL.prop_filter("finite range", |x| x.abs() > 1e-30 && x.abs() < 1e30)) {
            let r = Bf16::round_f32(v);
            prop_assert!(((r - v) / v).abs() <= 2f32.powi(-8) + f32::EPSILON);
        }
    }
}
