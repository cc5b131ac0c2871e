//! Floating-point scalar abstraction so the dense kernels work for both
//! `f32` (what the StreamBrain GPU backend uses) and `f64` (useful for
//! reference computations and metrics).

use crate::matrix::Matrix;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar type usable by the dense linear-algebra kernels.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + PartialOrd
    + PartialEq
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Smallest positive value used as a probability floor in the BCPNN
    /// learning rule (avoids `log(0)`).
    const TINY: Self;

    /// Lossy conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Lossy conversion from `usize`.
    fn from_usize(v: usize) -> Self {
        Self::from_f64(v as f64)
    }
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Power with a real exponent.
    fn powf(self, e: Self) -> Self;
    /// Maximum of two values (NaN-ignoring like `f32::max`).
    fn max(self, other: Self) -> Self;
    /// Minimum of two values (NaN-ignoring like `f32::min`).
    fn min(self, other: Self) -> Self;
    /// Whether the value is finite (not NaN or ±inf).
    fn is_finite(self) -> bool;
    /// Machine epsilon for the type.
    fn epsilon() -> Self;

    /// Vector tier of the narrow-output GEMM kernel (`C` of `N ∈ 1..=4`
    /// columns, on a panel of rows `[row_start, row_end)` already scaled by
    /// beta): accumulate some leading rows of the panel and return the
    /// first row left to the scalar loop. The default does nothing; `f32`
    /// routes to the dispatched SIMD kernel, which must write the scalar
    /// loop's bits.
    fn narrow_rows_simd<const N: usize>(
        _alpha: Self,
        _a: &Matrix<Self>,
        _b: &Matrix<Self>,
        _c_panel: &mut [Self],
        row_start: usize,
        _row_end: usize,
    ) -> usize {
        row_start
    }
}

macro_rules! impl_scalar {
    ($t:ty, $tiny:expr $(, $extra:item)*) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TINY: Self = $tiny;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn powf(self, e: Self) -> Self {
                <$t>::powf(self, e)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn epsilon() -> Self {
                <$t>::EPSILON
            }
            $($extra)*
        }
    };
}

impl_scalar!(
    f32,
    1e-8,
    fn narrow_rows_simd<const N: usize>(
        alpha: f32,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c_panel: &mut [f32],
        row_start: usize,
        row_end: usize,
    ) -> usize {
        use crate::simd::dispatch::narrow_rows;
        let k = a.cols();
        let rows = &a.as_slice()[row_start * k..row_end * k];
        row_start + narrow_rows::<N>(alpha, rows, k, &b.as_slice()[..k * N], c_panel)
    }
);
impl_scalar!(f64, 1e-12);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: Scalar>() {
        assert_eq!(S::from_f64(0.0), S::ZERO);
        assert_eq!(S::from_f64(1.0), S::ONE);
        assert!((S::from_f64(2.5).to_f64() - 2.5).abs() < 1e-6);
        assert!(S::TINY.to_f64() > 0.0);
        assert!(S::ONE.exp().to_f64() > 2.7);
        assert!((S::ONE.ln()).to_f64().abs() < 1e-12);
        assert!((S::from_f64(4.0).sqrt().to_f64() - 2.0).abs() < 1e-6);
        assert_eq!(S::from_f64(-3.0).abs(), S::from_f64(3.0));
        assert_eq!(S::from_f64(2.0).max(S::from_f64(3.0)), S::from_f64(3.0));
        assert_eq!(S::from_f64(2.0).min(S::from_f64(3.0)), S::from_f64(2.0));
        assert!(S::ONE.is_finite());
        assert!(!(S::ONE / S::ZERO).is_finite());
        assert_eq!(S::from_usize(7), S::from_f64(7.0));
        assert!((S::from_f64(2.0).powf(S::from_f64(3.0)).to_f64() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn f32_scalar_roundtrip() {
        roundtrip::<f32>();
    }

    #[test]
    fn f64_scalar_roundtrip() {
        roundtrip::<f64>();
    }
}
