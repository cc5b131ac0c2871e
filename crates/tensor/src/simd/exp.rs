//! Polynomial `exp` approximation for the softmax hot path.
//!
//! Profiling the serving shapes showed scalar libm `expf` dominating
//! end-to-end `predict` next to the linear forward: the grouped
//! softmax calls `exp` once per hidden unit per row, and libm's `expf`
//! neither inlines nor vectorizes. This module supplies the classic
//! Cephes-style alternative — range reduction to `[-½ln2, ½ln2]`, a
//! degree-6 minimax polynomial, and exponent reassembly via integer bit
//! arithmetic — in a form both dispatch tiers share:
//!
//! * [`exp_approx`] — the scalar reference. The portable-lane softmax tier
//!   applies it through [`exp_approx_x8`], whose fixed-width array body
//!   auto-vectorizes; the AVX2 tier re-implements the *same operations in
//!   the same order* in intrinsics (see `simd::avx2`), so every tier gets
//!   the same bits.
//!
//! # Accuracy contract
//!
//! Over the softmax input range — `(support - max) ∈ [-87.0, 0.0]` — and
//! in fact over the whole non-overflowing domain `[-87.0, 88.0]`, the
//! relative error versus `f64` `exp` is **≤ 1e-6** (measured ≲ 3e-7, about
//! 2 ulp; `crates/tensor/tests/exp_prop.rs` asserts the 1e-6 bound
//! property-style). Three exact identities the softmax leans on:
//!
//! * `exp_approx(0) == 1.0` exactly (the reduced argument is `0` and the
//!   polynomial's constant term is exact), so the maximal element of every
//!   softmax group maps to exactly `1.0` and group totals are `>= 1`.
//! * The result is always finite and non-negative: inputs clamp to
//!   `[-87.336, 88.722]`, whose images stay inside `f32` range.
//! * Monotonicity holds to within 2 ulp: `a <= b` implies
//!   `exp_approx(a) <= exp_approx(b) * (1 + 2⁻²¹)`. (Bitwise monotonicity
//!   is *not* guaranteed at range-reduction seams, the same caveat libm
//!   itself carries.)
//!
//! A `NaN` input propagates on every tier (`clamp` keeps it), so a softmax
//! group holding a NaN or `+inf` support falls to the uniform fallback.

// The constants below keep every digit of their canonical Cephes decimal
// forms (some beyond f32 precision) to document provenance.
#![allow(clippy::excessive_precision)]

/// Lowest input before `exp(x)` underflows `f32` (≈ `ln(f32::MIN_POSITIVE)`
/// minus slack); inputs below clamp here, yielding ≈ 1.1e-38.
pub const EXP_LO: f32 = -87.336_544;

/// Highest input before `exp(x)` overflows `f32` (≈ `ln(f32::MAX)` with
/// slack); inputs above clamp here, yielding ≈ 3.39e38 (finite).
pub const EXP_HI: f32 = 88.722_839;

/// `log2(e)` — scales x into units of `ln 2` for the exponent split.
pub(crate) const LOG2E: f32 = std::f32::consts::LOG2_E;
/// High part of `ln 2`; exactly representable, so `n * LN2_HI` is exact for
/// the |n| ≤ 128 the clamp allows.
pub(crate) const LN2_HI: f32 = 0.693_359_375;
/// Low (correction) part of `ln 2`: `ln 2 - LN2_HI`.
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;

/// Round-to-nearest-even magic constant: `1.5 · 2²³`. Adding and
/// subtracting it rounds any `|v| < 2²²` to the nearest integer with
/// ties-to-even — the same result as `round_ties_even`, but in two plain
/// additions the auto-vectorizer handles on every x86-64 (the intrinsic
/// needs SSE4.1 `roundps`, which the baseline target lacks, so it otherwise
/// lowers to a per-element libm call that blocks vectorization).
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Degree-6 minimax coefficients for `exp(r) - 1 - r` on `[-½ln2, ½ln2]`
/// (Cephes `expf` constants), applied as
/// `exp(r) ≈ 1 + r + r²·(C5 + r·(C4 + r·(C3 + r·(C2 + r·(C1 + r·C0)))))`.
pub(crate) const C0: f32 = 1.987_569_1e-4;
pub(crate) const C1: f32 = 1.398_199_9e-3;
pub(crate) const C2: f32 = 8.333_452e-3;
pub(crate) const C3: f32 = 4.166_579_6e-2;
pub(crate) const C4: f32 = 1.666_666_5e-1;
pub(crate) const C5: f32 = 5.000_000_1e-1;

/// Polynomial `exp` approximation (see the module docs for the error
/// contract: relative error ≤ 1e-6 over `[-87, 88]`, `exp_approx(0) == 1`
/// exactly, always finite and non-negative).
///
/// ```
/// use bcpnn_tensor::simd::exp::exp_approx;
///
/// assert_eq!(exp_approx(0.0), 1.0);
/// assert!((exp_approx(1.0) - std::f32::consts::E).abs() / std::f32::consts::E < 1e-6);
/// assert!((exp_approx(-20.0) - (-20.0f32).exp()).abs() < 1e-14);
/// ```
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    // Split x = n·ln2 + r with n the *nearest* integer, so r ∈ [-½ln2, ½ln2].
    // The magic-constant round matches `round_ties_even` bit-for-bit over
    // the clamped range but stays vectorizable on baseline x86-64.
    let n = (x * LOG2E + ROUND_MAGIC) - ROUND_MAGIC;
    // Two-step Cody–Waite reduction: n·LN2_HI is exact, LN2_LO restores the
    // truncated low bits, keeping |error in r| ≈ ulp(r) instead of ulp(x).
    let r = x - n * LN2_HI - n * LN2_LO;
    let r2 = r * r;
    let mut p = C0;
    p = p * r + C1;
    p = p * r + C2;
    p = p * r + C3;
    p = p * r + C4;
    p = p * r + C5;
    let poly = p * r2 + r + 1.0;
    // 2ⁿ via the exponent field; n ∈ [-126, 128] after the clamp, and the
    // one boundary case n = 128 only occurs with poly < 1 (x near EXP_HI
    // lands just below the next power of two), so the product stays finite.
    scale_by_pow2(poly, n as i32)
}

/// `poly * 2^n` assembled through the `f32` exponent field, branch-free so
/// the x8 form auto-vectorizes.
#[inline]
fn scale_by_pow2(poly: f32, n: i32) -> f32 {
    // The clamp admits n ∈ [-126, 128]. Split 2^n into two power-of-two
    // factors whose exponents stay in the normal range ([-63, 64] each):
    // the first multiply is exact (poly ∈ [0.7, 1.5], so no overflow or
    // underflow mid-way), leaving the single rounding a direct poly·2^n
    // multiply would have — the split is bit-identical, including gradual
    // underflow to subnormals at the EXP_LO end.
    let n1 = n >> 1;
    let n2 = n - n1;
    let p1 = f32::from_bits(((127 + n1) as u32) << 23);
    let p2 = f32::from_bits(((127 + n2) as u32) << 23);
    let y = poly * p1 * p2;
    // n = 128 can overflow by at most the polynomial's rounding error:
    // saturate at f32::MAX instead of returning infinity. The comparison is
    // false for NaN, so a NaN input still propagates.
    if y == f32::INFINITY {
        f32::MAX
    } else {
        y
    }
}

/// Eight [`exp_approx`] evaluations over a fixed-width array — the
/// portable-lane tier's building block. One operation per lane per
/// statement, no bounds checks: the auto-vectorizer turns this into wide
/// arithmetic wherever the target has it, and the result is bit-identical
/// to eight scalar [`exp_approx`] calls.
#[inline]
pub fn exp_approx_x8(xs: [f32; 8]) -> [f32; 8] {
    let mut out = [0.0f32; 8];
    for (o, x) in out.iter_mut().zip(xs) {
        *o = exp_approx(x);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_zero_and_tight_nearby() {
        assert_eq!(exp_approx(0.0), 1.0);
        for &x in &[-1.0f32, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, -2.0] {
            let want = (f64::from(x)).exp();
            let got = f64::from(exp_approx(x));
            assert!(
                ((got - want) / want).abs() < 1e-6,
                "exp_approx({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn clamps_keep_results_finite_and_positive() {
        assert!(exp_approx(-1e30) > 0.0);
        assert!(exp_approx(-1e30) < 1e-37);
        assert!(exp_approx(1e30).is_finite());
        assert!(exp_approx(f32::NEG_INFINITY) > 0.0, "clamped, not NaN");
        assert!(exp_approx(f32::INFINITY).is_finite());
    }

    #[test]
    fn x8_matches_scalar_bitwise() {
        let xs = [-87.0f32, -10.5, -1.0, -0.25, 0.0, 0.25, 3.5, 88.0];
        let out = exp_approx_x8(xs);
        for (x, o) in xs.iter().zip(out) {
            assert_eq!(o.to_bits(), exp_approx(*x).to_bits());
        }
    }

    #[test]
    fn dense_scan_stays_within_bound_on_softmax_range() {
        // 200k evenly spaced points across the range the softmax feeds.
        let (lo, hi) = (-87.0f64, 0.0f64);
        let steps = 200_000;
        for i in 0..=steps {
            let x = lo + (hi - lo) * (i as f64) / (steps as f64);
            let got = f64::from(exp_approx(x as f32));
            let want = (f64::from(x as f32)).exp();
            assert!(
                ((got - want) / want).abs() < 1e-6,
                "x = {x}: got {got}, want {want}"
            );
        }
    }
}
