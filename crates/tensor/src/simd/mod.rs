//! Hand-written 8-lane (`f32x8`-shaped) kernels for the hot `_into` paths.
//!
//! The build environment cannot pull `std::simd` (nightly) or a vendored
//! SIMD crate, so this module supplies the next best thing: a fixed-width
//! lane struct ([`F32x8`]) whose operations are written so the optimiser's
//! auto-vectoriser has no excuse — fixed-length arrays, no bounds checks in
//! the lane body, one operation per lane per statement — plus the
//! lane-tier index kernels ([`argmax`], [`row_argmax_into`]).
//!
//! **Numerical contract:** every kernel here performs *exactly* the same
//! floating-point operations in *exactly* the same per-element order as its
//! scalar counterpart (`a * x + dst` stays two roundings — never a fused
//! multiply-add), so results are bit-identical to the naive loops. The
//! speed comes from unrolling and bounds-check elimination, not from
//! reassociating sums.
//!
//! The portable lane kernels in this module are one *tier* of a two-tier
//! runtime story. [`dispatch`] probes the CPU once at startup (or honours
//! the `BCPNN_SIMD` env var) and routes each call to these lane kernels or
//! to the explicit AVX2 intrinsics in the (private) `avx2` module; both
//! tiers return the same bits. The tiers, kernel by kernel:
//!
//! | kernel | `lanes` | `avx2` |
//! |--------|---------|--------|
//! | argmax | [`argmax`]: eight-wide prescreen | ordered compare + movemask |
//! | int8 accumulate / axpy | plain loops | `cvtepi8_epi32` |
//! | grouped softmax | [`exp::exp_approx_x8`] | the same polynomial in `__m256` |
//! | hot-column gather | `[f32; 32]` of sums per block | four `__m256` of sums per block |
//! | narrow GEMM (`C` 1–4 wide) | the scalar loop in `gemm` | one `__m256` of eight C rows per class | New code should call through [`dispatch`];
//! the functions here remain public as the portable tier's implementation
//! and for callers that need the fixed no-detection cost model.

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
pub mod dispatch;
pub mod exp;

use crate::matrix::Matrix;

/// Number of lanes in [`F32x8`] (AVX2-register-shaped).
pub const LANES: usize = 8;

/// A fixed 8-lane bundle of `f32`s: the portable-SIMD-shaped building block
/// of the lane tier.
///
/// ```
/// use bcpnn_tensor::simd::F32x8;
///
/// let a = F32x8::splat(2.0);
/// let b = F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
/// let mut out = [0.0f32; 8];
/// (a * b).store(&mut out);
/// assert_eq!(out, [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8([f32; LANES]);

impl F32x8 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; LANES])
    }

    /// Broadcast one value into every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Load eight consecutive values.
    ///
    /// # Panics
    /// Panics if `src` holds fewer than eight elements.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let chunk: &[f32; LANES] = src[..LANES].try_into().expect("8-lane load");
        Self(*chunk)
    }

    /// Store the lanes into eight consecutive slots.
    ///
    /// # Panics
    /// Panics if `dst` holds fewer than eight elements.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        let chunk: &mut [f32; LANES] = (&mut dst[..LANES]).try_into().expect("8-lane store");
        *chunk = self.0;
    }

    /// `self + a · x` with the two-rounding (`mul` then `add`) semantics of
    /// the scalar backends — deliberately *not* a fused multiply-add, so the
    /// result stays bit-identical to the naive loop.
    #[inline(always)]
    pub fn mul_add(self, a: Self, x: Self) -> Self {
        let mut out = self.0;
        for ((o, av), xv) in out.iter_mut().zip(a.0.iter()).zip(x.0.iter()) {
            *o += *av * *xv;
        }
        Self(out)
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; LANES] {
        self.0
    }
}

/// Lane-wise addition.
impl std::ops::Add for F32x8 {
    type Output = Self;

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0.iter()) {
            *o += *r;
        }
        Self(out)
    }
}

/// Lane-wise in-place addition (same per-lane order as `+`).
impl std::ops::AddAssign for F32x8 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// Lane-wise multiplication.
impl std::ops::Mul for F32x8 {
    type Output = Self;

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0.iter()) {
            *o *= *r;
        }
        Self(out)
    }
}

/// Index of the first maximum of `x` (0 for an empty slice) with the exact
/// semantics of `vector::argmax`, but scanning eight candidates per step:
/// a chunk whose maximum does not beat the current best is skipped without
/// a per-element comparison, which is the common case on softmax outputs.
#[inline]
pub fn argmax(x: &[f32]) -> usize {
    if x.is_empty() {
        return 0;
    }
    let mut best = 0usize;
    let mut best_v = x[0];
    let mut base = 0usize;
    let mut chunks = x.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        // Lane-wise max; NaNs never win (`v > m` is false), matching the
        // strict `>` scan below.
        let mut m = chunk[0];
        for &v in &chunk[1..] {
            if v > m {
                m = v;
            }
        }
        if m > best_v {
            for (i, &v) in chunk.iter().enumerate() {
                if v > best_v {
                    best = base + i;
                    best_v = v;
                }
            }
        }
        base += LANES;
    }
    for (i, &v) in chunks.remainder().iter().enumerate() {
        if v > best_v {
            best = base + i;
            best_v = v;
        }
    }
    best
}

/// Per-row argmax via [`argmax`]: bit-identical to
/// `reduce::row_argmax_into`, with the eight-wide prescreen.
pub fn row_argmax_into(m: &Matrix<f32>, out: &mut Vec<usize>) {
    out.clear();
    out.extend(m.iter_rows().map(argmax));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::MatrixRng;
    use crate::{reduce, vector};

    #[test]
    fn lane_ops_match_scalar() {
        let a = F32x8::load(&[1.0, -2.0, 3.5, 0.0, 8.0, -0.25, 7.0, 2.0]);
        let b = F32x8::splat(1.5);
        assert_eq!(
            (a + b).to_array(),
            [2.5, -0.5, 5.0, 1.5, 9.5, 1.25, 8.5, 3.5]
        );
        assert_eq!(
            (a * b).to_array(),
            [1.5, -3.0, 5.25, 0.0, 12.0, -0.375, 10.5, 3.0]
        );
        let acc = F32x8::zero().mul_add(b, a);
        assert_eq!(acc.to_array(), (a * b).to_array());
    }

    #[test]
    fn argmax_matches_vector_argmax() {
        let mut rng = MatrixRng::seed_from(11);
        for len in [0usize, 1, 3, 8, 9, 17, 64, 100] {
            let v: Vec<f32> = rng.uniform(1, len.max(1), -5.0, 5.0).into_vec();
            let v = &v[..len];
            assert_eq!(argmax(v), vector::argmax(v), "len {len}: {v:?}");
        }
        // Ties keep the first occurrence, exactly like the scalar scan.
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        // A NaN never wins, including in the prescreen path.
        let with_nan = [0.0, f32::NAN, 2.0, 1.0, 0.5, 0.25, 0.1, 0.0, -1.0];
        assert_eq!(argmax(&with_nan), vector::argmax(&with_nan));
    }

    #[test]
    fn matrix_reductions_match_reduce_module() {
        let mut rng = MatrixRng::seed_from(13);
        for (rows, cols) in [(0, 5), (3, 0), (1, 1), (4, 7), (5, 8), (6, 19), (9, 64)] {
            let m: Matrix<f32> = rng.uniform(rows, cols, -2.0, 2.0);
            let mut idx = Vec::new();
            row_argmax_into(&m, &mut idx);
            assert_eq!(idx, reduce::row_argmax(&m), "{rows}x{cols}");
        }
    }
}
