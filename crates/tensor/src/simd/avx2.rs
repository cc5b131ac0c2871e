//! Explicit AVX2 implementations of the dispatched kernels.
//!
//! Everything here is an `unsafe fn` annotated
//! `#[target_feature(enable = "avx2")]`: the contract (checked by the only
//! caller, [`super::dispatch`]) is that the running CPU has been probed
//! with `is_x86_feature_detected!` before any of these execute. The module
//! is `pub(crate)` so that contract cannot leak.
//!
//! Every kernel is **bit-identical** to its lane-tier counterpart:
//! multiplies and adds stay two distinct roundings (`_mm256_mul_ps` +
//! `_mm256_add_ps`, never a fused multiply-add), per-element and summation
//! order are preserved, and integer-to-float conversions are exact.

#![allow(unsafe_code)]
// Every unsafe block in this module must say why it is sound.
#![warn(clippy::undocumented_unsafe_blocks)]

use core::arch::x86_64::*;

use super::exp::{exp_approx, C0, C1, C2, C3, C4, C5, EXP_LO, LN2_HI, LN2_LO, LOG2E};

/// Index of the first maximum (0 for empty), with the exact semantics of the
/// scalar scan: strict `>`, NaNs never win. Eight candidates are prescreened
/// per step with an ordered vector compare (`NaN > best` is false), and a
/// chunk is only rescanned scalar when some lane strictly beats the current
/// best — so the chosen index is bit-identical to the scalar result.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn argmax(x: &[f32]) -> usize {
    if x.is_empty() {
        return 0;
    }
    let mut best = 0usize;
    let mut best_v = x[0];
    let n = x.len() / 8 * 8;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 8 <= n <= x.len(), so the 8-float load is in bounds.
        let chunk = unsafe { _mm256_loadu_ps(x.as_ptr().add(i)) };
        let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(chunk, _mm256_set1_ps(best_v));
        if _mm256_movemask_ps(gt) != 0 {
            for (k, &v) in x[i..i + 8].iter().enumerate() {
                if v > best_v {
                    best = i + k;
                    best_v = v;
                }
            }
        }
        i += 8;
    }
    for (k, &v) in x[n..].iter().enumerate() {
        if v > best_v {
            best = n + k;
            best_v = v;
        }
    }
    best
}

/// `dst[j] += codes[j] as f32` — the int8 add-only fast path (binary
/// activations). The i8→f32 conversion is exact, so this is bit-identical
/// to the scalar loop.
///
/// # Safety
/// The CPU must support AVX2. Slices must be equal length (asserted).
#[target_feature(enable = "avx2")]
pub unsafe fn accumulate_i8(dst: &mut [f32], codes: &[i8]) {
    assert_eq!(dst.len(), codes.len(), "accumulate_i8: length mismatch");
    let n = dst.len() / 8 * 8;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 8 <= n <= len for both slices: the 8-byte integer
        // load, 8-float load and store are all in bounds.
        unsafe {
            let c8 = _mm_loadl_epi64(codes.as_ptr().add(i).cast());
            let f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(c8));
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, f));
        }
        i += 8;
    }
    for (d, &c) in dst[n..].iter_mut().zip(&codes[n..]) {
        *d += f32::from(c);
    }
}

/// `dst[j] += a · (codes[j] as f32)` — int8 axpy with two-rounding
/// semantics, bit-identical to the scalar loop.
///
/// # Safety
/// The CPU must support AVX2. Slices must be equal length (asserted).
#[target_feature(enable = "avx2")]
pub unsafe fn axpy_i8(dst: &mut [f32], a: f32, codes: &[i8]) {
    assert_eq!(dst.len(), codes.len(), "axpy_i8: length mismatch");
    let av = _mm256_set1_ps(a);
    let n = dst.len() / 8 * 8;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 8 <= n <= len for both slices (8-byte integer load,
        // 8-float load/store in bounds).
        unsafe {
            let c8 = _mm_loadl_epi64(codes.as_ptr().add(i).cast());
            let f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(c8));
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            _mm256_storeu_ps(
                dst.as_mut_ptr().add(i),
                _mm256_add_ps(d, _mm256_mul_ps(av, f)),
            );
        }
        i += 8;
    }
    for (d, &c) in dst[n..].iter_mut().zip(&codes[n..]) {
        *d += a * f32::from(c);
    }
}

/// Eight-lane `exp_approx` of max-subtracted supports: the shared
/// polynomial of `simd::exp` in the same operation order, so each lane is
/// bit-identical to the scalar `exp_approx`.
///
/// Callers must have subtracted the segment maximum first (arguments are
/// `<= 0`), which keeps the reassembled exponent strictly below the `f32`
/// exponent-field limit — the scalar `n = 128` overflow split is therefore
/// unreachable and omitted.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn exp_nonpos_ps(x: __m256) -> __m256 {
    // Arguments are non-positive; only the underflow side needs a clamp.
    // `maxps`/`minps` return the second operand when either is NaN, so `x`
    // goes second: a NaN passes through, as it does the scalar `clamp`.
    let x = _mm256_max_ps(_mm256_set1_ps(EXP_LO), x);
    let x = _mm256_min_ps(_mm256_setzero_ps(), x);
    // Ties-to-even, the integer the scalar magic-constant round yields.
    let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(_mm256_mul_ps(
        x,
        _mm256_set1_ps(LOG2E),
    ));
    // Cody–Waite: r = (x - n·LN2_HI) - n·LN2_LO.
    let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
    let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
    let r2 = _mm256_mul_ps(r, r);
    let mut p = _mm256_set1_ps(C0);
    for c in [C1, C2, C3, C4, C5] {
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
    }
    let poly = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, r2), r), _mm256_set1_ps(1.0));
    // 2^n through the exponent field: n ∈ [-126, 0] here, so the biased
    // exponent 127 + n stays in [1, 127] — always a normal number, and the
    // one multiply rounds once, like the scalar two-factor split.
    let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_cvtps_epi32(n),
        _mm256_set1_epi32(127),
    )));
    _mm256_mul_ps(poly, pow2)
}

/// Fused softmax of one group: max, `exp_approx(v - max)` with an in-register
/// running total, then one normalising division pass. Tail lanes (fewer than
/// eight trailing elements) run the scalar polynomial. A total that is not
/// positive (only reachable with a NaN or infinite input) falls back to
/// uniform, like the lane tier.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn softmax_seg(seg: &mut [f32]) {
    if seg.is_empty() {
        return;
    }
    let n = seg.len() / 8 * 8;
    // Max: order-independent and exact, so reduce eight lanes at a time.
    let mut max = f32::NEG_INFINITY;
    if n > 0 {
        let mut m8 = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 8 <= n <= seg.len(), so the load is in bounds.
            unsafe {
                m8 = _mm256_max_ps(m8, _mm256_loadu_ps(seg.as_ptr().add(i)));
            }
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), m8);
        for l in lanes {
            max = max.max(l);
        }
    }
    for &v in &seg[n..] {
        max = max.max(v);
    }

    // exp(v - max) with a running vector total.
    let max8 = _mm256_set1_ps(max);
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n {
        // SAFETY: i + 8 <= n <= seg.len() for the load and store.
        unsafe {
            let v = _mm256_loadu_ps(seg.as_ptr().add(i));
            let e = exp_nonpos_ps(_mm256_sub_ps(v, max8));
            _mm256_storeu_ps(seg.as_mut_ptr().add(i), e);
            acc = _mm256_add_ps(acc, e);
        }
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut total = 0.0f32;
    for l in lanes {
        total += l;
    }
    for v in &mut seg[n..] {
        *v = exp_approx(*v - max);
        total += *v;
    }

    if total > 0.0 {
        let t8 = _mm256_set1_ps(total);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 8 <= n <= seg.len() for the load and store.
            unsafe {
                let v = _mm256_loadu_ps(seg.as_ptr().add(i));
                _mm256_storeu_ps(seg.as_mut_ptr().add(i), _mm256_div_ps(v, t8));
            }
            i += 8;
        }
        for v in &mut seg[n..] {
            *v /= total;
        }
    } else {
        let u = 1.0 / seg.len() as f32;
        for v in seg.iter_mut() {
            *v = u;
        }
    }
}
