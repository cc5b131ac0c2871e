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

/// `out[j] = ((s + src[o₁ + j]) + … + src[oₙ + j]) + bias[j]` for every
/// offset `oᵢ` of `offsets` in order, where the start `s` is `out[j]` when
/// `carry` and `+0` otherwise, and the bias term is left out when `bias` is
/// `None`. Four `__m256` sums (32 columns) stay in registers while the rows
/// are added, then the bias, then one store; the remaining full 8-column
/// chunks take one register, the last `< 8` columns the scalar loop. Every
/// element sees the same adds in the same order on every path.
///
/// # Safety
/// The CPU must support AVX2. Every row `src[o..o + out.len()]` and the
/// bias length are checked (asserted) before any load.
#[target_feature(enable = "avx2")]
pub unsafe fn sum_rows(
    src: &[f32],
    offsets: &[usize],
    carry: bool,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let n = out.len();
    super::dispatch::check_sum_rows(src, offsets, bias, n);
    let s = src.as_ptr();
    let o = out.as_mut_ptr();
    let mut j = 0;
    while j + 32 <= n {
        // SAFETY: j + 32 <= n = out.len(), every row `src[off..off + n]` and
        // the bias (length n) were checked in bounds above.
        unsafe {
            let mut acc = if carry {
                [0, 8, 16, 24].map(|d| _mm256_loadu_ps(o.add(j + d)))
            } else {
                [_mm256_setzero_ps(); 4]
            };
            for &off in offsets {
                let row = s.add(off + j);
                for (d, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_loadu_ps(row.add(8 * d)));
                }
            }
            if let Some(b) = bias {
                for (d, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_loadu_ps(b.as_ptr().add(j + 8 * d)));
                }
            }
            for (d, a) in acc.into_iter().enumerate() {
                _mm256_storeu_ps(o.add(j + 8 * d), a);
            }
        }
        j += 32;
    }
    while j + 8 <= n {
        // SAFETY: j + 8 <= n, with the same checked bounds as above.
        unsafe {
            let mut acc = if carry {
                _mm256_loadu_ps(o.add(j))
            } else {
                _mm256_setzero_ps()
            };
            for &off in offsets {
                acc = _mm256_add_ps(acc, _mm256_loadu_ps(s.add(off + j)));
            }
            if let Some(b) = bias {
                acc = _mm256_add_ps(acc, _mm256_loadu_ps(b.as_ptr().add(j)));
            }
            _mm256_storeu_ps(o.add(j), acc);
        }
        j += 8;
    }
    for jj in j..n {
        let mut v = if carry { out[jj] } else { 0.0 };
        for &off in offsets {
            v += src[off + jj];
        }
        if let Some(b) = bias {
            v += b[jj];
        }
        out[jj] = v;
    }
}

/// The narrow-output GEMM body for `N` columns of C (`1..=4`): for each full
/// block of eight rows, one `__m256` per class holds the eight rows' sums
/// while `p` walks `0..k` in ascending order. Per `p` the eight `a[r][p]`
/// come in with one gather, `aik = alpha · a`, and each sum becomes
/// `acc + aik · b[p][j]` (multiply, then add: two roundings) only in the
/// lanes where `aik != 0` (`NEQ_UQ`, so a NaN counts as nonzero): the blend
/// is the scalar loop's zero skip, `-0.0` and NaN included. `a` holds the
/// rows (`rows × k`, row-major), `b` is `k × N`, `c` is `rows × N` and
/// already scaled by beta. Returns the rows done, a multiple of eight; the
/// caller's scalar loop takes the rest.
///
/// # Safety
/// The CPU must support AVX2. The slice lengths and `7 · k <= i32::MAX`
/// (the gather's offsets) are checked (asserted) before any load.
#[target_feature(enable = "avx2")]
pub unsafe fn narrow_rows<const N: usize>(
    alpha: f32,
    a: &[f32],
    k: usize,
    b: &[f32],
    c: &mut [f32],
) -> usize {
    let rows = c.len() / N;
    assert!(
        c.len() == rows * N && a.len() == rows * k && b.len() == k * N,
        "narrow_rows: slice lengths do not match {rows} x {k} x {N}"
    );
    let stride = i32::try_from(k).ok().filter(|s| s.checked_mul(7).is_some());
    let stride = stride.expect("narrow_rows: 7 * k overflows the gather's i32 offsets");
    let index = _mm256_setr_epi32(
        0,
        stride,
        2 * stride,
        3 * stride,
        4 * stride,
        5 * stride,
        6 * stride,
        7 * stride,
    );
    let alpha8 = _mm256_set1_ps(alpha);
    let zero = _mm256_setzero_ps();
    let full = rows / 8 * 8;
    let mut i0 = 0;
    while i0 < full {
        let c_block = &mut c[i0 * N..(i0 + 8) * N];
        let mut acc: [__m256; N] = std::array::from_fn(|j| {
            let lanes: [f32; 8] = std::array::from_fn(|r| c_block[r * N + j]);
            // SAFETY: `lanes` is eight floats on the stack.
            unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
        });
        let a_block = a[i0 * k..].as_ptr();
        for p in 0..k {
            // SAFETY: lane r reads a[(i0 + r) · k + p] with r < 8 and p < k,
            // inside `a` (rows · k floats) because i0 + 8 <= rows.
            let av = unsafe { _mm256_i32gather_ps::<4>(a_block.add(p), index) };
            let aik = _mm256_mul_ps(alpha8, av);
            let live = _mm256_cmp_ps::<_CMP_NEQ_UQ>(aik, zero);
            for (j, acc_j) in acc.iter_mut().enumerate() {
                let bj = _mm256_set1_ps(b[p * N + j]);
                let sum = _mm256_add_ps(*acc_j, _mm256_mul_ps(aik, bj));
                *acc_j = _mm256_blendv_ps(*acc_j, sum, live);
            }
        }
        for (j, acc_j) in acc.into_iter().enumerate() {
            let mut lanes = [0.0f32; 8];
            // SAFETY: `lanes` is eight floats on the stack.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc_j) };
            for (r, v) in lanes.into_iter().enumerate() {
                c_block[r * N + j] = v;
            }
        }
        i0 += 8;
    }
    full
}
