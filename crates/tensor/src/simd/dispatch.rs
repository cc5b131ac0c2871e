//! Runtime CPU-feature dispatch for the hot kernels.
//!
//! The binary ships both tiers and picks one when the process starts:
//!
//! | tier | implementation |
//! |------|----------------|
//! | [`SimdTier::Lanes`] | portable 8-lane kernels (`simd::argmax`, lane softmax over [`exp::exp_approx_x8`]) |
//! | [`SimdTier::Avx2`]  | explicit AVX2 intrinsics (`simd::avx2`) |
//!
//! The dispatched kernels: [`argmax_with`] / [`row_argmax_into_with`],
//! [`accumulate_i8_with`] / [`axpy_i8_with`] (int8 weights),
//! [`softmax_groups_into_with`] (the hypercolumn softmax), [`sum_rows_with`]
//! (the hot-column gather: weight rows summed in registers, stored once)
//! and the readout's narrow GEMM, which `gemm` reaches for `f32` through
//! [`crate::Scalar::narrow_rows_simd`] (AVX2: eight rows of C per
//! register; lanes: the scalar loop).
//!
//! Selection runs once, at the first dispatched call: the `BCPNN_SIMD` env
//! var (`lanes` / `avx2`) wins if set and valid, otherwise
//! `is_x86_feature_detected!("avx2")` promotes to AVX2 and anything else
//! (including every non-x86 target) gets the portable lane tier. A request
//! for `avx2` on a CPU without it falls back to `lanes` with a one-time
//! stderr notice — it never crashes and never executes an unsupported
//! instruction. Tests and benches may also force a tier programmatically
//! with [`set_tier`].
//!
//! # Numerical contract
//!
//! Every kernel returns **bit-identical** results on every tier, for every
//! input; `tests/simd_dispatch_equivalence.rs` holds the tiers to it.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

use bcpnn_parallel::par_chunks_mut;

use super::exp;
use crate::matrix::Matrix;

#[cfg(target_arch = "x86_64")]
use super::avx2;

/// Portable stand-ins with the AVX2 signatures so the `Avx2` match arms
/// compile on non-x86 targets. Unreachable at runtime: [`SimdTier::resolved`]
/// never yields `Avx2` when [`avx2_supported`] is false, which it always is
/// off x86-64.
#[cfg(not(target_arch = "x86_64"))]
mod avx2 {
    pub unsafe fn argmax(x: &[f32]) -> usize {
        crate::simd::argmax(x)
    }
    pub unsafe fn accumulate_i8(dst: &mut [f32], codes: &[i8]) {
        super::portable_accumulate_i8(dst, codes);
    }
    pub unsafe fn axpy_i8(dst: &mut [f32], a: f32, codes: &[i8]) {
        super::portable_axpy_i8(dst, a, codes);
    }
    pub unsafe fn softmax_seg(seg: &mut [f32]) {
        super::softmax_seg_lanes(seg);
    }
    pub unsafe fn sum_rows(
        src: &[f32],
        offsets: &[usize],
        carry: bool,
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        super::sum_rows_lanes(src, offsets, carry, bias, out);
    }
    pub unsafe fn narrow_rows<const N: usize>(
        _alpha: f32,
        _a: &[f32],
        _k: usize,
        _b: &[f32],
        _c: &mut [f32],
    ) -> usize {
        0
    }
}

/// Environment variable that forces a dispatch tier: `lanes` or `avx2`
/// (case-insensitive). Read once, at the first dispatched call.
pub const SIMD_ENV: &str = "BCPNN_SIMD";

/// One dispatch tier. See the [module docs](self) for the selection rules
/// and the numerical contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Portable fixed-width lane kernels (`simd::argmax`,
    /// [`exp::exp_approx_x8`]); compiles on every target and relies on the
    /// auto-vectorizer for width.
    Lanes,
    /// Explicit AVX2 intrinsics (`core::arch::x86_64`); requires a
    /// runtime feature probe and silently degrades to [`SimdTier::Lanes`]
    /// where unsupported.
    Avx2,
}

impl SimdTier {
    /// Canonical lower-case name (the accepted `BCPNN_SIMD` values).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Lanes => "lanes",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Parse a tier name as accepted by `BCPNN_SIMD` (case-insensitive;
    /// `lanes` and `avx2`, plus the alias `portable` → lanes).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lanes" | "portable" => Some(SimdTier::Lanes),
            "avx2" => Some(SimdTier::Avx2),
            _ => None,
        }
    }

    /// Downgrade an unsupported request: `Avx2` becomes `Lanes` (with a
    /// one-time stderr notice) unless the running CPU passed the feature
    /// probe. Every dispatching entry point funnels through this, which is
    /// what makes calling the `target_feature` kernels sound.
    fn resolved(self) -> Self {
        if self == SimdTier::Avx2 && !avx2_supported() {
            static NOTICE: Once = Once::new();
            NOTICE.call_once(|| {
                eprintln!(
                    "bcpnn-tensor: avx2 SIMD tier requested but the CPU lacks \
                     avx2; falling back to the portable lane tier"
                );
            });
            return SimdTier::Lanes;
        }
        self
    }
}

/// Whether the running CPU supports the AVX2 tier. Always false off
/// x86-64.
fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The best tier the running CPU supports, ignoring the env override:
/// [`SimdTier::Avx2`] where the probe passes, else [`SimdTier::Lanes`].
pub fn detected_tier() -> SimdTier {
    if avx2_supported() {
        SimdTier::Avx2
    } else {
        SimdTier::Lanes
    }
}

/// Space-separated feature set of the running CPU, for bench/report
/// metadata (e.g. `"sse4.1 avx avx2 fma avx512f"`). Reports the
/// architecture name when nothing relevant is detected or off x86-64.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let probes = [
            ("sse4.1", std::arch::is_x86_feature_detected!("sse4.1")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ];
        let feats: Vec<&str> = probes.iter().filter(|(_, y)| *y).map(|(n, _)| *n).collect();
        if feats.is_empty() {
            std::env::consts::ARCH.to_string()
        } else {
            feats.join(" ")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

// 0 = not yet selected; otherwise encode(tier) + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(tier: SimdTier) -> u8 {
    match tier {
        SimdTier::Lanes => 1,
        SimdTier::Avx2 => 2,
    }
}

fn decode(v: u8) -> SimdTier {
    match v {
        1 => SimdTier::Lanes,
        2 => SimdTier::Avx2,
        _ => unreachable!("invalid encoded SIMD tier {v}"),
    }
}

/// The tier selected from `BCPNN_SIMD` / detection on first use.
fn init_tier() -> SimdTier {
    match std::env::var(SIMD_ENV) {
        Ok(raw) => match SimdTier::parse(&raw) {
            Some(tier) => tier.resolved(),
            None => {
                static NOTICE: Once = Once::new();
                NOTICE.call_once(|| {
                    eprintln!(
                        "bcpnn-tensor: unrecognised {SIMD_ENV}={raw:?} \
                         (expected lanes|avx2); using detection"
                    );
                });
                detected_tier()
            }
        },
        Err(_) => detected_tier(),
    }
}

/// The tier every un-suffixed dispatch call routes to. Selected once — env
/// override first, CPU detection otherwise — then cached in an atomic;
/// subsequent calls are a single relaxed load.
pub fn active_tier() -> SimdTier {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let tier = init_tier();
            ACTIVE.store(encode(tier), Ordering::Relaxed);
            tier
        }
        v => decode(v),
    }
}

/// Force the active tier for this process (tests and benches). The request
/// is resolved first — asking for AVX2 on a CPU without it installs the
/// lane tier — and the tier actually installed is returned. To restore,
/// capture [`active_tier`] beforehand and set it back.
pub fn set_tier(tier: SimdTier) -> SimdTier {
    let tier = tier.resolved();
    ACTIVE.store(encode(tier), Ordering::Relaxed);
    tier
}

// ---------------------------------------------------------------------------
// Portable implementations: the lane tier (and the non-x86 AVX2 stubs).
// ---------------------------------------------------------------------------

/// `dst[j] += codes[j] as f32` — i8→f32 conversion is exact, so every tier
/// is bit-identical. The plain loop is the lane tier (the auto-vectorizer
/// widens it); AVX2 uses `_mm256_cvtepi8_epi32`.
fn portable_accumulate_i8(dst: &mut [f32], codes: &[i8]) {
    assert_eq!(dst.len(), codes.len(), "accumulate_i8: length mismatch");
    for (d, &c) in dst.iter_mut().zip(codes) {
        *d += f32::from(c);
    }
}

fn portable_axpy_i8(dst: &mut [f32], a: f32, codes: &[i8]) {
    assert_eq!(dst.len(), codes.len(), "axpy_i8: length mismatch");
    for (d, &c) in dst.iter_mut().zip(codes) {
        *d += a * f32::from(c);
    }
}

/// Lane-tier softmax: subtract the max, exponentiate with the shared
/// polynomial ([`exp::exp_approx_x8`] eight lanes at a time, scalar
/// [`exp::exp_approx`] on the tail), divide by the total (uniform fallback
/// when it is not positive). The eight per-lane partial totals are reduced
/// in lane order before the tail is added — the order the AVX2 tier keeps.
fn softmax_seg_lanes(seg: &mut [f32]) {
    if seg.is_empty() {
        return;
    }
    let max = seg.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut lane_totals = [0.0f32; super::LANES];
    let mut chunks = seg.chunks_exact_mut(super::LANES);
    for chunk in chunks.by_ref() {
        let mut xs = [0.0f32; super::LANES];
        for (x, &v) in xs.iter_mut().zip(chunk.iter()) {
            *x = v - max;
        }
        let es = exp::exp_approx_x8(xs);
        for ((c, e), t) in chunk.iter_mut().zip(es).zip(lane_totals.iter_mut()) {
            *c = e;
            *t += e;
        }
    }
    let mut total = 0.0f32;
    for t in lane_totals {
        total += t;
    }
    for v in chunks.into_remainder().iter_mut() {
        *v = exp::exp_approx(*v - max);
        total += *v;
    }
    if total > 0.0 {
        for v in seg.iter_mut() {
            *v /= total;
        }
    } else {
        let u = 1.0 / seg.len() as f32;
        for v in seg.iter_mut() {
            *v = u;
        }
    }
}

/// The bounds every tier of [`sum_rows_with`] relies on: each row
/// `src[o..o + n]` lies inside `src`, and the bias (if any) is `n` long.
pub(crate) fn check_sum_rows(src: &[f32], offsets: &[usize], bias: Option<&[f32]>, n: usize) {
    assert!(
        offsets
            .iter()
            .all(|&o| o.checked_add(n).is_some_and(|end| end <= src.len())),
        "sum_rows: a {n}-wide row runs past the {} source values",
        src.len()
    );
    assert!(
        bias.is_none_or(|b| b.len() == n),
        "sum_rows: bias length does not match {n} columns"
    );
}

/// Columns the lane tier of [`sum_rows_with`] sums side by side: four
/// 8-lane registers' worth, the AVX2 tier's block.
const SUM_ROWS_BLOCK: usize = 32;

/// Lane-tier [`sum_rows_with`]: one `[f32; 32]` of sums per column block
/// (the tail block shorter), rows added in order, then the bias, then one
/// store.
fn sum_rows_lanes(
    src: &[f32],
    offsets: &[usize],
    carry: bool,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    check_sum_rows(src, offsets, bias, out.len());
    let full = out.len() / SUM_ROWS_BLOCK * SUM_ROWS_BLOCK;
    let (body, tail) = out.split_at_mut(full);
    for (block, chunk) in body.chunks_exact_mut(SUM_ROWS_BLOCK).enumerate() {
        let chunk: &mut [f32; SUM_ROWS_BLOCK] = chunk.try_into().expect("exact 32-column chunk");
        sum_rows_block(src, offsets, carry, bias, block * SUM_ROWS_BLOCK, chunk);
    }
    sum_rows_block(src, offsets, carry, bias, full, tail);
}

/// One column block of [`sum_rows_lanes`], columns `j..j + chunk.len()`.
/// Inlined so that a full block's width is a constant the loops unroll to.
#[inline(always)]
fn sum_rows_block(
    src: &[f32],
    offsets: &[usize],
    carry: bool,
    bias: Option<&[f32]>,
    j: usize,
    chunk: &mut [f32],
) {
    let width = chunk.len();
    let mut sums = [0.0f32; SUM_ROWS_BLOCK];
    let acc = &mut sums[..width];
    if carry {
        acc.copy_from_slice(chunk);
    }
    for &o in offsets {
        for (a, &w) in acc.iter_mut().zip(&src[o + j..o + j + width]) {
            *a += w;
        }
    }
    if let Some(b) = bias {
        for (a, &w) in acc.iter_mut().zip(&b[j..j + width]) {
            *a += w;
        }
    }
    chunk.copy_from_slice(acc);
}

// ---------------------------------------------------------------------------
// Dispatched kernels. Most come in two forms: the un-suffixed function
// routes to [`active_tier`]; the `_with` form takes an explicit tier (it is
// re-resolved, so passing `Avx2` is safe on any machine).
// ---------------------------------------------------------------------------

/// Index of the first maximum (0 for empty) on the given tier. Both tiers
/// implement the exact scalar-scan semantics — strict `>`, first
/// occurrence, NaNs never win — so the index is identical everywhere.
pub fn argmax_with(tier: SimdTier, x: &[f32]) -> usize {
    match tier.resolved() {
        SimdTier::Lanes => super::argmax(x),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2 on this CPU (never off x86-64).
        SimdTier::Avx2 => unsafe { avx2::argmax(x) },
    }
}

/// Index of the first maximum on the active tier.
pub fn argmax(x: &[f32]) -> usize {
    argmax_with(active_tier(), x)
}

/// Per-row argmax into a reused buffer on the given tier (bit-identical,
/// same semantics as [`argmax_with`]).
pub fn row_argmax_into_with(tier: SimdTier, m: &Matrix<f32>, out: &mut Vec<usize>) {
    match tier.resolved() {
        SimdTier::Lanes => super::row_argmax_into(m, out),
        SimdTier::Avx2 => {
            out.clear();
            // SAFETY: `resolved()` returns Avx2 only when the runtime probe
            // confirmed avx2 on this CPU (never off x86-64).
            out.extend(m.iter_rows().map(|row| unsafe { avx2::argmax(row) }));
        }
    }
}

/// Per-row argmax into a reused buffer on the active tier.
pub fn row_argmax_into(m: &Matrix<f32>, out: &mut Vec<usize>) {
    row_argmax_into_with(active_tier(), m, out);
}

/// Allocating convenience for [`row_argmax_into`] on the active tier (the
/// `predict` entry points, where the caller keeps the vector).
pub fn row_argmax(m: &Matrix<f32>) -> Vec<usize> {
    let mut out = Vec::new();
    row_argmax_into(m, &mut out);
    out
}

/// `dst[j] += codes[j] as f32` (int8 add-only fast path) on the given tier;
/// bit-identical across tiers (the conversion is exact).
pub fn accumulate_i8_with(tier: SimdTier, dst: &mut [f32], codes: &[i8]) {
    match tier.resolved() {
        SimdTier::Lanes => portable_accumulate_i8(dst, codes),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2 on this CPU (never off x86-64).
        SimdTier::Avx2 => unsafe { avx2::accumulate_i8(dst, codes) },
    }
}

/// `dst[j] += codes[j] as f32` on the active tier.
pub fn accumulate_i8(dst: &mut [f32], codes: &[i8]) {
    accumulate_i8_with(active_tier(), dst, codes);
}

/// `dst[j] += a · (codes[j] as f32)` (int8 axpy) on the given tier;
/// bit-identical across tiers.
pub fn axpy_i8_with(tier: SimdTier, dst: &mut [f32], a: f32, codes: &[i8]) {
    match tier.resolved() {
        SimdTier::Lanes => portable_axpy_i8(dst, a, codes),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2 on this CPU (never off x86-64).
        SimdTier::Avx2 => unsafe { avx2::axpy_i8(dst, a, codes) },
    }
}

/// `dst[j] += a · (codes[j] as f32)` on the active tier.
pub fn axpy_i8(dst: &mut [f32], a: f32, codes: &[i8]) {
    axpy_i8_with(active_tier(), dst, a, codes);
}

/// Softmax one contiguous group in place on the given tier: subtract-max,
/// exponentiate with [`exp::exp_approx`], normalise (uniform fallback when
/// the total is not positive, which only a NaN or infinite input triggers).
/// Bit-identical on both tiers. The generic kernel: every width takes it
/// except the 2-wide groups of [`softmax_groups_into_with`].
pub fn softmax_seg(tier: SimdTier, seg: &mut [f32]) {
    match tier.resolved() {
        SimdTier::Lanes => softmax_seg_lanes(seg),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2 on this CPU (never off x86-64).
        SimdTier::Avx2 => unsafe { avx2::softmax_seg(seg) },
    }
}

/// Grouped softmax over a matrix in place (the hypercolumn normalisation):
/// every row is split into `group`-wide segments and each segment softmaxed
/// independently on the given tier. Sequential over rows — the
/// shared definition behind `NaiveBackend::grouped_softmax` and the
/// quantized pipeline.
///
/// # Panics
/// Panics if `group` is zero or does not evenly divide the columns.
pub fn softmax_groups_into_with(tier: SimdTier, m: &mut Matrix<f32>, group: usize) {
    assert!(group > 0, "softmax group must be positive");
    assert_eq!(
        m.cols() % group,
        0,
        "softmax group {group} does not divide {} columns",
        m.cols()
    );
    if group == 2 {
        for pair in m.as_mut_slice().chunks_exact_mut(2) {
            softmax_pair(pair);
        }
        return;
    }
    let tier = tier.resolved();
    for r in 0..m.rows() {
        for seg in m.row_mut(r).chunks_mut(group) {
            softmax_seg(tier, seg);
        }
    }
}

/// [`softmax_seg`] on a 2-wide group (the 2-class readout), straight-line
/// and the same on both tiers: both tiers run a segment shorter than eight
/// lanes through this scalar tail — the max folded from `-inf`, the
/// exponentials totalled from `+0` in order, the divide or the uniform
/// fallback — so the bits are the generic kernel's, NaN and infinities
/// included, without its per-segment set-up.
#[inline]
fn softmax_pair(pair: &mut [f32]) {
    let max = f32::NEG_INFINITY.max(pair[0]).max(pair[1]);
    let e0 = exp::exp_approx(pair[0] - max);
    let e1 = exp::exp_approx(pair[1] - max);
    let total = (0.0 + e0) + e1;
    if total > 0.0 {
        pair[0] = e0 / total;
        pair[1] = e1 / total;
    } else {
        pair.fill(0.5);
    }
}

/// Grouped softmax over a matrix in place on the active tier.
pub fn softmax_groups_into(m: &mut Matrix<f32>, group: usize) {
    softmax_groups_into_with(active_tier(), m, group);
}

/// Sum of weight rows into one output segment on the given tier (the
/// hot-column gather): `out[j] = ((s + src[o₁ + j]) + … + src[oₙ + j]) +
/// bias[j]`, with the rows `src[oᵢ..oᵢ + out.len()]` added in the order of
/// `offsets`. The start `s` is `out[j]` when `carry` and `+0` otherwise;
/// `bias: None` leaves the last term out. Both tiers keep a block of sums
/// in registers and store it once. A long row list may be split over
/// several calls (`carry` on all but the first, the bias on the last) with
/// the same bits, because a store and reload is exact. Bit-identical on
/// both tiers.
///
/// # Panics
/// Panics if a row runs past `src` or the bias length is not `out.len()`.
pub fn sum_rows_with(
    tier: SimdTier,
    src: &[f32],
    offsets: &[usize],
    carry: bool,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    match tier.resolved() {
        SimdTier::Lanes => sum_rows_lanes(src, offsets, carry, bias, out),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2 on this CPU (never off x86-64).
        SimdTier::Avx2 => unsafe { avx2::sum_rows(src, offsets, carry, bias, out) },
    }
}

/// The vector part of the narrow-output GEMM (`C` of `N ∈ 1..=4` columns,
/// the readout) on the active tier: `c = alpha · a · b + c` for every full
/// block of eight rows, with `a` the `rows × k` rows, `b` the `k × N`
/// weights and `c` the `rows × N` outputs already scaled by beta. Returns
/// how many leading rows it did; the caller's scalar loop does the rest in
/// the same order. The lane tier returns 0 — its narrow kernel is the
/// scalar loop — and so does a `k` whose row offsets `7 · k` overflow the
/// AVX2 gather's `i32` lanes. Each done element is `to_bits()`-equal to the
/// scalar loop: products added in ascending `p`, a zero `alpha · a[i][p]`
/// skipped.
pub(crate) fn narrow_rows<const N: usize>(
    alpha: f32,
    a: &[f32],
    k: usize,
    b: &[f32],
    c: &mut [f32],
) -> usize {
    let gatherable = i32::try_from(k).is_ok_and(|s| s.checked_mul(7).is_some());
    match active_tier().resolved() {
        SimdTier::Avx2 if gatherable => {
            // SAFETY: `resolved()` returns Avx2 only when the runtime probe
            // confirmed avx2 on this CPU (never off x86-64).
            unsafe { avx2::narrow_rows::<N>(alpha, a, k, b, c) }
        }
        _ => 0,
    }
}

/// Below this many values [`softmax_row_groups_par`] runs on the calling
/// thread: handing rows to the pool costs more than the `exp`s it shares
/// out (≈ 13 µs against 2 µs for a 64 × 2 readout on 2 vCPUs; the two
/// break even near 64 × 1000).
const SOFTMAX_PARALLEL_CUTOFF: usize = 1 << 15;

/// [`softmax_groups_into`] parallelised over rows (same per-segment kernel,
/// same results — rows are independent): the variant the parallel backend
/// and the batch `predict_proba` paths call. Pass `group == cols` for a
/// plain per-row softmax. A matrix of fewer than 2^15 values runs on the
/// calling thread.
///
/// # Panics
/// Panics if `group` is zero or does not evenly divide the columns.
pub fn softmax_row_groups_par(m: &mut Matrix<f32>, group: usize) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    if m.rows() * cols < SOFTMAX_PARALLEL_CUTOFF {
        softmax_groups_into(m, group);
        return;
    }
    assert!(group > 0, "softmax group must be positive");
    assert_eq!(
        cols % group,
        0,
        "softmax group {group} does not divide {cols} columns"
    );
    let tier = active_tier().resolved();
    par_chunks_mut(m.as_mut_slice(), cols, |_, row| {
        for seg in row.chunks_mut(group) {
            softmax_seg(tier, seg);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_names_and_aliases() {
        assert_eq!(SimdTier::parse("LANES"), Some(SimdTier::Lanes));
        assert_eq!(SimdTier::parse(" avx2 "), Some(SimdTier::Avx2));
        assert_eq!(SimdTier::parse("portable"), Some(SimdTier::Lanes));
        assert_eq!(SimdTier::parse("scalar"), None);
        assert_eq!(SimdTier::parse("avx512"), None);
        for t in [SimdTier::Lanes, SimdTier::Avx2] {
            assert_eq!(SimdTier::parse(t.as_str()), Some(t));
        }
    }

    #[test]
    fn set_tier_installs_a_supported_tier() {
        let prev = active_tier();
        let got = set_tier(SimdTier::Avx2);
        // Either the CPU has AVX2 (tier sticks) or it degraded to lanes.
        assert!(got == SimdTier::Avx2 || got == SimdTier::Lanes);
        assert_eq!(active_tier(), got);
        assert_eq!(set_tier(prev), prev, "restoring a held tier is exact");
    }

    #[test]
    fn cpu_features_is_nonempty() {
        assert!(!cpu_features().is_empty());
    }
}
