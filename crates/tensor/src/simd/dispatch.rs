//! Runtime CPU-feature dispatch for the hot kernels.
//!
//! The binary ships every tier and picks one when the process starts:
//!
//! | tier | implementation | `exp` |
//! |------|----------------|-------|
//! | [`SimdTier::Scalar`] | plain loops, the pre-dispatch reference | libm |
//! | [`SimdTier::Lanes`]  | portable 8-lane kernels (`simd::argmax`, lane softmax) | [`exp::exp_approx`] |
//! | [`SimdTier::Avx2`]   | explicit AVX2+FMA intrinsics (`simd::avx2`) | same polynomial, fused |
//!
//! Selection runs once, at the first dispatched call: the `BCPNN_SIMD` env
//! var (`scalar` / `lanes` / `avx2`) wins if set and valid, otherwise
//! `is_x86_feature_detected!("avx2")` + `("fma")` promotes to AVX2 and
//! anything else (including every non-x86 target) gets the portable lane
//! tier. A request for `avx2` on a CPU without it falls back to `lanes`
//! with a one-time stderr notice — it never crashes and never executes an
//! unsupported instruction. Tests and benches may also force a tier
//! programmatically with [`set_tier`].
//!
//! # Numerical contract
//!
//! The elementwise kernels ([`accumulate_i8`], [`axpy_i8`])
//! and the index kernels ([`argmax`], [`row_argmax_into`]) return
//! **bit-identical** results on every tier — multiply-then-add stays two
//! roundings everywhere, even in the AVX2 tier. Only the softmax kernels
//! ([`softmax_groups_into`], [`softmax_row_groups_par`]) differ across
//! tiers, and those only within the `exp_approx` tolerance documented in
//! [`exp`]: the scalar tier keeps the legacy libm loop bit-for-bit, the
//! other two use the shared polynomial (relative error ≤ 1e-6).
//! `tests/simd_dispatch_equivalence.rs` holds every tier to this table.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

use bcpnn_parallel::par_chunks_mut;

use super::exp;
use crate::matrix::Matrix;
use crate::reduce;

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
}

/// Environment variable that forces a dispatch tier: `scalar`, `lanes` or
/// `avx2` (case-insensitive). Read once, at the first dispatched call.
pub const SIMD_ENV: &str = "BCPNN_SIMD";

/// One dispatch tier. See the [module docs](self) for the selection rules
/// and the per-tier numerical contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Plain scalar loops with libm `exp` — the pre-dispatch reference
    /// numerics, bit-for-bit.
    Scalar,
    /// Portable fixed-width lane kernels (`simd::argmax`,
    /// [`exp::exp_approx_x8`]); compiles on every target and relies on the
    /// auto-vectorizer for width.
    Lanes,
    /// Explicit AVX2+FMA intrinsics (`core::arch::x86_64`); requires a
    /// runtime feature probe and silently degrades to [`SimdTier::Lanes`]
    /// where unsupported.
    Avx2,
}

impl SimdTier {
    /// Canonical lower-case name (the accepted `BCPNN_SIMD` values).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Lanes => "lanes",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Parse a tier name as accepted by `BCPNN_SIMD` (case-insensitive;
    /// `scalar`, `lanes` and `avx2`, plus the aliases `libm` → scalar and
    /// `portable` → lanes).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "libm" => Some(SimdTier::Scalar),
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
                     avx2+fma; falling back to the portable lane tier"
                );
            });
            return SimdTier::Lanes;
        }
        self
    }
}

/// Whether the running CPU supports the AVX2 tier (AVX2 *and* FMA —
/// the intrinsic kernels enable both). Always false off x86-64.
fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
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
        SimdTier::Scalar => 1,
        SimdTier::Lanes => 2,
        SimdTier::Avx2 => 3,
    }
}

fn decode(v: u8) -> SimdTier {
    match v {
        1 => SimdTier::Scalar,
        2 => SimdTier::Lanes,
        3 => SimdTier::Avx2,
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
                         (expected scalar|lanes|avx2); using detection"
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
// Portable implementations shared by the Scalar/Lanes arms (and the non-x86
// AVX2 stubs).
// ---------------------------------------------------------------------------

/// `dst[j] += codes[j] as f32` — i8→f32 conversion is exact, so every tier
/// is bit-identical. The plain loop is the scalar *and* lane tier (the
/// auto-vectorizer widens it); AVX2 uses `_mm256_cvtepi8_epi32`.
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

/// The legacy softmax loop, bit-for-bit: libm `exp`, running total, divide
/// (uniform fallback on a non-positive total). This *is* the pre-dispatch
/// `NaiveBackend::grouped_softmax` body, hoisted here so every backend
/// shares one definition.
fn softmax_seg_scalar(seg: &mut [f32]) {
    if seg.is_empty() {
        return;
    }
    let max = seg.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut total = 0.0f32;
    for v in seg.iter_mut() {
        *v = (*v - max).exp();
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

/// Lane-tier softmax: same structure as the scalar loop, but `exp` is the
/// shared polynomial ([`exp::exp_approx_x8`] eight lanes at a time, scalar
/// [`exp::exp_approx`] on the tail) and the eight per-lane partial totals
/// are reduced in lane order before the tail is added.
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

// ---------------------------------------------------------------------------
// Dispatched kernels. Each comes in two forms: the un-suffixed function
// routes to [`active_tier`]; the `_with` form takes an explicit tier (it is
// re-resolved, so passing `Avx2` is safe on any machine).
// ---------------------------------------------------------------------------

/// Index of the first maximum (0 for empty) on the given tier. All tiers
/// implement the exact scalar-scan semantics — strict `>`, first
/// occurrence, NaNs never win — so the index is identical everywhere.
pub fn argmax_with(tier: SimdTier, x: &[f32]) -> usize {
    match tier.resolved() {
        SimdTier::Scalar => crate::vector::argmax(x),
        SimdTier::Lanes => super::argmax(x),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2+fma on this CPU (never off x86-64).
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
        SimdTier::Scalar => reduce::row_argmax_into(m, out),
        SimdTier::Lanes => super::row_argmax_into(m, out),
        SimdTier::Avx2 => {
            out.clear();
            // SAFETY: `resolved()` returns Avx2 only when the runtime probe
            // confirmed avx2+fma on this CPU (never off x86-64).
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
        SimdTier::Scalar | SimdTier::Lanes => portable_accumulate_i8(dst, codes),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2+fma on this CPU (never off x86-64).
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
        SimdTier::Scalar | SimdTier::Lanes => portable_axpy_i8(dst, a, codes),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2+fma on this CPU (never off x86-64).
        SimdTier::Avx2 => unsafe { avx2::axpy_i8(dst, a, codes) },
    }
}

/// `dst[j] += a · (codes[j] as f32)` on the active tier.
pub fn axpy_i8(dst: &mut [f32], a: f32, codes: &[i8]) {
    axpy_i8_with(active_tier(), dst, a, codes);
}

/// Softmax one contiguous group in place on the given tier: subtract-max,
/// exponentiate, normalise (uniform fallback when the total is not
/// positive, which only finite inputs never trigger).
///
/// The scalar tier is bit-for-bit the legacy libm loop; the lane and AVX2
/// tiers use the shared [`exp::exp_approx`] polynomial and agree with the
/// scalar tier within its documented ≤ 1e-6 relative error.
fn softmax_seg(tier: SimdTier, seg: &mut [f32]) {
    match tier.resolved() {
        SimdTier::Scalar => softmax_seg_scalar(seg),
        SimdTier::Lanes => softmax_seg_lanes(seg),
        // SAFETY: `resolved()` returns Avx2 only when the runtime probe
        // confirmed avx2+fma on this CPU (never off x86-64).
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
    let tier = tier.resolved();
    for r in 0..m.rows() {
        for seg in m.row_mut(r).chunks_mut(group) {
            softmax_seg(tier, seg);
        }
    }
}

/// Grouped softmax over a matrix in place on the active tier.
pub fn softmax_groups_into(m: &mut Matrix<f32>, group: usize) {
    softmax_groups_into_with(active_tier(), m, group);
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
        assert_eq!(SimdTier::parse("scalar"), Some(SimdTier::Scalar));
        assert_eq!(SimdTier::parse("LANES"), Some(SimdTier::Lanes));
        assert_eq!(SimdTier::parse(" avx2 "), Some(SimdTier::Avx2));
        assert_eq!(SimdTier::parse("libm"), Some(SimdTier::Scalar));
        assert_eq!(SimdTier::parse("portable"), Some(SimdTier::Lanes));
        assert_eq!(SimdTier::parse("avx512"), None);
        for t in [SimdTier::Scalar, SimdTier::Lanes, SimdTier::Avx2] {
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
    fn detected_tier_is_never_scalar() {
        assert_ne!(detected_tier(), SimdTier::Scalar);
    }

    #[test]
    fn cpu_features_is_nonempty() {
        assert!(!cpu_features().is_empty());
    }
}
