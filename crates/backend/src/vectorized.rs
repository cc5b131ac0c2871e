//! Explicitly vectorized single-threaded backend.
//!
//! Evertz's "Vectorized Cluster Search" observes that the BCPNN-style
//! "irregular" inner loop vectorizes fine once it is phrased as dense lane
//! work; this backend is that phrasing for the Rust reproduction, built on
//! the hand-written 8-lane kernels in [`bcpnn_tensor::simd`] (the offline
//! build cannot pull `std::simd`).
//!
//! Two structural changes over [`NaiveBackend`](crate::NaiveBackend) carry
//! the speedup:
//!
//! * **Forward accumulate** runs input-major: for each active input `i`,
//!   one weight row is streamed once and `axpy`-ed into every batch row
//!   whose `x[b, i]` is non-zero. The naive batch-major loop re-streams
//!   each weight row per batch row, so at serving batch sizes this cuts
//!   weight-matrix traffic by the batch size; output rows (the working set
//!   that must stay cached) are `batch x units`, far smaller than the
//!   weights.
//! * **Trace update** processes eight output columns per step with the
//!   batch loop innermost and skips zero inputs (binary one-hot encodings
//!   are ~90% zeros), instead of a scalar per-`(i, j)` batch scan.
//!
//! **Numerical contract:** for every output element the accumulation order
//! is *identical* to the naive backend — forward sums ascend over inputs,
//! trace sums ascend over the batch, and skipped zero terms contribute
//! exactly `+0.0` in loops whose partial sums are never `-0.0` — so every
//! kernel is bit-exact against [`NaiveBackend`](crate::NaiveBackend)
//! (`tests/backend_equivalence.rs` asserts equality, not tolerance).
//! Weight recomputation and mutual information are
//! transcendental-function-bound with no reduction to block, so they
//! delegate to the naive loops unchanged; softmax and the forward `axpy`
//! route through [`bcpnn_tensor::simd::dispatch`], so on an AVX2+FMA
//! machine (or under `BCPNN_SIMD=avx2`) they run the explicit intrinsic
//! kernels. The naive backend routes its softmax through the *same*
//! dispatch kernel, so the bit-exactness contract holds tier-for-tier.

use bcpnn_tensor::simd::dispatch::{self, SimdTier};
use bcpnn_tensor::simd::{F32x8, LANES};
use bcpnn_tensor::Matrix;

use crate::kernels::{column_mean_traces, trace_update};
use crate::naive::NaiveBackend;
use crate::traits::{check_forward_shapes, check_trace_shapes, Backend};

/// Cache block (in columns) for the forward accumulate: 512 `f32`s = 2 KiB
/// per output-row block, so a block of the output row plus the matching
/// weight-row block stay resident in L1 across the input loop.
const FORWARD_BLOCK: usize = 512;

/// Single-threaded backend with hand-vectorized 8-lane kernels.
#[derive(Debug, Default, Clone, Copy)]
pub struct VectorizedBackend {
    /// `None` routes to the process-wide active tier (detection or
    /// `BCPNN_SIMD`); `Some` pins this instance to one tier — how the bench
    /// suite compares tiers side by side without mutating global state.
    tier: Option<SimdTier>,
}

impl VectorizedBackend {
    /// Create a new vectorized backend on the process-wide active tier.
    pub fn new() -> Self {
        Self { tier: None }
    }

    /// Create a backend pinned to one dispatch tier (unsupported requests
    /// degrade like [`dispatch::set_tier`] — `avx2` without the CPU feature
    /// becomes `lanes`).
    pub fn with_tier(tier: SimdTier) -> Self {
        Self { tier: Some(tier) }
    }

    /// The tier this instance dispatches to right now.
    pub fn tier(&self) -> SimdTier {
        self.tier.unwrap_or_else(dispatch::active_tier)
    }
}

impl Backend for VectorizedBackend {
    fn name(&self) -> &'static str {
        "vectorized"
    }

    fn linear_forward(
        &self,
        x: &Matrix<f32>,
        weights: &Matrix<f32>,
        bias: &[f32],
        out: &mut Matrix<f32>,
    ) {
        check_forward_shapes(x, weights, bias, out);
        let (batch, n_in) = x.shape();
        let n_units = weights.cols();
        for b in 0..batch {
            out.row_mut(b).copy_from_slice(bias);
        }
        if batch == 0 || n_units == 0 {
            return;
        }
        // Column blocks keep the active slice of every output row in cache
        // while the input loop streams the matching weight-row slices.
        let mut col = 0;
        while col < n_units {
            let width = FORWARD_BLOCK.min(n_units - col);
            // Input-major: stream each weight row once per block, reuse it
            // across every batch row that activates it. Per output element
            // the sum still ascends over `i` — the naive order — and axpy is
            // bit-identical on every dispatch tier.
            let tier = self.tier();
            for i in 0..n_in {
                let w_block = &weights.row(i)[col..col + width];
                for b in 0..batch {
                    let xv = x.get(b, i);
                    if xv == 0.0 {
                        continue;
                    }
                    let out_block = &mut out.row_mut(b)[col..col + width];
                    dispatch::axpy_with(tier, out_block, xv, w_block);
                }
            }
            col += width;
        }
    }

    fn grouped_softmax(&self, m: &mut Matrix<f32>, group: usize) {
        // Same shared kernel the naive backend routes through, so the two
        // backends stay bit-exact tier-for-tier; this instance's pinned tier
        // (if any) wins over the process-wide one.
        dispatch::softmax_groups_into_with(self.tier(), m, group);
    }

    fn update_traces(
        &self,
        x: &Matrix<f32>,
        act: &Matrix<f32>,
        rate: f32,
        pi: &mut [f32],
        pj: &mut [f32],
        pij: &mut Matrix<f32>,
    ) {
        check_trace_shapes(x, act, pi, pj, pij);
        let batch = x.rows();
        if batch == 0 {
            return;
        }
        let inv_b = 1.0 / batch as f32;
        let n_in = x.cols();
        let n_units = act.cols();

        // pi / pj: eight columns of batch sums per step, batch ascending per
        // column exactly like the scalar column scan.
        column_mean_traces(x, rate, inv_b, pi);
        column_mean_traces(act, rate, inv_b, pj);

        // pij: for each input i, accumulate eight joint-trace columns at a
        // time over the batch. The batch loop stays innermost (naive order)
        // and rows with x[b, i] == 0 are skipped: their products are exactly
        // +0.0 against partial sums that start at +0.0 and only ever add
        // finite products, so the skip cannot change a single bit.
        for i in 0..n_in {
            let row = pij.row_mut(i);
            let mut col = 0;
            while col + LANES <= n_units {
                let mut acc = F32x8::zero();
                for b in 0..batch {
                    let xv = x.get(b, i);
                    if xv == 0.0 {
                        continue;
                    }
                    let a = F32x8::load(&act.row(b)[col..col + LANES]);
                    acc = acc.mul_add(F32x8::splat(xv), a);
                }
                let sums = acc.to_array();
                for (p, s) in row[col..col + LANES].iter_mut().zip(sums) {
                    *p = trace_update(*p, s * inv_b, rate);
                }
                col += LANES;
            }
            for (j, p) in row.iter_mut().enumerate().skip(col) {
                let mut s = 0.0f32;
                for b in 0..batch {
                    let xv = x.get(b, i);
                    if xv == 0.0 {
                        continue;
                    }
                    s += xv * act.get(b, j);
                }
                *p = trace_update(*p, s * inv_b, rate);
            }
        }
    }

    fn recompute_weights(
        &self,
        pi: &[f32],
        pj: &[f32],
        pij: &Matrix<f32>,
        eps: f32,
        bias_gain: f32,
        weights: &mut Matrix<f32>,
        bias: &mut [f32],
    ) {
        // ln()-bound elementwise map: the naive loop is already optimal.
        NaiveBackend::new().recompute_weights(pi, pj, pij, eps, bias_gain, weights, bias);
    }

    fn apply_mask(
        &self,
        weights: &Matrix<f32>,
        mask: &Matrix<f32>,
        n_mcu: usize,
        out: &mut Matrix<f32>,
    ) {
        NaiveBackend::new().apply_mask(weights, mask, n_mcu, out);
    }

    fn mutual_information(
        &self,
        pi: &[f32],
        pj: &[f32],
        pij: &Matrix<f32>,
        n_mcu: usize,
        out: &mut Matrix<f32>,
    ) {
        NaiveBackend::new().mutual_information(pi, pj, pij, n_mcu, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcpnn_tensor::MatrixRng;

    fn backends() -> (NaiveBackend, VectorizedBackend) {
        (NaiveBackend::new(), VectorizedBackend::new())
    }

    /// A random forward/trace problem with a sparse binary input (the
    /// encoder regime) at a deliberately ragged shape.
    fn random_problem(
        rng: &mut MatrixRng,
        batch: usize,
        n_in: usize,
        n_units: usize,
    ) -> (Matrix<f32>, Matrix<f32>, Vec<f32>, Matrix<f32>) {
        let x = rng
            .uniform(batch, n_in, 0.0, 1.0)
            .map(|v| f32::from(v < 0.15));
        let w: Matrix<f32> = rng.normal(n_in, n_units, 0.0, 0.5);
        let bias: Vec<f32> = rng.uniform(1, n_units, -1.0, 0.0).into_vec();
        let act: Matrix<f32> = rng.uniform(batch, n_units, 0.0, 1.0);
        (x, w, bias, act)
    }

    #[test]
    fn forward_is_bit_exact_vs_naive_across_ragged_shapes() {
        let (naive, vec) = backends();
        let mut rng = MatrixRng::seed_from(3);
        for (batch, n_in, n_units) in [
            (1, 1, 1),
            (3, 7, 5),
            (4, 16, 8),
            (17, 29, 23),
            (8, 280, 60),
            (33, 100, 513),
        ] {
            let (x, w, bias, _) = random_problem(&mut rng, batch, n_in, n_units);
            let mut out_naive = Matrix::zeros(batch, n_units);
            let mut out_vec = Matrix::filled(batch, n_units, f32::NAN);
            naive.linear_forward(&x, &w, &bias, &mut out_naive);
            vec.linear_forward(&x, &w, &bias, &mut out_vec);
            assert_eq!(out_naive, out_vec, "shape {batch}x{n_in}x{n_units}");
        }
    }

    #[test]
    fn traces_are_bit_exact_vs_naive_across_ragged_shapes() {
        let (naive, vec) = backends();
        let mut rng = MatrixRng::seed_from(5);
        for (batch, n_in, n_units) in [(1, 1, 1), (5, 9, 7), (16, 30, 24), (21, 50, 41)] {
            let (x, _, _, act) = random_problem(&mut rng, batch, n_in, n_units);
            let pi0: Vec<f32> = rng.uniform(1, n_in, 0.01, 0.99).into_vec();
            let pj0: Vec<f32> = rng.uniform(1, n_units, 0.01, 0.99).into_vec();
            let pij0: Matrix<f32> = rng.uniform(n_in, n_units, 0.001, 0.5);
            let (mut pi_a, mut pj_a, mut pij_a) = (pi0.clone(), pj0.clone(), pij0.clone());
            let (mut pi_b, mut pj_b, mut pij_b) = (pi0, pj0, pij0);
            naive.update_traces(&x, &act, 0.25, &mut pi_a, &mut pj_a, &mut pij_a);
            vec.update_traces(&x, &act, 0.25, &mut pi_b, &mut pj_b, &mut pij_b);
            assert_eq!(pi_a, pi_b, "pi {batch}x{n_in}x{n_units}");
            assert_eq!(pj_a, pj_b, "pj {batch}x{n_in}x{n_units}");
            assert_eq!(pij_a, pij_b, "pij {batch}x{n_in}x{n_units}");
        }
    }

    #[test]
    fn delegated_kernels_match_naive() {
        let (naive, vec) = backends();
        let mut rng = MatrixRng::seed_from(9);
        let (n_in, n_mcu, n_hcu) = (12, 4, 3);
        let n_units = n_mcu * n_hcu;
        let pi: Vec<f32> = rng.uniform(1, n_in, 0.01, 0.99).into_vec();
        let pj: Vec<f32> = rng.uniform(1, n_units, 0.01, 0.99).into_vec();
        let pij: Matrix<f32> = rng.uniform(n_in, n_units, 0.001, 0.5);

        let mut w_a = Matrix::zeros(n_in, n_units);
        let mut w_b = Matrix::zeros(n_in, n_units);
        let mut bias_a = vec![0.0f32; n_units];
        let mut bias_b = vec![0.0f32; n_units];
        naive.recompute_weights(&pi, &pj, &pij, 1e-8, 1.0, &mut w_a, &mut bias_a);
        vec.recompute_weights(&pi, &pj, &pij, 1e-8, 1.0, &mut w_b, &mut bias_b);
        assert_eq!(w_a, w_b);
        assert_eq!(bias_a, bias_b);

        let mask = rng
            .uniform(n_hcu, n_in, 0.0, 1.0)
            .map(|v| f32::from(v < 0.5));
        let mut m_a = Matrix::zeros(n_in, n_units);
        let mut m_b = Matrix::zeros(n_in, n_units);
        naive.apply_mask(&w_a, &mask, n_mcu, &mut m_a);
        vec.apply_mask(&w_a, &mask, n_mcu, &mut m_b);
        assert_eq!(m_a, m_b);

        let mut mi_a = Matrix::zeros(n_hcu, n_in);
        let mut mi_b = Matrix::zeros(n_hcu, n_in);
        naive.mutual_information(&pi, &pj, &pij, n_mcu, &mut mi_a);
        vec.mutual_information(&pi, &pj, &pij, n_mcu, &mut mi_b);
        assert_eq!(mi_a, mi_b);

        let support: Matrix<f32> = rng.normal(6, n_units, 0.0, 2.0);
        let mut s_a = support.clone();
        let mut s_b = support;
        naive.grouped_softmax(&mut s_a, n_mcu);
        vec.grouped_softmax(&mut s_b, n_mcu);
        assert_eq!(s_a, s_b);
    }

    #[test]
    fn empty_batch_is_a_no_op_for_traces() {
        let vec = VectorizedBackend::new();
        let x = Matrix::zeros(0, 2);
        let act = Matrix::zeros(0, 3);
        let mut pi = vec![0.3f32; 2];
        let mut pj = vec![0.2f32; 3];
        let mut pij = Matrix::filled(2, 3, 0.1f32);
        vec.update_traces(&x, &act, 0.5, &mut pi, &mut pj, &mut pij);
        assert_eq!(pi, vec![0.3, 0.3]);
        assert_eq!(pj, vec![0.2, 0.2, 0.2]);
    }
}
