//! Single-threaded reference backend.
//!
//! Every kernel is written as the most direct loop translation of the
//! mathematical definition. This backend is the correctness oracle for the
//! optimised [`ParallelBackend`](crate::ParallelBackend) (the test-suite
//! cross-checks the two on random inputs) and mirrors StreamBrain's plain
//! NumPy backend.

use bcpnn_tensor::Matrix;

use crate::kernels::{bcpnn_bias, bcpnn_weight, mutual_information_term, trace_update};
use crate::traits::{
    check_forward_shapes, check_hot_shapes, check_mask_shapes, check_trace_shapes, Backend,
};

/// Straightforward single-threaded implementation of every kernel.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveBackend;

impl NaiveBackend {
    /// Create a new naive backend.
    pub fn new() -> Self {
        Self
    }
}

impl Backend for NaiveBackend {
    fn name(&self) -> &'static str {
        "naive"
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
            let x_row = x.row(b);
            let out_row = out.row_mut(b);
            out_row.copy_from_slice(bias);
            for (i, &xv) in x_row.iter().enumerate().take(n_in) {
                if xv == 0.0 {
                    continue;
                }
                let w_row = weights.row(i);
                for j in 0..n_units {
                    out_row[j] += xv * w_row[j];
                }
            }
        }
    }

    fn linear_forward_hot(
        &self,
        hot: &[u32],
        weights: &Matrix<f32>,
        mask: &Matrix<f32>,
        bias: &[f32],
        out: &mut Matrix<f32>,
    ) {
        let k = check_hot_shapes(hot, weights, mask, bias, out);
        // `linear_forward`'s loop over the nonzero inputs only: bias first,
        // then every hot weight row, masked or not.
        for b in 0..out.rows() {
            let out_row = out.row_mut(b);
            out_row.copy_from_slice(bias);
            for &i in &hot[b * k..(b + 1) * k] {
                for (o, &w) in out_row.iter_mut().zip(weights.row(i as usize)) {
                    *o += w;
                }
            }
        }
    }

    fn grouped_softmax(&self, m: &mut Matrix<f32>, group: usize) {
        // The subtract-max / exp / normalise loop lives in the shared
        // dispatch kernel so every backend runs one definition: the
        // documented `exp_approx` polynomial (relative error ≤ 1e-6), the
        // same bits on every SIMD tier.
        bcpnn_tensor::simd::dispatch::softmax_groups_into(m, group);
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
        // pi: column means of x.
        for (i, p) in pi.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for b in 0..batch {
                s += x.get(b, i);
            }
            *p = trace_update(*p, s * inv_b, rate);
        }
        // pj: column means of act.
        for (j, p) in pj.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for b in 0..batch {
                s += act.get(b, j);
            }
            *p = trace_update(*p, s * inv_b, rate);
        }
        // pij: batch-mean outer product xᵀ·act / B.
        let n_in = x.cols();
        let n_units = act.cols();
        for i in 0..n_in {
            for j in 0..n_units {
                let mut s = 0.0f32;
                for b in 0..batch {
                    s += x.get(b, i) * act.get(b, j);
                }
                let updated = trace_update(pij.get(i, j), s * inv_b, rate);
                pij.set(i, j, updated);
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
        assert_eq!(pij.shape(), weights.shape(), "weights must match pij");
        assert_eq!(pij.rows(), pi.len(), "pi must have one entry per input");
        assert_eq!(pij.cols(), pj.len(), "pj must have one entry per unit");
        assert_eq!(pj.len(), bias.len(), "bias must have one entry per unit");
        for i in 0..pij.rows() {
            for j in 0..pij.cols() {
                let w = bcpnn_weight(pij.get(i, j), pi[i], pj[j], eps);
                weights.set(i, j, w);
            }
        }
        for (b, &p) in bias.iter_mut().zip(pj.iter()) {
            *b = bcpnn_bias(p, bias_gain, eps);
        }
    }

    fn apply_mask(
        &self,
        weights: &Matrix<f32>,
        mask: &Matrix<f32>,
        n_mcu: usize,
        out: &mut Matrix<f32>,
    ) {
        check_mask_shapes(weights, mask, n_mcu, out);
        let n_in = weights.rows();
        let n_units = weights.cols();
        for i in 0..n_in {
            for j in 0..n_units {
                let h = j / n_mcu;
                out.set(i, j, weights.get(i, j) * mask.get(h, i));
            }
        }
    }

    fn mutual_information(
        &self,
        pi: &[f32],
        pj: &[f32],
        pij: &Matrix<f32>,
        n_mcu: usize,
        out: &mut Matrix<f32>,
    ) {
        assert!(n_mcu > 0, "n_mcu must be positive");
        assert_eq!(pij.rows(), pi.len(), "pi must have one entry per input");
        assert_eq!(pij.cols(), pj.len(), "pj must have one entry per unit");
        assert_eq!(pij.cols() % n_mcu, 0, "units must be a multiple of n_mcu");
        let n_hcu = pij.cols() / n_mcu;
        assert_eq!(
            (n_hcu, pi.len()),
            out.shape(),
            "MI output must be n_hcu x inputs"
        );
        let eps = 1e-8f32;
        for h in 0..n_hcu {
            for (i, &p_i) in pi.iter().enumerate() {
                let mut mi = 0.0f32;
                for m in 0..n_mcu {
                    let j = h * n_mcu + m;
                    mi += mutual_information_term(p_i, pj[j], pij.get(i, j), eps);
                }
                out.set(h, i, mi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> NaiveBackend {
        NaiveBackend::new()
    }

    #[test]
    fn forward_adds_bias_and_product() {
        // x = [1 0; 0 1], W = [[1,2],[3,4]], bias = [10, 20]
        let x = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let bias = vec![10.0, 20.0];
        let mut out = Matrix::zeros(2, 2);
        backend().linear_forward(&x, &w, &bias, &mut out);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn grouped_softmax_normalises_groups() {
        let mut m = Matrix::from_vec(1, 4, vec![0.0, 1.0, 5.0, 5.0]);
        backend().grouped_softmax(&mut m, 2);
        let row = m.row(0);
        assert!((row[0] + row[1] - 1.0).abs() < 1e-6);
        assert!((row[2] - 0.5).abs() < 1e-6);
        assert!((row[3] - 0.5).abs() < 1e-6);
        assert!(row[1] > row[0]);
    }

    #[test]
    fn trace_update_moves_towards_batch_statistics() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        let act = Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 1.0]);
        let mut pi = vec![0.5f32; 2];
        let mut pj = vec![0.5f32; 2];
        let mut pij = Matrix::filled(2, 2, 0.25f32);
        backend().update_traces(&x, &act, 1.0, &mut pi, &mut pj, &mut pij);
        // With rate 1 the traces become exactly the batch statistics.
        assert_eq!(pi, vec![1.0, 0.0]);
        assert_eq!(pj, vec![0.0, 1.0]);
        assert_eq!(pij.get(0, 1), 1.0);
        assert_eq!(pij.get(0, 0), 0.0);
        assert_eq!(pij.get(1, 1), 0.0);
    }

    #[test]
    fn empty_batch_leaves_traces_untouched() {
        let x = Matrix::zeros(0, 2);
        let act = Matrix::zeros(0, 3);
        let mut pi = vec![0.3f32; 2];
        let mut pj = vec![0.2f32; 3];
        let mut pij = Matrix::filled(2, 3, 0.1f32);
        backend().update_traces(&x, &act, 0.5, &mut pi, &mut pj, &mut pij);
        assert_eq!(pi, vec![0.3, 0.3]);
        assert_eq!(pj, vec![0.2, 0.2, 0.2]);
        assert_eq!(pij.get(1, 2), 0.1);
    }

    #[test]
    fn recompute_weights_matches_formula() {
        let pi = vec![0.5f32, 0.25];
        let pj = vec![0.5f32, 0.5];
        let pij = Matrix::from_vec(2, 2, vec![0.25, 0.1, 0.125, 0.2]);
        let mut w = Matrix::zeros(2, 2);
        let mut b = vec![0.0f32; 2];
        backend().recompute_weights(&pi, &pj, &pij, 1e-8, 1.0, &mut w, &mut b);
        assert!((w.get(0, 0) - (0.25f32 / 0.25).ln()).abs() < 1e-6);
        assert!((w.get(1, 1) - (0.2f32 / 0.125).ln()).abs() < 1e-6);
        assert!((b[0] - 0.5f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn apply_mask_zeroes_masked_out_inputs() {
        // 2 HCUs with 2 MCUs each, 3 inputs.
        let w = Matrix::filled(3, 4, 1.0f32);
        let mask = Matrix::from_vec(2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let mut out = Matrix::zeros(3, 4);
        backend().apply_mask(&w, &mask, 2, &mut out);
        // HCU 0 (cols 0,1) sees inputs 0 and 2.
        assert_eq!(out.get(0, 0), 1.0);
        assert_eq!(out.get(1, 0), 0.0);
        assert_eq!(out.get(2, 1), 1.0);
        // HCU 1 (cols 2,3) sees input 1 only.
        assert_eq!(out.get(0, 2), 0.0);
        assert_eq!(out.get(1, 3), 1.0);
        assert_eq!(out.get(2, 2), 0.0);
    }

    #[test]
    fn mutual_information_prefers_informative_inputs() {
        // One HCU, 2 MCUs, 2 inputs. Input 0 perfectly predicts the MCU;
        // input 1 is independent of it.
        let pi = vec![0.5f32, 0.5];
        let pj = vec![0.5f32, 0.5];
        // Input 0: pij = [0.5, 0.0]  (active exactly when MCU 0 wins)
        // Input 1: pij = [0.25, 0.25] (independent)
        let pij = Matrix::from_vec(2, 2, vec![0.5, 0.0, 0.25, 0.25]);
        let mut out = Matrix::zeros(1, 2);
        backend().mutual_information(&pi, &pj, &pij, 2, &mut out);
        assert!(
            out.get(0, 0) > out.get(0, 1) + 0.1,
            "informative input must score higher: {:?}",
            out.as_slice()
        );
        assert!(
            out.get(0, 1).abs() < 1e-3,
            "independent input carries ~0 bits"
        );
    }

    #[test]
    #[should_panic(expected = "forward: x has")]
    fn forward_rejects_bad_shapes() {
        let x = Matrix::zeros(2, 3);
        let w = Matrix::zeros(4, 2);
        let bias = vec![0.0; 2];
        let mut out = Matrix::zeros(2, 2);
        backend().linear_forward(&x, &w, &bias, &mut out);
    }
}
