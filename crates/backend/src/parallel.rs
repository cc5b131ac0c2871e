//! Multi-threaded backend built on the `bcpnn-tensor` GEMM kernels and the
//! `bcpnn-parallel` pool.
//!
//! This backend plays the role of StreamBrain's OpenMP/MKL CPU backend: the
//! forward pass and the joint-trace update are expressed as GEMMs (exactly
//! as described in §II-B of the paper), and the element-wise kernels are
//! parallelised over flat chunks of the underlying storage.

use bcpnn_parallel::par_chunks_mut;
use bcpnn_tensor::simd::dispatch;
use bcpnn_tensor::{gemm, gemm_blocked, gemm_tn, gemm_tn_serial, Matrix};

use crate::kernels::{bcpnn_bias, bcpnn_weight, column_mean_traces, mutual_information_term};
use crate::traits::{
    check_forward_shapes, check_hot_shapes, check_mask_shapes, check_trace_shapes, Backend,
};

/// Below this many element operations (`B · U · (k + 2)`: `k` hot-row
/// adds, the bias and the store) a hot-column forward runs on the calling
/// thread; the pool's hand-off costs more than it saves.
const HOT_PARALLEL_CUTOFF: usize = 1 << 19;

/// Hot weight rows one call of the gather kernel sums per segment; a longer
/// in-field list is split into batches of this many (exact, see
/// [`dispatch::sum_rows_with`]). The Higgs encoding has 28 hot columns.
const GATHER_ROWS: usize = 64;

/// Multi-threaded GEMM-based implementation of every kernel.
#[derive(Debug, Clone, Copy)]
pub struct ParallelBackend {
    /// Whether the kernels share their work out on the pool; `false` only
    /// for [`SERIAL`], the form [`Backend::serial`] hands out.
    pooled: bool,
}

/// The parallel backend's kernels on the calling thread: the same loops
/// and the same bits, with every pool hand-off taken out.
static SERIAL: ParallelBackend = ParallelBackend { pooled: false };

impl ParallelBackend {
    /// Create a new parallel backend.
    pub fn new() -> Self {
        Self { pooled: true }
    }

    /// `f(start, chunk)` over the `chunk`-wide pieces of `data`: on the
    /// pool through [`par_chunks_mut`], or in order on the calling thread
    /// in the serial form.
    fn chunks_mut<F>(&self, data: &mut [f32], chunk: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let chunk = chunk.max(1);
        if self.pooled {
            par_chunks_mut(data, chunk, f);
        } else {
            for (i, piece) in data.chunks_mut(chunk).enumerate() {
                f(i * chunk, piece);
            }
        }
    }
}

impl Default for ParallelBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn serial(&self) -> Option<&dyn Backend> {
        self.pooled.then_some(&SERIAL)
    }

    fn linear_forward(
        &self,
        x: &Matrix<f32>,
        weights: &Matrix<f32>,
        bias: &[f32],
        out: &mut Matrix<f32>,
    ) {
        check_forward_shapes(x, weights, bias, out);
        // out = x · W  (GEMM), then add the bias row to every output row.
        if self.pooled {
            gemm(1.0, x, weights, 0.0, out);
        } else {
            gemm_blocked(1.0, x, weights, 0.0, out);
        }
        let cols = out.cols();
        self.chunks_mut(out.as_mut_slice(), cols, |_, row| {
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        });
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
        let n_units = out.cols();
        let n_mcu = n_units / mask.rows();
        let w = weights.as_slice();
        let tier = dispatch::active_tier();
        // Per HCU segment, the order the GEMM gives every element of `out`:
        // +0, then the weight rows of the inputs that are on, ascending,
        // then the bias — but only the rows inside the segment's field. The
        // dispatched kernel keeps the sums in registers and stores once; a
        // field of more than `GATHER_ROWS` hot rows carries its partial sum
        // through `out` from one batch of rows to the next.
        let row = |start: usize, out_row: &mut [f32]| {
            let cols = &hot[start / n_units * k..][..k];
            let segments = out_row.chunks_mut(n_mcu).zip(bias.chunks(n_mcu));
            for (h, (seg, seg_bias)) in segments.enumerate() {
                let mut offsets = [0usize; GATHER_ROWS];
                let mut len = 0;
                let mut carry = false;
                for &i in cols {
                    let i = i as usize;
                    if mask.get(h, i) == 1.0 {
                        if len == GATHER_ROWS {
                            dispatch::sum_rows_with(tier, w, &offsets, carry, None, seg);
                            carry = true;
                            len = 0;
                        }
                        offsets[len] = i * n_units + h * n_mcu;
                        len += 1;
                    }
                }
                dispatch::sum_rows_with(tier, w, &offsets[..len], carry, Some(seg_bias), seg);
            }
        };
        if out.len() * (k + 2) < HOT_PARALLEL_CUTOFF {
            SERIAL.chunks_mut(out.as_mut_slice(), n_units, row);
        } else {
            self.chunks_mut(out.as_mut_slice(), n_units, row);
        }
    }

    fn grouped_softmax(&self, m: &mut Matrix<f32>, group: usize) {
        // Rows in parallel (in order in the serial form), each segment
        // through the shared dispatch kernel (same per-segment numerics as
        // the naive backend).
        if self.pooled {
            dispatch::softmax_row_groups_par(m, group);
        } else {
            dispatch::softmax_groups_into(m, group);
        }
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
        // pi / pj: EMA towards the batch column means, rows ascending per
        // column (the naive order; O(B·N) next to the O(B·N·U) GEMM below,
        // so serial is fine).
        column_mean_traces(x, rate, inv_b, pi);
        column_mean_traces(act, rate, inv_b, pj);
        // pij: EMA towards (xᵀ·act)/B, computed as a transposed GEMM with
        // alpha = rate/B and beta = (1 - rate), i.e. the whole trace update
        // is a single GEMM call — the formulation the paper highlights as
        // accelerator-friendly.
        if self.pooled {
            gemm_tn(rate * inv_b, x, act, 1.0 - rate, pij);
        } else {
            gemm_tn_serial(rate * inv_b, x, act, 1.0 - rate, pij);
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
        let n_units = pij.cols();
        let pij_slice = pij.as_slice();
        self.chunks_mut(weights.as_mut_slice(), n_units, |start, w_row| {
            let i = start / n_units.max(1);
            let p_i = pi[i];
            let p_row = &pij_slice[start..start + w_row.len()];
            for ((w, &p_ij), &p_j) in w_row.iter_mut().zip(p_row.iter()).zip(pj.iter()) {
                *w = bcpnn_weight(p_ij, p_i, p_j, eps);
            }
        });
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
        let n_units = weights.cols();
        let w_slice = weights.as_slice();
        self.chunks_mut(out.as_mut_slice(), n_units, |start, out_row| {
            let i = start / n_units.max(1);
            let w_row = &w_slice[start..start + out_row.len()];
            // One mask value per (input, HCU): hoisted out of the MCU loop.
            for (h, (o_seg, w_seg)) in out_row
                .chunks_mut(n_mcu)
                .zip(w_row.chunks(n_mcu))
                .enumerate()
            {
                let m = mask.get(h, i);
                for (o, &w) in o_seg.iter_mut().zip(w_seg) {
                    *o = w * m;
                }
            }
        });
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
        let n_in = pi.len();
        // Parallelise over inputs; each task fills one column of `out`
        // indirectly by computing all HCU scores for its input range. To
        // keep writes disjoint we parallelise over the HCU-major output
        // rows instead.
        let out_cols = out.cols();
        self.chunks_mut(out.as_mut_slice(), out_cols, |start, out_row| {
            let h = start / out_cols.max(1);
            for (i, o) in out_row.iter_mut().enumerate().take(n_in) {
                let mut mi = 0.0f32;
                for m in 0..n_mcu {
                    let j = h * n_mcu + m;
                    mi += mutual_information_term(pi[i], pj[j], pij.get(i, j), eps);
                }
                *o = mi;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveBackend;
    use bcpnn_tensor::MatrixRng;

    /// Cross-check every kernel of the parallel backend against the naive
    /// reference on random inputs.
    fn random_problem(
        rng: &mut MatrixRng,
        batch: usize,
        n_in: usize,
        n_hcu: usize,
        n_mcu: usize,
    ) -> (Matrix<f32>, Matrix<f32>, Vec<f32>, Matrix<f32>) {
        let n_units = n_hcu * n_mcu;
        let x: Matrix<f32> = rng.bernoulli(batch, n_in, 0.3);
        let w: Matrix<f32> = rng.normal(n_in, n_units, 0.0, 0.5);
        let bias: Vec<f32> = (0..n_units)
            .map(|_| rng.uniform_scalar(-1.0, 0.0))
            .collect();
        let mask: Matrix<f32> = rng.bernoulli(n_hcu, n_in, 0.5);
        (x, w, bias, mask)
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = MatrixRng::seed_from(1);
        let (x, w, bias, _mask) = random_problem(&mut rng, 17, 23, 3, 5);
        let mut out_n = Matrix::zeros(17, 15);
        // `out` is overwritten, never read: a recycled buffer may hold NaN.
        let mut out_p = Matrix::filled(17, 15, f32::NAN);
        NaiveBackend::new().linear_forward(&x, &w, &bias, &mut out_n);
        ParallelBackend::new().linear_forward(&x, &w, &bias, &mut out_p);
        assert!(out_p.all_finite());
        assert!(out_n.max_abs_diff(&out_p) < 1e-4);
    }

    /// More in-field hot rows than one gather call takes: the partial sums
    /// carried through `out` between batches give the dense forward's
    /// bits, on the calling thread (3 rows) and on the pool (70 rows).
    #[test]
    fn hot_forward_carries_long_fields_exactly() {
        let mut rng = MatrixRng::seed_from(8);
        let (n_in, n_hcu, n_mcu, k) = (400, 2, 37, 3 * GATHER_ROWS / 2 + 5);
        let w: Matrix<f32> = rng.normal(n_in, n_hcu * n_mcu, 0.0, 0.5);
        let bias: Vec<f32> = (0..n_hcu * n_mcu)
            .map(|_| rng.uniform_scalar(-1.0, 0.0))
            .collect();
        // HCU 0 sees every input, HCU 1 every other one.
        let mask = Matrix::from_fn(n_hcu, n_in, |h, i| f32::from(h == 0 || i % 2 == 0));
        let mut masked = Matrix::zeros(n_in, n_hcu * n_mcu);
        ParallelBackend::new().apply_mask(&w, &mask, n_mcu, &mut masked);
        for rows in [3, 70] {
            // `choose_indices` is sorted: the strictly ascending hot list.
            let hot: Vec<u32> = (0..rows)
                .flat_map(|_| rng.choose_indices(n_in, k))
                .map(|i| i as u32)
                .collect();
            let x = Matrix::from_fn(rows, n_in, |r, i| {
                f32::from(hot[r * k..(r + 1) * k].contains(&(i as u32)))
            });
            let mut dense = Matrix::zeros(rows, n_hcu * n_mcu);
            let mut gathered = Matrix::filled(rows, n_hcu * n_mcu, f32::NAN);
            ParallelBackend::new().linear_forward(&x, &masked, &bias, &mut dense);
            ParallelBackend::new().linear_forward_hot(&hot, &masked, &mask, &bias, &mut gathered);
            let bits =
                |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&gathered),
                bits(&dense),
                "{rows} rows of {k} hot columns"
            );
        }
    }

    /// The serial form hands nothing to the pool and gives the pooled
    /// kernels' bits, on problems above every pool cutoff.
    #[test]
    fn serial_form_matches_the_pooled_kernels_bit_for_bit() {
        let pooled = ParallelBackend::new();
        let serial = pooled
            .serial()
            .expect("the parallel backend has a serial form");
        assert!(
            serial.serial().is_none(),
            "the serial form is already serial"
        );
        assert!(NaiveBackend::new().serial().is_none());
        let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = MatrixRng::seed_from(9);
        let (x, w, bias, mask) = random_problem(&mut rng, 300, 64, 8, 64);
        let mut masked = Matrix::zeros(64, 512);
        pooled.apply_mask(&w, &mask, 64, &mut masked);
        let mut masked_serial = Matrix::filled(64, 512, f32::NAN);
        serial.apply_mask(&w, &mask, 64, &mut masked_serial);
        assert_eq!(bits(&masked_serial), bits(&masked), "apply_mask");

        let mut want = Matrix::zeros(300, 512);
        let mut got = Matrix::filled(300, 512, f32::NAN);
        pooled.linear_forward(&x, &masked, &bias, &mut want);
        serial.linear_forward(&x, &masked, &bias, &mut got);
        assert_eq!(bits(&got), bits(&want), "linear_forward");

        let hot: Vec<u32> = (0..300)
            .flat_map(|_| rng.choose_indices(64, 10))
            .map(|i| i as u32)
            .collect();
        pooled.linear_forward_hot(&hot, &masked, &mask, &bias, &mut want);
        serial.linear_forward_hot(&hot, &masked, &mask, &bias, &mut got);
        assert_eq!(bits(&got), bits(&want), "linear_forward_hot");

        pooled.grouped_softmax(&mut want, 64);
        serial.grouped_softmax(&mut got, 64);
        assert_eq!(bits(&got), bits(&want), "grouped_softmax");

        let (mut pi, mut pj) = (vec![0.1f32; 64], vec![0.2f32; 512]);
        let mut pij = Matrix::filled(64, 512, 0.05);
        let (mut pi_s, mut pj_s, mut pij_s) = (pi.clone(), pj.clone(), pij.clone());
        pooled.update_traces(&x, &want, 0.01, &mut pi, &mut pj, &mut pij);
        serial.update_traces(&x, &got, 0.01, &mut pi_s, &mut pj_s, &mut pij_s);
        assert_eq!(bits(&pij_s), bits(&pij), "update_traces");

        let (mut wp, mut ws) = (Matrix::zeros(64, 512), Matrix::zeros(64, 512));
        let (mut bp, mut bs) = (vec![0.0f32; 512], vec![0.0f32; 512]);
        pooled.recompute_weights(&pi, &pj, &pij, 1e-8, 1.0, &mut wp, &mut bp);
        serial.recompute_weights(&pi, &pj, &pij, 1e-8, 1.0, &mut ws, &mut bs);
        assert_eq!(bits(&ws), bits(&wp), "recompute_weights");

        let (mut mp, mut ms) = (Matrix::zeros(8, 64), Matrix::zeros(8, 64));
        pooled.mutual_information(&pi, &pj, &pij, 64, &mut mp);
        serial.mutual_information(&pi, &pj, &pij, 64, &mut ms);
        assert_eq!(bits(&ms), bits(&mp), "mutual_information");
    }

    #[test]
    fn grouped_softmax_matches_naive() {
        let mut rng = MatrixRng::seed_from(2);
        let mut a: Matrix<f32> = rng.normal(9, 12, 0.0, 2.0);
        let mut b = a.clone();
        NaiveBackend::new().grouped_softmax(&mut a, 4);
        ParallelBackend::new().grouped_softmax(&mut b, 4);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }

    #[test]
    fn trace_update_matches_naive() {
        let mut rng = MatrixRng::seed_from(3);
        let (x, _w, _bias, _mask) = random_problem(&mut rng, 11, 19, 2, 4);
        let act: Matrix<f32> = {
            let mut a: Matrix<f32> = rng.normal(11, 8, 0.0, 1.0);
            NaiveBackend::new().grouped_softmax(&mut a, 4);
            a
        };
        let mut pi_n: Vec<f32> = (0..19).map(|_| rng.uniform_scalar(0.0, 1.0)).collect();
        let mut pj_n: Vec<f32> = (0..8).map(|_| rng.uniform_scalar(0.0, 1.0)).collect();
        let mut pij_n: Matrix<f32> = rng.uniform(19, 8, 0.0, 0.5);
        let mut pi_p = pi_n.clone();
        let mut pj_p = pj_n.clone();
        let mut pij_p = pij_n.clone();
        NaiveBackend::new().update_traces(&x, &act, 0.05, &mut pi_n, &mut pj_n, &mut pij_n);
        ParallelBackend::new().update_traces(&x, &act, 0.05, &mut pi_p, &mut pj_p, &mut pij_p);
        for (a, b) in pi_n.iter().zip(pi_p.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in pj_n.iter().zip(pj_p.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(pij_n.max_abs_diff(&pij_p) < 1e-4);
    }

    #[test]
    fn recompute_weights_matches_naive() {
        let mut rng = MatrixRng::seed_from(4);
        let pi: Vec<f32> = (0..13).map(|_| rng.uniform_scalar(0.01, 1.0)).collect();
        let pj: Vec<f32> = (0..6).map(|_| rng.uniform_scalar(0.01, 1.0)).collect();
        let pij: Matrix<f32> = rng.uniform(13, 6, 0.0, 0.5);
        let mut w_n = Matrix::zeros(13, 6);
        let mut w_p = Matrix::zeros(13, 6);
        let mut b_n = vec![0.0f32; 6];
        let mut b_p = vec![0.0f32; 6];
        NaiveBackend::new().recompute_weights(&pi, &pj, &pij, 1e-8, 0.7, &mut w_n, &mut b_n);
        ParallelBackend::new().recompute_weights(&pi, &pj, &pij, 1e-8, 0.7, &mut w_p, &mut b_p);
        assert!(w_n.max_abs_diff(&w_p) < 1e-5);
        for (a, b) in b_n.iter().zip(b_p.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn apply_mask_matches_naive() {
        let mut rng = MatrixRng::seed_from(5);
        let (_x, w, _bias, mask) = random_problem(&mut rng, 3, 23, 3, 5);
        let mut out_n = Matrix::zeros(23, 15);
        let mut out_p = Matrix::zeros(23, 15);
        NaiveBackend::new().apply_mask(&w, &mask, 5, &mut out_n);
        ParallelBackend::new().apply_mask(&w, &mask, 5, &mut out_p);
        assert!(out_n.max_abs_diff(&out_p) < 1e-7);
    }

    #[test]
    fn mutual_information_matches_naive() {
        let mut rng = MatrixRng::seed_from(6);
        let pi: Vec<f32> = (0..21).map(|_| rng.uniform_scalar(0.0, 1.0)).collect();
        let pj: Vec<f32> = (0..12).map(|_| rng.uniform_scalar(0.0, 1.0)).collect();
        let pij: Matrix<f32> = rng.uniform(21, 12, 0.0, 0.4);
        let mut out_n = Matrix::zeros(3, 21);
        let mut out_p = Matrix::zeros(3, 21);
        NaiveBackend::new().mutual_information(&pi, &pj, &pij, 4, &mut out_n);
        ParallelBackend::new().mutual_information(&pi, &pj, &pij, 4, &mut out_p);
        assert!(out_n.max_abs_diff(&out_p) < 1e-4);
    }

    #[test]
    fn backend_names_differ() {
        assert_eq!(NaiveBackend::new().name(), "naive");
        assert_eq!(ParallelBackend::new().name(), "parallel");
    }
}
