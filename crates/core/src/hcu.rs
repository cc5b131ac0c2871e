//! The unsupervised hidden layer: a population of hypercolumn units (HCUs),
//! each holding `n_mcu` minicolumn units (MCUs) that compete through a
//! softmax over the HCU's receptive field.
//!
//! One MCU corresponds roughly to a neuron in a conventional network; one
//! HCU models one discrete latent variable (§II-C of the paper). The layer
//! learns with the local BCPNN rule only — no gradients flow into it.

use std::sync::Arc;

use bcpnn_backend::Backend;
use bcpnn_tensor::{Matrix, MatrixRng};

use crate::error::{CoreError, CoreResult};
use crate::mask::ReceptiveFieldMask;
use crate::params::HiddenLayerParams;
use crate::plasticity::{PlasticityConfig, PlasticityReport, StructuralPlasticity};
use crate::traces::ProbabilityTraces;
use crate::workspace::Workspace;

/// The HCU/MCU hidden layer.
///
/// `Clone` copies the full trainable state (traces, weights, mask,
/// plasticity bookkeeping, RNG position), so a clone trains independently
/// of — and, fed the same batches, bit-identically to — the original. The
/// online-learning shadow trainer is built on exactly this.
#[derive(Clone)]
pub struct HiddenLayer {
    params: HiddenLayerParams,
    backend: Arc<dyn Backend>,
    traces: ProbabilityTraces,
    mask: ReceptiveFieldMask,
    /// Unmasked log-odds weights recomputed from the traces (`N x U`).
    weights: Matrix<f32>,
    /// Weights with the receptive-field mask applied; used in the forward
    /// pass (`N x U`).
    masked_weights: Matrix<f32>,
    /// Per-unit bias `gain · ln(p_j)` (`U`).
    bias: Vec<f32>,
    plasticity: StructuralPlasticity,
    rng: MatrixRng,
}

impl std::fmt::Debug for HiddenLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HiddenLayer")
            .field("n_inputs", &self.params.n_inputs)
            .field("n_hcu", &self.params.n_hcu)
            .field("n_mcu", &self.params.n_mcu)
            .field("receptive_field", &self.params.receptive_field)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl HiddenLayer {
    /// Create a hidden layer with random receptive fields and uninformative
    /// traces.
    pub fn new(
        params: HiddenLayerParams,
        backend: Arc<dyn Backend>,
        seed: u64,
    ) -> CoreResult<Self> {
        Self::build(params, backend, seed, None)
    }

    /// [`HiddenLayer::new`], or with `state` a layer holding a loaded
    /// model's mask and traces (weights recomputed from the traces). The
    /// RNG advances the same either way, so later training draws the
    /// support noise a freshly built layer of that seed would.
    pub(crate) fn build(
        params: HiddenLayerParams,
        backend: Arc<dyn Backend>,
        seed: u64,
        state: Option<(ReceptiveFieldMask, ProbabilityTraces)>,
    ) -> CoreResult<Self> {
        params.validate().map_err(CoreError::InvalidParams)?;
        let mut rng = MatrixRng::seed_from(seed);
        let n_units = params.n_units();
        let random_mask = ReceptiveFieldMask::random(
            params.n_hcu,
            params.n_inputs,
            params.active_connections(),
            &mut rng,
        );
        let (mask, traces) = match state {
            Some((mask, traces)) => {
                if mask.n_hcu() != params.n_hcu || mask.n_inputs() != params.n_inputs {
                    return Err(CoreError::DataMismatch(
                        "mask dimensions do not match the layer".into(),
                    ));
                }
                if traces.n_inputs() != params.n_inputs || traces.n_units() != n_units {
                    return Err(CoreError::DataMismatch(
                        "trace dimensions do not match the layer".into(),
                    ));
                }
                for _ in 0..params.n_inputs * n_units {
                    rng.uniform_scalar::<f32>(-0.5, 0.5);
                }
                (mask, traces)
            }
            None => {
                // Prior input probability: with one-hot blocks of ~10 bins
                // the typical input density is ~0.1; a mild 0.1 prior works
                // for all the datasets used here and washes out after a
                // few batches anyway.
                let mut traces =
                    ProbabilityTraces::new(params.n_inputs, n_units, params.n_mcu, 0.1);
                // Symmetry breaking: perturb the joint traces
                // multiplicatively around independence. Weights are a pure
                // function of the traces (they are recomputed after every
                // batch), so perturbing the weights directly would be erased
                // immediately; perturbing p_ij instead gives every
                // minicolumn a persistent random "preference direction" (a
                // random projection of the input) that decays with the
                // trace time constant. Early winners are therefore
                // input-dependent, the joint traces pick up genuine
                // input/unit correlations, and the minicolumns differentiate
                // instead of collapsing onto one winner.
                for i in 0..traces.pij.rows() {
                    let pi = traces.pi[i];
                    for j in 0..traces.pij.cols() {
                        let u: f32 = rng.uniform_scalar(-0.5, 0.5);
                        let perturbed = traces.pij.get(i, j) * (1.0 + u);
                        let ceiling = pi.min(traces.pj[j]);
                        traces.pij.set(i, j, perturbed.clamp(params.eps, ceiling));
                    }
                }
                (random_mask, traces)
            }
        };
        let mut weights = Matrix::zeros(params.n_inputs, n_units);
        let mut bias = vec![0.0f32; n_units];
        traces.weights_and_bias(
            backend.as_ref(),
            params.eps,
            params.bias_gain,
            &mut weights,
            &mut bias,
        );
        let mut masked_weights = Matrix::zeros(params.n_inputs, n_units);
        backend.apply_mask(
            &weights,
            mask.as_matrix(),
            params.n_mcu,
            &mut masked_weights,
        );
        let plasticity = StructuralPlasticity::new(PlasticityConfig {
            max_swaps: params.plasticity_swaps,
            min_improvement: 1e-4,
        });
        Ok(Self {
            params,
            backend,
            traces,
            mask,
            weights,
            masked_weights,
            bias,
            plasticity,
            rng,
        })
    }

    /// Layer hyperparameters.
    pub fn params(&self) -> &HiddenLayerParams {
        &self.params
    }

    /// Total number of minicolumn units (`n_hcu · n_mcu`).
    pub fn n_units(&self) -> usize {
        self.params.n_units()
    }

    /// The backend executing the kernels.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// The receptive-field mask.
    pub fn mask(&self) -> &ReceptiveFieldMask {
        &self.mask
    }

    /// The probability traces (read-only).
    pub fn traces(&self) -> &ProbabilityTraces {
        &self.traces
    }

    /// The masked weight matrix the forward pass multiplies by
    /// (`n_inputs x n_units`, read-only). This is the exact tensor a
    /// quantizer must capture to reproduce this layer's predictions.
    pub fn masked_weights(&self) -> &Matrix<f32> {
        &self.masked_weights
    }

    /// The per-unit bias added in the forward pass (read-only).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// A copy of the current mask matrix (`n_hcu x n_inputs`), e.g. for the
    /// in-situ visualization of Fig. 2.
    pub fn receptive_field_snapshot(&self) -> Matrix<f32> {
        self.mask.as_matrix().clone()
    }

    pub(crate) fn check_input(&self, x: &Matrix<f32>) -> CoreResult<()> {
        if x.cols() != self.params.n_inputs {
            return Err(CoreError::DataMismatch(format!(
                "input has {} columns but the layer expects {}",
                x.cols(),
                self.params.n_inputs
            )));
        }
        Ok(())
    }

    /// Deterministic forward pass: masked support plus per-HCU softmax.
    /// Returns the `batch x n_units` activation matrix.
    ///
    /// Allocating convenience over [`HiddenLayer::forward_into`] — there is
    /// exactly one kernel-call sequence behind both spellings.
    pub fn forward(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out)?;
        Ok(out)
    }

    /// Deterministic forward pass into a caller-provided buffer: `out` is
    /// reset to `batch x n_units` and fully overwritten. Reusing `out`
    /// across batches keeps the inference hot path off the allocator.
    pub fn forward_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) -> CoreResult<()> {
        self.forward_on(self.backend.as_ref(), x, out)
    }

    /// [`HiddenLayer::forward_into`] through the given kernels (the
    /// layer's backend, or its serial form inside a predict band).
    pub(crate) fn forward_on(
        &self,
        kernels: &dyn Backend,
        x: &Matrix<f32>,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.check_input(x)?;
        out.reset(x.rows(), self.n_units());
        kernels.linear_forward(x, &self.masked_weights, &self.bias, out);
        kernels.grouped_softmax(out, self.params.n_mcu);
        Ok(())
    }

    /// [`HiddenLayer::forward_into`] for `rows` one-hot rows given by their
    /// hot columns (`hot.len() / rows` per row, strictly ascending, as
    /// `QuantileEncoder::transform_rows_hot_into` writes them): only the
    /// weight rows of the inputs that are on, and of those only the ones
    /// inside each HCU's receptive field, are read. `to_bits()`-equal to
    /// `forward_into` on the dense one-hot rows.
    pub fn forward_hot_into(
        &self,
        hot: &[u32],
        rows: usize,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.forward_hot_on(self.backend.as_ref(), hot, rows, out)
    }

    /// [`HiddenLayer::forward_hot_into`] through the given kernels (see
    /// [`HiddenLayer::forward_on`]).
    pub(crate) fn forward_hot_on(
        &self,
        kernels: &dyn Backend,
        hot: &[u32],
        rows: usize,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        let n_in = self.params.n_inputs;
        let per_row = hot.len().checked_div(rows).unwrap_or(0);
        if per_row * rows != hot.len() {
            return Err(CoreError::DataMismatch(format!(
                "{} hot columns do not split over {rows} rows",
                hot.len()
            )));
        }
        for cols in hot.chunks_exact(per_row.max(1)) {
            let ascending = cols.windows(2).all(|w| w[0] < w[1]);
            if !ascending || cols.last().is_some_and(|&c| c as usize >= n_in) {
                return Err(CoreError::DataMismatch(format!(
                    "hot columns {cols:?} are not strictly ascending below {n_in}"
                )));
            }
        }
        out.resize(rows, self.n_units());
        kernels.linear_forward_hot(
            hot,
            &self.masked_weights,
            self.mask.as_matrix(),
            &self.bias,
            out,
        );
        kernels.grouped_softmax(out, self.params.n_mcu);
        Ok(())
    }

    /// Training forward pass: like [`HiddenLayer::forward_into`] but with
    /// Gaussian support noise for symmetry breaking between minicolumns.
    /// `noise` is scratch (resized and fully overwritten when support noise
    /// is enabled); the sample stream is identical to drawing a fresh noise
    /// matrix, so reuse does not change training trajectories.
    fn forward_noisy_into(
        &mut self,
        x: &Matrix<f32>,
        noise: &mut Matrix<f32>,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.check_input(x)?;
        out.reset(x.rows(), self.n_units());
        self.backend
            .linear_forward(x, &self.masked_weights, &self.bias, out);
        if self.params.support_noise > 0.0 {
            noise.resize(out.rows(), out.cols());
            self.rng
                .fill_normal(noise, 0.0, self.params.support_noise as f64);
            bcpnn_tensor::elementwise::add_assign(out, noise);
        }
        self.backend.grouped_softmax(out, self.params.n_mcu);
        Ok(())
    }

    /// Recompute weights and bias from the traces and re-apply the mask.
    pub fn refresh_weights(&mut self) {
        self.traces.weights_and_bias(
            self.backend.as_ref(),
            self.params.eps,
            self.params.bias_gain,
            &mut self.weights,
            &mut self.bias,
        );
        self.backend.apply_mask(
            &self.weights,
            self.mask.as_matrix(),
            self.params.n_mcu,
            &mut self.masked_weights,
        );
    }

    /// Train on one unlabeled batch: noisy forward pass, trace update, and
    /// weight refresh. Returns the batch activations (useful for chaining /
    /// diagnostics).
    ///
    /// Allocating convenience over [`HiddenLayer::train_batch_with`]; epoch
    /// loops should prefer the workspace variant so the allocator stays off
    /// the training hot path.
    pub fn train_batch(&mut self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut act = Matrix::zeros(0, 0);
        let mut noise = Matrix::zeros(0, 0);
        self.train_batch_core(x, &mut noise, &mut act)?;
        Ok(act)
    }

    /// Train on one unlabeled batch using workspace scratch for the
    /// activations and the support noise — zero allocations once the
    /// workspace has seen the batch shape. Bit-identical to
    /// [`HiddenLayer::train_batch`].
    pub fn train_batch_with(&mut self, x: &Matrix<f32>, ws: &mut Workspace) -> CoreResult<()> {
        let mut act = std::mem::take(&mut ws.hidden);
        let mut noise = std::mem::take(&mut ws.noise);
        let result = self.train_batch_core(x, &mut noise, &mut act);
        ws.hidden = act;
        ws.noise = noise;
        result
    }

    /// The one authoritative unsupervised training step both spellings
    /// route through.
    fn train_batch_core(
        &mut self,
        x: &Matrix<f32>,
        noise: &mut Matrix<f32>,
        act: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.forward_noisy_into(x, noise, act)?;
        self.traces
            .update(self.backend.as_ref(), x, act, self.params.trace_rate);
        self.refresh_weights();
        Ok(())
    }

    /// Run one structural-plasticity update (normally once per epoch):
    /// re-score every connection by mutual information and swap the worst
    /// active connections for the best silent ones, then re-apply the mask.
    pub fn structural_plasticity_step(&mut self) -> PlasticityReport {
        let report = self.plasticity.update_from_traces(
            self.backend.as_ref(),
            &self.traces,
            self.params.n_mcu,
            &mut self.mask,
        );
        // The mask changed; the masked weights must follow.
        self.backend.apply_mask(
            &self.weights,
            self.mask.as_matrix(),
            self.params.n_mcu,
            &mut self.masked_weights,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcpnn_backend::BackendKind;

    fn small_params() -> HiddenLayerParams {
        HiddenLayerParams {
            n_inputs: 20,
            n_hcu: 2,
            n_mcu: 4,
            receptive_field: 0.5,
            trace_rate: 0.2,
            support_noise: 0.05,
            ..Default::default()
        }
    }

    fn layer(seed: u64) -> HiddenLayer {
        HiddenLayer::new(small_params(), BackendKind::Parallel.create(), seed).unwrap()
    }

    /// A toy binary dataset with two clusters: inputs 0..10 active for one
    /// cluster, inputs 10..20 for the other.
    fn toy_batch(rng: &mut MatrixRng, n: usize) -> Matrix<f32> {
        Matrix::from_fn(n, 20, |r, c| {
            let cluster = r % 2;
            let in_cluster = if cluster == 0 { c < 10 } else { c >= 10 };
            let p = if in_cluster { 0.6 } else { 0.05 };
            if rng.uniform_scalar::<f64>(0.0, 1.0) < p {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn construction_respects_params() {
        let l = layer(1);
        assert_eq!(l.n_units(), 8);
        assert_eq!(l.mask().n_hcu(), 2);
        assert_eq!(l.mask().active_per_hcu(), 10);
        assert_eq!(l.receptive_field_snapshot().shape(), (2, 20));
    }

    #[test]
    fn invalid_params_are_rejected() {
        let bad = HiddenLayerParams {
            receptive_field: 0.0,
            ..small_params()
        };
        assert!(HiddenLayer::new(bad, BackendKind::Naive.create(), 0).is_err());
    }

    #[test]
    fn forward_produces_per_hcu_distributions() {
        let l = layer(2);
        let mut rng = MatrixRng::seed_from(3);
        let x = toy_batch(&mut rng, 6);
        let act = l.forward(&x).unwrap();
        assert_eq!(act.shape(), (6, 8));
        for r in 0..6 {
            let row = act.row(r);
            for h in 0..2 {
                let s: f32 = row[h * 4..(h + 1) * 4].iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "HCU {h} not normalised: {s}");
            }
        }
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let l = layer(4);
        let x = Matrix::zeros(3, 19);
        assert!(l.forward(&x).is_err());
    }

    #[test]
    fn training_keeps_traces_valid_and_weights_finite() {
        let mut l = layer(5);
        let mut rng = MatrixRng::seed_from(6);
        for _ in 0..30 {
            let x = toy_batch(&mut rng, 32);
            let act = l.train_batch(&x).unwrap();
            assert!(act.all_finite());
            assert!(l.traces().check_invariants(1e-4).is_ok());
        }
        assert!(l.weights.all_finite());
        assert!(l.masked_weights.all_finite());
        assert!(l.bias.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_differentiates_the_minicolumns() {
        let mut l = layer(7);
        let mut rng = MatrixRng::seed_from(8);
        for _ in 0..80 {
            let x = toy_batch(&mut rng, 32);
            l.train_batch(&x).unwrap();
        }
        // After training, the two cluster prototypes should activate
        // different minicolumns within the first HCU.
        let proto_a = Matrix::from_fn(1, 20, |_, c| if c < 10 { 1.0 } else { 0.0 });
        let proto_b = Matrix::from_fn(1, 20, |_, c| if c >= 10 { 1.0 } else { 0.0 });
        let act_a = l.forward(&proto_a).unwrap();
        let act_b = l.forward(&proto_b).unwrap();
        let win_a = bcpnn_tensor::vector::argmax(&act_a.row(0)[0..4]);
        let win_b = bcpnn_tensor::vector::argmax(&act_b.row(0)[0..4]);
        assert_ne!(
            win_a, win_b,
            "distinct input clusters should recruit distinct MCUs"
        );
    }

    #[test]
    fn structural_plasticity_preserves_budget_and_updates_masked_weights() {
        let mut l = layer(9);
        let mut rng = MatrixRng::seed_from(10);
        for _ in 0..10 {
            let x = toy_batch(&mut rng, 32);
            l.train_batch(&x).unwrap();
        }
        let before_active = l.mask().active_per_hcu();
        let _report = l.structural_plasticity_step();
        assert_eq!(l.mask().active_per_hcu(), before_active);
        // Masked weights must be consistent with the new mask: every silent
        // connection's weights must be zero.
        for h in 0..l.mask().n_hcu() {
            for i in l.mask().silent_indices(h) {
                for m in 0..l.params().n_mcu {
                    let j = h * l.params().n_mcu + m;
                    assert_eq!(l.masked_weights.get(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn forward_into_reuses_a_stale_buffer_bit_exactly() {
        let l = layer(20);
        let mut rng = MatrixRng::seed_from(21);
        let mut out = Matrix::filled(3, 3, f32::NAN); // wrong shape, poisoned
        for n in [6usize, 2, 9] {
            let x = toy_batch(&mut rng, n);
            l.forward_into(&x, &mut out).unwrap();
            assert_eq!(out, l.forward(&x).unwrap(), "batch of {n}");
        }
    }

    #[test]
    fn train_batch_with_matches_the_allocating_twin() {
        let mut a = layer(22);
        let mut b = layer(22);
        let mut ws = Workspace::new();
        let mut rng1 = MatrixRng::seed_from(23);
        let mut rng2 = MatrixRng::seed_from(23);
        for _ in 0..10 {
            let xa = toy_batch(&mut rng1, 16);
            let xb = toy_batch(&mut rng2, 16);
            let act = a.train_batch(&xa).unwrap();
            b.train_batch_with(&xb, &mut ws).unwrap();
            assert_eq!(act, ws.hidden, "activations must be bit-identical");
        }
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
        assert_eq!(a.traces(), b.traces());
    }

    #[test]
    fn same_seed_reproduces_the_same_layer() {
        let mut a = layer(11);
        let mut b = layer(11);
        let mut rng1 = MatrixRng::seed_from(12);
        let mut rng2 = MatrixRng::seed_from(12);
        for _ in 0..5 {
            let xa = toy_batch(&mut rng1, 16);
            let xb = toy_batch(&mut rng2, 16);
            a.train_batch(&xa).unwrap();
            b.train_batch(&xb).unwrap();
        }
        assert!(a.weights.max_abs_diff(&b.weights) < 1e-6);
        assert_eq!(a.mask(), b.mask());
    }
}
