//! SGD-trained softmax-regression head.
//!
//! The paper's best number (69.15 % accuracy, 76.4 % AUC) comes from mixing
//! unsupervised BCPNN features with a classification layer trained by
//! stochastic gradient descent ("BCPNN + SGD"). This module provides that
//! head: a linear softmax classifier with mini-batch SGD, momentum, L2
//! weight decay and exponential learning-rate decay. It also doubles as the
//! logistic-regression baseline when applied to raw encoded features.

use bcpnn_tensor::simd::dispatch;
use bcpnn_tensor::{gemm, gemm_blocked, gemm_tn, Matrix, MatrixRng};

use crate::error::{CoreError, CoreResult};
use crate::params::SgdParams;
use crate::workspace::Workspace;

/// Softmax-regression classifier trained by mini-batch SGD.
#[derive(Debug, Clone)]
pub struct SgdClassifier {
    n_inputs: usize,
    n_classes: usize,
    params: SgdParams,
    weights: Matrix<f32>,
    bias: Vec<f32>,
    w_velocity: Matrix<f32>,
    b_velocity: Vec<f32>,
    current_lr: f32,
}

impl SgdClassifier {
    /// Create an SGD classifier with small random initial weights.
    pub fn new(
        n_inputs: usize,
        n_classes: usize,
        params: SgdParams,
        seed: u64,
    ) -> CoreResult<Self> {
        if n_inputs == 0 || n_classes < 2 {
            return Err(CoreError::InvalidParams(
                "SGD classifier needs at least one input and two classes".into(),
            ));
        }
        params.validate().map_err(CoreError::InvalidParams)?;
        let mut rng = MatrixRng::seed_from(seed);
        let scale = (1.0 / n_inputs as f64).sqrt() * 0.1;
        let weights: Matrix<f32> = rng.normal(n_inputs, n_classes, 0.0, scale);
        Ok(Self {
            n_inputs,
            n_classes,
            current_lr: params.learning_rate,
            params,
            bias: vec![0.0; n_classes],
            w_velocity: Matrix::zeros(n_inputs, n_classes),
            b_velocity: vec![0.0; n_classes],
            weights,
        })
    }

    /// Number of input dimensions.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The current learning rate (decays over epochs).
    pub fn current_lr(&self) -> f32 {
        self.current_lr
    }

    /// The weight matrix (`n_inputs x n_classes`), e.g. for persistence.
    pub fn weights(&self) -> &Matrix<f32> {
        &self.weights
    }

    /// The bias vector (`n_classes`), e.g. for persistence.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Overwrite the parameters (used when loading a persisted model).
    ///
    /// # Errors
    /// Fails if the shapes do not match the classifier.
    pub fn set_parameters(&mut self, weights: Matrix<f32>, bias: Vec<f32>) -> CoreResult<()> {
        if weights.shape() != (self.n_inputs, self.n_classes) || bias.len() != self.n_classes {
            return Err(CoreError::DataMismatch(
                "persisted SGD parameters have the wrong shape".into(),
            ));
        }
        self.weights = weights;
        self.bias = bias;
        self.w_velocity = Matrix::zeros(self.n_inputs, self.n_classes);
        self.b_velocity = vec![0.0; self.n_classes];
        Ok(())
    }

    fn check_input(&self, x: &Matrix<f32>) -> CoreResult<()> {
        if x.cols() != self.n_inputs {
            return Err(CoreError::DataMismatch(format!(
                "input has {} columns, classifier expects {}",
                x.cols(),
                self.n_inputs
            )));
        }
        Ok(())
    }

    /// Class-probability predictions (`batch x n_classes`).
    ///
    /// Allocating convenience over [`SgdClassifier::predict_proba_into`].
    pub fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut out = Matrix::zeros(0, 0);
        self.predict_proba_into(x, &mut out)?;
        Ok(out)
    }

    /// Class-probability predictions written into a caller-provided buffer
    /// (reset to `batch x n_classes` and fully overwritten).
    pub fn predict_proba_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) -> CoreResult<()> {
        self.predict_proba_on(true, x, out)
    }

    /// [`SgdClassifier::predict_proba_into`] with the GEMM and the softmax
    /// on the pool (`pooled`) or in their serial forms on the calling
    /// thread, as inside a predict band; the same bits either way.
    pub(crate) fn predict_proba_on(
        &self,
        pooled: bool,
        x: &Matrix<f32>,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.check_input(x)?;
        out.reset(x.rows(), self.n_classes);
        if pooled {
            gemm(1.0, x, &self.weights, 0.0, out);
        } else {
            gemm_blocked(1.0, x, &self.weights, 0.0, out);
        }
        for r in 0..out.rows() {
            for (v, &b) in out.row_mut(r).iter_mut().zip(self.bias.iter()) {
                *v += b;
            }
        }
        // Full-width groups = one softmax per row, through the SIMD dispatch
        // kernel (vectorized exp on the lane/avx2 tiers).
        let cols = out.cols();
        if pooled {
            dispatch::softmax_row_groups_par(out, cols);
        } else {
            dispatch::softmax_groups_into(out, cols);
        }
        Ok(())
    }

    /// Hard class predictions.
    pub fn predict(&self, x: &Matrix<f32>) -> CoreResult<Vec<usize>> {
        Ok(bcpnn_tensor::simd::dispatch::row_argmax(
            &self.predict_proba(x)?,
        ))
    }

    /// Run one SGD step on a mini-batch. Returns the batch's mean
    /// cross-entropy loss.
    ///
    /// Allocating convenience over [`SgdClassifier::train_batch_with`];
    /// epoch loops should prefer the workspace variant.
    pub fn train_batch(&mut self, x: &Matrix<f32>, labels: &[usize]) -> CoreResult<f32> {
        let mut proba = Matrix::zeros(0, 0);
        let mut grad_w = Matrix::zeros(0, 0);
        let mut grad_b = Vec::new();
        self.train_batch_core(x, labels, &mut proba, &mut grad_w, &mut grad_b)
    }

    /// Run one SGD step drawing the probability and gradient scratch from
    /// `ws` — zero allocations once the workspace has seen the batch shape.
    /// Bit-identical to [`SgdClassifier::train_batch`].
    pub fn train_batch_with(
        &mut self,
        x: &Matrix<f32>,
        labels: &[usize],
        ws: &mut Workspace,
    ) -> CoreResult<f32> {
        let mut proba = std::mem::take(&mut ws.proba);
        let mut grad_w = std::mem::take(&mut ws.grad_w);
        let mut grad_b = std::mem::take(&mut ws.grad_b);
        let result = self.train_batch_core(x, labels, &mut proba, &mut grad_w, &mut grad_b);
        ws.proba = proba;
        ws.grad_w = grad_w;
        ws.grad_b = grad_b;
        result
    }

    /// The one authoritative SGD step both spellings route through.
    fn train_batch_core(
        &mut self,
        x: &Matrix<f32>,
        labels: &[usize],
        proba: &mut Matrix<f32>,
        grad_w: &mut Matrix<f32>,
        grad_b: &mut Vec<f32>,
    ) -> CoreResult<f32> {
        self.check_input(x)?;
        if x.rows() != labels.len() {
            return Err(CoreError::DataMismatch(
                "batch size and label count differ".into(),
            ));
        }
        if x.rows() == 0 {
            return Ok(0.0);
        }
        for &l in labels {
            if l >= self.n_classes {
                return Err(CoreError::DataMismatch(format!(
                    "label {l} out of range for {} classes",
                    self.n_classes
                )));
            }
        }
        let batch = x.rows() as f32;
        self.predict_proba_into(x, proba)?;
        // Loss before turning proba into the gradient.
        let mut loss = 0.0f32;
        for (r, &l) in labels.iter().enumerate() {
            loss -= proba.get(r, l).max(1e-12).ln();
        }
        loss /= batch;
        // Gradient of cross-entropy wrt logits: (p - y) / B.
        for (r, &l) in labels.iter().enumerate() {
            proba.add_at(r, l, -1.0);
        }
        // grad_W = xᵀ · (p - y) / B  + weight_decay · W
        grad_w.reset(self.n_inputs, self.n_classes);
        gemm_tn(1.0 / batch, x, proba, 0.0, grad_w);
        if self.params.weight_decay > 0.0 {
            let wd = self.params.weight_decay;
            let w = self.weights.as_slice();
            for (g, &wv) in grad_w.as_mut_slice().iter_mut().zip(w.iter()) {
                *g += wd * wv;
            }
        }
        bcpnn_tensor::reduce::col_sums_into(proba, grad_b);
        for v in grad_b.iter_mut() {
            *v /= batch;
        }
        // Momentum update.
        let lr = self.current_lr;
        let mom = self.params.momentum;
        for ((v, g), w) in self
            .w_velocity
            .as_mut_slice()
            .iter_mut()
            .zip(grad_w.as_slice().iter())
            .zip(self.weights.as_mut_slice().iter_mut())
        {
            *v = mom * *v - lr * g;
            *w += *v;
        }
        for ((v, g), b) in self
            .b_velocity
            .iter_mut()
            .zip(grad_b.iter())
            .zip(self.bias.iter_mut())
        {
            *v = mom * *v - lr * g;
            *b += *v;
        }
        Ok(loss)
    }

    /// Signal the end of an epoch: decays the learning rate.
    pub fn end_epoch(&mut self) {
        self.current_lr *= self.params.lr_decay;
    }

    /// Train for `epochs` passes over `(x, labels)` with the given batch
    /// size, shuffling between epochs. Returns the mean loss of each epoch.
    pub fn fit(
        &mut self,
        x: &Matrix<f32>,
        labels: &[usize],
        epochs: usize,
        batch_size: usize,
        seed: u64,
    ) -> CoreResult<Vec<f32>> {
        self.check_input(x)?;
        if x.rows() != labels.len() {
            return Err(CoreError::DataMismatch(
                "dataset size and label count differ".into(),
            ));
        }
        let batch_size = batch_size.max(1);
        let mut rng = MatrixRng::seed_from(seed);
        let mut losses = Vec::with_capacity(epochs);
        // One workspace for the whole fit: batch assembly, probabilities
        // and gradients stop hitting the allocator after the first chunk.
        let mut ws = Workspace::new();
        for _ in 0..epochs {
            let order = rng.permutation(x.rows());
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                let mut xb = std::mem::take(&mut ws.batch);
                let mut yb = std::mem::take(&mut ws.labels);
                x.select_rows_into(chunk, &mut xb);
                yb.clear();
                yb.extend(chunk.iter().map(|&i| labels[i]));
                let step = self.train_batch_with(&xb, &yb, &mut ws);
                ws.batch = xb;
                ws.labels = yb;
                epoch_loss += step?;
                batches += 1;
            }
            self.end_epoch();
            losses.push(if batches > 0 {
                epoch_loss / batches as f32
            } else {
                0.0
            });
        }
        Ok(losses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Vec<usize>) {
        let mut rng = MatrixRng::seed_from(seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let x = Matrix::from_fn(n, d, |r, c| {
            let cls = labels[r];
            let hot = if cls == 0 { c < d / 2 } else { c >= d / 2 };
            let base: f64 = if hot { 1.0 } else { 0.0 };
            (base + rng.uniform_scalar::<f64>(-0.2, 0.2)) as f32
        });
        (x, labels)
    }

    #[test]
    fn constructor_validates() {
        assert!(SgdClassifier::new(0, 2, SgdParams::default(), 0).is_err());
        assert!(SgdClassifier::new(5, 1, SgdParams::default(), 0).is_err());
        let bad = SgdParams {
            learning_rate: -1.0,
            ..Default::default()
        };
        assert!(SgdClassifier::new(5, 2, bad, 0).is_err());
    }

    #[test]
    fn probabilities_are_normalised() {
        let c = SgdClassifier::new(6, 3, SgdParams::default(), 1).unwrap();
        let (x, _) = toy(10, 6, 2);
        let p = c.predict_proba(&x).unwrap();
        for r in 0..10 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn loss_decreases_during_training() {
        let mut c = SgdClassifier::new(8, 2, SgdParams::default(), 3).unwrap();
        let (x, y) = toy(256, 8, 4);
        let losses = c.fit(&x, &y, 15, 32, 5).unwrap();
        assert!(losses.first().unwrap() > losses.last().unwrap());
        assert!(*losses.last().unwrap() < 0.3, "final loss {losses:?}");
    }

    #[test]
    fn learns_a_separable_problem() {
        let mut c = SgdClassifier::new(10, 2, SgdParams::default(), 6).unwrap();
        let (x, y) = toy(512, 10, 7);
        c.fit(&x, &y, 20, 64, 8).unwrap();
        let (xt, yt) = toy(200, 10, 9);
        let preds = c.predict(&xt).unwrap();
        let acc = preds.iter().zip(yt.iter()).filter(|(a, b)| a == b).count() as f64 / 200.0;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learning_rate_decays_per_epoch() {
        let mut c = SgdClassifier::new(4, 2, SgdParams::default(), 10).unwrap();
        let lr0 = c.current_lr();
        c.end_epoch();
        assert!(c.current_lr() < lr0);
    }

    #[test]
    fn rejects_bad_labels_and_shapes() {
        let mut c = SgdClassifier::new(4, 2, SgdParams::default(), 11).unwrap();
        let x = Matrix::zeros(2, 4);
        assert!(c.train_batch(&x, &[0, 5]).is_err());
        assert!(c.train_batch(&x, &[0]).is_err());
        assert!(c.predict(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn workspace_training_matches_the_allocating_twin_bit_exactly() {
        let mut a = SgdClassifier::new(8, 2, SgdParams::default(), 30).unwrap();
        let mut b = a.clone();
        let mut ws = Workspace::new();
        let (x, y) = toy(96, 8, 31);
        for chunk in (0..96).collect::<Vec<_>>().chunks(32) {
            let xb = x.select_rows(chunk);
            let yb: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
            let la = a.train_batch(&xb, &yb).unwrap();
            let lb = b.train_batch_with(&xb, &yb, &mut ws).unwrap();
            assert_eq!(la, lb);
        }
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
        // predict_proba_into on a stale buffer equals the allocating path.
        let direct = a.predict_proba(&x).unwrap();
        let mut reused = Matrix::filled(1, 5, f32::NAN);
        a.predict_proba_into(&x, &mut reused).unwrap();
        assert_eq!(direct, reused);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut c = SgdClassifier::new(4, 2, SgdParams::default(), 12).unwrap();
        let x = Matrix::zeros(0, 4);
        assert_eq!(c.train_batch(&x, &[]).unwrap(), 0.0);
    }
}
