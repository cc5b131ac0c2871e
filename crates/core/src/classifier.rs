//! The supervised BCPNN classification layer.
//!
//! BCPNN only uses supervision in its output layer (§II-C): the hidden
//! activations are associated with the class labels through exactly the
//! same probability-trace rule as the hidden layer, with the class one-hot
//! vector playing the role of the (clamped) output activation. Prediction
//! is the softmax over the class supports.

use std::sync::Arc;

use bcpnn_backend::Backend;
use bcpnn_tensor::Matrix;

use crate::error::{CoreError, CoreResult};
use crate::traces::ProbabilityTraces;
use crate::workspace::Workspace;

/// Configuration of the BCPNN classification layer.
#[derive(Debug, Clone, PartialEq)]
pub struct BcpnnClassifierParams {
    /// Trace EMA rate.
    pub trace_rate: f32,
    /// Probability floor.
    pub eps: f32,
    /// Bias gain.
    pub bias_gain: f32,
}

impl Default for BcpnnClassifierParams {
    fn default() -> Self {
        Self {
            trace_rate: 0.05,
            eps: 1e-6,
            bias_gain: 1.0,
        }
    }
}

/// Supervised associative BCPNN readout (one output HCU whose MCUs are the
/// classes).
///
/// `Clone` copies the full trace state, so a clone trains independently of
/// the original (used by the online-learning shadow trainer).
#[derive(Clone)]
pub struct BcpnnClassifier {
    n_inputs: usize,
    n_classes: usize,
    params: BcpnnClassifierParams,
    backend: Arc<dyn Backend>,
    traces: ProbabilityTraces,
    weights: Matrix<f32>,
    bias: Vec<f32>,
}

impl std::fmt::Debug for BcpnnClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BcpnnClassifier")
            .field("n_inputs", &self.n_inputs)
            .field("n_classes", &self.n_classes)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl BcpnnClassifier {
    /// Create a classifier mapping `n_inputs` hidden activations to
    /// `n_classes` classes.
    pub fn new(
        n_inputs: usize,
        n_classes: usize,
        params: BcpnnClassifierParams,
        backend: Arc<dyn Backend>,
    ) -> CoreResult<Self> {
        if n_inputs == 0 || n_classes < 2 {
            return Err(CoreError::InvalidParams(
                "classifier needs at least one input and two classes".into(),
            ));
        }
        if !(params.trace_rate > 0.0 && params.trace_rate <= 1.0) {
            return Err(CoreError::InvalidParams(
                "trace_rate must be in (0,1]".into(),
            ));
        }
        // The readout is one hypercolumn whose minicolumns are the classes,
        // so the group size equals n_classes. Inputs are hidden activations
        // with typical magnitude ~1/n_mcu; a neutral prior of the mean
        // hidden activity is fine and washes out quickly.
        let traces = ProbabilityTraces::new(n_inputs, n_classes, n_classes, 0.1);
        let mut weights = Matrix::zeros(n_inputs, n_classes);
        let mut bias = vec![0.0f32; n_classes];
        traces.weights_and_bias(
            backend.as_ref(),
            params.eps,
            params.bias_gain,
            &mut weights,
            &mut bias,
        );
        Ok(Self {
            n_inputs,
            n_classes,
            params,
            backend,
            traces,
            weights,
            bias,
        })
    }

    /// Number of input (hidden) dimensions.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The probability traces (read-only, for diagnostics and persistence).
    pub fn traces(&self) -> &ProbabilityTraces {
        &self.traces
    }

    /// The log-odds readout weights (`n_inputs x n_classes`, read-only) —
    /// the tensor a quantizer captures to reproduce this head.
    pub fn weights(&self) -> &Matrix<f32> {
        &self.weights
    }

    /// The per-class bias added before the class softmax (read-only).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    fn check_input(&self, hidden: &Matrix<f32>) -> CoreResult<()> {
        if hidden.cols() != self.n_inputs {
            return Err(CoreError::DataMismatch(format!(
                "hidden activations have {} columns, classifier expects {}",
                hidden.cols(),
                self.n_inputs
            )));
        }
        Ok(())
    }

    /// Encode integer labels as a one-hot matrix.
    ///
    /// # Errors
    /// Fails if a label is out of range.
    pub fn one_hot(&self, labels: &[usize]) -> CoreResult<Matrix<f32>> {
        let mut t = Matrix::zeros(0, 0);
        self.one_hot_into(labels, &mut t)?;
        Ok(t)
    }

    /// Encode integer labels as a one-hot matrix written into a
    /// caller-provided buffer (reset to `labels.len() x n_classes`).
    ///
    /// # Errors
    /// Fails if a label is out of range.
    pub fn one_hot_into(&self, labels: &[usize], out: &mut Matrix<f32>) -> CoreResult<()> {
        out.reset(labels.len(), self.n_classes);
        for (r, &l) in labels.iter().enumerate() {
            if l >= self.n_classes {
                return Err(CoreError::DataMismatch(format!(
                    "label {l} out of range for {} classes",
                    self.n_classes
                )));
            }
            out.set(r, l, 1.0);
        }
        Ok(())
    }

    /// Train on one labeled batch of hidden activations.
    ///
    /// Allocating convenience over
    /// [`BcpnnClassifier::train_batch_with`].
    pub fn train_batch(&mut self, hidden: &Matrix<f32>, labels: &[usize]) -> CoreResult<()> {
        let mut targets = Matrix::zeros(0, 0);
        self.train_batch_core(hidden, labels, &mut targets)
    }

    /// Train on one labeled batch, drawing the one-hot target scratch from
    /// `ws` — zero allocations once the workspace has seen the batch shape.
    pub fn train_batch_with(
        &mut self,
        hidden: &Matrix<f32>,
        labels: &[usize],
        ws: &mut Workspace,
    ) -> CoreResult<()> {
        let mut targets = std::mem::take(&mut ws.targets);
        let result = self.train_batch_core(hidden, labels, &mut targets);
        ws.targets = targets;
        result
    }

    /// The one authoritative supervised trace update both spellings route
    /// through.
    fn train_batch_core(
        &mut self,
        hidden: &Matrix<f32>,
        labels: &[usize],
        targets: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.check_input(hidden)?;
        if hidden.rows() != labels.len() {
            return Err(CoreError::DataMismatch(
                "batch size and label count differ".into(),
            ));
        }
        self.one_hot_into(labels, targets)?;
        self.traces.update(
            self.backend.as_ref(),
            hidden,
            targets,
            self.params.trace_rate,
        );
        self.refresh_weights();
        Ok(())
    }

    /// Recompute weights and bias from the traces.
    pub fn refresh_weights(&mut self) {
        self.traces.weights_and_bias(
            self.backend.as_ref(),
            self.params.eps,
            self.params.bias_gain,
            &mut self.weights,
            &mut self.bias,
        );
    }

    /// Class-probability predictions (`batch x n_classes`, rows sum to 1).
    ///
    /// Allocating convenience over
    /// [`BcpnnClassifier::predict_proba_into`].
    pub fn predict_proba(&self, hidden: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut out = Matrix::zeros(0, 0);
        self.predict_proba_into(hidden, &mut out)?;
        Ok(out)
    }

    /// Class-probability predictions written into a caller-provided buffer
    /// (reset to `batch x n_classes` and fully overwritten).
    pub fn predict_proba_into(
        &self,
        hidden: &Matrix<f32>,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.predict_proba_on(self.backend.as_ref(), hidden, out)
    }

    /// [`BcpnnClassifier::predict_proba_into`] through the given kernels
    /// (the classifier's backend, or its serial form inside a predict band).
    pub(crate) fn predict_proba_on(
        &self,
        kernels: &dyn Backend,
        hidden: &Matrix<f32>,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.check_input(hidden)?;
        out.reset(hidden.rows(), self.n_classes);
        kernels.linear_forward(hidden, &self.weights, &self.bias, out);
        kernels.grouped_softmax(out, self.n_classes);
        Ok(())
    }

    /// Hard class predictions.
    pub fn predict(&self, hidden: &Matrix<f32>) -> CoreResult<Vec<usize>> {
        let proba = self.predict_proba(hidden)?;
        Ok(bcpnn_tensor::simd::dispatch::row_argmax(&proba))
    }

    /// Restore persisted traces (used by the serializer).
    pub(crate) fn restore_traces(&mut self, traces: ProbabilityTraces) -> CoreResult<()> {
        if traces.n_inputs() != self.n_inputs || traces.n_units() != self.n_classes {
            return Err(CoreError::DataMismatch(
                "persisted classifier traces have the wrong shape".into(),
            ));
        }
        self.traces = traces;
        self.refresh_weights();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcpnn_backend::BackendKind;
    use bcpnn_tensor::MatrixRng;

    fn classifier(n_inputs: usize, n_classes: usize) -> BcpnnClassifier {
        BcpnnClassifier::new(
            n_inputs,
            n_classes,
            BcpnnClassifierParams {
                trace_rate: 0.2,
                ..Default::default()
            },
            BackendKind::Parallel.create(),
        )
        .unwrap()
    }

    /// Linearly separable toy problem in "hidden activation" space: class 0
    /// activates the first half of the units, class 1 the second half.
    fn toy(rng: &mut MatrixRng, n: usize, d: usize) -> (Matrix<f32>, Vec<usize>) {
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let x = Matrix::from_fn(n, d, |r, c| {
            let cls = labels[r];
            let hot = if cls == 0 { c < d / 2 } else { c >= d / 2 };
            let base = if hot { 0.8 } else { 0.1 };
            (base + rng.uniform_scalar::<f64>(-0.05, 0.05)).max(0.0) as f32
        });
        (x, labels)
    }

    #[test]
    fn constructor_validates_arguments() {
        assert!(BcpnnClassifier::new(
            0,
            2,
            BcpnnClassifierParams::default(),
            BackendKind::Naive.create()
        )
        .is_err());
        assert!(BcpnnClassifier::new(
            4,
            1,
            BcpnnClassifierParams::default(),
            BackendKind::Naive.create()
        )
        .is_err());
    }

    #[test]
    fn one_hot_encoding() {
        let c = classifier(4, 3);
        let t = c.one_hot(&[0, 2, 1]).unwrap();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 2), 1.0);
        assert_eq!(t.get(2, 1), 1.0);
        assert_eq!(bcpnn_tensor::reduce::sum(&t), 3.0);
        assert!(c.one_hot(&[3]).is_err());
    }

    #[test]
    fn untrained_classifier_predicts_valid_distributions() {
        let c = classifier(6, 2);
        let mut rng = MatrixRng::seed_from(1);
        let (x, _) = toy(&mut rng, 5, 6);
        let p = c.predict_proba(&x).unwrap();
        for r in 0..5 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn learns_a_separable_problem() {
        let mut c = classifier(10, 2);
        let mut rng = MatrixRng::seed_from(2);
        for _ in 0..60 {
            let (x, y) = toy(&mut rng, 32, 10);
            c.train_batch(&x, &y).unwrap();
        }
        let (xt, yt) = toy(&mut rng, 200, 10);
        let preds = c.predict(&xt).unwrap();
        let correct = preds.iter().zip(yt.iter()).filter(|(a, b)| a == b).count();
        let acc = correct as f64 / yt.len() as f64;
        assert!(acc > 0.95, "separable accuracy only {acc}");
    }

    #[test]
    fn rejects_mismatched_batches() {
        let mut c = classifier(4, 2);
        let x = Matrix::zeros(3, 5);
        assert!(c.train_batch(&x, &[0, 1, 0]).is_err());
        let x = Matrix::zeros(3, 4);
        assert!(c.train_batch(&x, &[0, 1]).is_err());
        assert!(c.predict_proba(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn multiclass_support() {
        let mut c = classifier(12, 4);
        let mut rng = MatrixRng::seed_from(3);
        // Four clusters, each activating a distinct quarter of the inputs.
        for _ in 0..80 {
            let labels: Vec<usize> = (0..32).map(|i| i % 4).collect();
            let x = Matrix::from_fn(32, 12, |r, col| {
                let cls = labels[r];
                let hot = col / 3 == cls;
                let base: f64 = if hot { 0.8 } else { 0.05 };
                (base + rng.uniform_scalar::<f64>(-0.03, 0.03)) as f32
            });
            c.train_batch(&x, &labels).unwrap();
        }
        let labels: Vec<usize> = (0..100).map(|i| i % 4).collect();
        let x = Matrix::from_fn(
            100,
            12,
            |r, col| {
                if col / 3 == labels[r] {
                    0.8
                } else {
                    0.05
                }
            },
        );
        let preds = c.predict(&x).unwrap();
        let acc = preds
            .iter()
            .zip(labels.iter())
            .filter(|(a, b)| a == b)
            .count() as f64
            / 100.0;
        assert!(acc > 0.95, "multiclass accuracy only {acc}");
    }
}
