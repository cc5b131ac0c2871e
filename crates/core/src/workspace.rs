//! Reusable scratch buffers for the zero-allocation inference and training
//! data plane.
//!
//! Every step of a forward pass — the input encoding, the hidden-layer
//! support/softmax, the readout probabilities — needs a batch-sized
//! temporary. The simple API ([`Network::predict_proba`],
//! [`Pipeline::predict_proba`]) allocates those temporaries per call, which
//! is fine for offline experiments but puts the allocator on the serving
//! hot path: a micro-batching worker would create and drop several matrices
//! per batch, forever. A [`Workspace`] owns those temporaries instead. The
//! `_into` variants ([`Network::predict_proba_into`],
//! [`Predictor::predict_proba_into`], `HiddenLayer::train_batch_with`, …)
//! borrow their scratch from the workspace and write the result into a
//! caller-provided output matrix, so a warmed-up worker performs **zero
//! heap allocations per batch** (`tests/alloc_regression.rs` enforces this
//! with a counting allocator).
//!
//! Buffers grow on demand ([`bcpnn_tensor::Matrix::resize`]) and never
//! shrink, so the steady state is reached after the largest batch shape has
//! been seen once.
//!
//! [`Network::predict_proba`]: crate::Network::predict_proba
//! [`Network::predict_proba_into`]: crate::Network::predict_proba_into
//! [`Pipeline::predict_proba`]: crate::model::Predictor::predict_proba
//! [`Predictor::predict_proba_into`]: crate::model::Predictor::predict_proba_into

use bcpnn_tensor::Matrix;

/// Preallocated, named scratch buffers threaded through the `_into` compute
/// paths (see the [module docs](self)).
///
/// A workspace is plain mutable state: keep one per worker thread (they are
/// `Send`, not shared). Buffer contents between calls are unspecified —
/// every `_into` kernel fully overwrites the slots it uses.
///
/// ```
/// use bcpnn_backend::BackendKind;
/// use bcpnn_core::model::Predictor;
/// use bcpnn_core::{Network, Pipeline, TrainingParams, Workspace};
/// use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
/// use bcpnn_tensor::Matrix;
///
/// let data = generate(&SyntheticHiggsConfig { n_samples: 200, ..Default::default() });
/// let (pipeline, _) = Pipeline::fit(
///     &data,
///     10,
///     Network::builder().hidden(1, 4, 0.4).classes(2).backend(BackendKind::Naive),
///     TrainingParams {
///         unsupervised_epochs: 1,
///         supervised_epochs: 1,
///         batch_size: 50,
///         ..Default::default()
///     },
/// )
/// .unwrap();
///
/// // One workspace + one output buffer serve any number of batches.
/// let mut ws = Workspace::new();
/// let mut proba = Matrix::zeros(0, 0);
/// for batch in 0..3 {
///     pipeline
///         .predict_proba_into(&data.features, &mut ws, &mut proba)
///         .unwrap();
///     assert_eq!(proba.shape(), (200, 2), "batch {batch}");
/// }
/// // Identical (bit-for-bit) to the allocating path.
/// assert_eq!(proba, pipeline.predict_proba(&data.features).unwrap());
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// The dense one-hot code of a batch (`batch x encoded_width`), which
    /// `Pipeline::learn_batch` trains on. A pipeline predict never fills it.
    pub(crate) encoded: Matrix<f32>,
    /// One scratch per thread of a banded predict (see [`BandScratch`]);
    /// grows to the widest pool a predict has used. Training never fills
    /// it.
    pub(crate) bands: Vec<BandScratch>,
    /// Hidden activations (`batch x n_units`) of a training step or a
    /// learn fold.
    pub(crate) hidden: Matrix<f32>,
    /// Gaussian support noise for training forward passes.
    pub(crate) noise: Matrix<f32>,
    /// Readout probabilities / logits scratch (`batch x n_classes`) of a
    /// training step.
    pub(crate) proba: Matrix<f32>,
    /// One-hot target scratch for the BCPNN readout (`batch x n_classes`).
    pub(crate) targets: Matrix<f32>,
    /// SGD weight-gradient scratch (`n_inputs x n_classes`).
    pub(crate) grad_w: Matrix<f32>,
    /// SGD bias-gradient scratch (`n_classes`).
    pub(crate) grad_b: Vec<f32>,
    /// Batch-assembly scratch for epoch loops (`batch x features`).
    pub(crate) batch: Matrix<f32>,
    /// Label-assembly scratch for epoch loops.
    pub(crate) labels: Vec<usize>,
    /// Cascade gather scratch: escalated input rows (`escalated x width`).
    pub(crate) cascade_x: Matrix<f32>,
    /// Cascade output scratch: escalated probability rows
    /// (`escalated x n_classes`).
    pub(crate) cascade_out: Matrix<f32>,
    /// Escalated row indices for the cascade scatter step.
    pub(crate) cascade_rows: Vec<usize>,
}

/// What one thread of a banded predict works in: it takes its bands of
/// `PREDICT_BAND` rows one after another through these buffers, so they
/// stay `PREDICT_BAND` rows tall and in cache however many rows the
/// predict has.
#[derive(Debug, Default)]
pub(crate) struct BandScratch {
    /// The band's input rows, in a dense predict.
    pub(crate) rows: Matrix<f32>,
    /// The hot columns of the band's one-hot code, in a pipeline predict
    /// (`rows x n_features`, row-major, ascending within a row): the hidden
    /// layer adds only those weight rows.
    pub(crate) hot: Vec<u32>,
    /// The band's hidden activations (`rows x n_units`).
    pub(crate) hidden: Matrix<f32>,
    /// The band's class probabilities (`rows x n_classes`), copied into
    /// the caller's output once calibrated.
    pub(crate) proba: Matrix<f32>,
}

impl BandScratch {
    fn allocated_elems(&self) -> usize {
        self.rows.capacity() + self.hot.capacity() + self.hidden.capacity() + self.proba.capacity()
    }
}

impl Workspace {
    /// Create an empty workspace. No memory is reserved up front; buffers
    /// grow to the shapes they first see and stay there.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the two inference scratch buffers — the dense encoded rows
    /// (`encoded`) and the hidden activations — for a foreign `Predictor`
    /// implementation that lives outside this crate (e.g. the quantized
    /// pipeline in `bcpnn-lowprec`).
    ///
    /// The built-in models reach the fields directly; this seam is what
    /// lets external predictors run the same allocation-free
    /// `predict_proba_into` discipline against the same per-worker
    /// workspace, without widening the fields themselves. Contents are
    /// unspecified between calls, exactly like every other slot.
    pub fn inference_scratch(&mut self) -> (&mut Matrix<f32>, &mut Matrix<f32>) {
        (&mut self.encoded, &mut self.hidden)
    }

    /// Take ownership of the cascade scratch buffers — the gather matrix
    /// (escalated input rows), the escalated-output matrix, and the
    /// escalated-row index list.
    ///
    /// A cascading `Predictor` (the quantized→f32 `CascadeModel` in
    /// `bcpnn-serve`) must run its *inner* predictors against this same
    /// workspace while holding per-call gather/scatter buffers of its own;
    /// taking the buffers out (and restoring them with
    /// [`Workspace::restore_cascade_scratch`] afterwards) keeps the whole
    /// nested call allocation-free without aliasing the inference scratch.
    pub fn take_cascade_scratch(&mut self) -> (Matrix<f32>, Matrix<f32>, Vec<usize>) {
        (
            std::mem::take(&mut self.cascade_x),
            std::mem::take(&mut self.cascade_out),
            std::mem::take(&mut self.cascade_rows),
        )
    }

    /// Give the cascade scratch buffers back after
    /// [`Workspace::take_cascade_scratch`], preserving their grown
    /// capacity for the next batch.
    pub fn restore_cascade_scratch(&mut self, x: Matrix<f32>, out: Matrix<f32>, rows: Vec<usize>) {
        self.cascade_x = x;
        self.cascade_out = out;
        self.cascade_rows = rows;
    }

    /// Total number of 4-byte (`f32` and `u32`) scratch elements reserved
    /// across all buffers — capacity, not current shape, so it tracks the
    /// never-shrinking high-water mark (diagnostic: watch it plateau after
    /// warmup even as batch sizes vary).
    pub fn allocated_elems(&self) -> usize {
        self.encoded.capacity()
            + self
                .bands
                .iter()
                .map(BandScratch::allocated_elems)
                .sum::<usize>()
            + self.hidden.capacity()
            + self.noise.capacity()
            + self.proba.capacity()
            + self.targets.capacity()
            + self.grad_w.capacity()
            + self.grad_b.capacity()
            + self.batch.capacity()
            + self.cascade_x.capacity()
            + self.cascade_out.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_workspace_holds_nothing() {
        let ws = Workspace::new();
        assert_eq!(ws.allocated_elems(), 0);
        assert!(ws.labels.is_empty());
    }

    #[test]
    fn workspace_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Workspace>();
    }
}
