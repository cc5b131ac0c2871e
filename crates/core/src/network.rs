//! The full three-layer network (input → hidden HCUs → classification) and
//! its Keras-like builder, mirroring StreamBrain's layer-by-layer interface.

use std::sync::Arc;

use bcpnn_backend::{Backend, BackendKind};
use bcpnn_tensor::Matrix;

use crate::classifier::{BcpnnClassifier, BcpnnClassifierParams};
use crate::error::{CoreError, CoreResult};
use crate::hcu::HiddenLayer;
use crate::metrics::EvalReport;
use crate::params::{HiddenLayerParams, SgdParams};
use crate::sgd::SgdClassifier;
use crate::workspace::Workspace;

/// Rows per block of a predict over more rows than this: bounds the hidden
/// scratch (4,000 held-out rows x 1000 units would be 16 MB) while leaving
/// every serving batch on the single-pass path.
const PREDICT_BLOCK: usize = 512;

/// The input rows of a predict: dense encoded rows, or one-hot rows given
/// by their hot columns (`cols.len() / rows` per row).
#[derive(Clone, Copy)]
enum Rows<'a> {
    Dense(&'a Matrix<f32>),
    Hot { cols: &'a [u32], rows: usize },
}

impl Rows<'_> {
    fn rows(&self) -> usize {
        match self {
            Rows::Dense(x) => x.rows(),
            Rows::Hot { rows, .. } => *rows,
        }
    }
}

/// Which classification head produces the network's predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadoutKind {
    /// Pure BCPNN: the associative probability-trace readout
    /// (the paper's 68.58 % / 75.5 % AUC configuration).
    Bcpnn,
    /// A softmax-regression head trained by SGD on the hidden code.
    Sgd,
    /// Train both heads; predict with the SGD head (the paper's
    /// "BCPNN + SGD" hybrid, 69.15 % / 76.4 % AUC).
    #[default]
    Hybrid,
}

impl ReadoutKind {
    /// Parse a readout name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "bcpnn" => Some(Self::Bcpnn),
            "sgd" => Some(Self::Sgd),
            "hybrid" | "bcpnn+sgd" => Some(Self::Hybrid),
            _ => None,
        }
    }

    /// Name of the readout kind.
    pub fn name(self) -> &'static str {
        match self {
            Self::Bcpnn => "bcpnn",
            Self::Sgd => "sgd",
            Self::Hybrid => "hybrid",
        }
    }
}

/// A trained (or trainable) BCPNN network.
///
/// `Clone` copies all trainable state (layers clone deeply; the backend
/// `Arc` is shared — backends are stateless compute), so a clone trains
/// independently of the original. The online-learning shadow trainer
/// clones a published network and folds new rows into the copy.
#[derive(Clone)]
pub struct Network {
    hidden: HiddenLayer,
    bcpnn_readout: Option<BcpnnClassifier>,
    sgd_readout: Option<SgdClassifier>,
    readout_kind: ReadoutKind,
    n_classes: usize,
    backend: Arc<dyn Backend>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("hidden", &self.hidden)
            .field("n_classes", &self.n_classes)
            .field("readout", &self.readout_kind)
            .finish()
    }
}

impl Network {
    /// Start building a network (Keras-style fluent interface).
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// The unsupervised hidden layer.
    pub fn hidden(&self) -> &HiddenLayer {
        &self.hidden
    }

    /// Mutable access to the hidden layer (used by the trainer).
    pub fn hidden_mut(&mut self) -> &mut HiddenLayer {
        &mut self.hidden
    }

    /// The BCPNN readout, if this network has one.
    pub fn bcpnn_readout(&self) -> Option<&BcpnnClassifier> {
        self.bcpnn_readout.as_ref()
    }

    /// Mutable BCPNN readout (used by the trainer).
    pub fn bcpnn_readout_mut(&mut self) -> Option<&mut BcpnnClassifier> {
        self.bcpnn_readout.as_mut()
    }

    /// The SGD readout, if this network has one.
    pub fn sgd_readout(&self) -> Option<&SgdClassifier> {
        self.sgd_readout.as_ref()
    }

    /// Mutable SGD readout (used by the trainer).
    pub fn sgd_readout_mut(&mut self) -> Option<&mut SgdClassifier> {
        self.sgd_readout.as_mut()
    }

    /// Which head produces [`Network::predict_proba`].
    pub fn readout_kind(&self) -> ReadoutKind {
        self.readout_kind
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The compute backend shared by the layers.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Encode inputs into the hidden (HCU/MCU activation) representation.
    pub fn encode(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        self.hidden.forward(x)
    }

    /// Encode inputs into a caller-provided buffer (reset to
    /// `batch x n_units`): the buffer-reusing twin of [`Network::encode`].
    pub fn encode_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) -> CoreResult<()> {
        self.hidden.forward_into(x, out)
    }

    /// Class probabilities using the head selected by the readout kind
    /// (hybrid networks predict with the SGD head).
    ///
    /// Allocating convenience over [`Network::predict_proba_into`] — there
    /// is exactly one encode → readout kernel sequence behind every
    /// spelling.
    pub fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        match self.readout_kind {
            ReadoutKind::Bcpnn => self.predict_proba_with(ReadoutKind::Bcpnn, x),
            ReadoutKind::Sgd | ReadoutKind::Hybrid => self.predict_proba_with(ReadoutKind::Sgd, x),
        }
    }

    /// Class probabilities written into `out` (reset to
    /// `batch x n_classes`), drawing the hidden-activation scratch from
    /// `ws`. Zero allocations once the workspace has seen the batch shape;
    /// bit-identical to [`Network::predict_proba`].
    pub fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        match self.readout_kind {
            ReadoutKind::Bcpnn => self.predict_proba_with_into(ReadoutKind::Bcpnn, x, ws, out),
            ReadoutKind::Sgd | ReadoutKind::Hybrid => {
                self.predict_proba_with_into(ReadoutKind::Sgd, x, ws, out)
            }
        }
    }

    /// Class probabilities from a specific head (useful for reporting the
    /// pure-BCPNN and hybrid numbers from the same trained network, as the
    /// paper does).
    pub fn predict_proba_with(
        &self,
        head: ReadoutKind,
        x: &Matrix<f32>,
    ) -> CoreResult<Matrix<f32>> {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        self.predict_proba_with_into(head, x, &mut ws, &mut out)?;
        Ok(out)
    }

    /// Class probabilities from a specific head written into `out`: the one
    /// authoritative encode → readout kernel sequence every predict
    /// spelling routes through.
    ///
    /// More than 512 rows are walked in 512-row blocks, so the hidden
    /// scratch stays at `512 x n_units` however many rows the caller scores
    /// at once. Rows are independent, so the result is bit-identical to a
    /// single pass.
    pub fn predict_proba_with_into(
        &self,
        head: ReadoutKind,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.predict_rows(head, Rows::Dense(x), ws, out)
    }

    /// [`Network::predict_proba_into`] for `rows` one-hot rows given by
    /// their hot columns (see [`HiddenLayer::forward_hot_into`]): the
    /// serving path of a pipeline whose last stage is the quantile encoder.
    pub(crate) fn predict_proba_hot_into(
        &self,
        hot: &[u32],
        rows: usize,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        let input = Rows::Hot { cols: hot, rows };
        self.predict_rows(self.readout_kind, input, ws, out)
    }

    /// The blocked walk behind every predict: more than [`PREDICT_BLOCK`]
    /// rows go through [`Network::predict_block`] one block at a time.
    fn predict_rows(
        &self,
        head: ReadoutKind,
        input: Rows<'_>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        let n_rows = input.rows();
        if n_rows <= PREDICT_BLOCK {
            return self.predict_block(head, input, ws, out);
        }
        let n_out = self.n_classes;
        let mut xb = std::mem::take(&mut ws.batch);
        let mut pb = std::mem::take(&mut ws.proba);
        out.resize(n_rows, n_out);
        let result = (0..n_rows).step_by(PREDICT_BLOCK).try_for_each(|r0| {
            let r1 = (r0 + PREDICT_BLOCK).min(n_rows);
            let block = match input {
                Rows::Dense(x) => {
                    let n_in = x.cols();
                    xb.resize(r1 - r0, n_in);
                    xb.as_mut_slice()
                        .copy_from_slice(&x.as_slice()[r0 * n_in..r1 * n_in]);
                    Rows::Dense(&xb)
                }
                // Hot columns are a flat slice: a block is a sub-slice.
                Rows::Hot { cols, rows } => {
                    let k = cols.len() / rows;
                    Rows::Hot {
                        cols: &cols[r0 * k..r1 * k],
                        rows: r1 - r0,
                    }
                }
            };
            self.predict_block(head, block, ws, &mut pb)?;
            out.as_mut_slice()[r0 * n_out..r1 * n_out].copy_from_slice(pb.as_slice());
            Ok(())
        });
        ws.batch = xb;
        ws.proba = pb;
        result
    }

    /// Encode → readout for one block of rows, hidden scratch from `ws`.
    fn predict_block(
        &self,
        head: ReadoutKind,
        input: Rows<'_>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        let mut hidden = std::mem::take(&mut ws.hidden);
        let forward = match input {
            Rows::Dense(x) => self.hidden.forward_into(x, &mut hidden),
            Rows::Hot { cols, rows } => self.hidden.forward_hot_into(cols, rows, &mut hidden),
        };
        let result = forward.and_then(|()| match head {
            ReadoutKind::Bcpnn => self
                .bcpnn_readout
                .as_ref()
                .ok_or_else(|| CoreError::InvalidParams("network has no BCPNN readout".into()))?
                .predict_proba_into(&hidden, out),
            ReadoutKind::Sgd | ReadoutKind::Hybrid => self
                .sgd_readout
                .as_ref()
                .ok_or_else(|| CoreError::InvalidParams("network has no SGD readout".into()))?
                .predict_proba_into(&hidden, out),
        });
        ws.hidden = hidden;
        result
    }

    /// Hard class predictions via [`Network::predict_proba`].
    pub fn predict(&self, x: &Matrix<f32>) -> CoreResult<Vec<usize>> {
        Ok(bcpnn_tensor::simd::dispatch::row_argmax(
            &self.predict_proba(x)?,
        ))
    }

    /// Evaluate the network on labeled data (accuracy, AUC, ...).
    pub fn evaluate(&self, x: &Matrix<f32>, labels: &[usize]) -> CoreResult<EvalReport> {
        if x.rows() != labels.len() {
            return Err(CoreError::DataMismatch(
                "evaluation set size and label count differ".into(),
            ));
        }
        let proba = self.predict_proba(x)?;
        Ok(EvalReport::from_probabilities(&proba, labels))
    }

    /// Evaluate a specific head on labeled data.
    pub fn evaluate_with(
        &self,
        head: ReadoutKind,
        x: &Matrix<f32>,
        labels: &[usize],
    ) -> CoreResult<EvalReport> {
        if x.rows() != labels.len() {
            return Err(CoreError::DataMismatch(
                "evaluation set size and label count differ".into(),
            ));
        }
        let proba = self.predict_proba_with(head, x)?;
        Ok(EvalReport::from_probabilities(&proba, labels))
    }

    /// Fold one labeled batch into the trained network's counters — the
    /// online-learning entry point.
    ///
    /// BCPNN weights are Bayesian co-activation counters, so incremental
    /// updates are the native operation: one unsupervised hidden-layer
    /// trace update on the batch, then one supervised readout update on
    /// the refreshed hidden code — the same two kernels
    /// [`crate::Trainer::fit`] loops over, minus the epoch scaffolding
    /// (no shuffling, no structural plasticity, no learning-rate decay:
    /// online folds run at the learning rate the offline fit left behind).
    /// No refit from scratch, no allocation beyond workspace growth.
    ///
    /// Deterministic: starting from identical network state, folding the
    /// same batches in the same order reproduces bit-identical weights —
    /// the property the learn-service replay log relies on.
    pub fn learn_batch(
        &mut self,
        x: &Matrix<f32>,
        labels: &[usize],
        ws: &mut Workspace,
    ) -> CoreResult<()> {
        if x.rows() != labels.len() {
            return Err(CoreError::DataMismatch(
                "learn batch size and label count differ".into(),
            ));
        }
        if x.rows() == 0 {
            return Err(CoreError::DataMismatch("learn batch is empty".into()));
        }
        for &label in labels {
            if label >= self.n_classes {
                return Err(CoreError::DataMismatch(format!(
                    "label {label} out of range for {} classes",
                    self.n_classes
                )));
            }
        }
        // Unsupervised fold: the hidden layer keeps learning the input
        // statistics from live traffic.
        self.hidden.train_batch_with(x, ws)?;
        // Supervised fold on the *updated* hidden code, exactly as a
        // supervised epoch would see it.
        let mut hidden = std::mem::take(&mut ws.hidden);
        let result = self.hidden.forward_into(x, &mut hidden).and_then(|()| {
            if let Some(readout) = self.bcpnn_readout.as_mut() {
                readout.train_batch_with(&hidden, labels, ws)?;
            }
            if let Some(readout) = self.sgd_readout.as_mut() {
                readout.train_batch_with(&hidden, labels, ws)?;
            }
            Ok(())
        });
        ws.hidden = hidden;
        result
    }
}

/// Fluent builder for [`Network`] (StreamBrain's Keras-inspired interface).
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    hidden: HiddenLayerParams,
    n_classes: usize,
    readout: ReadoutKind,
    backend: BackendKind,
    classifier_params: BcpnnClassifierParams,
    sgd_params: SgdParams,
    seed: u64,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self {
            hidden: HiddenLayerParams::default(),
            n_classes: 2,
            readout: ReadoutKind::default(),
            backend: BackendKind::default(),
            classifier_params: BcpnnClassifierParams::default(),
            sgd_params: SgdParams::default(),
            seed: 42,
        }
    }
}

impl NetworkBuilder {
    /// Set the input width (e.g. 280 for the encoded Higgs features).
    #[must_use]
    pub fn input(mut self, n_inputs: usize) -> Self {
        self.hidden.n_inputs = n_inputs;
        self
    }

    /// Configure the hidden layer: number of HCUs, MCUs per HCU, and the
    /// receptive-field density.
    #[must_use]
    pub fn hidden(mut self, n_hcu: usize, n_mcu: usize, receptive_field: f64) -> Self {
        self.hidden.n_hcu = n_hcu;
        self.hidden.n_mcu = n_mcu;
        self.hidden.receptive_field = receptive_field;
        self
    }

    /// Replace the full hidden-layer parameter struct.
    #[must_use]
    pub fn hidden_params(mut self, params: HiddenLayerParams) -> Self {
        self.hidden = params;
        self
    }

    /// Set the number of output classes (2 for signal vs background).
    #[must_use]
    pub fn classes(mut self, n_classes: usize) -> Self {
        self.n_classes = n_classes;
        self
    }

    /// Select the classification head.
    #[must_use]
    pub fn readout(mut self, readout: ReadoutKind) -> Self {
        self.readout = readout;
        self
    }

    /// Select the compute backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Parameters for the BCPNN readout.
    #[must_use]
    pub fn classifier_params(mut self, params: BcpnnClassifierParams) -> Self {
        self.classifier_params = params;
        self
    }

    /// Parameters for the SGD readout.
    #[must_use]
    pub fn sgd_params(mut self, params: SgdParams) -> Self {
        self.sgd_params = params;
        self
    }

    /// RNG seed controlling initial masks, weights and shuffling.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the network.
    pub fn build(self) -> CoreResult<Network> {
        if self.n_classes < 2 {
            return Err(CoreError::InvalidParams(
                "a classifier needs at least two classes".into(),
            ));
        }
        let backend = self.backend.create();
        let hidden = HiddenLayer::new(self.hidden.clone(), Arc::clone(&backend), self.seed)?;
        let n_hidden_units = hidden.n_units();
        let bcpnn_readout = match self.readout {
            ReadoutKind::Bcpnn | ReadoutKind::Hybrid => Some(BcpnnClassifier::new(
                n_hidden_units,
                self.n_classes,
                self.classifier_params.clone(),
                Arc::clone(&backend),
            )?),
            ReadoutKind::Sgd => None,
        };
        let sgd_readout = match self.readout {
            ReadoutKind::Sgd | ReadoutKind::Hybrid => Some(SgdClassifier::new(
                n_hidden_units,
                self.n_classes,
                self.sgd_params.clone(),
                self.seed ^ 0x5eed_5eed,
            )?),
            ReadoutKind::Bcpnn => None,
        };
        Ok(Network {
            hidden,
            bcpnn_readout,
            sgd_readout,
            readout_kind: self.readout,
            n_classes: self.n_classes,
            backend,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_builder() -> NetworkBuilder {
        Network::builder()
            .input(20)
            .hidden(2, 4, 0.5)
            .classes(2)
            .backend(BackendKind::Naive)
            .seed(1)
    }

    #[test]
    fn builder_constructs_requested_topology() {
        let net = tiny_builder().readout(ReadoutKind::Hybrid).build().unwrap();
        assert_eq!(net.hidden().n_units(), 8);
        assert_eq!(net.n_classes(), 2);
        assert!(net.bcpnn_readout().is_some());
        assert!(net.sgd_readout().is_some());
        assert_eq!(net.readout_kind(), ReadoutKind::Hybrid);
    }

    #[test]
    fn readout_selection_controls_which_heads_exist() {
        let b = tiny_builder().readout(ReadoutKind::Bcpnn).build().unwrap();
        assert!(b.bcpnn_readout().is_some());
        assert!(b.sgd_readout().is_none());
        let s = tiny_builder().readout(ReadoutKind::Sgd).build().unwrap();
        assert!(s.bcpnn_readout().is_none());
        assert!(s.sgd_readout().is_some());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(tiny_builder().classes(1).build().is_err());
        assert!(tiny_builder().hidden(0, 4, 0.5).build().is_err());
        assert!(tiny_builder().hidden(2, 4, 0.0).build().is_err());
    }

    #[test]
    fn untrained_network_still_produces_valid_probabilities() {
        let net = tiny_builder().build().unwrap();
        let x = Matrix::from_fn(5, 20, |r, c| f32::from((r + c) % 3 == 0));
        let p = net.predict_proba(&x).unwrap();
        assert_eq!(p.shape(), (5, 2));
        for r in 0..5 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        let preds = net.predict(&x).unwrap();
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn predict_proba_into_matches_the_allocating_path_bit_exactly() {
        let net = tiny_builder().readout(ReadoutKind::Hybrid).build().unwrap();
        let mut ws = Workspace::new();
        let mut out = Matrix::filled(2, 2, f32::NAN);
        for n in [5usize, 1, 9] {
            let x = Matrix::from_fn(n, 20, |r, c| f32::from((r + 2 * c) % 3 == 0));
            net.predict_proba_into(&x, &mut ws, &mut out).unwrap();
            assert_eq!(out, net.predict_proba(&x).unwrap(), "batch of {n}");
            // Head-specific spelling agrees too.
            net.predict_proba_with_into(ReadoutKind::Bcpnn, &x, &mut ws, &mut out)
                .unwrap();
            assert_eq!(out, net.predict_proba_with(ReadoutKind::Bcpnn, &x).unwrap());
        }
        // Missing heads are still typed errors through the _into spelling.
        let sgd_only = tiny_builder().readout(ReadoutKind::Sgd).build().unwrap();
        let x = Matrix::zeros(2, 20);
        assert!(sgd_only
            .predict_proba_with_into(ReadoutKind::Bcpnn, &x, &mut ws, &mut out)
            .is_err());
    }

    #[test]
    fn predict_proba_with_requires_the_head() {
        let net = tiny_builder().readout(ReadoutKind::Sgd).build().unwrap();
        let x = Matrix::zeros(2, 20);
        assert!(net.predict_proba_with(ReadoutKind::Bcpnn, &x).is_err());
        assert!(net.predict_proba_with(ReadoutKind::Sgd, &x).is_ok());
    }

    #[test]
    fn evaluate_checks_lengths() {
        let net = tiny_builder().build().unwrap();
        let x = Matrix::zeros(3, 20);
        assert!(net.evaluate(&x, &[0, 1]).is_err());
        let report = net.evaluate(&x, &[0, 1, 0]).unwrap();
        assert!(report.accuracy >= 0.0 && report.accuracy <= 1.0);
    }

    #[test]
    fn network_and_backend_handles_are_send_and_sync() {
        // Static assertions: the serving subsystem shares trained networks
        // across threads as `Arc<ServedModel>`, which requires these bounds.
        // A failure here is a compile error, not a runtime failure.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Network>();
        assert_send_sync::<Arc<dyn Backend>>();
        assert_send_sync::<HiddenLayer>();
        assert_send_sync::<crate::BcpnnClassifier>();
        assert_send_sync::<crate::SgdClassifier>();
    }

    #[test]
    fn readout_kind_parsing() {
        assert_eq!(ReadoutKind::parse("bcpnn"), Some(ReadoutKind::Bcpnn));
        assert_eq!(ReadoutKind::parse("BCPNN+SGD"), Some(ReadoutKind::Hybrid));
        assert_eq!(ReadoutKind::parse("sgd"), Some(ReadoutKind::Sgd));
        assert_eq!(ReadoutKind::parse("???"), None);
        assert_eq!(ReadoutKind::Hybrid.name(), "hybrid");
    }
}
