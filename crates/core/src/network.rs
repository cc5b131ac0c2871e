//! The full three-layer network (input → hidden HCUs → classification) and
//! its Keras-like builder, mirroring StreamBrain's layer-by-layer interface.

use std::sync::{Arc, Mutex, PoisonError};

use bcpnn_backend::{Backend, BackendKind};
use bcpnn_data::encode::QuantileEncoder;
use bcpnn_parallel::{global_pool, par_for_each_with};
use bcpnn_tensor::Matrix;

use crate::calibration::Calibration;
use crate::classifier::{BcpnnClassifier, BcpnnClassifierParams};
use crate::error::{CoreError, CoreResult};
use crate::hcu::HiddenLayer;
use crate::mask::ReceptiveFieldMask;
use crate::metrics::EvalReport;
use crate::params::{HiddenLayerParams, SgdParams};
use crate::sgd::SgdClassifier;
use crate::traces::ProbabilityTraces;
use crate::workspace::{BandScratch, Workspace};

/// Rows per band of a predict. Each band runs the whole pipeline on its
/// own rows — encode, hidden forward, grouped softmax, readout, class
/// softmax, calibration — with every kernel in its serial form, and the
/// bands of one call go to the pool in one scope. A multiple of 8, so that
/// a full band's readout stays in the eight-row narrow GEMM kernel.
pub(crate) const PREDICT_BAND: usize = 16;

/// The input rows of a predict: dense encoded rows, or raw feature rows
/// that each band encodes to the hot columns of their one-hot code.
#[derive(Clone, Copy)]
enum Rows<'a> {
    Dense(&'a Matrix<f32>),
    Raw {
        x: &'a Matrix<f32>,
        encoder: &'a QuantileEncoder,
    },
}

/// The head a predict reads out with.
#[derive(Clone, Copy)]
enum Readout<'a> {
    Bcpnn(&'a BcpnnClassifier),
    Sgd(&'a SgdClassifier),
}

/// What every band of one predict shares: the kernels the bands run on,
/// the head, the input rows and the calibration.
#[derive(Clone, Copy)]
struct BandJob<'a> {
    kernels: &'a dyn Backend,
    readout: Readout<'a>,
    input: Rows<'a>,
    calibration: Option<&'a Calibration>,
}

/// Which classification head produces the network's predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum ReadoutKind {
    /// Pure BCPNN: the associative probability-trace readout
    /// (the paper's 68.58 % / 75.5 % AUC configuration).
    Bcpnn = 1,
    /// A softmax-regression head trained by SGD on the hidden code.
    Sgd = 2,
    /// Train both heads; predict with the SGD head (the paper's
    /// "BCPNN + SGD" hybrid, 69.15 % / 76.4 % AUC).
    #[default]
    Hybrid = 3,
}

impl ReadoutKind {
    /// Parse a persistence tag (the model file's readout byte).
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::Bcpnn, Self::Sgd, Self::Hybrid]
            .into_iter()
            .find(|&kind| kind as u8 == tag)
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
    /// The rows are cut into bands of `PREDICT_BAND` rows and each band
    /// runs the whole sequence on its own rows, the bands shared out among
    /// the pool's threads in one dispatch (in order on the caller for a
    /// backend without a serial form, or a one-thread pool). Rows are
    /// independent and every kernel's serial form gives its pooled form's
    /// bits, so the result is bit-identical to a single pass; the scratch
    /// stays one band tall per thread however many rows are scored.
    pub fn predict_proba_with_into(
        &self,
        head: ReadoutKind,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.predict_rows(head, Rows::Dense(x), None, ws, out)
    }

    /// [`Network::predict_proba_into`] for raw feature rows behind `encoder`,
    /// with `calibration` applied to each probability row: the serving path
    /// of a [`crate::Pipeline`]. Each band encodes its rows to the hot
    /// columns of their one-hot code, and the hidden layer adds only those
    /// weight rows (see [`HiddenLayer::forward_hot_into`]).
    pub(crate) fn predict_raw_into(
        &self,
        encoder: &QuantileEncoder,
        calibration: Option<&Calibration>,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        let input = Rows::Raw { x, encoder };
        self.predict_rows(self.readout_kind, input, calibration, ws, out)
    }

    /// The banded walk behind every predict (see
    /// [`Network::predict_proba_with_into`]). A failed band's error is the
    /// one of the lowest failing band, as in the serial walk.
    fn predict_rows(
        &self,
        head: ReadoutKind,
        input: Rows<'_>,
        calibration: Option<&Calibration>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        let readout = match head {
            ReadoutKind::Bcpnn => {
                Readout::Bcpnn(self.bcpnn_readout.as_ref().ok_or_else(|| {
                    CoreError::InvalidParams("network has no BCPNN readout".into())
                })?)
            }
            ReadoutKind::Sgd | ReadoutKind::Hybrid => Readout::Sgd(
                self.sgd_readout
                    .as_ref()
                    .ok_or_else(|| CoreError::InvalidParams("network has no SGD readout".into()))?,
            ),
        };
        let n_rows = match input {
            Rows::Dense(x) => {
                self.hidden.check_input(x)?;
                x.rows()
            }
            Rows::Raw { x, .. } => x.rows(),
        };
        let serial = self.backend.serial();
        let job = BandJob {
            kernels: serial.unwrap_or(self.backend.as_ref()),
            readout,
            input,
            calibration,
        };
        let n_bands = n_rows.div_ceil(PREDICT_BAND);
        let threads = match serial {
            Some(_) => global_pool().num_threads().min(n_bands).max(1),
            None => 1,
        };
        if ws.bands.len() < threads {
            ws.bands.resize_with(threads, BandScratch::default);
        }
        let n_out = self.n_classes;
        out.resize(n_rows, n_out);
        let bands = out
            .as_mut_slice()
            .chunks_mut(PREDICT_BAND * n_out)
            .enumerate();
        let failure = Mutex::new(None::<(usize, CoreError)>);
        par_for_each_with(&mut ws.bands[..threads], bands, |scratch, (band, rows)| {
            if let Err(err) = self.predict_band(job, band * PREDICT_BAND, scratch, rows) {
                let mut failure = failure.lock().unwrap_or_else(PoisonError::into_inner);
                if failure.as_ref().is_none_or(|(first, _)| band < *first) {
                    *failure = Some((band, err));
                }
            }
        });
        match failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some((_, err)) => Err(err),
            None => Ok(()),
        }
    }

    /// One band: rows `r0..` of the job's input, as many as `out`
    /// (row-major, `n_classes` wide) holds, through encode → hidden
    /// forward → readout → calibration on the job's kernels, in `scratch`.
    fn predict_band(
        &self,
        job: BandJob<'_>,
        r0: usize,
        scratch: &mut BandScratch,
        out: &mut [f32],
    ) -> CoreResult<()> {
        let BandJob {
            kernels,
            readout,
            input,
            calibration,
        } = job;
        let rows = out.len() / self.n_classes;
        match input {
            Rows::Dense(x) => {
                let n_in = x.cols();
                scratch.rows.resize(rows, n_in);
                scratch
                    .rows
                    .as_mut_slice()
                    .copy_from_slice(&x.as_slice()[r0 * n_in..(r0 + rows) * n_in]);
                self.hidden
                    .forward_on(kernels, &scratch.rows, &mut scratch.hidden)?;
            }
            Rows::Raw { x, encoder } => {
                let n_in = x.cols();
                scratch.hot.resize(rows * n_in, 0);
                encoder.transform_hot_into(
                    &x.as_slice()[r0 * n_in..(r0 + rows) * n_in],
                    &mut scratch.hot,
                );
                self.hidden
                    .forward_hot_on(kernels, &scratch.hot, rows, &mut scratch.hidden)?;
            }
        }
        match readout {
            Readout::Bcpnn(head) => {
                head.predict_proba_on(kernels, &scratch.hidden, &mut scratch.proba)?
            }
            Readout::Sgd(head) => {
                head.predict_proba_on(false, &scratch.hidden, &mut scratch.proba)?
            }
        }
        if let Some(cal) = calibration {
            cal.apply_rows(&mut scratch.proba);
        }
        out.copy_from_slice(scratch.proba.as_slice());
        Ok(())
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
        self.build_with(None)
    }

    /// Build the network, around a persisted hidden layer state (mask and
    /// traces) when the model loader passes one.
    pub(crate) fn build_with(
        self,
        hidden_state: Option<(ReceptiveFieldMask, ProbabilityTraces)>,
    ) -> CoreResult<Network> {
        if self.n_classes < 2 {
            return Err(CoreError::InvalidParams(
                "a classifier needs at least two classes".into(),
            ));
        }
        let backend = self.backend.create();
        let hidden = HiddenLayer::build(
            self.hidden.clone(),
            Arc::clone(&backend),
            self.seed,
            hidden_state,
        )?;
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
        for kind in [ReadoutKind::Bcpnn, ReadoutKind::Sgd, ReadoutKind::Hybrid] {
            assert_eq!(ReadoutKind::from_tag(kind as u8), Some(kind));
        }
        assert_eq!(ReadoutKind::from_tag(0), None);
        assert_eq!(ReadoutKind::from_tag(4), None);
        assert_eq!(ReadoutKind::Hybrid.name(), "hybrid");
    }
}
