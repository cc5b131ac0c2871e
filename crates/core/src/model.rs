//! The model API: one `fit → predict` surface from core training to
//! serving.
//!
//! * [`Predictor`] — a fitted model: `predict_proba` / `predict` /
//!   `n_inputs` / `n_classes` (plus a default `evaluate`). Implemented by
//!   [`Network`], by the readout heads ([`BcpnnClassifier`],
//!   [`SgdClassifier`] over hidden activations), and by [`Pipeline`].
//! * [`NetworkEstimator`] — a builder topology plus a training schedule;
//!   [`NetworkEstimator::fit_report`] builds a fresh [`Network`], trains it
//!   and returns the per-epoch [`FitReport`].
//!
//! [`Pipeline`] is the deployable artifact: the paper's fitted quantile
//! encoder (§V) in front of a trained network, plus an optional post-hoc
//! calibration, so raw feature vectors go in and class probabilities come
//! out. It persists as a `v5` model directory, one `model.bcpnn` file
//! (see [`crate::serialize`]); `bcpnn-serve` serves any
//! `Predictor` — a loaded `Pipeline` being the common case.
//!
//! # Fitting a network
//!
//! ```
//! use bcpnn_backend::BackendKind;
//! use bcpnn_core::model::{NetworkEstimator, Predictor};
//! use bcpnn_core::{Network, TrainingParams};
//! use bcpnn_tensor::Matrix;
//!
//! // A tiny separable toy problem.
//! let labels: Vec<usize> = (0..64).map(|i| i % 2).collect();
//! let x = Matrix::from_fn(64, 8, |r, c| {
//!     f32::from(if labels[r] == 0 { c < 4 } else { c >= 4 })
//! });
//!
//! let estimator = NetworkEstimator::new(
//!     Network::builder()
//!         .input(8)
//!         .hidden(1, 4, 0.5)
//!         .classes(2)
//!         .backend(BackendKind::Naive)
//!         .seed(1),
//!     TrainingParams {
//!         unsupervised_epochs: 1,
//!         supervised_epochs: 2,
//!         batch_size: 16,
//!         ..Default::default()
//!     },
//! );
//! let (fitted, report) = estimator.fit_report(&x, &labels).unwrap();
//! assert_eq!(report.epochs.len(), 3);
//! assert_eq!(Predictor::n_inputs(&fitted), 8);
//! assert_eq!(Predictor::n_classes(&fitted), 2);
//! let eval = Predictor::evaluate(&fitted, &x, &labels).unwrap();
//! assert!(eval.accuracy > 0.5);
//! ```
//!
//! # Pipelines
//!
//! ```
//! use bcpnn_core::model::Predictor;
//! use bcpnn_core::{Network, Pipeline, TrainingParams};
//! use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
//!
//! let data = generate(&SyntheticHiggsConfig { n_samples: 200, ..Default::default() });
//!
//! // Pipeline::fit is the one-call spelling: encoder + network together.
//! let (pipeline, _report) = Pipeline::fit(
//!     &data,
//!     10,
//!     Network::builder()
//!         .hidden(1, 4, 0.4)
//!         .classes(2)
//!         .backend(bcpnn_backend::BackendKind::Naive),
//!     TrainingParams {
//!         unsupervised_epochs: 1,
//!         supervised_epochs: 1,
//!         batch_size: 50,
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//!
//! // The fitted encoder maps 28 raw features to 280 binary inputs.
//! let encoded = pipeline.encode(&data.features).unwrap();
//! assert_eq!(encoded.cols(), 280);
//! let proba = pipeline.predict_proba(&data.features).unwrap();
//! assert_eq!(proba.shape(), (200, 2));
//! ```

use bcpnn_data::encode::QuantileEncoder;
use bcpnn_data::Dataset;
use bcpnn_tensor::Matrix;

use crate::calibration::{Calibration, CalibrationMethod};
use crate::classifier::BcpnnClassifier;
use crate::error::{CoreError, CoreResult};
use crate::metrics::EvalReport;
use crate::network::{Network, NetworkBuilder};
use crate::params::TrainingParams;
use crate::sgd::SgdClassifier;
use crate::training::{FitReport, Trainer};
use crate::workspace::Workspace;

/// A fitted classification model: probabilities in, decisions out.
///
/// Object safe — the serving subsystem stores models as
/// `Box<dyn Predictor + Send + Sync>` so any fitted artifact can be
/// published and hot-swapped.
pub trait Predictor {
    /// Class probabilities for a batch of rows (`batch x n_classes`, rows
    /// sum to 1).
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>>;

    /// Class probabilities written into a caller-provided buffer, drawing
    /// all intermediate scratch (encoded rows, hidden activations) from
    /// `ws`. A warmed-up `(workspace, out)` pair makes repeated batched
    /// inference allocation-free — the serving workers' steady state.
    ///
    /// The default implementation falls back to the allocating
    /// [`Predictor::predict_proba`], so foreign `Predictor` impls keep
    /// working unchanged; every built-in model overrides it with the true
    /// zero-allocation path, bit-identical to the allocating one. Object
    /// safe: callable through `dyn Predictor`.
    fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        let _ = ws;
        *out = self.predict_proba(x)?;
        Ok(())
    }

    /// Hard class predictions (argmax over [`Predictor::predict_proba`]).
    fn predict(&self, x: &Matrix<f32>) -> CoreResult<Vec<usize>> {
        Ok(bcpnn_tensor::simd::dispatch::row_argmax(
            &self.predict_proba(x)?,
        ))
    }

    /// Number of input columns the predictor expects.
    fn n_inputs(&self) -> usize;

    /// Number of output classes.
    fn n_classes(&self) -> usize;

    /// Evaluate on labeled data (accuracy, AUC, ...).
    fn evaluate(&self, x: &Matrix<f32>, labels: &[usize]) -> CoreResult<EvalReport> {
        if x.rows() != labels.len() {
            return Err(CoreError::DataMismatch(
                "evaluation set size and label count differ".into(),
            ));
        }
        let proba = self.predict_proba(x)?;
        Ok(EvalReport::from_probabilities(&proba, labels))
    }
}

// ---------------------------------------------------------------------------
// Trait retrofits for the existing surface.
// ---------------------------------------------------------------------------

impl Predictor for Network {
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        Network::predict_proba(self, x)
    }

    fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        Network::predict_proba_into(self, x, ws, out)
    }

    fn n_inputs(&self) -> usize {
        self.hidden().params().n_inputs
    }

    fn n_classes(&self) -> usize {
        Network::n_classes(self)
    }
}

impl Predictor for BcpnnClassifier {
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        BcpnnClassifier::predict_proba(self, x)
    }

    fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        _ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        BcpnnClassifier::predict_proba_into(self, x, out)
    }

    fn n_inputs(&self) -> usize {
        BcpnnClassifier::n_inputs(self)
    }

    fn n_classes(&self) -> usize {
        BcpnnClassifier::n_classes(self)
    }
}

impl Predictor for SgdClassifier {
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        SgdClassifier::predict_proba(self, x)
    }

    fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        _ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        SgdClassifier::predict_proba_into(self, x, out)
    }

    fn n_inputs(&self) -> usize {
        SgdClassifier::n_inputs(self)
    }

    fn n_classes(&self) -> usize {
        SgdClassifier::n_classes(self)
    }
}

// ---------------------------------------------------------------------------
// The network estimation procedure.
// ---------------------------------------------------------------------------

/// The network estimation procedure: a [`NetworkBuilder`] topology plus a
/// [`TrainingParams`] schedule. [`NetworkEstimator::fit_report`] builds a
/// fresh [`Network`] and trains it with the two-phase [`Trainer`].
#[derive(Debug, Clone, Default)]
pub struct NetworkEstimator {
    /// The network topology to instantiate per fit.
    pub builder: NetworkBuilder,
    /// The training schedule.
    pub training: TrainingParams,
}

impl NetworkEstimator {
    /// Pair a topology with a training schedule.
    pub fn new(builder: NetworkBuilder, training: TrainingParams) -> Self {
        Self { builder, training }
    }

    /// Build and train a network, returning it with the per-epoch
    /// [`FitReport`] (timings, SGD loss, plasticity swaps).
    pub fn fit_report(
        &self,
        x: &Matrix<f32>,
        labels: &[usize],
    ) -> CoreResult<(Network, FitReport)> {
        let mut network = self.builder.clone().build()?;
        let report = Trainer::new(self.training.clone()).fit(&mut network, x, labels)?;
        Ok((network, report))
    }
}

// ---------------------------------------------------------------------------
// Pipeline: the fitted quantile encoder + a trained network.
// ---------------------------------------------------------------------------

/// A complete inference artifact: the fitted quantile encoder in front of
/// a trained network, so raw feature vectors go in and class probabilities
/// come out in one call.
///
/// Offline experiments encode the whole dataset once and train on the
/// binary code; a serving system cannot ask its clients to do that. The
/// pipeline closes the gap — it is the artifact `bcpnn-serve` publishes,
/// and it persists as a `v5` model directory ([`Pipeline::save`] /
/// [`Pipeline::load`]).
/// `Clone` copies the fitted encoder and the full trainable network state,
/// so a clone learns independently of the original — the seam the
/// online-learning shadow trainer publishes through.
#[derive(Debug, Clone)]
pub struct Pipeline {
    encoder: QuantileEncoder,
    network: Network,
    /// Optional post-hoc probability calibration, applied to every
    /// `predict_proba` row after the readout (see [`crate::calibration`]).
    calibration: Option<Calibration>,
}

impl Pipeline {
    /// Bundle a network with the fitted quantile encoder in front of it.
    /// Fails if the encoder's output width does not match the network's
    /// input width.
    pub fn new(network: Network, encoder: QuantileEncoder) -> CoreResult<Self> {
        let n_inputs = network.hidden().params().n_inputs;
        if encoder.encoded_width() != n_inputs {
            return Err(CoreError::DataMismatch(format!(
                "the encoder produces {} columns but the network expects {n_inputs}",
                encoder.encoded_width()
            )));
        }
        Ok(Self {
            encoder,
            network,
            calibration: None,
        })
    }

    /// Fit the canonical paper pipeline — quantile encoder + network — on a
    /// labeled dataset in one call, returning the fitted pipeline and the
    /// training [`FitReport`]. The builder's input width is set from the
    /// encoder automatically.
    ///
    /// This is the shared entry point the quickstart example and
    /// `bcpnn fit` train through.
    pub fn fit(
        data: &Dataset,
        n_bins: usize,
        builder: NetworkBuilder,
        training: TrainingParams,
    ) -> CoreResult<(Pipeline, FitReport)> {
        if n_bins < 2 {
            return Err(CoreError::InvalidParams(
                "a quantile encoder needs at least two bins".into(),
            ));
        }
        if data.features.rows() == 0 {
            return Err(CoreError::DataMismatch("empty training set".into()));
        }
        let encoder = QuantileEncoder::fit_matrix(&data.features, n_bins);
        let encoded = encoder.transform_rows(&data.features);
        let mut network = builder.input(encoder.encoded_width()).build()?;
        let report = Trainer::new(training).fit(&mut network, &encoded, &data.labels)?;
        Ok((Pipeline::new(network, encoder)?, report))
    }

    /// The trained network behind the encoder.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The fitted post-hoc calibration, if one is attached.
    pub fn calibration(&self) -> Option<&Calibration> {
        self.calibration.as_ref()
    }

    /// Attach (or with `None`, detach) a post-hoc calibration. The map is
    /// validated; an invalid temperature or non-monotone isotonic map is a
    /// typed error, never silently accepted.
    pub fn set_calibration(&mut self, calibration: Option<Calibration>) -> CoreResult<()> {
        if let Some(cal) = &calibration {
            cal.validate()?;
        }
        self.calibration = calibration;
        Ok(())
    }

    /// Fit a post-hoc calibration on a **held-out** split and attach it.
    /// Any previously attached calibration is discarded first, so the fit
    /// always sees the network's raw probabilities. Calibrating on the
    /// training split defeats the purpose — pass rows the network was not
    /// trained on.
    pub fn fit_calibration(
        &mut self,
        x: &Matrix<f32>,
        labels: &[usize],
        method: CalibrationMethod,
    ) -> CoreResult<()> {
        self.calibration = None;
        let proba = Predictor::predict_proba(self, x)?;
        let fitted = match method {
            CalibrationMethod::Temperature => Calibration::fit_temperature(&proba, labels)?,
            CalibrationMethod::Isotonic => Calibration::fit_isotonic(&proba, labels)?,
        };
        self.calibration = Some(fitted);
        Ok(())
    }

    /// The fitted quantile encoder. Always `Some`: every pipeline has one;
    /// the `Option` stays for callers written against the earlier
    /// signature.
    pub fn encoder(&self) -> Option<&QuantileEncoder> {
        Some(&self.encoder)
    }

    /// Width of the raw feature vectors callers must supply.
    pub fn input_width(&self) -> usize {
        self.encoder.n_features()
    }

    /// A typed error unless `x` has [`Pipeline::input_width`] columns; the
    /// encoder itself panics on a wrong width.
    fn check_width(&self, x: &Matrix<f32>, what: &str) -> CoreResult<()> {
        if x.cols() != self.input_width() {
            return Err(CoreError::DataMismatch(format!(
                "pipeline expects {} columns, {what} have {}",
                self.input_width(),
                x.cols()
            )));
        }
        Ok(())
    }

    /// The dense one-hot code of a batch of rows (the encoder without the
    /// network).
    pub fn encode(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        self.check_width(x, "rows")?;
        Ok(self.encoder.transform_rows(x))
    }

    /// Class probabilities written into `out`, drawing every intermediate
    /// (hot columns, hidden activations) from `ws`: the zero-allocation
    /// spelling of [`Predictor::predict_proba`] the serving workers run.
    /// The network reads the hot columns of the one-hot code, never the
    /// dense matrix.
    pub fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.check_width(x, "rows")?;
        self.network
            .predict_raw_into(&self.encoder, self.calibration.as_ref(), x, ws, out)
    }

    /// Fold one labeled batch of *raw* feature rows into the trained
    /// network — [`Network::learn_batch`] behind the fitted encoder.
    ///
    /// The encoder itself stays frozen (it was fitted offline and describes
    /// the input encoding, which must not drift under the served model);
    /// only the network's counters move. Rows are encoded into the
    /// workspace's `encoded` buffer, so a warmed-up online trainer
    /// allocates nothing per fold.
    pub fn learn_batch(
        &mut self,
        x: &Matrix<f32>,
        labels: &[usize],
        ws: &mut Workspace,
    ) -> CoreResult<()> {
        self.check_width(x, "learn rows")?;
        let mut encoded = std::mem::take(&mut ws.encoded);
        self.encoder.transform_rows_into(x, &mut encoded);
        let result = self.network.learn_batch(&encoded, labels, ws);
        ws.encoded = encoded;
        result
    }

    /// Save the artifact as a `v5` model directory (one `model.bcpnn`).
    pub fn save<P: AsRef<std::path::Path>>(&self, dir: P) -> CoreResult<()> {
        crate::serialize::save_pipeline(self, dir)
    }

    /// Load an artifact from a `v5` model directory,
    /// instantiating the network on the given backend (backends are
    /// runtime configuration, not model state).
    pub fn load<P: AsRef<std::path::Path>>(
        dir: P,
        backend: bcpnn_backend::BackendKind,
    ) -> CoreResult<Self> {
        crate::serialize::load_pipeline(dir, backend)
    }
}

impl Predictor for Pipeline {
    /// One vectorized encode → hidden forward → readout pass — the call
    /// the serving micro-batcher amortizes request overhead into.
    /// Allocating convenience over [`Pipeline::predict_proba_into`], the
    /// one authoritative kernel sequence.
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        Pipeline::predict_proba_into(self, x, &mut ws, &mut out)?;
        Ok(out)
    }

    fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        Pipeline::predict_proba_into(self, x, ws, out)
    }

    fn n_inputs(&self) -> usize {
        self.input_width()
    }

    fn n_classes(&self) -> usize {
        self.network.n_classes()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::network::ReadoutKind;
    use bcpnn_backend::BackendKind;
    use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};

    fn higgs(n: usize, seed: u64) -> Dataset {
        generate(&SyntheticHiggsConfig {
            n_samples: n,
            seed,
            ..Default::default()
        })
    }

    fn tiny_builder() -> NetworkBuilder {
        Network::builder()
            .hidden(2, 4, 0.3)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(1)
    }

    fn tiny_training() -> TrainingParams {
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 50,
            ..Default::default()
        }
    }

    pub(crate) fn tiny_pipeline(seed: u64) -> (Pipeline, Dataset) {
        let data = higgs(400, seed);
        let (pipeline, _) =
            Pipeline::fit(&data, 10, tiny_builder().seed(seed), tiny_training()).unwrap();
        (pipeline, data)
    }

    #[test]
    fn pipeline_fit_accepts_raw_features() {
        let (pipeline, data) = tiny_pipeline(1);
        assert_eq!(pipeline.input_width(), 28);
        assert_eq!(Predictor::n_inputs(&pipeline), 28);
        assert_eq!(Predictor::n_classes(&pipeline), 2);
        assert!(pipeline.encoder().is_some());
        let proba = pipeline.predict_proba(&data.features).unwrap();
        assert_eq!(proba.shape(), (data.n_samples(), 2));
        for r in 0..proba.rows() {
            let s: f32 = proba.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
        }
    }

    #[test]
    fn pipeline_matches_manual_encode_then_predict() {
        let (pipeline, data) = tiny_pipeline(2);
        let manual = pipeline
            .network()
            .predict_proba(&pipeline.encoder().unwrap().transform_rows(&data.features))
            .unwrap();
        let auto = pipeline.predict_proba(&data.features).unwrap();
        assert!(manual.max_abs_diff(&auto) < 1e-6);
        // Predictor::predict agrees with argmax of the probabilities.
        let preds = pipeline.predict(&data.features).unwrap();
        assert_eq!(preds, bcpnn_tensor::reduce::row_argmax(&auto));
    }

    #[test]
    fn wrong_width_is_a_typed_error() {
        let (mut pipeline, _) = tiny_pipeline(3);
        let bad = Matrix::zeros(2, 5);
        assert!(matches!(
            pipeline.predict_proba(&bad),
            Err(CoreError::DataMismatch(_))
        ));
        assert!(matches!(
            pipeline.encode(&bad),
            Err(CoreError::DataMismatch(_))
        ));
        assert!(matches!(
            pipeline.learn_batch(&bad, &[0, 1], &mut Workspace::new()),
            Err(CoreError::DataMismatch(_))
        ));
    }

    #[test]
    fn mismatched_stage_chains_are_rejected_at_construction() {
        let (other, _) = tiny_pipeline(4);
        let narrow_net = Network::builder()
            .input(16)
            .hidden(2, 4, 0.5)
            .classes(2)
            .backend(BackendKind::Naive)
            .build()
            .unwrap();
        let enc = other.encoder().unwrap().clone();
        assert!(matches!(
            Pipeline::new(narrow_net, enc),
            Err(CoreError::DataMismatch(_))
        ));
    }

    #[test]
    fn readout_heads_are_predictors_over_hidden_activations() {
        let (pipeline, data) = tiny_pipeline(9);
        let hidden = pipeline
            .network()
            .encode(&pipeline.encode(&data.features).unwrap())
            .unwrap();
        let bcpnn: &dyn Predictor = pipeline.network().bcpnn_readout().unwrap();
        let sgd: &dyn Predictor = pipeline.network().sgd_readout().unwrap();
        assert_eq!(bcpnn.n_inputs(), hidden.cols());
        assert_eq!(sgd.n_inputs(), hidden.cols());
        assert_eq!(bcpnn.n_classes(), 2);
        let pb = bcpnn.predict_proba(&hidden).unwrap();
        let ps = sgd.predict_proba(&hidden).unwrap();
        assert_eq!(pb.shape(), ps.shape());
        // The hybrid network predicts with the SGD head over these
        // activations.
        let net_proba = pipeline
            .network()
            .predict_proba(&pipeline.encode(&data.features).unwrap())
            .unwrap();
        assert!(net_proba.max_abs_diff(&ps) < 1e-6);
        // The default evaluate() provided by the trait works on heads too.
        let report = sgd.evaluate(&hidden, &data.labels).unwrap();
        assert!(report.accuracy >= 0.0 && report.accuracy <= 1.0);
        assert!(sgd.evaluate(&hidden, &[0]).is_err());
    }

    #[test]
    fn estimators_reject_invalid_configurations() {
        let data = higgs(100, 10);
        assert!(matches!(
            Pipeline::fit(&data, 1, tiny_builder(), tiny_training()),
            Err(CoreError::InvalidParams(_))
        ));
        let empty = Dataset::new(Matrix::zeros(0, 28), Vec::new(), None);
        assert!(matches!(
            Pipeline::fit(&empty, 10, tiny_builder(), tiny_training()),
            Err(CoreError::DataMismatch(_))
        ));
        // NetworkEstimator surfaces builder errors.
        let bad_net = NetworkEstimator::new(tiny_builder().classes(1), tiny_training());
        assert!(bad_net.fit_report(&data.features, &data.labels).is_err());
    }

    #[test]
    fn fit_report_exposes_training_stats() {
        let data = higgs(200, 11);
        let (pipeline, report) = Pipeline::fit(&data, 10, tiny_builder(), tiny_training()).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.train_time_seconds() > 0.0);
        assert_eq!(Predictor::n_classes(&pipeline), 2);
    }

    #[test]
    fn pipeline_predict_proba_into_is_bit_identical() {
        let (pipeline, data) = tiny_pipeline(20);
        let mut ws = Workspace::new();
        let mut out = Matrix::filled(1, 1, f32::NAN);
        pipeline
            .predict_proba_into(&data.features, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out, pipeline.predict_proba(&data.features).unwrap());
        let warmed = ws.allocated_elems();
        // A second call with the same shapes keeps the buffers stable.
        pipeline
            .predict_proba_into(&data.features, &mut ws, &mut out)
            .unwrap();
        assert_eq!(ws.allocated_elems(), warmed);

        // Wrong widths stay typed errors and leave the workspace reusable.
        assert!(pipeline
            .predict_proba_into(&Matrix::zeros(2, 3), &mut ws, &mut out)
            .is_err());
        pipeline
            .predict_proba_into(&data.features, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out, pipeline.predict_proba(&data.features).unwrap());
    }

    #[test]
    fn default_predict_proba_into_serves_foreign_predictors() {
        /// A foreign Predictor that only implements the allocating surface.
        struct Constant;
        impl Predictor for Constant {
            fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
                Ok(Matrix::filled(x.rows(), 2, 0.5))
            }
            fn n_inputs(&self) -> usize {
                3
            }
            fn n_classes(&self) -> usize {
                2
            }
        }
        let boxed: Box<dyn Predictor + Send + Sync> = Box::new(Constant);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        boxed
            .predict_proba_into(&Matrix::zeros(4, 3), &mut ws, &mut out)
            .unwrap();
        assert_eq!(out, Matrix::filled(4, 2, 0.5));
    }

    #[test]
    fn predictors_are_object_safe_and_shareable() {
        let (pipeline, data) = tiny_pipeline(12);
        let direct = pipeline.predict_proba(&data.features).unwrap();
        let boxed: Box<dyn Predictor + Send + Sync> = Box::new(pipeline);
        let via_box = boxed.predict_proba(&data.features).unwrap();
        assert!(direct.max_abs_diff(&via_box) < 1e-7);
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pipeline>();
        assert_send_sync::<Box<dyn Predictor + Send + Sync>>();
    }

    #[test]
    fn stage_kinds_are_stable() {
        // The persisted artifact kind is the format's stable part: a
        // pipeline is one `model.bcpnn` whose header names kind 1 and whose
        // first frame is the encoder, its one stage.
        let (pipeline, _) = tiny_pipeline(13);
        let dir = std::env::temp_dir()
            .join("bcpnn_model_tests")
            .join(format!("stage_kinds_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        pipeline.save(&dir).unwrap();
        let bytes = std::fs::read(dir.join("model.bcpnn")).unwrap();
        assert_eq!(&bytes[8..16], b"bcpnnMDL");
        assert_eq!(bytes[16..20], 5u32.to_le_bytes());
        assert_eq!(bytes[20], 1, "kind tag of a pipeline");
        let (_, mut frames) =
            crate::serialize::read_model_file(&dir, crate::serialize::ArtifactKind::Pipeline)
                .unwrap();
        let boundaries: Matrix<f64> = frames.read_matrix().unwrap();
        assert_eq!(boundaries, pipeline.encoder().unwrap().boundaries());
        std::fs::remove_dir_all(&dir).ok();
    }
}
