//! The unified estimator/transformer model API: one `fit → predict`
//! surface from core training to serving.
//!
//! Every layer of the reproduction talks to models through three small
//! traits, in the scikit-learn tradition of separating the *estimation
//! procedure* from the *fitted model*:
//!
//! * [`Transformer`] — a fittable feature map (`fit` / `transform` /
//!   `fit_transform`). The `bcpnn-data` encoders ([`QuantileEncoder`],
//!   [`ThermometerEncoder`], [`Standardizer`]) all implement it.
//! * [`Estimator`] — a configuration that consumes training data and
//!   yields a fitted [`Predictor`]. [`NetworkEstimator`] (builder +
//!   training schedule → [`Network`]) and [`PipelineEstimator`] (encoder
//!   parameters + network estimator → [`Pipeline`]) implement it.
//! * [`Predictor`] — a fitted model: `predict_proba` / `predict` /
//!   `n_inputs` / `n_classes` (plus a default `evaluate`). Implemented by
//!   [`Network`], by the readout heads ([`BcpnnClassifier`],
//!   [`SgdClassifier`] over hidden activations), and by [`Pipeline`].
//!
//! [`Pipeline`] is the deployable artifact: a chain of fitted transformer
//! [`Stage`]s in front of a trained network, so raw feature vectors go in
//! and class probabilities come out. It persists as a self-describing
//! stage-tagged `v4` model directory;
//! `bcpnn-serve` serves any `Predictor` — a loaded `Pipeline` being the
//! common case.
//!
//! # Fitting an estimator
//!
//! ```
//! use bcpnn_backend::BackendKind;
//! use bcpnn_core::model::{Estimator, NetworkEstimator, Predictor};
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
//! let fitted = estimator.fit(&x, &labels).unwrap();
//! assert_eq!(fitted.n_inputs(), 8);
//! assert_eq!(fitted.n_classes(), 2);
//! let report = fitted.evaluate(&x, &labels).unwrap();
//! assert!(report.accuracy > 0.5);
//! ```
//!
//! # Transformers and pipelines
//!
//! ```
//! use bcpnn_core::model::{Predictor, Transformer};
//! use bcpnn_core::{Network, Pipeline, TrainingParams};
//! use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
//! use bcpnn_data::QuantileEncoder;
//!
//! let data = generate(&SyntheticHiggsConfig { n_samples: 200, ..Default::default() });
//!
//! // A fitted transformer maps 28 raw features to 280 binary inputs.
//! // (`Transformer::transform` works on bare matrices; the inherent
//! // `transform` keeps its dataset-level spelling.)
//! let mut encoder = QuantileEncoder::fit_matrix(&data.features, 10);
//! let encoded = Transformer::transform(&encoder, &data.features).unwrap();
//! assert_eq!(encoded.cols(), encoder.output_width());
//! encoder.fit(&data.features).unwrap(); // transformers re-fit in place
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
//! let proba = pipeline.predict_proba(&data.features).unwrap();
//! assert_eq!(proba.shape(), (200, 2));
//! ```

use bcpnn_data::encode::{QuantileEncoder, Standardizer, ThermometerEncoder};
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

/// A fittable feature map: `fit` learns parameters from training rows,
/// `transform` applies them to any rows with the same schema.
pub trait Transformer {
    /// Re-fit the transformer's parameters on training rows (keeping its
    /// structural configuration, e.g. an encoder's bin count).
    fn fit(&mut self, x: &Matrix<f32>) -> CoreResult<()>;

    /// Apply the fitted map to a batch of rows.
    fn transform(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>>;

    /// Apply the fitted map into a caller-provided buffer (resized to
    /// `rows x output_width`, every element overwritten).
    ///
    /// The default implementation falls back to the allocating
    /// [`Transformer::transform`], so foreign transformers keep working;
    /// the built-in encoders override it with true in-place encoding, which
    /// is what keeps the serving data plane allocation-free.
    fn transform_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) -> CoreResult<()> {
        *out = self.transform(x)?;
        Ok(())
    }

    /// Fit on `x`, then transform it.
    fn fit_transform(&mut self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        self.fit(x)?;
        self.transform(x)
    }

    /// Number of input columns the fitted transformer expects.
    fn input_width(&self) -> usize;

    /// Number of output columns the fitted transformer produces.
    fn output_width(&self) -> usize;
}

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
    /// all intermediate scratch (stage encodings, hidden activations) from
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

/// An estimation procedure: configuration that consumes `(x, labels)` and
/// yields a fitted [`Predictor`].
pub trait Estimator {
    /// The fitted model this estimator produces.
    type Fitted: Predictor;

    /// Fit on labeled training data.
    fn fit(&self, x: &Matrix<f32>, labels: &[usize]) -> CoreResult<Self::Fitted>;
}

// ---------------------------------------------------------------------------
// Trait retrofits for the existing surface.
// ---------------------------------------------------------------------------

/// Both quantile-binner-backed encoders carry the same `fit_matrix` /
/// `transform_rows` / `n_features` / `n_bins` surface; one macro keeps
/// their trait retrofits from diverging.
macro_rules! impl_transformer_for_binned_encoder {
    ($encoder:ty) => {
        impl Transformer for $encoder {
            fn fit(&mut self, x: &Matrix<f32>) -> CoreResult<()> {
                if x.rows() == 0 {
                    return Err(CoreError::DataMismatch(
                        "cannot fit an encoder on an empty matrix".into(),
                    ));
                }
                *self = <$encoder>::fit_matrix(x, self.n_bins());
                Ok(())
            }

            fn transform(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
                if x.cols() != self.n_features() {
                    return Err(CoreError::DataMismatch(format!(
                        "encoder was fitted on {} features, matrix has {}",
                        self.n_features(),
                        x.cols()
                    )));
                }
                Ok(self.transform_rows(x))
            }

            fn transform_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) -> CoreResult<()> {
                if x.cols() != self.n_features() {
                    return Err(CoreError::DataMismatch(format!(
                        "encoder was fitted on {} features, matrix has {}",
                        self.n_features(),
                        x.cols()
                    )));
                }
                self.transform_rows_into(x, out);
                Ok(())
            }

            fn input_width(&self) -> usize {
                self.n_features()
            }

            fn output_width(&self) -> usize {
                self.encoded_width()
            }
        }
    };
}

impl_transformer_for_binned_encoder!(QuantileEncoder);
impl_transformer_for_binned_encoder!(ThermometerEncoder);

impl Transformer for Standardizer {
    fn fit(&mut self, x: &Matrix<f32>) -> CoreResult<()> {
        if x.rows() == 0 {
            return Err(CoreError::DataMismatch(
                "cannot fit a standardizer on an empty matrix".into(),
            ));
        }
        *self = Standardizer::fit_matrix(x);
        Ok(())
    }

    fn transform(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        if x.cols() != self.n_features() {
            return Err(CoreError::DataMismatch(format!(
                "standardizer was fitted on {} features, matrix has {}",
                self.n_features(),
                x.cols()
            )));
        }
        Ok(self.transform_rows(x))
    }

    fn transform_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) -> CoreResult<()> {
        if x.cols() != self.n_features() {
            return Err(CoreError::DataMismatch(format!(
                "standardizer was fitted on {} features, matrix has {}",
                self.n_features(),
                x.cols()
            )));
        }
        self.transform_rows_into(x, out);
        Ok(())
    }

    fn input_width(&self) -> usize {
        self.n_features()
    }

    fn output_width(&self) -> usize {
        self.n_features()
    }
}

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
// Estimators.
// ---------------------------------------------------------------------------

/// The network estimation procedure: a [`NetworkBuilder`] topology plus a
/// [`TrainingParams`] schedule. `fit` builds a fresh [`Network`] and trains
/// it with the two-phase [`Trainer`].
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

    /// Fit, also returning the per-epoch [`FitReport`] (timings, SGD loss,
    /// plasticity swaps) that [`Estimator::fit`] discards.
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

impl Estimator for NetworkEstimator {
    type Fitted = Network;

    fn fit(&self, x: &Matrix<f32>, labels: &[usize]) -> CoreResult<Network> {
        Ok(self.fit_report(x, labels)?.0)
    }
}

/// The end-to-end estimation procedure behind [`Pipeline::fit`]: fit a
/// quantile encoder on the raw features, then train a network on the
/// encoded code. Because the encoder configuration (`n_bins`) is part of
/// the estimator, hyperparameter search over encoder parameters plugs into
/// the same [`Estimator`] surface as network parameters.
#[derive(Debug, Clone)]
pub struct PipelineEstimator {
    /// Quantile bins per feature for the input encoder (the paper uses 10).
    pub n_bins: usize,
    /// The downstream network estimation procedure. Its builder's input
    /// width is overridden with the encoder's output width at fit time.
    pub network: NetworkEstimator,
}

impl Default for PipelineEstimator {
    fn default() -> Self {
        Self {
            n_bins: 10,
            network: NetworkEstimator::default(),
        }
    }
}

impl PipelineEstimator {
    /// Pair an encoder bin count with a network estimation procedure.
    pub fn new(n_bins: usize, network: NetworkEstimator) -> Self {
        Self { n_bins, network }
    }

    /// Fit, also returning the network's [`FitReport`].
    pub fn fit_report(
        &self,
        x: &Matrix<f32>,
        labels: &[usize],
    ) -> CoreResult<(Pipeline, FitReport)> {
        if self.n_bins < 2 {
            return Err(CoreError::InvalidParams(
                "a quantile encoder needs at least two bins".into(),
            ));
        }
        if x.rows() == 0 {
            return Err(CoreError::DataMismatch("empty training set".into()));
        }
        let encoder = QuantileEncoder::fit_matrix(x, self.n_bins);
        let encoded = encoder.transform_rows(x);
        let network = NetworkEstimator::new(
            self.network.builder.clone().input(encoder.encoded_width()),
            self.network.training.clone(),
        );
        let (network, report) = network.fit_report(&encoded, labels)?;
        Ok((Pipeline::new(network, Some(encoder))?, report))
    }
}

impl Estimator for PipelineEstimator {
    type Fitted = Pipeline;

    fn fit(&self, x: &Matrix<f32>, labels: &[usize]) -> CoreResult<Pipeline> {
        Ok(self.fit_report(x, labels)?.0)
    }
}

// ---------------------------------------------------------------------------
// Pipeline: a chain of fitted transformer stages + a trained network.
// ---------------------------------------------------------------------------

/// A persistable transformer stage of a [`Pipeline`].
///
/// The closed set of stage kinds is what makes the `v4` model-directory
/// format self-describing: each stage serializes under a stable tag
/// ([`Stage::kind`]) so a loader can reconstruct the exact chain — and an
/// unknown tag is a typed [`CoreError::Format`], never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// One-hot quantile encoding (the paper's preprocessing).
    Quantile(QuantileEncoder),
    /// Cumulative (thermometer) quantile encoding.
    Thermometer(ThermometerEncoder),
    /// Zero-mean / unit-variance standardization.
    Standardize(Standardizer),
}

impl Stage {
    /// The stable persistence tag of this stage kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Stage::Quantile(_) => "quantile",
            Stage::Thermometer(_) => "thermometer",
            Stage::Standardize(_) => "standardize",
        }
    }

    fn as_transformer(&self) -> &dyn Transformer {
        match self {
            Stage::Quantile(t) => t,
            Stage::Thermometer(t) => t,
            Stage::Standardize(t) => t,
        }
    }
}

impl Transformer for Stage {
    fn fit(&mut self, x: &Matrix<f32>) -> CoreResult<()> {
        match self {
            Stage::Quantile(t) => t.fit(x),
            Stage::Thermometer(t) => t.fit(x),
            Stage::Standardize(t) => t.fit(x),
        }
    }

    fn transform(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        self.as_transformer().transform(x)
    }

    fn transform_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) -> CoreResult<()> {
        self.as_transformer().transform_into(x, out)
    }

    fn input_width(&self) -> usize {
        self.as_transformer().input_width()
    }

    fn output_width(&self) -> usize {
        self.as_transformer().output_width()
    }
}

/// Validate that a stage chain's widths connect — each stage's output
/// width feeds the next stage's input width — and that the chain ends at
/// `n_inputs`. Shared by [`Pipeline::from_stages`] and the serializer.
pub(crate) fn validate_chain(stages: &[Stage], n_inputs: usize) -> CoreResult<()> {
    let mut width = stages.first().map_or(n_inputs, Transformer::input_width);
    for (i, stage) in stages.iter().enumerate() {
        if stage.input_width() != width {
            return Err(CoreError::DataMismatch(format!(
                "stage {i} ({}) expects {} columns but receives {width}",
                stage.kind(),
                stage.input_width()
            )));
        }
        width = stage.output_width();
    }
    if width != n_inputs {
        return Err(CoreError::DataMismatch(format!(
            "pipeline stages produce {width} columns but the network expects {n_inputs}"
        )));
    }
    Ok(())
}

/// Run `stages` over `x`, ping-ponging through two buffers: the first stage
/// fills `src`, every later stage reads `src` and writes `dst`, then the two
/// swap, so the freshest encoding always ends up in `src` and a one-stage
/// chain touches only `src`. An empty chain returns `x` itself, with no
/// copy.
fn run_chain<'a>(
    stages: &[Stage],
    x: &'a Matrix<f32>,
    src: &'a mut Matrix<f32>,
    dst: &mut Matrix<f32>,
) -> CoreResult<&'a Matrix<f32>> {
    let Some((first, rest)) = stages.split_first() else {
        return Ok(x);
    };
    first.transform_into(x, src)?;
    for stage in rest {
        stage.transform_into(src, dst)?;
        std::mem::swap(src, dst);
    }
    Ok(src)
}

/// A complete inference artifact: a chain of fitted transformer stages in
/// front of a trained network, so raw feature vectors go in and class
/// probabilities come out in one call.
///
/// Offline experiments encode the whole dataset once and train on the
/// binary code; a serving system cannot ask its clients to do that. The
/// pipeline closes the gap — it is the artifact `bcpnn-serve` publishes,
/// and it persists as a stage-tagged `v4` model directory
/// ([`Pipeline::save`] / [`Pipeline::load`]).
/// `Clone` copies the fitted stages and the full trainable network state,
/// so a clone learns independently of the original — the seam the
/// online-learning shadow trainer publishes through.
#[derive(Debug, Clone)]
pub struct Pipeline {
    stages: Vec<Stage>,
    network: Network,
    /// Optional post-hoc probability calibration, applied to every
    /// `predict_proba` row after the readout (see [`crate::calibration`]).
    calibration: Option<Calibration>,
}

impl Pipeline {
    /// Bundle a network with an optional fitted quantile encoder (the
    /// common chain). Fails if the encoder's output width does not match
    /// the network's input width.
    pub fn new(network: Network, encoder: Option<QuantileEncoder>) -> CoreResult<Self> {
        let stages = encoder.map(Stage::Quantile).into_iter().collect();
        Self::from_stages(stages, network)
    }

    /// Bundle a network with an arbitrary chain of fitted stages. Fails
    /// unless the stage widths chain: each stage's output width must equal
    /// the next stage's input width, and the final output width must equal
    /// the network's input width.
    pub fn from_stages(stages: Vec<Stage>, network: Network) -> CoreResult<Self> {
        validate_chain(&stages, network.hidden().params().n_inputs)?;
        Ok(Self {
            stages,
            network,
            calibration: None,
        })
    }

    /// Fit the canonical paper pipeline — quantile encoder + network — on a
    /// labeled dataset in one call, returning the fitted pipeline and the
    /// training [`FitReport`]. The builder's input width is set from the
    /// encoder automatically.
    ///
    /// This is the shared entry point the quickstart example and the
    /// serving demo train through; parameterize it differently via
    /// [`PipelineEstimator`].
    pub fn fit(
        data: &Dataset,
        n_bins: usize,
        builder: NetworkBuilder,
        training: TrainingParams,
    ) -> CoreResult<(Pipeline, FitReport)> {
        PipelineEstimator::new(n_bins, NetworkEstimator::new(builder, training))
            .fit_report(&data.features, &data.labels)
    }

    /// The transformer stages, in application order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The trained network behind the stages.
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

    /// The fitted quantile encoder, when the chain is the canonical
    /// single-encoder one (used by receptive-field introspection).
    pub fn encoder(&self) -> Option<&QuantileEncoder> {
        match self.stages.as_slice() {
            [Stage::Quantile(enc)] => Some(enc),
            _ => None,
        }
    }

    /// Width of the feature vectors callers must supply: the first stage's
    /// input width, or the network's input width for a stage-less pipeline.
    pub fn input_width(&self) -> usize {
        self.stages
            .first()
            .map_or(self.network.hidden().params().n_inputs, |s| s.input_width())
    }

    /// Run the stage chain (without the network) on a batch of rows.
    pub fn encode(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut current = None;
        for stage in &self.stages {
            let out = stage.transform(current.as_ref().unwrap_or(x))?;
            current = Some(out);
        }
        Ok(current.unwrap_or_else(|| x.clone()))
    }

    /// Class probabilities written into `out`, drawing every intermediate
    /// (stage encodings, hidden activations) from `ws`: the zero-allocation
    /// spelling of [`Predictor::predict_proba`] the serving workers run.
    /// Bit-identical to the allocating path.
    pub fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        if x.cols() != self.input_width() {
            return Err(CoreError::DataMismatch(format!(
                "pipeline expects {} columns, rows have {}",
                self.input_width(),
                x.cols()
            )));
        }
        let mut src = std::mem::take(&mut ws.encode_a);
        let mut dst = std::mem::take(&mut ws.encode_b);
        let mut hot = std::mem::take(&mut ws.hot);
        // A chain that ends in the quantile encoder hands the network the
        // hot columns of its one-hot code; any other ends in a dense matrix.
        let result = match self.stages.split_last() {
            Some((Stage::Quantile(encoder), earlier)) => run_chain(earlier, x, &mut src, &mut dst)
                .and_then(|encoded| {
                    encoder.transform_rows_hot_into(encoded, &mut hot);
                    self.network.predict_proba_hot_into(&hot, x.rows(), ws, out)
                }),
            _ => run_chain(&self.stages, x, &mut src, &mut dst)
                .and_then(|encoded| self.network.predict_proba_into(encoded, ws, out)),
        };
        ws.encode_a = src;
        ws.encode_b = dst;
        ws.hot = hot;
        result?;
        if let Some(cal) = &self.calibration {
            cal.apply_rows(out);
        }
        Ok(())
    }

    /// Fold one labeled batch of *raw* feature rows into the trained
    /// network — [`Network::learn_batch`] behind the fitted stage chain.
    ///
    /// The stages themselves stay frozen (they were fitted offline and
    /// describe the input encoding, which must not drift under the served
    /// model); only the network's counters move. Rows are encoded through
    /// the same workspace ping-pong as [`Pipeline::predict_proba_into`],
    /// so a warmed-up online trainer allocates nothing per fold.
    pub fn learn_batch(
        &mut self,
        x: &Matrix<f32>,
        labels: &[usize],
        ws: &mut Workspace,
    ) -> CoreResult<()> {
        if x.cols() != self.input_width() {
            return Err(CoreError::DataMismatch(format!(
                "pipeline expects {} columns, learn rows have {}",
                self.input_width(),
                x.cols()
            )));
        }
        let mut src = std::mem::take(&mut ws.encode_a);
        let mut dst = std::mem::take(&mut ws.encode_b);
        let result = run_chain(&self.stages, x, &mut src, &mut dst)
            .and_then(|encoded| self.network.learn_batch(encoded, labels, ws));
        ws.encode_a = src;
        ws.encode_b = dst;
        result
    }

    /// Save the artifact as a stage-tagged (`v4`) model directory.
    pub fn save<P: AsRef<std::path::Path>>(&self, dir: P) -> CoreResult<()> {
        crate::serialize::save_pipeline(self, dir)
    }

    /// Load an artifact from a (`v4`) model directory,
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
    fn stageless_pipeline_feeds_rows_straight_through() {
        let net = tiny_builder().input(20).build().unwrap();
        let pipeline = Pipeline::from_stages(Vec::new(), net).unwrap();
        assert_eq!(pipeline.input_width(), 20);
        assert!(pipeline.encoder().is_none());
        let x = Matrix::from_fn(5, 20, |r, c| f32::from((r + c) % 3 == 0));
        let via_pipeline = pipeline.predict_proba(&x).unwrap();
        let via_network = pipeline.network().predict_proba(&x).unwrap();
        assert_eq!(via_pipeline, via_network);
        // encode() on a stage-less pipeline is the identity.
        assert_eq!(pipeline.encode(&x).unwrap(), x);
    }

    #[test]
    fn wrong_width_is_a_typed_error() {
        let (pipeline, _) = tiny_pipeline(3);
        let bad = Matrix::zeros(2, 5);
        assert!(matches!(
            pipeline.predict_proba(&bad),
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
        assert!(Pipeline::new(narrow_net, Some(enc)).is_err());
    }

    #[test]
    fn multi_stage_chain_standardize_then_quantile() {
        let data = higgs(300, 5);
        let standardizer = Standardizer::fit_matrix(&data.features);
        let z = standardizer.transform_rows(&data.features);
        let encoder = QuantileEncoder::fit_matrix(&z, 10);
        let encoded = encoder.transform_rows(&z);
        let estimator = NetworkEstimator::new(
            tiny_builder().input(encoder.encoded_width()),
            tiny_training(),
        );
        let network = estimator.fit(&encoded, &data.labels).unwrap();
        let pipeline = Pipeline::from_stages(
            vec![
                Stage::Standardize(standardizer),
                Stage::Quantile(encoder.clone()),
            ],
            network,
        )
        .unwrap();
        assert_eq!(pipeline.stages().len(), 2);
        assert_eq!(pipeline.input_width(), 28);
        assert!(pipeline.encoder().is_none(), "not the canonical chain");
        let via_pipeline = pipeline.predict_proba(&data.features).unwrap();
        let via_manual = pipeline.network().predict_proba(&encoded).unwrap();
        assert!(via_pipeline.max_abs_diff(&via_manual) < 1e-6);
        // An out-of-order chain fails construction: quantile output (280
        // binary columns) does not chain into a 28-wide standardizer.
        let (p2, _) = tiny_pipeline(6);
        let stages = vec![
            Stage::Quantile(encoder),
            Stage::Standardize(Standardizer::fit_matrix(&data.features)),
        ];
        assert!(matches!(
            Pipeline::from_stages(stages, /* any net */ p2.network),
            Err(CoreError::DataMismatch(_))
        ));
    }

    #[test]
    fn transformer_trait_fit_transform_roundtrip() {
        let data = higgs(200, 7);
        let mut enc = QuantileEncoder::fit_matrix(&data.features, 10);
        let fresh = higgs(150, 8);
        let refit = enc.fit_transform(&fresh.features).unwrap();
        assert_eq!(
            refit,
            QuantileEncoder::fit_matrix(&fresh.features, 10).transform_rows(&fresh.features)
        );
        assert_eq!(enc.input_width(), 28);
        assert_eq!(enc.output_width(), 280);
        // Schema mismatches are typed errors.
        assert!(Transformer::transform(&enc, &Matrix::zeros(2, 3)).is_err());
        let mut therm = ThermometerEncoder::fit_matrix(&data.features, 8);
        assert_eq!(therm.output_width(), 28 * 8);
        assert!(therm.fit(&Matrix::<f32>::zeros(0, 28)).is_err());
        let mut std = Standardizer::fit_matrix(&data.features);
        assert_eq!(std.input_width(), std.output_width());
        assert!(std.fit(&fresh.features).is_ok());
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
        let bad_bins =
            PipelineEstimator::new(1, NetworkEstimator::new(tiny_builder(), tiny_training()));
        assert!(matches!(
            bad_bins.fit(&data.features, &data.labels),
            Err(CoreError::InvalidParams(_))
        ));
        let est =
            PipelineEstimator::new(10, NetworkEstimator::new(tiny_builder(), tiny_training()));
        assert!(est.fit(&Matrix::zeros(0, 28), &[]).is_err());
        // NetworkEstimator surfaces builder errors.
        let bad_net = NetworkEstimator::new(tiny_builder().classes(1), tiny_training());
        assert!(bad_net.fit(&data.features, &data.labels).is_err());
    }

    #[test]
    fn fit_report_exposes_training_stats() {
        let data = higgs(200, 11);
        let est =
            PipelineEstimator::new(10, NetworkEstimator::new(tiny_builder(), tiny_training()));
        let (pipeline, report) = est.fit_report(&data.features, &data.labels).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert!(report.train_time_seconds() > 0.0);
        assert_eq!(Predictor::n_classes(&pipeline), 2);
    }

    #[test]
    fn pipeline_predict_proba_into_is_bit_identical_including_multi_stage() {
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

        // Multi-stage chain: standardize → quantile ping-pongs through both
        // encode buffers and still matches the allocating path exactly.
        let standardizer = Standardizer::fit_matrix(&data.features);
        let z = standardizer.transform_rows(&data.features);
        let encoder = QuantileEncoder::fit_matrix(&z, 10);
        let encoded = encoder.transform_rows(&z);
        let network = NetworkEstimator::new(
            tiny_builder().input(encoder.encoded_width()),
            tiny_training(),
        )
        .fit(&encoded, &data.labels)
        .unwrap();
        let chained = Pipeline::from_stages(
            vec![Stage::Standardize(standardizer), Stage::Quantile(encoder)],
            network,
        )
        .unwrap();
        chained
            .predict_proba_into(&data.features, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out, chained.predict_proba(&data.features).unwrap());

        // Wrong widths stay typed errors and leave the workspace reusable.
        assert!(chained
            .predict_proba_into(&Matrix::zeros(2, 3), &mut ws, &mut out)
            .is_err());
        chained
            .predict_proba_into(&data.features, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out, chained.predict_proba(&data.features).unwrap());
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
    fn transform_into_matches_transform_for_every_stage_kind() {
        let data = higgs(120, 21);
        let stages = vec![
            Stage::Quantile(QuantileEncoder::fit_matrix(&data.features, 8)),
            Stage::Thermometer(ThermometerEncoder::fit_matrix(&data.features, 8)),
            Stage::Standardize(Standardizer::fit_matrix(&data.features)),
        ];
        let mut out = Matrix::filled(2, 2, f32::NAN);
        for stage in &stages {
            stage.transform_into(&data.features, &mut out).unwrap();
            assert_eq!(out, stage.transform(&data.features).unwrap());
            // Schema mismatches are typed errors through _into too.
            assert!(stage
                .transform_into(&Matrix::zeros(2, 3), &mut out)
                .is_err());
        }
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
        let data = higgs(50, 13);
        assert_eq!(
            Stage::Quantile(QuantileEncoder::fit_matrix(&data.features, 4)).kind(),
            "quantile"
        );
        assert_eq!(
            Stage::Thermometer(ThermometerEncoder::fit_matrix(&data.features, 4)).kind(),
            "thermometer"
        );
        assert_eq!(
            Stage::Standardize(Standardizer::fit_matrix(&data.features)).kind(),
            "standardize"
        );
    }
}
