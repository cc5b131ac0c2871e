//! # bcpnn-bench
//!
//! Experiment harness reproducing the claims of
//! *"Higgs Boson Classification: Brain-inspired BCPNN Learning with
//! StreamBrain"* (CLUSTER 2021).
//!
//! [`experiments`] holds one function per experiment of the paper and the
//! claims table they fill; the flag-less `reproduce` binary runs them all
//! and prints `EXPERIMENTS.md` (`cargo run --release -p bcpnn-bench --bin
//! reproduce > EXPERIMENTS.md`), and `tests/experiment_shapes.rs` asserts
//! the same claims on miniature set-ups. Criterion micro-benchmarks of the
//! kernels live in `benches/`; `bench_compare` gates them in CI.
//!
//! [`search`] is the hyperparameter search of the `search` experiment (the
//! stand-in for the paper's Ax + Nevergrad), and [`ascii`] and [`insitu`]
//! render and record the receptive fields (the stand-in for its ParaView
//! Catalyst adaptor).
//!
//! This library root holds the pieces the experiments share: Higgs data
//! preparation (synthetic generator → balanced subset → quantile one-hot
//! encoding), a single-run driver and repetition/aggregation (the paper
//! averages 10 repetitions per configuration).

#![warn(missing_docs)]

use bcpnn_backend::BackendKind;
use bcpnn_core::model::NetworkEstimator;
use bcpnn_core::{EvalReport, HiddenLayerParams, Network, ReadoutKind, Trainer, TrainingParams};
use bcpnn_data::encode::QuantileEncoder;
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::split::{balanced_subset, stratified_split};
use bcpnn_data::Dataset;
use bcpnn_tensor::Matrix;

pub mod ascii;
pub mod benchjson;
pub mod experiments;
pub mod insitu;
pub mod search;
pub mod table;

/// Seed mask applied to derive the shuffling seed from the run seed, so the
/// weight-initialisation and shuffling streams are decorrelated.
const TRAIN_SEED_MASK: u64 = 0x7421_9abc_55aa_0134;

/// Encoded Higgs experiment data shared by all runs of one experiment.
#[derive(Debug, Clone)]
pub struct HiggsExperimentData {
    /// Encoded (binary one-hot) training inputs.
    pub x_train: Matrix<f32>,
    /// Training labels.
    pub y_train: Vec<usize>,
    /// Encoded test inputs.
    pub x_test: Matrix<f32>,
    /// Test labels.
    pub y_test: Vec<usize>,
    /// Raw (unencoded) training subset, for baselines on continuous features.
    pub raw_train: Dataset,
    /// Raw test subset.
    pub raw_test: Dataset,
    /// The fitted encoder (for mask/feature introspection).
    pub encoder: QuantileEncoder,
}

impl HiggsExperimentData {
    /// Width of the encoded input (e.g. 280 = 28 features × 10 bins).
    pub fn encoded_width(&self) -> usize {
        self.x_train.cols()
    }
}

/// Configuration of the Higgs data preparation.
#[derive(Debug, Clone, PartialEq)]
pub struct HiggsDataConfig {
    /// Balanced training samples **per class**.
    pub train_per_class: usize,
    /// Balanced test samples **per class**.
    pub test_per_class: usize,
    /// Quantile bins per feature (the paper uses 10).
    pub n_bins: usize,
    /// Class separation of the synthetic generator.
    pub separation: f64,
    /// RNG seed for generation, splitting and subsetting.
    pub seed: u64,
}

impl Default for HiggsDataConfig {
    fn default() -> Self {
        Self {
            train_per_class: 4000,
            test_per_class: 2000,
            n_bins: 10,
            separation: 0.45,
            seed: 2021,
        }
    }
}

/// Generate, split, balance and encode the Higgs data exactly as §V of the
/// paper describes (balanced subset → per-feature 10-quantiles → one-hot).
pub fn prepare_higgs(config: &HiggsDataConfig) -> HiggsExperimentData {
    // Generate a pool large enough to carve balanced subsets out of.
    let pool_size = (config.train_per_class + config.test_per_class) * 5;
    let full = generate(&SyntheticHiggsConfig {
        n_samples: pool_size.max(1000),
        separation: config.separation,
        seed: config.seed,
        ..Default::default()
    });
    let (train_pool, test_pool) = stratified_split(&full, 0.35, config.seed ^ 0x51);
    let raw_train = balanced_subset(&train_pool, config.train_per_class, config.seed ^ 0x52);
    let raw_test = balanced_subset(&test_pool, config.test_per_class, config.seed ^ 0x53);
    let encoder = QuantileEncoder::fit(&raw_train, config.n_bins);
    let x_train = encoder.transform(&raw_train);
    let x_test = encoder.transform(&raw_test);
    HiggsExperimentData {
        y_train: raw_train.labels.clone(),
        y_test: raw_test.labels.clone(),
        x_train,
        x_test,
        raw_train,
        raw_test,
        encoder,
    }
}

/// Configuration of one BCPNN run (the knobs the paper's figures sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct BcpnnRunConfig {
    /// Number of hypercolumns.
    pub n_hcu: usize,
    /// Minicolumns per hypercolumn.
    pub n_mcu: usize,
    /// Receptive-field density in (0, 1].
    pub receptive_field: f64,
    /// Unsupervised epochs.
    pub unsupervised_epochs: usize,
    /// Supervised epochs.
    pub supervised_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Probability-trace EMA rate.
    pub trace_rate: f32,
    /// Support noise during unsupervised training.
    pub support_noise: f32,
    /// Which classification head(s) to train.
    pub readout: ReadoutKind,
    /// Compute backend.
    pub backend: BackendKind,
}

impl Default for BcpnnRunConfig {
    fn default() -> Self {
        Self {
            n_hcu: 1,
            n_mcu: 300,
            receptive_field: 0.30,
            unsupervised_epochs: 3,
            supervised_epochs: 8,
            batch_size: 128,
            trace_rate: 0.05,
            support_noise: 0.1,
            readout: ReadoutKind::Hybrid,
            backend: BackendKind::Parallel,
        }
    }
}

/// Result of one training run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Evaluation of the network's primary head (SGD head for hybrid runs).
    pub primary: EvalReport,
    /// Evaluation of the pure-BCPNN associative head, when present.
    pub bcpnn: Option<EvalReport>,
    /// Wall-clock training time in seconds (unsupervised + supervised).
    pub train_time_s: f64,
}

/// The training schedule for a run configuration (shuffling seed derived
/// from the run seed via [`TRAIN_SEED_MASK`]).
fn training_params(config: &BcpnnRunConfig, seed: u64) -> TrainingParams {
    TrainingParams {
        unsupervised_epochs: config.unsupervised_epochs,
        supervised_epochs: config.supervised_epochs,
        batch_size: config.batch_size,
        seed: seed ^ TRAIN_SEED_MASK,
        shuffle: true,
    }
}

/// The [`NetworkEstimator`] (topology + training schedule) for a run
/// configuration: the single spelling every experiment trains through.
pub fn build_estimator(config: &BcpnnRunConfig, input_width: usize, seed: u64) -> NetworkEstimator {
    let hidden = HiddenLayerParams {
        n_inputs: input_width,
        n_hcu: config.n_hcu,
        n_mcu: config.n_mcu,
        receptive_field: config.receptive_field,
        trace_rate: config.trace_rate,
        support_noise: config.support_noise,
        ..Default::default()
    };
    NetworkEstimator::new(
        Network::builder()
            .hidden_params(hidden)
            .classes(2)
            .readout(config.readout)
            .backend(config.backend)
            .seed(seed),
        training_params(config, seed),
    )
}

/// Build the (untrained) network for a run configuration (exposed so the
/// Fig. 2 and Fig. 5 experiments can attach observers and read masks).
pub fn build_network(config: &BcpnnRunConfig, input_width: usize, seed: u64) -> Network {
    build_estimator(config, input_width, seed)
        .builder
        .build()
        .expect("invalid run configuration")
}

/// The trainer matching a run configuration.
pub fn build_trainer(config: &BcpnnRunConfig, seed: u64) -> Trainer {
    Trainer::new(training_params(config, seed))
}

/// Train one network with the given configuration and seed, and evaluate it
/// on the test set.
pub fn run_bcpnn(config: &BcpnnRunConfig, data: &HiggsExperimentData, seed: u64) -> RunOutcome {
    let estimator = build_estimator(config, data.encoded_width(), seed);
    let (network, report) = estimator
        .fit_report(&data.x_train, &data.y_train)
        .expect("training failed");
    let primary = network
        .evaluate(&data.x_test, &data.y_test)
        .expect("evaluation failed");
    let bcpnn = match config.readout {
        ReadoutKind::Bcpnn | ReadoutKind::Hybrid => Some(
            network
                .evaluate_with(ReadoutKind::Bcpnn, &data.x_test, &data.y_test)
                .expect("evaluation failed"),
        ),
        ReadoutKind::Sgd => None,
    };
    RunOutcome {
        primary,
        bcpnn,
        train_time_s: report.train_time_seconds(),
    }
}

/// Aggregate statistics over repeated runs (the paper averages 10
/// repetitions per configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Mean test accuracy of the primary head.
    pub mean_accuracy: f64,
    /// Sample standard deviation of the accuracy.
    pub std_accuracy: f64,
    /// Mean AUC of the primary head.
    pub mean_auc: f64,
    /// Mean training time in seconds.
    pub mean_time_s: f64,
    /// Sample standard deviation of the training time.
    pub std_time_s: f64,
    /// Number of repetitions aggregated.
    pub repetitions: usize,
}

/// Aggregate a set of run outcomes.
pub fn aggregate(outcomes: &[RunOutcome]) -> Aggregate {
    let acc: Vec<f64> = outcomes.iter().map(|o| o.primary.accuracy).collect();
    let auc: Vec<f64> = outcomes.iter().map(|o| o.primary.auc).collect();
    let time: Vec<f64> = outcomes.iter().map(|o| o.train_time_s).collect();
    Aggregate {
        mean_accuracy: bcpnn_tensor::stats::mean(&acc),
        std_accuracy: bcpnn_tensor::stats::std_dev(&acc),
        mean_auc: bcpnn_tensor::stats::mean(&auc),
        mean_time_s: bcpnn_tensor::stats::mean(&time),
        std_time_s: bcpnn_tensor::stats::std_dev(&time),
        repetitions: outcomes.len(),
    }
}

/// Run a configuration `repetitions` times with seeds `base_seed + r` and
/// aggregate, returning both the raw outcomes and the aggregate.
pub fn run_repeated(
    config: &BcpnnRunConfig,
    data: &HiggsExperimentData,
    repetitions: usize,
    base_seed: u64,
) -> (Vec<RunOutcome>, Aggregate) {
    let outcomes: Vec<RunOutcome> = (0..repetitions)
        .map(|r| run_bcpnn(config, data, base_seed + r as u64))
        .collect();
    let agg = aggregate(&outcomes);
    (outcomes, agg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> HiggsExperimentData {
        prepare_higgs(&HiggsDataConfig {
            train_per_class: 300,
            test_per_class: 150,
            ..Default::default()
        })
    }

    #[test]
    fn prepared_data_is_balanced_and_encoded() {
        let data = tiny_data();
        assert_eq!(data.encoded_width(), 280);
        assert_eq!(data.x_train.rows(), 600);
        assert_eq!(data.x_test.rows(), 300);
        let pos = data.y_train.iter().filter(|&&l| l == 1).count();
        assert_eq!(pos, 300, "training subset must be balanced");
        // Binary encoding with one hot bit per feature block.
        assert!(data
            .x_train
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || v == 1.0));
        let row_sum: f32 = data.x_train.row(0).iter().sum();
        assert_eq!(row_sum, 28.0);
    }

    #[test]
    fn small_run_beats_chance_and_reports_time() {
        let data = tiny_data();
        let cfg = BcpnnRunConfig {
            n_mcu: 30,
            unsupervised_epochs: 2,
            supervised_epochs: 3,
            ..Default::default()
        };
        let outcome = run_bcpnn(&cfg, &data, 1);
        assert!(outcome.train_time_s > 0.0);
        assert!(
            outcome.primary.accuracy > 0.52,
            "accuracy {}",
            outcome.primary.accuracy
        );
        assert!(outcome.bcpnn.is_some());
    }

    #[test]
    fn aggregation_matches_hand_computation() {
        let mk = |acc: f64, time: f64| RunOutcome {
            primary: EvalReport {
                accuracy: acc,
                auc: acc + 0.05,
                log_loss: 0.6,
                precision: acc,
                recall: acc,
                f1: acc,
            },
            bcpnn: None,
            train_time_s: time,
        };
        let agg = aggregate(&[mk(0.6, 10.0), mk(0.7, 14.0)]);
        assert!((agg.mean_accuracy - 0.65).abs() < 1e-12);
        assert!((agg.mean_time_s - 12.0).abs() < 1e-12);
        assert!((agg.mean_auc - 0.70).abs() < 1e-12);
        assert_eq!(agg.repetitions, 2);
        assert!(agg.std_accuracy > 0.0);
    }
}
