//! Inputs and models: the synthetic Higgs split, derived from `--seed`, and
//! the paper-shaped network, the served model and the cascade's cheap tier
//! trained on it. Everything here is what a workload counts as set-up.

use bcpnn_backend::BackendKind;
use bcpnn_core::model::NetworkEstimator;
use bcpnn_core::{Network, NetworkBuilder, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::split::{balanced_subset, stratified_split};
use bcpnn_data::Dataset;

/// Balanced training rows per class.
pub const TRAIN_PER_CLASS: usize = 4000;
/// Balanced held-out rows per class.
pub const TEST_PER_CLASS: usize = 2000;
/// Quantile bins of the paper model and the served model.
pub const N_BINS: usize = 10;
/// Minicolumns of the paper model's single hypercolumn.
pub const N_MCU: usize = 1000;
/// Registry name every serving workload publishes under.
pub const MODEL: &str = "higgs";
/// Seed of the models' own draws (receptive fields, initial weights, epoch
/// shuffles) in a run's first repetition; repetition `r` uses
/// `MODEL_SEED + r`. Fixed, where the data follow `--seed`: one fit of the
/// paper model takes 5.4 to 8.4 s depending on this seed alone (it sets the
/// share of subnormal hidden activations), and a model's accuracy moves by
/// 2 % with it, so runs on different `--seed`s would differ by which model
/// seeds they drew, not by what the code does.
pub const MODEL_SEED: u64 = 2021;

/// The balanced train / test split every workload draws its rows from.
pub struct HiggsData {
    pub train: Dataset,
    pub test: Dataset,
}

/// `generate` → `stratified_split` → `balanced_subset`, as the `headline`
/// binary prepares its data.
pub fn higgs_data(seed: u64) -> HiggsData {
    let pool = generate(&SyntheticHiggsConfig {
        n_samples: (TRAIN_PER_CLASS + TEST_PER_CLASS) * 5,
        seed,
        ..Default::default()
    });
    let (train_pool, test_pool) = stratified_split(&pool, 0.35, seed ^ 0x51);
    HiggsData {
        train: balanced_subset(&train_pool, TRAIN_PER_CLASS, seed ^ 0x52),
        test: balanced_subset(&test_pool, TEST_PER_CLASS, seed ^ 0x53),
    }
}

/// 1 HCU x `n_mcu` MCUs, 40 % receptive field, hybrid head, parallel
/// backend: the `headline` binary's default shape.
pub fn paper_builder(n_mcu: usize, model_seed: u64) -> NetworkBuilder {
    Network::builder()
        .hidden(1, n_mcu, 0.40)
        .classes(2)
        .readout(ReadoutKind::Hybrid)
        .backend(BackendKind::Parallel)
        .seed(model_seed)
}

fn schedule(
    unsupervised_epochs: usize,
    supervised_epochs: usize,
    model_seed: u64,
) -> TrainingParams {
    TrainingParams {
        unsupervised_epochs,
        supervised_epochs,
        batch_size: 128,
        seed: model_seed ^ 0x7421_9abc_55aa_0134,
        shuffle: true,
    }
}

/// The paper model's estimator: 4 unsupervised + 8 supervised epochs.
pub fn paper_estimator(input_width: usize, model_seed: u64) -> NetworkEstimator {
    NetworkEstimator::new(
        paper_builder(N_MCU, model_seed).input(input_width),
        schedule(4, 8, model_seed),
    )
}

/// Training rows of the served model and the cheap tier.
const SERVED_TRAIN_ROWS: usize = 4000;

/// The served model: the paper shape trained 2 + 4 epochs on half the
/// training rows, so set-up stays near a second while inference costs what
/// the paper model's does. (2 + 2 epochs on all rows cost more and left
/// the SGD head's accuracy anywhere from 0.55 to 0.68 depending on the
/// seed; this schedule keeps it within 0.60 to 0.67.)
pub fn fit_served(train: &Dataset, model_seed: u64) -> Pipeline {
    fit_short(train, N_BINS, N_MCU, model_seed)
}

/// The cascade's cheap tier before quantization: 6 bins into 1 x 250 MCUs.
pub fn fit_cheap(train: &Dataset, model_seed: u64) -> Pipeline {
    fit_short(train, 6, 250, model_seed)
}

fn fit_short(train: &Dataset, n_bins: usize, n_mcu: usize, model_seed: u64) -> Pipeline {
    let rows = train.select(&(0..SERVED_TRAIN_ROWS).collect::<Vec<_>>());
    Pipeline::fit(
        &rows,
        n_bins,
        paper_builder(n_mcu, model_seed),
        schedule(2, 4, model_seed),
    )
    .expect("fitting on generated data succeeds")
    .0
}
