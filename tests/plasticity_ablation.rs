//! Ablation of the structural-plasticity design choices:
//! mutual-information-scored rewiring must end up on more
//! informative inputs than a frozen random mask of the same density, and
//! the per-HCU connection budget must be an invariant of training.

use bcpnn_backend::BackendKind;
use bcpnn_core::{HiddenLayerParams, Network, ReadoutKind, Trainer, TrainingParams};
use bcpnn_data::encode::QuantileEncoder;
use bcpnn_data::higgs::{generate, noise_feature_indices, SyntheticHiggsConfig};
use bcpnn_data::split::stratified_split;
use bcpnn_tensor::Matrix;

struct Prepared {
    x_train: Matrix<f32>,
    y_train: Vec<usize>,
    x_test: Matrix<f32>,
    y_test: Vec<usize>,
    n_bins: usize,
}

fn prepare(n: usize, seed: u64) -> Prepared {
    let collisions = generate(&SyntheticHiggsConfig {
        n_samples: n,
        seed,
        ..Default::default()
    });
    let (train, test) = stratified_split(&collisions, 0.3, seed ^ 1);
    let encoder = QuantileEncoder::fit(&train, 10);
    Prepared {
        x_train: encoder.transform(&train),
        y_train: train.labels.clone(),
        x_test: encoder.transform(&test),
        y_test: test.labels.clone(),
        n_bins: encoder.n_bins(),
    }
}

fn train_network(
    data: &Prepared,
    plasticity_swaps: usize,
    density: f64,
    seed: u64,
) -> (f64, Matrix<f32>) {
    let hidden = HiddenLayerParams {
        n_inputs: data.x_train.cols(),
        n_hcu: 1,
        n_mcu: 150,
        receptive_field: density,
        plasticity_swaps,
        ..Default::default()
    };
    let mut network = Network::builder()
        .hidden_params(hidden)
        .classes(2)
        .readout(ReadoutKind::Hybrid)
        .backend(BackendKind::Parallel)
        .seed(seed)
        .build()
        .unwrap();
    Trainer::new(TrainingParams {
        unsupervised_epochs: 4,
        supervised_epochs: 6,
        batch_size: 128,
        seed: seed ^ 0xbeef,
        shuffle: true,
    })
    .fit(&mut network, &data.x_train, &data.y_train)
    .unwrap();
    let acc = network
        .evaluate(&data.x_test, &data.y_test)
        .unwrap()
        .accuracy;
    (acc, network.hidden().receptive_field_snapshot())
}

#[test]
fn mi_scored_rewiring_beats_a_frozen_random_mask_at_low_density() {
    // At a tight connection budget (10%), *where* the HCU looks matters;
    // average over a few seeds to keep the comparison robust.
    let data = prepare(6_000, 3);
    let seeds = [1u64, 2, 3];
    let mut with_plasticity = 0.0;
    let mut frozen_random = 0.0;
    for &s in &seeds {
        with_plasticity += train_network(&data, 8, 0.10, s).0;
        frozen_random += train_network(&data, 0, 0.10, s).0; // 0 swaps = frozen mask
    }
    with_plasticity /= seeds.len() as f64;
    frozen_random /= seeds.len() as f64;
    // The qualitative claim: learning *where* to look never hurts and, on a
    // tight budget, helps. Averaged over seeds we require "at least as good"
    // with a small tolerance; the companion test below checks the stronger,
    // more stable signal that the mask abandons pure-noise features.
    assert!(
        with_plasticity >= frozen_random - 0.005,
        "plasticity ({with_plasticity:.4}) should not lose to a frozen random mask ({frozen_random:.4})"
    );
}

#[test]
fn plasticity_moves_connections_away_from_pure_noise_features() {
    let data = prepare(6_000, 5);
    let n_bins = data.n_bins;
    let density = 0.20;
    let (_, mask) = train_network(&data, 8, density, 7);
    let noise_features = noise_feature_indices();
    // Fraction of active connections sitting on the azimuthal-angle features
    // (pure noise by construction): should be clearly below their share of
    // the input (6/28 ≈ 21%).
    let active: Vec<usize> = mask
        .row(0)
        .iter()
        .enumerate()
        .filter(|(_, &v)| v == 1.0)
        .map(|(i, _)| i)
        .collect();
    let on_noise = active
        .iter()
        .filter(|&&col| noise_features.contains(&(col / n_bins)))
        .count();
    let frac = on_noise as f64 / active.len() as f64;
    let uninformative_share = noise_features.len() as f64 / 28.0;
    assert!(
        frac < uninformative_share * 0.8,
        "plasticity left {frac:.2} of the mask on noise features (uniform would be {uninformative_share:.2})"
    );
}

#[test]
fn connection_budget_is_preserved_through_training() {
    let data = prepare(3_000, 9);
    for density in [0.05, 0.30, 0.75] {
        let (_, mask) = train_network(&data, 8, density, 11);
        let expected = ((data.x_train.cols() as f64 * density).round() as usize).max(1);
        let active = mask.row(0).iter().filter(|&&v| v == 1.0).count();
        assert_eq!(
            active, expected,
            "density {density}: training must not change the number of active connections"
        );
    }
}
