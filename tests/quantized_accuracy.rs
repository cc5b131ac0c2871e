//! The quantized serving path's accuracy contract, enforced by the CI
//! `quantized-accuracy` gate: an int8 [`QuantizedPipeline`] must
//! track the f32 pipeline within a stated held-out accuracy delta, and the
//! quantized artifact must serve through the registry/server stack exactly
//! like its in-process self.
//!
//! The delta bound is deliberately tight (3 accuracy points): per-column
//! int8 scaling perturbs the log-odds weights far
//! below the decision margins a trained BCPNN produces, so a larger drift
//! means the quantization datapath broke, not that "quantization is lossy".

use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::Dataset;
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_serve::{BatchConfig, InferenceServer, ModelRegistry, ServedModel};

const ACCURACY_DELTA: f64 = 0.03;

fn train_and_holdout() -> (Pipeline, Dataset) {
    let train = generate(&SyntheticHiggsConfig {
        n_samples: 2000,
        seed: 31,
        ..Default::default()
    });
    // The synthetic generator draws i.i.d. collisions, so a fresh seed is a
    // held-out split by construction.
    let holdout = generate(&SyntheticHiggsConfig {
        n_samples: 800,
        seed: 32,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &train,
        10,
        Network::builder()
            .hidden(4, 8, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Parallel)
            .seed(31),
        TrainingParams {
            unsupervised_epochs: 2,
            supervised_epochs: 3,
            batch_size: 128,
            ..Default::default()
        },
    )
    .expect("training succeeds");
    (pipeline, holdout)
}

fn accuracy(predictor: &dyn Predictor, data: &Dataset) -> f64 {
    let predictions = predictor.predict(&data.features).expect("predict succeeds");
    let hits = predictions
        .iter()
        .zip(&data.labels)
        .filter(|(p, l)| p == l)
        .count();
    hits as f64 / data.labels.len() as f64
}

#[test]
fn quantized_accuracy_tracks_f32_within_stated_delta() {
    let (pipeline, holdout) = train_and_holdout();
    let f32_acc = accuracy(&pipeline, &holdout);
    assert!(
        f32_acc > 0.55,
        "f32 reference must beat chance, got {f32_acc}"
    );
    let quantized = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8)
        .expect("quantization succeeds");
    let q_acc = accuracy(&quantized, &holdout);
    let delta = (f32_acc - q_acc).abs();
    println!("int8: f32 {f32_acc:.4} vs quantized {q_acc:.4} (delta {delta:.4})");
    assert!(
        delta <= ACCURACY_DELTA,
        "int8: held-out accuracy delta {delta:.4} exceeds {ACCURACY_DELTA}"
    );
}

#[test]
fn quantized_model_serves_identically_through_the_registry() {
    let (pipeline, holdout) = train_and_holdout();
    let quantized = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8)
        .expect("quantization succeeds");
    let direct = quantized
        .predict_proba(&holdout.features)
        .expect("direct predict succeeds");

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs-int8", 1, quantized));
    let server = InferenceServer::start(Arc::clone(&registry), BatchConfig::default());
    // Rows are computed independently of how the batcher groups them, so a
    // served prediction must equal the in-process one bit-for-bit.
    for r in (0..holdout.features.rows()).step_by(97) {
        let served = server
            .predict("higgs-int8", holdout.features.row(r).to_vec())
            .expect("served predict succeeds");
        assert_eq!(
            served,
            direct.row(r).to_vec(),
            "served row {r} diverged from in-process prediction"
        );
    }
}
