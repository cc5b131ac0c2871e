//! Model persistence: train, save, reload, keep classifying.
//!
//! A trained BCPNN network is fully described by its probability traces and
//! receptive-field masks (weights are derived quantities), so a model is
//! saved as one CRC-framed binary file, `model.bcpnn`, holding the fitted
//! encoder and those traces. This example trains a pipeline, saves it,
//! reloads it on the *naive* backend (backend choice is runtime
//! configuration, not model state), verifies the predictions agree, and
//! continues training the reloaded network.
//!
//! ```text
//! cargo run --release --example model_persistence
//! ```

use bcpnn_backend::BackendKind;
use bcpnn_core::{Network, Pipeline, Predictor, ReadoutKind, Trainer, TrainingParams};
use bcpnn_data::encode::QuantileEncoder;
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::split::stratified_split;

fn main() {
    let collisions = generate(&SyntheticHiggsConfig {
        n_samples: 8_000,
        ..Default::default()
    });
    let (train, test) = stratified_split(&collisions, 0.25, 21);
    let encoder = QuantileEncoder::fit(&train, 10);
    let x_train = encoder.transform(&train);
    let x_test = encoder.transform(&test);

    let mut network = Network::builder()
        .input(x_train.cols())
        .hidden(2, 150, 0.40)
        .classes(2)
        .readout(ReadoutKind::Hybrid)
        .backend(BackendKind::Parallel)
        .seed(100)
        .build()
        .expect("valid configuration");
    let trainer = Trainer::new(TrainingParams {
        unsupervised_epochs: 3,
        supervised_epochs: 6,
        batch_size: 128,
        seed: 101,
        shuffle: true,
    });
    trainer
        .fit(&mut network, &x_train, &train.labels)
        .expect("training succeeds");
    let before = network
        .evaluate(&x_test, &test.labels)
        .expect("evaluation succeeds");
    println!("freshly trained model : {before}");

    // Save and reload (on a different backend, to show the two are
    // interchangeable at the model level).
    let dir = std::env::temp_dir().join("bcpnn_model_persistence_example");
    let pipeline = Pipeline::new(network, encoder).expect("widths match");
    pipeline.save(&dir).expect("saving succeeds");
    let file = dir.join("model.bcpnn");
    let bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
    println!("saved to {} ({bytes} bytes)", file.display());
    let reloaded = Pipeline::load(&dir, BackendKind::Naive).expect("loading succeeds");
    let after = reloaded
        .evaluate(&test.features, &test.labels)
        .expect("evaluation succeeds");
    println!("reloaded model        : {after}");
    let drift = (before.accuracy - after.accuracy).abs();
    assert!(drift < 1e-9, "reloaded model must predict identically");

    // Continue training the reloaded model (incremental learning is one of
    // the brain-inspired properties the paper highlights: no need to start
    // over when new collisions arrive).
    let mut reloaded = reloaded.network().clone();
    trainer
        .fit(&mut reloaded, &x_train, &train.labels)
        .expect("continued training succeeds");
    let continued = reloaded
        .evaluate(&x_test, &test.labels)
        .expect("evaluation succeeds");
    println!("after more training   : {continued}");

    std::fs::remove_dir_all(&dir).ok();
}
