//! Golden bits: a fixed-seed small hybrid pipeline's model file and its
//! probabilities on a fixed batch are pinned to hashes, so a change that
//! moves one fitted or predicted bit fails here instead of passing unseen.
//!
//! Every SIMD tier and thread count gives the same bits, so the pins hold
//! on every host (CI runs this suite under each `BCPNN_SIMD` tier). A
//! change that moves bits on purpose edits the pin in the same diff and
//! lists the old and new values in CHANGES.md.

use std::path::PathBuf;

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};

/// FNV-1a of `model.bcpnn` as [`saved_model`] writes it.
const MODEL_FILE_FNV1A: u64 = 0x75ac_fdab_df7b_ef90;

/// FNV-1a of the little-endian `to_bits()` words of `predict_proba` on
/// [`batch`], row-major.
const PROBA_BITS_FNV1A: u64 = 0xf1f2_0ac7_39f2_f490;

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fit the pinned pipeline and save it under a directory of its own.
fn saved_model(test: &str) -> PathBuf {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 1000,
        seed: 2021,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(2, 16, 0.3)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Parallel)
            .seed(7),
        TrainingParams {
            unsupervised_epochs: 2,
            supervised_epochs: 2,
            batch_size: 50,
            ..Default::default()
        },
    )
    .expect("the pinned pipeline trains");
    let dir = std::env::temp_dir().join(format!("bcpnn-golden-bits-{test}-{}", std::process::id()));
    pipeline.save(&dir).expect("the pinned pipeline saves");
    dir
}

/// 256 rows the pipeline was not fitted on.
fn batch() -> bcpnn_tensor::Matrix<f32> {
    generate(&SyntheticHiggsConfig {
        n_samples: 256,
        seed: 2022,
        ..Default::default()
    })
    .features
}

#[test]
fn the_fitted_model_file_is_pinned() {
    let dir = saved_model("file");
    let bytes = std::fs::read(dir.join("model.bcpnn")).expect("model.bcpnn is readable");
    let _ = std::fs::remove_dir_all(&dir);
    let got = fnv1a(bytes);
    assert_eq!(got, MODEL_FILE_FNV1A, "model.bcpnn hashes to {got:#018x}");
}

#[test]
fn served_probabilities_are_pinned_on_both_backends() {
    let dir = saved_model("proba");
    let x = batch();
    assert_eq!(x.rows(), 256);
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let pipeline = Pipeline::load(&dir, backend).expect("the pinned model loads");
        let proba = pipeline.predict_proba(&x).expect("the batch predicts");
        let got = fnv1a(
            proba
                .as_slice()
                .iter()
                .flat_map(|p| p.to_bits().to_le_bytes()),
        );
        assert_eq!(
            got, PROBA_BITS_FNV1A,
            "{backend:?}: predict_proba hashes to {got:#018x}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
