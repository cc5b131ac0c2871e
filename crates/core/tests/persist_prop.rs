//! Hostile-byte checks on the model file: whatever happens to the bytes of
//! `model.bcpnn` — any single byte flipped, the file cut at any offset —
//! loading must come back as a typed `CoreError`, never a panic and never
//! a model. An intact file must round-trip exactly: save → load → save
//! writes the same bytes, and the loaded pipeline predicts the same bits
//! as the one saved, on either backend.

use std::path::{Path, PathBuf};

use bcpnn_backend::BackendKind;
use bcpnn_core::calibration::CalibrationMethod;
use bcpnn_core::serialize::MODEL_FILE;
use bcpnn_core::{CoreError, Network, Pipeline, Predictor, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::Dataset;

fn higgs(n_samples: usize, seed: u64) -> Dataset {
    generate(&SyntheticHiggsConfig {
        n_samples,
        seed,
        ..Default::default()
    })
}

/// A small fitted hybrid pipeline (both readout heads, so every optional
/// frame is present) with an isotonic calibration attached.
fn small_pipeline(backend: BackendKind) -> Pipeline {
    let (mut pipeline, _) = Pipeline::fit(
        &higgs(240, 3),
        4,
        Network::builder()
            .hidden(1, 4, 0.5)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(backend)
            .seed(4),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 2,
            batch_size: 40,
            ..Default::default()
        },
    )
    .expect("the small pipeline fits");
    let held_out = higgs(120, 5);
    pipeline
        .fit_calibration(
            &held_out.features,
            &held_out.labels,
            CalibrationMethod::Isotonic,
        )
        .expect("the calibration fits");
    pipeline
}

/// `small_pipeline(backend)` saved into a fresh directory, and the bytes
/// of its model file.
fn saved(tag: &str, backend: BackendKind) -> (Pipeline, PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("bcpnn-persist-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = small_pipeline(backend);
    pipeline.save(&dir).unwrap();
    let bytes = std::fs::read(dir.join(MODEL_FILE)).unwrap();
    (pipeline, dir, bytes)
}

/// Load `dir` with `bytes` as its model file.
fn load_bytes(dir: &Path, bytes: &[u8]) -> Result<Pipeline, CoreError> {
    std::fs::write(dir.join(MODEL_FILE), bytes).expect("the model file writes");
    Pipeline::load(dir, BackendKind::Naive)
}

#[test]
fn every_single_byte_flip_is_a_typed_error() {
    let (_, dir, saved) = saved("flip", BackendKind::Naive);
    for at in 0..saved.len() {
        for mask in [0x01u8, 0xFF] {
            let mut bytes = saved.clone();
            bytes[at] ^= mask;
            let result = load_bytes(&dir, &bytes);
            assert!(
                matches!(result, Err(CoreError::Format(_) | CoreError::Io(_))),
                "flip {mask:#04x} at byte {at}: expected a typed error, got {result:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_truncation_is_a_typed_error() {
    let (_, dir, saved) = saved("cut", BackendKind::Naive);
    // Every cut, and one byte too many.
    let longer = [&saved[..], &[0]].concat();
    for bytes in (0..saved.len())
        .map(|cut| &saved[..cut])
        .chain([&longer[..]])
    {
        let result = load_bytes(&dir, bytes);
        assert!(
            matches!(result, Err(CoreError::Format(_))),
            "{} of {} bytes: expected a Format error, got {result:?}",
            bytes.len(),
            saved.len()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_load_save_is_byte_identical() {
    let (_, a, first) = saved("resave", BackendKind::Naive);
    let b = a.join("again");
    Pipeline::load(&a, BackendKind::Parallel)
        .unwrap()
        .save(&b)
        .unwrap();
    assert_eq!(std::fs::read(b.join(MODEL_FILE)).unwrap(), first);
    let names: Vec<_> = std::fs::read_dir(&b)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, [MODEL_FILE]);
    std::fs::remove_dir_all(&a).ok();
}

#[test]
fn loaded_pipelines_predict_the_same_bits_on_both_backends() {
    let data = higgs(200, 9);
    let bits = |p: &Pipeline| -> Vec<u32> {
        let proba = p.predict_proba(&data.features).expect("predicts");
        proba.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (pipeline, dir, _) = saved(&format!("bits-{backend:?}"), backend);
        let loaded = Pipeline::load(&dir, backend).unwrap();
        assert_eq!(loaded.calibration(), pipeline.calibration());
        assert_eq!(bits(&loaded), bits(&pipeline), "{backend:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
