//! Public-API smoke test: the key re-exports of the unified model API
//! resolve and the advertised trait relationships hold. Most assertions
//! here are compile-time — an accidental surface break (a renamed trait, a
//! dropped re-export, a lost `impl`) fails this file fast, before any
//! downstream crate notices.

// The canonical module-path spellings.
use bcpnn_core::model::{Pipeline, Predictor};
// The crate-root re-exports resolve to the same items.
use bcpnn_core::{CoreResult, FitReport, Network, NetworkEstimator};
use bcpnn_tensor::Matrix;

fn assert_predictor<T: Predictor>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn key_model_api_reexports_resolve() {
    // Predictors: network, both readout heads, and the pipeline artifact.
    assert_predictor::<bcpnn_core::Network>();
    assert_predictor::<bcpnn_core::BcpnnClassifier>();
    assert_predictor::<bcpnn_core::SgdClassifier>();
    assert_predictor::<Pipeline>();

    // The network estimator yields a network and its fit report.
    fn fitted_types(
        estimator: &NetworkEstimator,
        x: &Matrix<f32>,
        labels: &[usize],
    ) -> CoreResult<(Network, FitReport)> {
        estimator.fit_report(x, labels)
    }
    let _ = fitted_types;

    // Predictor is object safe and shareable across threads — the bound
    // the serving subsystem depends on.
    assert_send_sync::<Box<dyn Predictor + Send + Sync>>();

    // bcpnn-serve re-exports the same Pipeline type it serves.
    fn same_pipeline(p: bcpnn_serve::Pipeline) -> Pipeline {
        p
    }
    let _ = same_pipeline;
}

#[test]
fn persistence_entry_points_resolve() {
    // The persistence surface: both the free-function and the method
    // spellings exist and produce the same artifact type.
    let data = bcpnn_data::higgs::generate(&bcpnn_data::higgs::SyntheticHiggsConfig {
        n_samples: 200,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        4,
        bcpnn_core::Network::builder()
            .hidden(1, 3, 0.5)
            .classes(2)
            .backend(bcpnn_backend::BackendKind::Naive),
        bcpnn_core::TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 50,
            ..Default::default()
        },
    )
    .unwrap();
    let dir = std::env::temp_dir()
        .join("bcpnn_api_surface")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    bcpnn_core::save_pipeline(&pipeline, &dir).unwrap();
    let via_fn: Pipeline =
        bcpnn_core::load_pipeline(&dir, bcpnn_backend::BackendKind::Naive).unwrap();
    let via_method: Pipeline = Pipeline::load(&dir, bcpnn_backend::BackendKind::Naive).unwrap();
    assert_eq!(via_fn.encoder(), via_method.encoder());
    assert_eq!(via_fn.encoder(), pipeline.encoder());
    std::fs::remove_dir_all(&dir).ok();
}
