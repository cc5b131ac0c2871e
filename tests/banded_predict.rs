//! A banded predict equals the one-band pass, bit for bit.
//!
//! Every predict cuts its rows into fixed bands and runs encode → hidden
//! forward → grouped softmax → readout → calibration on each band's rows,
//! the bands shared out among the pool's threads. The oracle here is the
//! same sequence run once over all the rows through the public stage calls
//! (`transform_rows_hot_into`, `forward_hot_into` / `forward_into`, the
//! head's `predict_proba_into`, `apply_rows`), each kernel in its pooled
//! form above its work cutoff. The row counts straddle the band edges, the
//! narrow readout's eight-row blocks and those cutoffs; CI runs the file
//! under `BCPNN_NUM_THREADS=3`, which gives ragged bands.

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::{
    CalibrationMethod, CoreError, Network, Pipeline, ReadoutKind, TrainingParams, Workspace,
};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::Dataset;
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_serve::CascadeModel;
use bcpnn_tensor::Matrix;

const ROW_COUNTS: [usize; 15] = [0, 1, 7, 8, 9, 15, 16, 17, 64, 255, 256, 257, 512, 513, 1100];

fn higgs(n: usize, seed: u64) -> Dataset {
    generate(&SyntheticHiggsConfig {
        n_samples: n,
        seed,
        ..Default::default()
    })
}

/// A hybrid pipeline of 4 × 32 hidden units with an isotonic calibration
/// fitted on held-out rows: wide enough that the one-band pass takes the
/// pooled hot gather, softmax and readout GEMM at the larger row counts.
fn calibrated_pipeline(backend: BackendKind) -> Pipeline {
    let data = higgs(1200, 71);
    let (mut pipeline, _) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(4, 32, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(backend)
            .seed(71),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 128,
            ..Default::default()
        },
    )
    .unwrap();
    let held_out = higgs(600, 72);
    pipeline
        .fit_calibration(
            &held_out.features,
            &held_out.labels,
            CalibrationMethod::Isotonic,
        )
        .unwrap();
    pipeline
}

/// The first `n` rows of a 1100-row test set.
fn rows(n: usize) -> Matrix<f32> {
    let data = higgs(1100, 73);
    data.features.select_rows(&(0..n).collect::<Vec<_>>())
}

/// The pipeline's stages run once over all of `x`.
fn one_band_pipeline(pipeline: &Pipeline, x: &Matrix<f32>) -> Matrix<f32> {
    let net = pipeline.network();
    let mut hot = Vec::new();
    pipeline
        .encoder()
        .unwrap()
        .transform_rows_hot_into(x, &mut hot);
    let mut hidden = Matrix::zeros(0, 0);
    net.hidden()
        .forward_hot_into(&hot, x.rows(), &mut hidden)
        .unwrap();
    let mut out = Matrix::zeros(0, 0);
    net.sgd_readout()
        .unwrap()
        .predict_proba_into(&hidden, &mut out)
        .unwrap();
    if let Some(cal) = pipeline.calibration() {
        cal.apply_rows(&mut out);
    }
    out
}

/// The network's dense stages run once over all of `encoded`.
fn one_band_network(net: &Network, head: ReadoutKind, encoded: &Matrix<f32>) -> Matrix<f32> {
    let hidden = net.hidden().forward(encoded).unwrap();
    match head {
        ReadoutKind::Bcpnn => net.bcpnn_readout().unwrap().predict_proba(&hidden),
        _ => net.sgd_readout().unwrap().predict_proba(&hidden),
    }
    .unwrap()
}

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bits_eq(got: &Matrix<f32>, want: &Matrix<f32>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(bits(got), bits(want), "{what}: bits");
}

#[test]
fn calibrated_pipeline_bands_equal_the_one_band_pass() {
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let pipeline = calibrated_pipeline(backend);
        let mut ws = Workspace::new();
        // A stale output of the wrong shape is overwritten, not read.
        let mut out = Matrix::filled(3, 5, f32::NAN);
        for n in ROW_COUNTS {
            let x = rows(n);
            let want = one_band_pipeline(&pipeline, &x);
            pipeline.predict_proba_into(&x, &mut ws, &mut out).unwrap();
            assert_bits_eq(&out, &want, &format!("{backend:?}, {n} rows"));
            let alone = pipeline.predict_proba(&x).unwrap();
            assert_bits_eq(&alone, &want, &format!("{backend:?}, {n} rows, fresh"));
        }
        // A row scored on its own equals the same row inside a band.
        let x = rows(40);
        let banded = pipeline.predict_proba(&x).unwrap();
        for r in 0..x.rows() {
            let single = pipeline.predict_proba(&x.select_rows(&[r])).unwrap();
            assert_eq!(bits(&single), bits(&banded.select_rows(&[r])), "row {r}");
        }
    }
}

#[test]
fn dense_network_bands_equal_the_one_band_pass_for_both_heads() {
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let pipeline = calibrated_pipeline(backend);
        let net = pipeline.network();
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        for n in ROW_COUNTS {
            let encoded = pipeline.encode(&rows(n)).unwrap();
            for head in [ReadoutKind::Bcpnn, ReadoutKind::Sgd] {
                let want = one_band_network(net, head, &encoded);
                net.predict_proba_with_into(head, &encoded, &mut ws, &mut out)
                    .unwrap();
                assert_bits_eq(&out, &want, &format!("{backend:?} {head:?}, {n} rows"));
            }
        }
    }
}

#[test]
fn escalating_cascade_bands_equal_the_one_band_pass() {
    let pipeline = calibrated_pipeline(BackendKind::Parallel);
    let quantized = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
    // `escalate_below >= 1` sends every row to the f32 tier.
    let cascade = CascadeModel::new(
        "banded",
        Box::new(quantized),
        Box::new(pipeline.clone()),
        1.0,
    )
    .unwrap();
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    for n in ROW_COUNTS {
        let x = rows(n);
        let want = one_band_pipeline(&pipeline, &x);
        cascade.predict_proba_into(&x, &mut ws, &mut out).unwrap();
        assert_bits_eq(&out, &want, &format!("cascade, {n} rows"));
    }
}

#[test]
fn a_wrong_width_is_the_same_typed_error_at_every_row_count() {
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let pipeline = calibrated_pipeline(backend);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        for n in ROW_COUNTS {
            let narrow = Matrix::zeros(n, 27);
            match pipeline.predict_proba_into(&narrow, &mut ws, &mut out) {
                Err(CoreError::DataMismatch(msg)) => {
                    assert_eq!(msg, "pipeline expects 28 columns, rows have 27")
                }
                other => panic!("{backend:?}, {n} rows: {other:?}"),
            }
            let net = pipeline.network();
            match net.predict_proba_into(&narrow, &mut ws, &mut out) {
                Err(CoreError::DataMismatch(msg)) => {
                    assert_eq!(msg, "input has 27 columns but the layer expects 280")
                }
                other => panic!("{backend:?}, {n} rows: {other:?}"),
            }
        }
        // The workspace still serves a good batch afterwards.
        let x = rows(100);
        pipeline.predict_proba_into(&x, &mut ws, &mut out).unwrap();
        assert_bits_eq(&out, &one_band_pipeline(&pipeline, &x), "after errors");
    }
}
