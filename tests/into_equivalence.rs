//! Bit-exactness of the zero-allocation data plane: every `_into`
//! (caller-provided-buffer) variant must produce results identical — `==`,
//! not approximately equal — to its allocating twin, on both backends,
//! across repeated buffer reuse with changing batch shapes.
//!
//! This is the contract that lets the serving workers and the training
//! loop route through reusable workspaces without any risk of drifting
//! from the reference results.

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams, Workspace};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::{Dataset, QuantileEncoder};
use bcpnn_serve::BatchExecutor;
use bcpnn_tensor::Matrix;

fn higgs(n: usize, seed: u64) -> Dataset {
    generate(&SyntheticHiggsConfig {
        n_samples: n,
        seed,
        ..Default::default()
    })
}

fn fit_pipeline(backend: BackendKind, seed: u64) -> (Pipeline, Dataset) {
    let data = higgs(300, seed);
    let (pipeline, _) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(2, 4, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(backend)
            .seed(seed),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 64,
            ..Default::default()
        },
    )
    .unwrap();
    (pipeline, data)
}

#[test]
fn pipeline_predict_proba_into_is_bit_identical_on_both_backends() {
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (pipeline, data) = fit_pipeline(backend, 60);
        let mut ws = Workspace::new();
        let mut out = Matrix::filled(3, 3, f32::NAN); // stale, wrong shape
                                                      // Shrinking and growing batches through the same buffers.
        for n in [data.n_samples(), 1, 17, data.n_samples()] {
            let x = data.features.select_rows(&(0..n).collect::<Vec<_>>());
            pipeline.predict_proba_into(&x, &mut ws, &mut out).unwrap();
            let direct = pipeline.predict_proba(&x).unwrap();
            assert_eq!(out, direct, "{backend:?} batch of {n}");
        }
    }
}

#[test]
fn network_and_heads_into_variants_are_bit_identical_on_both_backends() {
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (pipeline, data) = fit_pipeline(backend, 61);
        let net = pipeline.network();
        let encoded = pipeline.encode(&data.features).unwrap();
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);

        // Network, both head spellings.
        net.predict_proba_into(&encoded, &mut ws, &mut out).unwrap();
        assert_eq!(out, net.predict_proba(&encoded).unwrap(), "{backend:?}");
        for head in [ReadoutKind::Bcpnn, ReadoutKind::Sgd] {
            net.predict_proba_with_into(head, &encoded, &mut ws, &mut out)
                .unwrap();
            assert_eq!(
                out,
                net.predict_proba_with(head, &encoded).unwrap(),
                "{backend:?} {head:?}"
            );
        }

        // Hidden layer.
        net.encode_into(&encoded, &mut out).unwrap();
        assert_eq!(out, net.encode(&encoded).unwrap(), "{backend:?} hidden");
        let hidden = net.encode(&encoded).unwrap();

        // Readout heads directly over hidden activations.
        let bcpnn = net.bcpnn_readout().unwrap();
        bcpnn.predict_proba_into(&hidden, &mut out).unwrap();
        assert_eq!(out, bcpnn.predict_proba(&hidden).unwrap());
        let sgd = net.sgd_readout().unwrap();
        sgd.predict_proba_into(&hidden, &mut out).unwrap();
        assert_eq!(out, sgd.predict_proba(&hidden).unwrap());
    }
}

#[test]
fn predicts_over_one_block_equal_the_same_rows_scored_in_small_batches() {
    // A predict walks its rows in fixed bands; 1,100 rows end in a ragged
    // band, and 100-row batches cut the bands at other rows. Equality here
    // pins a row's bits to nothing but the row — through the same
    // workspace, after it has already served a small batch.
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (pipeline, _) = fit_pipeline(backend, 65);
        let data = higgs(1100, 66);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        let mut small = Matrix::zeros(0, 0);
        let encoded = pipeline.encode(&data.features).unwrap();
        let net = pipeline.network();
        for head in [ReadoutKind::Bcpnn, ReadoutKind::Sgd] {
            net.predict_proba_with_into(head, &encoded, &mut ws, &mut out)
                .unwrap();
            assert_eq!(out.shape(), (1100, 2));
            for r0 in (0..1100).step_by(100) {
                let rows: Vec<usize> = (r0..r0 + 100).collect();
                net.predict_proba_with_into(head, &encoded.select_rows(&rows), &mut ws, &mut small)
                    .unwrap();
                assert_eq!(
                    &out.as_slice()[r0 * 2..(r0 + 100) * 2],
                    small.as_slice(),
                    "{backend:?} {head:?} rows from {r0}"
                );
            }
        }
        // And through the pipeline spelling the servers use.
        pipeline
            .predict_proba_into(&data.features, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out, pipeline.predict_proba(&data.features).unwrap());
    }
}

#[test]
fn a_chain_ending_in_the_quantile_encoder_serves_the_dense_answer() {
    // The quantile encoder hands the network the hot columns of its
    // one-hot code, not the dense matrix. The answer must be the network's
    // dense predict on the encoded rows, bit for bit, through one
    // workspace across batch sizes from one band to many.
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (chained, _) = fit_pipeline(backend, 67);
        let rows = higgs(1100, 68).features;
        let dense = chained
            .network()
            .predict_proba(&chained.encode(&rows).unwrap())
            .unwrap();
        let mut ws = Workspace::new();
        let mut out = Matrix::filled(3, 3, f32::NAN); // stale, wrong shape
        for n in [1100, 1, 64, 513, 17] {
            let x = rows.select_rows(&(0..n).collect::<Vec<_>>());
            chained.predict_proba_into(&x, &mut ws, &mut out).unwrap();
            assert_eq!(out.shape(), (n, 2));
            assert_eq!(
                bits(out.as_slice()),
                bits(&dense.as_slice()[..n * 2]),
                "{backend:?} batch of {n}"
            );
        }
    }
}

#[test]
fn transformer_into_variants_are_bit_identical() {
    let data = higgs(200, 62);
    let enc = QuantileEncoder::fit_matrix(&data.features, 10);
    let mut out = Matrix::filled(1, 1, f32::NAN);
    enc.transform_rows_into(&data.features, &mut out);
    assert_eq!(out, enc.transform_rows(&data.features));
}

#[test]
fn batch_executor_matches_direct_inference_on_both_backends() {
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (pipeline, data) = fit_pipeline(backend, 63);
        let direct = pipeline.predict_proba(&data.features).unwrap();
        let mut executor = BatchExecutor::new();
        // Several rounds through the same executor, varying batch size the
        // way a micro-batching worker would.
        for (round, n) in [8usize, 3, 20, 8].into_iter().enumerate() {
            let x = executor.begin(n, data.features.cols());
            for r in 0..n {
                x.row_mut(r).copy_from_slice(data.features.row(r));
            }
            let proba = executor
                .run(&pipeline)
                .unwrap_or_else(|e| panic!("{backend:?} round {round}: {e}"));
            for r in 0..n {
                assert_eq!(
                    proba.row(r),
                    direct.row(r),
                    "{backend:?} round {round} row {r}"
                );
            }
        }
    }
}

#[test]
fn training_through_the_workspace_stays_deterministic() {
    // Two identically-seeded fits must stay bit-reproducible now that the
    // trainer routes every batch through workspace-backed `_with` steps
    // (the per-step equivalence against the allocating twins is unit-tested
    // next to each classifier).
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (a, data) = fit_pipeline(backend, 64);
        let (b, _) = fit_pipeline(backend, 64);
        let pa = a.predict_proba(&data.features).unwrap();
        let pb = b.predict_proba(&data.features).unwrap();
        assert_eq!(pa, pb, "{backend:?}");
    }
}
