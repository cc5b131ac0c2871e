//! Cross-tier equivalence for the runtime SIMD dispatch layer
//! (`bcpnn_tensor::simd::dispatch`), in the spirit of
//! `into_equivalence.rs`: every dispatch tier must agree with the scalar
//! reference — **bit-for-bit** for the elementwise and index kernels
//! (i8 / argmax), and within the documented `exp_approx` tolerance
//! for the softmax kernels.
//! On top of the kernel checks, a fitted pipeline must predict the same
//! classes (accuracy delta ≤ 1e-5) on every tier.
//!
//! Everything runs inside a single `#[test]` because the later phases force
//! the process-wide tier with `set_tier`; separate tests would race each
//! other's global state under the parallel test runner.

use bcpnn_backend::{Backend, BackendKind, NaiveBackend, ParallelBackend};
use bcpnn_core::metrics::accuracy;
use bcpnn_core::{Network, Pipeline, Predictor, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_tensor::simd::dispatch::{self, SimdTier};
use bcpnn_tensor::{Matrix, MatrixRng};

const TIERS: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Lanes, SimdTier::Avx2];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Ragged lengths crossing the 8-lane boundary every way that matters.
const LENS: [usize; 7] = [0, 1, 7, 8, 9, 33, 250];

fn elementwise_kernels_are_bit_exact_across_tiers(rng: &mut MatrixRng) {
    for len in LENS {
        let base: Vec<f32> = rng.uniform(1, len.max(1), -2.0, 2.0).into_vec()[..len].to_vec();
        let x: Vec<f32> = rng.uniform(1, len.max(1), -2.0, 2.0).into_vec()[..len].to_vec();
        let codes_i8: Vec<i8> = rng.uniform::<f32>(1, len.max(1), -127.0, 127.0).into_vec()[..len]
            .iter()
            .map(|&v| v as i8)
            .collect();
        let a = 0.37f32;

        let mut want_i8acc = base.clone();
        dispatch::accumulate_i8_with(SimdTier::Scalar, &mut want_i8acc, &codes_i8);
        let mut want_i8axpy = base.clone();
        dispatch::axpy_i8_with(SimdTier::Scalar, &mut want_i8axpy, a, &codes_i8);
        let want_argmax = dispatch::argmax_with(SimdTier::Scalar, &x);

        for tier in [SimdTier::Lanes, SimdTier::Avx2] {
            let mut got = base.clone();
            dispatch::accumulate_i8_with(tier, &mut got, &codes_i8);
            assert_eq!(
                bits(&got),
                bits(&want_i8acc),
                "accumulate_i8 {tier:?} len {len}"
            );

            let mut got = base.clone();
            dispatch::axpy_i8_with(tier, &mut got, a, &codes_i8);
            assert_eq!(bits(&got), bits(&want_i8axpy), "axpy_i8 {tier:?} len {len}");

            assert_eq!(
                dispatch::argmax_with(tier, &x),
                want_argmax,
                "argmax {tier:?} len {len}"
            );
        }
    }

    // argmax edge semantics: first-max ties and NaNs, on every tier.
    let with_nan = [0.0, f32::NAN, 2.0, 1.0, 0.5, 0.25, 0.1, 0.0, -1.0];
    let ties = [1.0, 3.0, 3.0, 2.0, 3.0, 0.0, 0.0, 0.0, 3.0];
    for tier in TIERS {
        assert_eq!(dispatch::argmax_with(tier, &with_nan), 2, "NaN {tier:?}");
        assert_eq!(dispatch::argmax_with(tier, &ties), 1, "ties {tier:?}");
        assert_eq!(dispatch::argmax_with(tier, &[]), 0, "empty {tier:?}");
    }
}

fn matrix_kernels_are_bit_exact_across_tiers(rng: &mut MatrixRng) {
    for (rows, cols) in [(0, 5), (1, 1), (4, 7), (5, 8), (6, 19), (9, 64)] {
        let m: Matrix<f32> = rng.uniform(rows, cols, -3.0, 3.0);
        let mut want_idx = Vec::new();
        dispatch::row_argmax_into_with(SimdTier::Scalar, &m, &mut want_idx);
        for tier in [SimdTier::Lanes, SimdTier::Avx2] {
            let mut idx = Vec::new();
            dispatch::row_argmax_into_with(tier, &m, &mut idx);
            assert_eq!(idx, want_idx, "row_argmax {tier:?} {rows}x{cols}");
        }
    }
}

/// The scalar tier of the shared softmax kernel must be the legacy naive
/// loop bit-for-bit; the polynomial tiers must agree within the documented
/// `exp_approx` tolerance (probabilities live in [0, 1], so absolute diff).
fn softmax_matches_scalar_reference(rng: &mut MatrixRng) {
    for (rows, group, groups) in [(1, 1, 4), (5, 4, 3), (9, 32, 4), (3, 7, 2)] {
        let m: Matrix<f32> = rng.normal(rows, group * groups, 0.0, 3.0);

        // Legacy loop, verbatim from the pre-dispatch NaiveBackend.
        let mut legacy = m.clone();
        for r in 0..legacy.rows() {
            for seg in legacy.row_mut(r).chunks_mut(group) {
                let max = seg.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut total = 0.0f32;
                for v in seg.iter_mut() {
                    *v = (*v - max).exp();
                    total += *v;
                }
                if total > 0.0 {
                    for v in seg.iter_mut() {
                        *v /= total;
                    }
                } else {
                    let u = 1.0 / seg.len() as f32;
                    for v in seg.iter_mut() {
                        *v = u;
                    }
                }
            }
        }

        let mut scalar = m.clone();
        dispatch::softmax_groups_into_with(SimdTier::Scalar, &mut scalar, group);
        assert_eq!(
            bits(scalar.as_slice()),
            bits(legacy.as_slice()),
            "scalar tier must be the legacy loop bit-for-bit ({rows}x{group}x{groups})"
        );

        for tier in [SimdTier::Lanes, SimdTier::Avx2] {
            let mut got = m.clone();
            dispatch::softmax_groups_into_with(tier, &mut got, group);
            assert!(
                got.max_abs_diff(&scalar) <= 2e-6,
                "softmax {tier:?} drifted {} from scalar ({rows}x{group}x{groups})",
                got.max_abs_diff(&scalar)
            );
            // Each group still normalises exactly enough to serve.
            for r in 0..got.rows() {
                for seg in got.row(r).chunks(group) {
                    let s: f32 = seg.iter().sum();
                    assert!((s - 1.0).abs() < 1e-5, "{tier:?} group sum {s}");
                }
            }
        }
    }
}

/// Naive and parallel backends must stay bit-identical on *every* forced
/// tier — they share the per-segment softmax kernel.
fn backends_agree_per_tier(rng: &mut MatrixRng) {
    let prev = dispatch::active_tier();
    for tier in TIERS {
        let installed = dispatch::set_tier(tier);
        let m: Matrix<f32> = rng.normal(6, 24, 0.0, 2.0);
        let mut a = m.clone();
        let mut b = m;
        NaiveBackend::new().grouped_softmax(&mut a, 4);
        ParallelBackend::new().grouped_softmax(&mut b, 4);
        assert_eq!(
            bits(a.as_slice()),
            bits(b.as_slice()),
            "naive vs parallel on {installed:?}"
        );
    }
    dispatch::set_tier(prev);
}

/// End-to-end: one pipeline fitted on the scalar tier must predict the same
/// probabilities (≤ 1e-5) and the same accuracy (delta ≤ 1e-5) when served
/// on every other tier.
fn end_to_end_predict_agrees_across_tiers() {
    let prev = dispatch::active_tier();
    dispatch::set_tier(SimdTier::Scalar);

    let data = generate(&SyntheticHiggsConfig {
        n_samples: 400,
        seed: 42,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(2, 8, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(42),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 2,
            batch_size: 64,
            ..Default::default()
        },
    )
    .unwrap();

    let proba_scalar = pipeline.predict_proba(&data.features).unwrap();
    let preds_scalar = pipeline.predict(&data.features).unwrap();
    let acc_scalar = accuracy(&preds_scalar, &data.labels);

    for tier in [SimdTier::Lanes, SimdTier::Avx2] {
        let installed = dispatch::set_tier(tier);
        let proba = pipeline.predict_proba(&data.features).unwrap();
        assert!(
            proba.max_abs_diff(&proba_scalar) <= 1e-5,
            "{installed:?} probabilities drifted {} from the libm path",
            proba.max_abs_diff(&proba_scalar)
        );
        let preds = pipeline.predict(&data.features).unwrap();
        let acc = accuracy(&preds, &data.labels);
        assert!(
            (acc - acc_scalar).abs() <= 1e-5,
            "{installed:?} accuracy {acc} vs scalar {acc_scalar}"
        );
    }
    dispatch::set_tier(prev);
}

#[test]
fn every_dispatch_tier_agrees_with_scalar() {
    // On machines without AVX2 the Avx2 requests degrade to Lanes — the
    // assertions then compare Lanes against itself, which keeps this test
    // meaningful-and-green on any x86 and on non-x86 targets alike.
    let mut rng = MatrixRng::seed_from(77);
    elementwise_kernels_are_bit_exact_across_tiers(&mut rng);
    matrix_kernels_are_bit_exact_across_tiers(&mut rng);
    softmax_matches_scalar_reference(&mut rng);
    backends_agree_per_tier(&mut rng);
    end_to_end_predict_agrees_across_tiers();
}
