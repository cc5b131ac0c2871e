//! The served hidden forward reads only the weight rows of a one-hot row's
//! hot columns ([`HiddenLayer::forward_hot_into`]) instead of multiplying
//! the dense row by its zeros ([`HiddenLayer::forward_into`]). These
//! properties pin the two to each other `to_bits()`-equal on both
//! backends: 1–4 HCUs, fields so narrow that a row reaches no live input
//! in some HCU, NaN-filled recycled outputs, 0 / 1 / 63 / 64 / 513 rows
//! (both sides of the parallel backend's serial cutoff), trained weights,
//! and the mask after a
//! structural-plasticity step.

use bcpnn_backend::BackendKind;
use bcpnn_core::{CoreError, HiddenLayer, HiddenLayerParams};
use bcpnn_tensor::{Matrix, MatrixRng};
use proptest::prelude::*;

const ROWS: [usize; 5] = [0, 1, 63, 64, 513];

#[derive(Debug, Clone)]
struct Case {
    backend: BackendKind,
    n_hcu: usize,
    n_mcu: usize,
    n_features: usize,
    n_bins: usize,
    receptive_field: f64,
    /// 0 is the hidden layer's default: every bias is then `±0`.
    bias_gain: f32,
    train_batches: usize,
    plasticity: bool,
    rows: usize,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (
            prop::bool::ANY,
            1usize..5,
            prop::bool::ANY,
            1usize..9,
            96usize..161,
        ),
        (1usize..7, 2usize..6, 0.02f64..1.0, prop::bool::ANY),
        (
            0usize..4,
            prop::bool::ANY,
            0usize..ROWS.len(),
            0u64..1 << 32,
        ),
    )
        .prop_map(
            |(
                (naive, n_hcu, wide, narrow_mcu, wide_mcu),
                (n_features, n_bins, receptive_field, gain),
                (train_batches, plasticity, rows, seed),
            )| Case {
                backend: if naive {
                    BackendKind::Naive
                } else {
                    BackendKind::Parallel
                },
                n_hcu,
                // Wide HCUs push 513 rows past the parallel backend's
                // serial cutoff, so its banded path is covered too.
                n_mcu: if wide { wide_mcu } else { narrow_mcu },
                n_features,
                n_bins,
                receptive_field,
                bias_gain: if gain { 1.0 } else { 0.0 },
                train_batches,
                plasticity,
                rows: ROWS[rows],
                seed,
            },
        )
}

/// `rows` one-hot rows, one bin per feature: as their hot columns
/// (ascending within a row) and as the dense matrix they stand for.
fn one_hot(
    rng: &mut MatrixRng,
    rows: usize,
    n_features: usize,
    n_bins: usize,
) -> (Vec<u32>, Matrix<f32>) {
    let mut hot = Vec::with_capacity(rows * n_features);
    let mut dense = Matrix::zeros(rows, n_features * n_bins);
    for r in 0..rows {
        for f in 0..n_features {
            let bin = (rng.uniform_scalar::<f64>(0.0, n_bins as f64) as usize).min(n_bins - 1);
            let c = f * n_bins + bin;
            hot.push(c as u32);
            dense.set(r, c, 1.0);
        }
    }
    (hot, dense)
}

fn layer_for(case: &Case) -> HiddenLayer {
    let params = HiddenLayerParams {
        n_inputs: case.n_features * case.n_bins,
        n_hcu: case.n_hcu,
        n_mcu: case.n_mcu,
        receptive_field: case.receptive_field,
        trace_rate: 0.2,
        bias_gain: case.bias_gain,
        plasticity_swaps: 2,
        ..Default::default()
    };
    let mut layer = HiddenLayer::new(params, case.backend.create(), case.seed).unwrap();
    let mut rng = MatrixRng::seed_from(case.seed ^ 0x7ea1);
    for _ in 0..case.train_batches {
        let (_, x) = one_hot(&mut rng, 16, case.n_features, case.n_bins);
        layer.train_batch(&x).unwrap();
    }
    if case.plasticity {
        layer.structural_plasticity_step();
    }
    layer
}

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Run both forwards on the same rows and demand identical bits. Returns
/// how many (row, HCU) pairs had no hot input inside the HCU's field.
fn assert_gather_is_dense(case: &Case) -> usize {
    let layer = layer_for(case);
    let mut rng = MatrixRng::seed_from(case.seed ^ 0x0de5);
    let (hot, x) = one_hot(&mut rng, case.rows, case.n_features, case.n_bins);
    let units = layer.n_units();
    let mut dense = Matrix::filled(case.rows + 2, units, f32::NAN);
    let mut gathered = Matrix::filled(case.rows + 2, units, f32::NAN);
    layer.forward_into(&x, &mut dense).unwrap();
    layer
        .forward_hot_into(&hot, case.rows, &mut gathered)
        .unwrap();
    assert_eq!(gathered.shape(), (case.rows, units), "{case:?}");
    assert_eq!(bits(&gathered), bits(&dense), "{case:?}");
    let mask = layer.mask();
    hot.chunks(case.n_features)
        .map(|cols| {
            (0..case.n_hcu)
                .filter(|&h| !cols.iter().any(|&c| mask.is_active(h, c as usize)))
                .count()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gathered_forward_is_the_dense_forward_bit_for_bit(case in case_strategy()) {
        assert_gather_is_dense(&case);
    }
}

#[test]
fn rows_with_no_live_input_in_an_hcu_get_the_dense_answer() {
    // One live input of 12 per HCU: most rows miss it in every HCU, so
    // those segments are the bias alone on the gather path.
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let case = Case {
            backend,
            n_hcu: 3,
            n_mcu: 5,
            n_features: 3,
            n_bins: 4,
            receptive_field: 0.05,
            bias_gain: 1.0,
            train_batches: 2,
            plasticity: true,
            rows: 64,
            seed: 11,
        };
        assert!(assert_gather_is_dense(&case) > 0, "{backend:?}");
    }
}

#[test]
fn malformed_hot_columns_are_typed_errors() {
    let case = Case {
        backend: BackendKind::Parallel,
        n_hcu: 2,
        n_mcu: 3,
        n_features: 2,
        n_bins: 3,
        receptive_field: 0.5,
        bias_gain: 0.0,
        train_batches: 0,
        plasticity: false,
        rows: 0,
        seed: 3,
    };
    let layer = layer_for(&case);
    let mut out = Matrix::zeros(0, 0);
    for (hot, rows) in [
        (vec![0u32, 4, 1], 2), // 3 columns do not split over 2 rows
        (vec![4u32, 0], 1),    // descending
        (vec![1u32, 1], 1),    // repeated
        (vec![0u32, 6], 1),    // past the 6 inputs
    ] {
        assert!(
            matches!(
                layer.forward_hot_into(&hot, rows, &mut out),
                Err(CoreError::DataMismatch(_))
            ),
            "{hot:?} over {rows} rows"
        );
    }
}
