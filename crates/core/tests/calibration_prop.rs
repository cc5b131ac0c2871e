//! Property-based checks locking in the calibration stage's contract:
//! whatever parameters a fit produces, applying a [`Calibration`] must
//! (1) never reorder a row's class ranking — abstention and cascade
//! thresholds compare calibrated confidences, so a reorder would change
//! *answers*, not just confidence — (2) keep every entry in `[0, 1]` and
//! the row summing to 1 within `1e-6`, and (3) round-trip persistence
//! bit-exactly, because a published artifact must serve the same numbers
//! on every node that loads it.

use bcpnn_core::calibration::{Calibration, IsotonicMap};
use bcpnn_tensor::{write_matrix, FrameReader, Matrix};
use proptest::prelude::*;

/// A probability row: 2–8 strictly positive entries normalised to sum 1.
fn proba_row_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(1e-3f32..1.0, 2..9).prop_map(|raw| {
        let sum: f32 = raw.iter().sum();
        raw.into_iter().map(|v| v / sum).collect()
    })
}

/// Any valid calibration: a temperature in the fit's own search range, or
/// an isotonic map built from sorted random breakpoints.
fn calibration_strategy() -> impl Strategy<Value = Calibration> {
    (
        prop::bool::ANY,
        0.05f32..20.0,
        prop::collection::vec(0.0f32..1.0, 2..7),
        prop::collection::vec(0.0f32..1.0, 6),
    )
        .prop_map(|(isotonic, temperature, raw_xs, raw_ys)| {
            if !isotonic {
                return Calibration::Temperature(temperature);
            }
            // Strictly increasing xs (sort + dedup by spacing), paired
            // with nondecreasing ys of the same length.
            let mut xs: Vec<f32> = raw_xs;
            xs.sort_by(f32::total_cmp);
            xs.dedup_by(|b, a| *b - *a < 1e-4);
            if xs.len() < 2 {
                xs = vec![0.0, 1.0];
            }
            let mut ys: Vec<f32> = raw_ys[..xs.len().min(raw_ys.len())].to_vec();
            while ys.len() < xs.len() {
                ys.push(*ys.last().unwrap_or(&0.5));
            }
            ys.sort_by(f32::total_cmp);
            Calibration::Isotonic(
                IsotonicMap::new(xs, ys).expect("constructed to satisfy the invariants"),
            )
        })
}

/// Labels and an overconfident probability matrix to fit against.
fn fit_inputs_strategy() -> impl Strategy<Value = (Matrix<f32>, Vec<usize>)> {
    (
        prop::collection::vec(proba_row_strategy(), 8..24),
        prop::collection::vec(0usize..2, 24),
    )
        .prop_map(|(rows, raw_labels)| {
            // Truncate every row to the first row's width so the matrix is
            // rectangular, then renormalise.
            let width = rows[0].len().min(rows.iter().map(Vec::len).min().unwrap());
            let n_rows = rows.len();
            let mut data = Vec::with_capacity(n_rows * width);
            for row in &rows {
                let sum: f32 = row[..width].iter().sum();
                data.extend(row[..width].iter().map(|v| v / sum));
            }
            let labels = raw_labels[..n_rows]
                .iter()
                .map(|&l| l.min(width - 1))
                .collect();
            (Matrix::from_vec(n_rows, width, data), labels)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Calibration is monotone per row: it may collapse a strict order
    /// into a tie (isotonic pooling does), but it never *inverts* one, so
    /// the argmax — the served answer — survives recalibration.
    #[test]
    fn calibration_never_reorders_a_row(
        row in proba_row_strategy(),
        cal in calibration_strategy(),
    ) {
        let mut calibrated = row.clone();
        cal.apply_row(&mut calibrated);
        for i in 0..row.len() {
            for j in 0..row.len() {
                if row[i] > row[j] {
                    prop_assert!(
                        calibrated[i] >= calibrated[j],
                        "{cal:?} inverted p[{i}]={} > p[{j}]={} into {} < {}",
                        row[i], row[j], calibrated[i], calibrated[j]
                    );
                }
            }
        }
    }

    /// Calibrated rows are still probability rows: every entry in
    /// `[0, 1]`, the row summing to 1 within `1e-6`.
    #[test]
    fn calibrated_rows_stay_normalised(
        row in proba_row_strategy(),
        cal in calibration_strategy(),
    ) {
        let mut calibrated = row;
        cal.apply_row(&mut calibrated);
        for &v in &calibrated {
            prop_assert!((0.0..=1.0).contains(&v), "entry {v} escaped [0, 1]");
        }
        let sum: f32 = calibrated.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "row sums to {sum}");
    }

    /// A *fitted* stage — both families, fitted on arbitrary held-out
    /// splits — survives save → load with every parameter bit-identical,
    /// so replicas loading the same artifact serve the same confidences.
    #[test]
    fn fitted_calibrations_round_trip_bit_exactly(
        (proba, labels) in fit_inputs_strategy(),
    ) {
        let fits = [
            Calibration::fit_temperature(&proba, &labels).expect("valid inputs"),
            Calibration::fit_isotonic(&proba, &labels).expect("valid inputs"),
        ];
        for fitted in fits {
            // The model file's path: the state as one matrix frame, the
            // family as the header's tag.
            let mut bytes = Vec::new();
            write_matrix(&mut bytes, &fitted.state()).expect("state frame writes");
            let state = FrameReader::new(&bytes[..], bytes.len() as u64)
                .read_matrix()
                .expect("state frame reads");
            let loaded = Calibration::from_state(fitted.method(), &state).expect("state is valid");
            match (&fitted, &loaded) {
                (Calibration::Temperature(a), Calibration::Temperature(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "temperature drifted");
                }
                (Calibration::Isotonic(a), Calibration::Isotonic(b)) => {
                    prop_assert_eq!(a.xs().len(), b.xs().len());
                    for (x, y) in a.xs().iter().zip(b.xs()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "breakpoint drifted");
                    }
                    for (x, y) in a.ys().iter().zip(b.ys()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "value drifted");
                    }
                }
                (a, b) => prop_assert!(false, "kind changed across persistence: {a:?} vs {b:?}"),
            }
        }
    }
}
