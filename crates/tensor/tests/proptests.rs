//! Property-based tests for the dense linear-algebra substrate.

use bcpnn_tensor::{gemm, gemm_blocked, gemm_naive, gemm_nt, gemm_tn, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with dimensions in [1, max_dim] and bounded entries.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// An output buffer no `beta == 0` product may read: any element that leaks
/// into the result makes it non-finite.
fn poisoned(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::filled(rows, cols, f64::NAN)
}

/// Strategy: a compatible (A, B) pair for GEMM with bounded dimensions.
fn gemm_pair(max_dim: usize) -> impl Strategy<Value = (Matrix<f64>, Matrix<f64>)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        let a =
            prop::collection::vec(-5.0f64..5.0, m * k).prop_map(move |d| Matrix::from_vec(m, k, d));
        let b =
            prop::collection::vec(-5.0f64..5.0, k * n).prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(m in matrix_strategy(12)) {
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn blocked_gemm_matches_naive((a, b) in gemm_pair(24)) {
        let mut c1 = Matrix::zeros(a.rows(), b.cols());
        let mut c2 = poisoned(a.rows(), b.cols());
        gemm_naive(1.0, &a, &b, 0.0, &mut c1);
        gemm_blocked(1.0, &a, &b, 0.0, &mut c2);
        prop_assert!(c2.all_finite());
        prop_assert!(c1.max_abs_diff(&c2) < 1e-9);
    }

    #[test]
    fn parallel_gemm_matches_naive((a, b) in gemm_pair(24)) {
        let mut c1 = poisoned(a.rows(), b.cols());
        let mut c2 = poisoned(a.rows(), b.cols());
        gemm_naive(1.0, &a, &b, 0.0, &mut c1);
        gemm(1.0, &a, &b, 0.0, &mut c2);
        prop_assert!(c1.all_finite() && c2.all_finite());
        prop_assert!(c1.max_abs_diff(&c2) < 1e-9);
    }

    #[test]
    fn gemm_tn_equals_explicit_transpose((a, b) in gemm_pair(16)) {
        // gemm_tn takes A stored as k x m and computes Aᵀ·B. Passing aᵀ
        // (k x m) must therefore reproduce the plain product a·b.
        let a_t = a.transposed();
        let mut expected = Matrix::zeros(a.rows(), b.cols());
        gemm_naive(1.0, &a, &b, 0.0, &mut expected);
        let mut got = poisoned(a.rows(), b.cols());
        gemm_tn(1.0, &a_t, &b, 0.0, &mut got);
        prop_assert!(got.all_finite());
        prop_assert!(expected.max_abs_diff(&got) < 1e-9);
    }

    #[test]
    fn gemm_nt_equals_explicit_transpose((a, b) in gemm_pair(16)) {
        // C = A·Bᵀ with B given as n x k: reuse the pair by transposing b.
        let bt = b.transposed(); // n x k with n = b.cols()
        let mut expected = Matrix::zeros(a.rows(), b.cols());
        gemm_naive(1.0, &a, &b, 0.0, &mut expected);
        let mut got = poisoned(a.rows(), b.cols());
        gemm_nt(1.0, &a, &bt, 0.0, &mut got);
        prop_assert!(got.all_finite());
        prop_assert!(expected.max_abs_diff(&got) < 1e-9);
    }

    #[test]
    fn gemm_is_linear_in_alpha((a, b) in gemm_pair(12), alpha in -3.0f64..3.0) {
        let mut c_unit = Matrix::zeros(a.rows(), b.cols());
        gemm(1.0, &a, &b, 0.0, &mut c_unit);
        let mut c_alpha = Matrix::zeros(a.rows(), b.cols());
        gemm(alpha, &a, &b, 0.0, &mut c_alpha);
        let scaled = c_unit.map(|v| v * alpha);
        prop_assert!(scaled.max_abs_diff(&c_alpha) < 1e-8);
    }

    #[test]
    fn identity_is_neutral(m in matrix_strategy(16)) {
        let id = Matrix::identity(m.cols());
        let mut c = Matrix::zeros(m.rows(), m.cols());
        gemm(1.0, &m, &id, 0.0, &mut c);
        prop_assert!(c.max_abs_diff(&m) < 1e-12);
    }

    #[test]
    fn softmax_rows_always_normalises(m in matrix_strategy(16)) {
        let mut s = m.clone();
        bcpnn_tensor::reduce::softmax_rows(&mut s);
        for r in 0..s.rows() {
            let total: f64 = s.row(r).iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn row_sums_equal_total(m in matrix_strategy(16)) {
        let total: f64 = bcpnn_tensor::reduce::sum(&m);
        let by_rows: f64 = bcpnn_tensor::reduce::row_sums(&m).iter().sum();
        prop_assert!((total - by_rows).abs() < 1e-8);
    }

    #[test]
    fn io_roundtrip_preserves_matrix(m in matrix_strategy(10)) {
        let mut buf = Vec::new();
        bcpnn_tensor::write_matrix(&m, &mut buf).unwrap();
        let back: Matrix<f64> = bcpnn_tensor::read_matrix(&buf[..]).unwrap();
        prop_assert!(m.max_abs_diff(&back) < 1e-9);
    }

    #[test]
    fn quantile_boundaries_are_sorted(data in prop::collection::vec(-100.0f64..100.0, 20..200), k in 2usize..12) {
        let b = bcpnn_tensor::stats::quantile_boundaries(&data, k);
        prop_assert_eq!(b.len(), k - 1);
        prop_assert!(b.windows(2).all(|w| w[0] <= w[1]));
        // Every data point lands in a valid bin.
        for &x in &data {
            prop_assert!(bcpnn_tensor::stats::bin_index(&b, x) < k);
        }
    }
}
