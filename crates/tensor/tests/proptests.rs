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
        bcpnn_tensor::write_matrix(&mut buf, &m).unwrap();
        let back: Matrix<f64> = bcpnn_tensor::FrameReader::new(&buf[..], buf.len() as u64)
            .read_matrix()
            .unwrap();
        prop_assert_eq!(m, back);
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

/// splitmix64: the deterministic source behind [`edge_case_operands`].
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)`.
fn uniform(state: &mut u64, lo: f32, hi: f32) -> f32 {
    lo + (hi - lo) * (next_u64(state) >> 40) as f32 / (1u64 << 24) as f32
}

/// `A` (m x k), `B` (k x n) and `C` (m x n) for a bit-exactness check,
/// drawn from `seed`. `A` mixes exact zeros, `-0.0`, subnormals near
/// `1e-40` and magnitudes near `1e18` into `[-1, 1)`, and every fifth
/// column of `A` is zero (alternating sign) with the matching row of `B`
/// all NaN, which only a skipped zero keeps out of `C`. With `beta == 0`
/// `C` is NaN (never read); otherwise half its entries are `-0.0`, which
/// `+0` accumulation would turn into `+0`.
fn edge_case_operands(
    m: usize,
    k: usize,
    n: usize,
    beta: f32,
    seed: u64,
) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
    let mut state = seed;
    let a = Matrix::from_fn(m, k, |_, p| {
        let class = next_u64(&mut state) % 10;
        match (p % 5, class) {
            (0, _) => [0.0, -0.0][p / 5 % 2],
            (_, 0..=2) => 0.0,
            (_, 3) => -0.0,
            (_, 4) => uniform(&mut state, -2.0, 2.0) * 1e-40,
            (_, 5) => uniform(&mut state, -4.0, 4.0) * 1e18,
            _ => uniform(&mut state, -1.0, 1.0),
        }
    });
    let b = Matrix::from_fn(k, n, |p, _| {
        if p % 5 == 0 {
            f32::NAN
        } else {
            uniform(&mut state, -4.0, 4.0)
        }
    });
    let c = Matrix::from_fn(m, n, |_, _| {
        if beta == 0.0 {
            f32::NAN
        } else if next_u64(&mut state) & 1 == 0 {
            -0.0
        } else {
            uniform(&mut state, -1.0, 1.0)
        }
    });
    (a, b, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gemm` and `gemm_blocked` equal `gemm_naive` bit for bit on every
    /// width the narrow-output path takes (n <= 4) and the first it does
    /// not (5), on row counts around its 8-row blocks, the 64-row bands
    /// and the parallel cut-off.
    #[test]
    fn gemm_is_bit_exact_with_naive(
        m_at in 0usize..9,
        k in 0usize..=1100,
        n in 1usize..=5,
        alpha_at in 0usize..2,
        beta_at in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let m = [0, 1, 7, 8, 9, 63, 64, 65, 257][m_at];
        let (alpha, beta) = ([1.0f32, -0.75][alpha_at], [0.0f32, 0.5][beta_at]);
        let (a, b, c) = edge_case_operands(m, k, n, beta, seed);
        let mut expected = c.clone();
        gemm_naive(alpha, &a, &b, beta, &mut expected);
        prop_assert!(expected.all_finite());
        let mut blocked = c.clone();
        gemm_blocked(alpha, &a, &b, beta, &mut blocked);
        let mut parallel = c;
        gemm(alpha, &a, &b, beta, &mut parallel);
        let bits = |x: &Matrix<f32>| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&blocked), bits(&expected));
        prop_assert_eq!(bits(&parallel), bits(&expected));
    }
}
