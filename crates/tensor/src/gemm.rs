//! General matrix-matrix multiplication (GEMM) kernels.
//!
//! The BCPNN training step is GEMM-dominated (§II-B of the paper): the
//! forward pass computes `support = X · W` and the trace update computes
//! `ΔP_ij ∝ Xᵀ · Π`. StreamBrain delegates these to MKL/cuBLAS; this module
//! is the corresponding substrate, with three tiers:
//!
//! * [`gemm_naive`] — triple loop reference used for correctness testing,
//! * [`gemm_blocked`] — cache-blocked single-threaded kernel,
//! * [`gemm`] / [`gemm_tn`] / [`gemm_nt`] — parallel drivers that split the
//!   output into row bands executed on the `bcpnn-parallel` pool
//!   ([`gemm_tn_serial`]: `gemm_tn` on the calling thread).
//!
//! All kernels compute `C = alpha * op(A) · op(B) + beta * C` with row-major
//! storage and BLAS semantics for `beta == 0`: `C` is overwritten, never
//! read, so a NaN or Inf in a recycled output buffer cannot reach the
//! product.
//!
//! **Narrow outputs.** When `C` is 1–4 columns wide (the readout: 1000
//! hidden units into 2 classes), a row of `C` is one long dependent add
//! chain per column. The blocked kernel then keeps 8 rows of `C` in local
//! sums and walks `p` once for all of them, so 8 × n independent chains
//! are in flight; rows left over after the last full block of 8 take the
//! row-at-a-time loop. This is bit-exact with [`gemm_naive`]: every
//! element of `C` still starts from `beta * c` (or `+0` when `beta == 0`),
//! adds its products `alpha * a[i][p] * b[p][j]` in ascending `p`, and
//! skips a zero `alpha * a[i][p]`, so a NaN in `B` behind a zero in `A`
//! never reaches it and a `-0.0` in `C` is kept. (A NaN result may differ
//! in sign or payload: which of two NaNs an add returns follows the operand
//! order the compiler picked.) For `f32` on the AVX2 tier the blocks of 8
//! rows go through [`Scalar::narrow_rows_simd`] instead: one register of 8
//! rows per column of `C`, and a blend in place of the zero skip, with the
//! same bits.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Cache-block size along the M (rows of C) dimension.
const BLOCK_M: usize = 64;
/// Cache-block size along the N (cols of C) dimension.
const BLOCK_N: usize = 256;
/// Cache-block size along the K (inner) dimension.
const BLOCK_K: usize = 256;
/// Below this many multiply-accumulate operations the parallel drivers stay
/// single-threaded (thread handoff would dominate).
const PARALLEL_FLOP_CUTOFF: usize = 1 << 17;

fn check_gemm_dims<S: Scalar>(
    a: &Matrix<S>,
    b: &Matrix<S>,
    c: &Matrix<S>,
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.shape().0 * a.shape().1, a.len());
    assert_eq!(
        (m, k),
        a.shape(),
        "gemm: A must be {m}x{k}, got {:?}",
        a.shape()
    );
    assert_eq!(
        (k, n),
        b.shape(),
        "gemm: B must be {k}x{n}, got {:?}",
        b.shape()
    );
    assert_eq!(
        (m, n),
        c.shape(),
        "gemm: C must be {m}x{n}, got {:?}",
        c.shape()
    );
}

/// `beta * c`, except that `beta == 0` yields `+0` without reading `c`
/// (`0 * NaN` is NaN).
#[inline(always)]
fn scaled<S: Scalar>(c: S, beta: S) -> S {
    if beta == S::ZERO {
        S::ZERO
    } else {
        c * beta
    }
}

/// Reference GEMM: `C = alpha * A·B + beta * C`. Triple loop, no blocking.
pub fn gemm_naive<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    let (m, k) = a.shape();
    let n = b.cols();
    check_gemm_dims(a, b, c, m, n, k);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for v in c_row.iter_mut() {
            *v = scaled(*v, beta);
        }
        for (p, &av) in a_row.iter().enumerate() {
            let aik = alpha * av;
            if aik == S::ZERO {
                continue;
            }
            let b_row = b.row(p);
            for j in 0..n {
                c_row[j] += aik * b_row[j];
            }
        }
    }
}

/// Multiply a panel of rows `[row_start, row_end)` of C using cache blocking.
fn gemm_block_panel<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: S,
    c_panel: &mut [S],
    row_start: usize,
    row_end: usize,
) {
    let k = a.cols();
    let n = b.cols();
    // Scale the panel by beta once up front.
    if beta != S::ONE {
        for v in c_panel.iter_mut() {
            *v = scaled(*v, beta);
        }
    }
    let mut i0 = match n {
        1 => narrow_rows::<S, 1>(alpha, a, b, c_panel, row_start, row_end),
        2 => narrow_rows::<S, 2>(alpha, a, b, c_panel, row_start, row_end),
        3 => narrow_rows::<S, 3>(alpha, a, b, c_panel, row_start, row_end),
        4 => narrow_rows::<S, 4>(alpha, a, b, c_panel, row_start, row_end),
        _ => row_start,
    };
    while i0 < row_end {
        let i1 = (i0 + BLOCK_M).min(row_end);
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + BLOCK_K).min(k);
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + BLOCK_N).min(n);
                for i in i0..i1 {
                    let a_row = &a.row(i)[p0..p1];
                    let c_row = &mut c_panel[(i - row_start) * n + j0..(i - row_start) * n + j1];
                    for (pp, &aval) in a_row.iter().enumerate() {
                        let aik = alpha * aval;
                        if aik == S::ZERO {
                            continue;
                        }
                        let b_row = &b.row(p0 + pp)[j0..j1];
                        for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                            *cv += aik * bv;
                        }
                    }
                }
                j0 = j1;
            }
            p0 = p1;
        }
        i0 = i1;
    }
}

/// Rows of C that [`narrow_rows`] accumulates side by side.
const NARROW_ROWS: usize = 8;

/// Narrow-output kernel for `N = b.cols()` in `1..=4`, on a panel already
/// scaled by beta: full blocks of [`NARROW_ROWS`] rows of C, held in
/// registers while `p` walks `0..k` once in ascending order, so
/// `NARROW_ROWS * N` independent add chains are in flight instead of `N`.
/// A zero `alpha * a[i][p]` is skipped as in [`gemm_naive`]. The blocks
/// start at the first row [`Scalar::narrow_rows_simd`] left (for `f32` on
/// the AVX2 tier: all of them, eight rows to a register). Returns the
/// first row left to the row-at-a-time loop (fewer than [`NARROW_ROWS`]
/// remain).
fn narrow_rows<S: Scalar, const N: usize>(
    alpha: S,
    a: &Matrix<S>,
    b: &Matrix<S>,
    c_panel: &mut [S],
    row_start: usize,
    row_end: usize,
) -> usize {
    let k = a.cols();
    let b_data = &b.as_slice()[..k * N];
    let mut i0 = S::narrow_rows_simd::<N>(alpha, a, b, c_panel, row_start, row_end);
    while i0 + NARROW_ROWS <= row_end {
        let c_block = &mut c_panel[(i0 - row_start) * N..(i0 - row_start + NARROW_ROWS) * N];
        let a_rows: [&[S]; NARROW_ROWS] = std::array::from_fn(|r| &a.row(i0 + r)[..k]);
        let mut acc = [[S::ZERO; N]; NARROW_ROWS];
        for (acc_row, c_row) in acc.iter_mut().zip(c_block.chunks_exact(N)) {
            acc_row.copy_from_slice(c_row);
        }
        for p in 0..k {
            let b_row = &b_data[p * N..p * N + N];
            for (acc_row, a_row) in acc.iter_mut().zip(a_rows.iter()) {
                let aik = alpha * a_row[p];
                if aik == S::ZERO {
                    continue;
                }
                for (cv, &bv) in acc_row.iter_mut().zip(b_row.iter()) {
                    *cv += aik * bv;
                }
            }
        }
        for (acc_row, c_row) in acc.iter().zip(c_block.chunks_exact_mut(N)) {
            c_row.copy_from_slice(acc_row);
        }
        i0 += NARROW_ROWS;
    }
    i0
}

/// Single-threaded cache-blocked GEMM: `C = alpha * A·B + beta * C`.
pub fn gemm_blocked<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    let (m, k) = a.shape();
    let n = b.cols();
    check_gemm_dims(a, b, c, m, n, k);
    let c_slice = c.as_mut_slice();
    gemm_block_panel(alpha, a, b, beta, c_slice, 0, m);
}

/// Parallel GEMM: `C = alpha * A·B + beta * C`.
///
/// The output is split into contiguous row bands; each band is computed by
/// the cache-blocked kernel on a pool worker. Small problems fall back to the
/// single-threaded blocked kernel.
pub fn gemm<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    let (m, k) = a.shape();
    let n = b.cols();
    check_gemm_dims(a, b, c, m, n, k);
    if m * n * k < PARALLEL_FLOP_CUTOFF || m < 2 {
        gemm_blocked(alpha, a, b, beta, c);
        return;
    }
    let band = BLOCK_M.max(m.div_ceil(bcpnn_parallel::global_pool().num_threads() * 2));
    let c_data = c.as_mut_slice();
    // Split C into disjoint row bands and process them in parallel. We hand
    // each task its own sub-slice of C, so there is no aliasing.
    let bands: Vec<(usize, usize)> = {
        let mut v = Vec::new();
        let mut start = 0;
        while start < m {
            let end = (start + band).min(m);
            v.push((start, end));
            start = end;
        }
        v
    };
    bcpnn_parallel::global_pool().scope(|s| {
        let mut rest = c_data;
        let mut consumed = 0usize;
        for &(r0, r1) in &bands {
            let take = (r1 - r0) * n;
            let (panel, tail) = rest.split_at_mut(take);
            rest = tail;
            consumed += take;
            debug_assert_eq!(consumed, r1 * n);
            s.spawn(move || {
                gemm_block_panel(alpha, a, b, beta, panel, r0, r1);
            });
        }
    });
}

/// Parallel GEMM with A transposed: `C = alpha * Aᵀ·B + beta * C` where
/// `A` is `k x m`, `B` is `k x n` and `C` is `m x n`.
///
/// This is the kernel behind the batched trace update `P_ij += Xᵀ·Π / B`.
pub fn gemm_tn<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    gemm_tn_on(true, alpha, a, b, beta, c);
}

/// [`gemm_tn`] on the calling thread, whatever the size, with the same
/// bits: rows of C are independent.
pub fn gemm_tn_serial<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: S,
    c: &mut Matrix<S>,
) {
    gemm_tn_on(false, alpha, a, b, beta, c);
}

fn gemm_tn_on<S: Scalar>(
    pooled: bool,
    alpha: S,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: S,
    c: &mut Matrix<S>,
) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm_tn: inner dimensions differ ({k} vs {kb})");
    assert_eq!(
        (m, n),
        c.shape(),
        "gemm_tn: C must be {m}x{n}, got {:?}",
        c.shape()
    );
    // C_{ij} = sum_p A_{p i} B_{p j}. Parallelise over rows of C (columns of A).
    let n_cols = n;
    let c_data = c.as_mut_slice();
    let work = m * n * k;
    let run_row = |i: usize, c_row: &mut [S]| {
        if beta != S::ONE {
            for v in c_row.iter_mut() {
                *v = scaled(*v, beta);
            }
        }
        for p in 0..k {
            let api = alpha * a.get(p, i);
            if api == S::ZERO {
                continue;
            }
            let b_row = b.row(p);
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += api * bv;
            }
        }
    };
    if !pooled || work < PARALLEL_FLOP_CUTOFF || m < 2 {
        for i in 0..m {
            run_row(i, &mut c_data[i * n_cols..(i + 1) * n_cols]);
        }
        return;
    }
    bcpnn_parallel::par_chunks_mut(c_data, n_cols, |start, chunk| {
        let i = start / n_cols;
        run_row(i, chunk);
    });
}

/// Parallel GEMM with B transposed: `C = alpha * A·Bᵀ + beta * C` where
/// `A` is `m x k`, `B` is `n x k` and `C` is `m x n`.
pub fn gemm_nt<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "gemm_nt: inner dimensions differ ({k} vs {kb})");
    assert_eq!(
        (m, n),
        c.shape(),
        "gemm_nt: C must be {m}x{n}, got {:?}",
        c.shape()
    );
    let n_cols = n;
    let c_data = c.as_mut_slice();
    let work = m * n * k;
    let run_row = |i: usize, c_row: &mut [S]| {
        let a_row = a.row(i);
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = S::ZERO;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            *cv = scaled(*cv, beta) + alpha * acc;
        }
    };
    if work < PARALLEL_FLOP_CUTOFF || m < 2 {
        for i in 0..m {
            run_row(i, &mut c_data[i * n_cols..(i + 1) * n_cols]);
        }
        return;
    }
    bcpnn_parallel::par_chunks_mut(c_data, n_cols, |start, chunk| {
        let i = start / n_cols;
        run_row(i, chunk);
    });
}

/// Matrix-vector product `y = alpha * A·x + beta * y`.
pub fn gemv<S: Scalar>(alpha: S, a: &Matrix<S>, x: &[S], beta: S, y: &mut [S]) {
    let (m, k) = a.shape();
    assert_eq!(x.len(), k, "gemv: x must have length {k}");
    assert_eq!(y.len(), m, "gemv: y must have length {m}");
    bcpnn_parallel::par_chunks_mut(y, 64, |start, chunk| {
        for (off, yv) in chunk.iter_mut().enumerate() {
            let row = a.row(start + off);
            let mut acc = S::ZERO;
            for (&av, &xv) in row.iter().zip(x.iter()) {
                acc += av * xv;
            }
            *yv = scaled(*yv, beta) + alpha * acc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::MatrixRng;

    fn assert_close<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        let d = a.max_abs_diff(b);
        assert!(d <= tol, "matrices differ by {d} (> {tol})");
    }

    #[test]
    fn naive_matches_hand_computed_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::<f64>::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::<f64>::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm_naive(1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = Matrix::<f64>::identity(3);
        let b = Matrix::<f64>::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let mut c = Matrix::<f64>::filled(3, 3, 10.0);
        // C = 2*I*B + 0.5*C = 2*B + 5
        gemm_naive(2.0, &a, &b, 0.5, &mut c);
        for r in 0..3 {
            for cc in 0..3 {
                assert_eq!(c.get(r, cc), 2.0 * b.get(r, cc) + 5.0);
            }
        }
    }

    #[test]
    fn blocked_matches_naive() {
        let mut rng = MatrixRng::seed_from(7);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 3, 7),
            (33, 65, 17),
            (128, 70, 200),
        ] {
            let a: Matrix<f32> = rng.uniform(m, k, -1.0, 1.0);
            let b: Matrix<f32> = rng.uniform(k, n, -1.0, 1.0);
            let mut c1: Matrix<f32> = rng.uniform(m, n, -1.0, 1.0);
            let mut c2 = c1.clone();
            gemm_naive(0.7, &a, &b, 0.3, &mut c1);
            gemm_blocked(0.7, &a, &b, 0.3, &mut c2);
            assert_close(&c1, &c2, 1e-3);
        }
    }

    #[test]
    fn parallel_matches_naive() {
        let mut rng = MatrixRng::seed_from(11);
        for &(m, k, n) in &[(64usize, 64usize, 64usize), (200, 80, 150), (3, 500, 3)] {
            let a: Matrix<f32> = rng.uniform(m, k, -1.0, 1.0);
            let b: Matrix<f32> = rng.uniform(k, n, -1.0, 1.0);
            let mut c1: Matrix<f32> = Matrix::zeros(m, n);
            let mut c2 = Matrix::zeros(m, n);
            gemm_naive(1.0, &a, &b, 0.0, &mut c1);
            gemm(1.0, &a, &b, 0.0, &mut c2);
            assert_close(&c1, &c2, 1e-3);
        }
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let mut rng = MatrixRng::seed_from(13);
        for &(k, m, n) in &[(40usize, 30usize, 20usize), (128, 64, 96), (7, 1, 5)] {
            let a: Matrix<f32> = rng.uniform(k, m, -1.0, 1.0);
            let b: Matrix<f32> = rng.uniform(k, n, -1.0, 1.0);
            let at = a.transposed();
            let mut expected = Matrix::zeros(m, n);
            gemm_naive(1.0, &at, &b, 0.0, &mut expected);
            let mut got = Matrix::zeros(m, n);
            gemm_tn(1.0, &a, &b, 0.0, &mut got);
            assert_close(&expected, &got, 1e-3);
        }
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let mut rng = MatrixRng::seed_from(17);
        for &(m, k, n) in &[(30usize, 40usize, 20usize), (64, 128, 96)] {
            let a: Matrix<f32> = rng.uniform(m, k, -1.0, 1.0);
            let b: Matrix<f32> = rng.uniform(n, k, -1.0, 1.0);
            let bt = b.transposed();
            let mut expected = Matrix::zeros(m, n);
            gemm_naive(1.0, &a, &bt, 0.0, &mut expected);
            let mut got = Matrix::zeros(m, n);
            gemm_nt(1.0, &a, &b, 0.0, &mut got);
            assert_close(&expected, &got, 1e-3);
        }
    }

    #[test]
    fn gemm_tn_respects_beta() {
        let a = Matrix::<f64>::identity(3); // Aᵀ = I
        let b = Matrix::<f64>::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let mut c = Matrix::<f64>::filled(3, 2, 1.0);
        gemm_tn(1.0, &a, &b, 2.0, &mut c);
        for r in 0..3 {
            for cc in 0..2 {
                assert_eq!(c.get(r, cc), b.get(r, cc) + 2.0);
            }
        }
    }

    #[test]
    fn gemv_matches_gemm() {
        let mut rng = MatrixRng::seed_from(19);
        let a: Matrix<f32> = rng.uniform(50, 30, -1.0, 1.0);
        let x: Vec<f32> = (0..30).map(|i| (i as f32) * 0.1).collect();
        let xm = Matrix::from_vec(30, 1, x.clone());
        let mut expected = Matrix::zeros(50, 1);
        gemm_naive(1.0, &a, &xm, 0.0, &mut expected);
        let mut y = vec![0.0f32; 50];
        gemv(1.0, &a, &x, 0.0, &mut y);
        for i in 0..50 {
            assert!((y[i] - expected.get(i, 0)).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "gemm: B must be")]
    fn dimension_mismatch_panics() {
        let a = Matrix::<f32>::zeros(2, 3);
        let b = Matrix::<f32>::zeros(4, 2);
        let mut c = Matrix::<f32>::zeros(2, 2);
        gemm(1.0, &a, &b, 0.0, &mut c);
    }
}
