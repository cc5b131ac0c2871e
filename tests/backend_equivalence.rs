//! The naive (reference) and parallel (optimised) backends must produce
//! statistically equivalent models: same architecture, same seeds, same
//! data → the same predictions up to floating-point reduction-order noise.
//! Where the two run the same per-element operation order (the unit traces
//! and the bias) the agreement is held to the bit.

use bcpnn_backend::{Backend, BackendKind, NaiveBackend, ParallelBackend};
use bcpnn_bench::{build_network, build_trainer, prepare_higgs, BcpnnRunConfig, HiggsDataConfig};
use bcpnn_core::ReadoutKind;
use bcpnn_tensor::{Matrix, MatrixRng};

fn run_with_backend(backend: BackendKind) -> (f64, f64) {
    let data = prepare_higgs(&HiggsDataConfig {
        train_per_class: 800,
        test_per_class: 400,
        ..Default::default()
    });
    let cfg = BcpnnRunConfig {
        n_hcu: 2,
        n_mcu: 60,
        receptive_field: 0.30,
        unsupervised_epochs: 2,
        supervised_epochs: 4,
        readout: ReadoutKind::Hybrid,
        backend,
        ..Default::default()
    };
    let mut network = build_network(&cfg, data.encoded_width(), 23);
    build_trainer(&cfg, 23)
        .fit(&mut network, &data.x_train, &data.y_train)
        .expect("training succeeds");
    let eval = network
        .evaluate(&data.x_test, &data.y_test)
        .expect("evaluation succeeds");
    (eval.accuracy, eval.auc)
}

#[test]
fn naive_and_parallel_backends_learn_equivalent_models() {
    let (acc_naive, auc_naive) = run_with_backend(BackendKind::Naive);
    let (acc_par, auc_par) = run_with_backend(BackendKind::Parallel);
    // The two backends perform the same mathematics with different
    // reduction orders, and the training pipeline (shuffling, noise, mask
    // init) is seeded identically, so results must agree closely — well
    // within a percentage point.
    assert!(
        (acc_naive - acc_par).abs() < 0.02,
        "backend accuracy mismatch: naive {acc_naive}, parallel {acc_par}"
    );
    assert!(
        (auc_naive - auc_par).abs() < 0.02,
        "backend AUC mismatch: naive {auc_naive}, parallel {auc_par}"
    );
    // Both backends must also individually beat chance.
    assert!(acc_naive > 0.55 && acc_par > 0.55);
}

/// What the three training kernels leave behind for one problem (vectors
/// as `1 x n` matrices).
#[derive(Debug, PartialEq)]
struct KernelOutputs {
    forward: Matrix<f32>,
    pi: Matrix<f32>,
    pj: Matrix<f32>,
    pij: Matrix<f32>,
    weights: Matrix<f32>,
    bias: Matrix<f32>,
}

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `linear_forward`, `update_traces` and `recompute_weights` on a 128-row
/// batch of the paper model. `one_hot_input` picks the layer: the hidden
/// layer sees quantile one-hot rows and emits one softmax over its units,
/// the readout sees those softmax rows and is taught one-hot targets.
fn run_kernels(
    backend: &dyn Backend,
    n_in: usize,
    n_units: usize,
    one_hot_input: bool,
) -> KernelOutputs {
    const BATCH: usize = 128;
    let mut rng = MatrixRng::seed_from(16);
    let softmax_rows = |rng: &mut MatrixRng, cols: usize| {
        let mut m = rng.normal(BATCH, cols, 0.0, 2.0);
        NaiveBackend::new().grouped_softmax(&mut m, cols);
        m
    };
    let (x, act) = if one_hot_input {
        (
            Matrix::from_fn(BATCH, n_in, |r, c| {
                f32::from(c % 10 == (r * 7 + c / 10 * 3) % 10)
            }),
            softmax_rows(&mut rng, n_units),
        )
    } else {
        (
            softmax_rows(&mut rng, n_in),
            Matrix::from_fn(BATCH, n_units, |r, c| f32::from(r % n_units == c)),
        )
    };
    let mut weights = rng.normal(n_in, n_units, 0.0, 0.5);
    let mut bias = rng.uniform(1, n_units, -1.0, 0.0);
    let mut forward = Matrix::zeros(BATCH, n_units);
    backend.linear_forward(&x, &weights, bias.as_slice(), &mut forward);

    let mut pi = rng.uniform(1, n_in, 0.001, 0.2);
    let mut pj = rng.uniform(1, n_units, 0.001, 0.2);
    let mut pij = rng.uniform(n_in, n_units, 0.0, 0.01);
    backend.update_traces(
        &x,
        &act,
        0.05,
        pi.as_mut_slice(),
        pj.as_mut_slice(),
        &mut pij,
    );
    backend.recompute_weights(
        pi.as_slice(),
        pj.as_slice(),
        &pij,
        1e-8,
        0.7,
        &mut weights,
        bias.as_mut_slice(),
    );
    KernelOutputs {
        forward,
        pi,
        pj,
        pij,
        weights,
        bias,
    }
}

/// The paper model's two layer shapes at its batch size. The readout's
/// joint trace is 1000 rows of two floats and the hidden layer's 280 rows of
/// a thousand: the row counts the parallel backend splits across threads,
/// which the small shapes of the per-kernel unit tests never made it do.
#[test]
fn kernels_agree_at_the_paper_models_shapes() {
    for (n_in, n_units, one_hot_input) in [(1000, 2, false), (280, 1000, true)] {
        let shape = format!("128 x {n_in} -> {n_units}");
        let naive = run_kernels(&NaiveBackend::new(), n_in, n_units, one_hot_input);
        let parallel = run_kernels(&ParallelBackend::new(), n_in, n_units, one_hot_input);
        let again = run_kernels(&ParallelBackend::new(), n_in, n_units, one_hot_input);
        assert_eq!(
            parallel, again,
            "parallel must repeat itself bit for bit at {shape}"
        );
        // Both backends sum each trace column rows-ascending and apply the
        // same `bcpnn_bias` element for element: equal to the bit.
        for (what, a, b) in [
            ("pi", &naive.pi, &parallel.pi),
            ("pj", &naive.pj, &parallel.pj),
            ("bias", &naive.bias, &parallel.bias),
        ] {
            assert_eq!(bits(a), bits(b), "{what} differs at {shape}");
        }
        // The GEMM kernels reorder reductions: the tolerances of the
        // parallel backend's own unit tests.
        for (what, a, b, tolerance) in [
            ("forward", &naive.forward, &parallel.forward, 1e-4),
            ("pij", &naive.pij, &parallel.pij, 1e-4),
            ("weights", &naive.weights, &parallel.weights, 1e-5),
        ] {
            let diff = a.max_abs_diff(b);
            assert!(diff < tolerance, "{what} differs by {diff} at {shape}");
        }
    }
}

#[test]
fn backend_selection_from_names_matches_the_dispatcher() {
    assert_eq!(BackendKind::parse("naive"), Some(BackendKind::Naive));
    assert_eq!(BackendKind::parse("openmp"), Some(BackendKind::Parallel));
    assert_eq!(
        BackendKind::parse("cuda"),
        None,
        "the CUDA backend is hardware we substitute"
    );
    assert_eq!(
        BackendKind::accepted_names().collect::<Vec<_>>().join(", "),
        "naive, parallel, reference, numpy, openmp, cpu, threaded",
        "a SIMD tier (`simd`, `lanes`) is not a backend"
    );
    assert_eq!(BackendKind::default().name(), "parallel");
}
