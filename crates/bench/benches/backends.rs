//! Backend and precision benchmarks behind the CI `bench-regression` gate.
//!
//! One machine-readable answer per question (set `BENCH_JSON` to collect
//! them as JSONL for `bench_compare`):
//!
//! * `backend_forward/*` — the batched forward pass at the paper model's
//!   shape (64 x 280 one-hot inputs → 1000 units) on the [`NaiveBackend`]
//!   row loop and the [`ParallelBackend`] blocked GEMM, and `active`: the
//!   served forward, the parallel backend gathering the weight rows of
//!   the same rows' hot columns inside a 40 % receptive field.
//! * `backend_forward_readout/*` — the readout's forward at the paper
//!   model's shape: 256 rows of a 1000-wide softmax code into 2 classes.
//!   `C` is two floats wide, so this times the narrow-output GEMM path
//!   (eight rows of sums in flight) against the naive row loop; CI asserts
//!   `parallel < naive`.
//! * `backend_traces/*` — same comparison for the training-side trace
//!   update, the kernel `train_higgs` stands on.
//! * `backend_traces_readout/*` — the trace update at the shape a supervised
//!   batch of the paper model runs it: 128 rows of 1000 softmax
//!   activations against 2 one-hot classes, i.e. a 1000 x 2 joint trace
//!   whose rows are two floats wide. `backend_traces` (64 x 280 → 1024,
//!   uniform activations) says nothing about this one: here the work per
//!   output row is tiny, so scheduling overhead is what gets measured.
//! * `softmax_exp/*` — the grouped-softmax kernel per dispatch tier (the
//!   same bits on both; CI asserts `avx2 < lanes`).
//! * `hot_gather/*` — the gather kernel under `backend_forward/active`
//!   per dispatch tier, on the calling thread: 64 rows of 28 hot columns,
//!   the in-field ones (40 % field) summed into 1000 units plus the bias.
//!   CI asserts `avx2 < lanes`.
//! * `narrow_readout/*` — the narrow GEMM under
//!   `backend_forward_readout/parallel` per dispatch tier, on the calling
//!   thread: 256 rows x 1000 into 2 classes (AVX2: eight rows of C to a
//!   register; lanes: the scalar loop). CI asserts `avx2 < lanes`.
//! * `quantized_predict/*` — tokens-per-core: end-to-end single-threaded
//!   `predict_proba_into` for the f32 pipeline against its int8
//!   [`QuantizedPipeline`] counterpart, as rows/sec
//!   (`Throughput::Elements`).
//!
//! When `BENCH_JSON` is set, the binary first emits a `{"meta":{...}}`
//! record naming the detected CPU feature set and active dispatch tier, so
//! the committed baseline states which machine class produced it.

use std::hint::black_box;

use criterion::{criterion_group, BatchSize, BenchmarkId, Criterion, Throughput};

use bcpnn_backend::{Backend, BackendKind, NaiveBackend, ParallelBackend};
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams, Workspace};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_tensor::simd::dispatch::{self, SimdTier};
use bcpnn_tensor::{gemm_blocked, Matrix, MatrixRng};

/// The two dispatch tiers, benchmarked under their `BCPNN_SIMD` names.
/// On a machine without AVX2 the `avx2` entry silently degrades to the
/// lanes tier (same rule as the env override), so the bench runs anywhere;
/// CI only asserts `avx2 < lanes` on runners that advertise AVX2.
const TIERS: [(&str, SimdTier); 2] = [("lanes", SimdTier::Lanes), ("avx2", SimdTier::Avx2)];

/// Serving-shaped forward problem: quantile-encoded sparse binary input
/// (28 active columns of 280) into the paper model's 1 x 1000 hidden layer,
/// whose weights (280 x 1000 ≈ 1.1 MB of f32) are L2-resident.
const BATCH: usize = 64;
const N_IN: usize = 280;
const FWD_OUT: usize = 1000;
const TRACE_OUT: usize = 1024;

fn sparse_input(rows: usize) -> Matrix<f32> {
    // One active bin per 10-bin feature group, like the quantile encoder.
    Matrix::from_fn(rows, N_IN, |r, c| {
        let feature = c / 10;
        let hot = (r * 7 + feature * 3) % 10;
        f32::from(c % 10 == hot)
    })
}

fn bench_backend_forward(c: &mut Criterion) {
    let mut rng = MatrixRng::seed_from(21);
    let x = sparse_input(BATCH);
    let weights = rng.uniform(N_IN, FWD_OUT, -0.5, 0.5);
    let bias: Vec<f32> = rng.uniform(1, FWD_OUT, -0.1, 0.1).into_vec();
    let mut out = Matrix::zeros(BATCH, FWD_OUT);

    // The served forward: the same rows as their hot columns, gathered from
    // weights masked to the paper's 40 % receptive field.
    let mut mask = Matrix::zeros(1, N_IN);
    for i in rng.choose_indices(N_IN, N_IN * 2 / 5) {
        mask.set(0, i, 1.0);
    }
    let mut masked = Matrix::zeros(N_IN, FWD_OUT);
    ParallelBackend::new().apply_mask(&weights, &mask, FWD_OUT, &mut masked);
    let x_ref = &x;
    let hot: Vec<u32> = (0..BATCH)
        .flat_map(|r| (0..N_IN).filter(move |&c| x_ref.get(r, c) == 1.0))
        .map(|c| c as u32)
        .collect();

    let backends: [(&str, Box<dyn Backend>); 2] = [
        ("naive", Box::new(NaiveBackend::new())),
        ("parallel", Box::new(ParallelBackend::new())),
    ];
    let mut group = c.benchmark_group("backend_forward");
    group.throughput(Throughput::Elements(BATCH as u64));
    for (name, backend) in &backends {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                backend.linear_forward(black_box(&x), &weights, &bias, &mut out);
                black_box(&out);
            });
        });
    }
    group.bench_function("active", |b| {
        b.iter(|| {
            ParallelBackend::new().linear_forward_hot(
                black_box(&hot),
                &masked,
                &mask,
                &bias,
                &mut out,
            );
            black_box(&out);
        });
    });
    group.finish();
}

/// The hot-column gather kernel alone, per tier: `backend_forward/active`'s
/// rows, fields and weights, one row after another on the calling thread.
fn bench_hot_gather(c: &mut Criterion) {
    let mut rng = MatrixRng::seed_from(21);
    let x = sparse_input(BATCH);
    let weights: Matrix<f32> = rng.uniform(N_IN, FWD_OUT, -0.5, 0.5);
    let bias: Vec<f32> = rng.uniform(1, FWD_OUT, -0.1, 0.1).into_vec();
    let field = rng.choose_indices(N_IN, N_IN * 2 / 5);
    // Per row, the offsets of its in-field hot weight rows, ascending.
    let offsets: Vec<Vec<usize>> = (0..BATCH)
        .map(|r| {
            (0..N_IN)
                .filter(|&i| x.get(r, i) == 1.0 && field.contains(&i))
                .map(|i| i * FWD_OUT)
                .collect()
        })
        .collect();
    let mut out = Matrix::zeros(BATCH, FWD_OUT);

    let mut group = c.benchmark_group("hot_gather");
    group.throughput(Throughput::Elements(BATCH as u64));
    for (name, tier) in TIERS {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                for (row, offsets) in out.as_mut_slice().chunks_mut(FWD_OUT).zip(&offsets) {
                    dispatch::sum_rows_with(
                        tier,
                        weights.as_slice(),
                        black_box(offsets),
                        false,
                        Some(&bias),
                        row,
                    );
                }
                black_box(&out);
            });
        });
    }
    group.finish();
}

/// The readout's narrow GEMM alone, per tier: `backend_forward_readout`'s
/// 256 x 1000 softmax code into 2 classes on the calling thread. The tier
/// is installed process-wide for the measurement (the `f32` GEMM reaches
/// it through the active tier) and restored after.
fn bench_narrow_readout(c: &mut Criterion) {
    const ROWS: usize = 256;
    const HIDDEN: usize = 1000;
    const CLASSES: usize = 2;
    let mut rng = MatrixRng::seed_from(27);
    let mut x = rng.normal(ROWS, HIDDEN, 0.0, 2.0);
    NaiveBackend::new().grouped_softmax(&mut x, HIDDEN);
    let weights = rng.uniform(HIDDEN, CLASSES, -0.5, 0.5);
    let mut out = Matrix::zeros(ROWS, CLASSES);

    let prev = dispatch::active_tier();
    let mut group = c.benchmark_group("narrow_readout");
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, tier) in TIERS {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            dispatch::set_tier(tier);
            b.iter(|| {
                gemm_blocked(1.0, black_box(&x), &weights, 0.0, &mut out);
                black_box(&out);
            });
        });
    }
    group.finish();
    dispatch::set_tier(prev);
}

/// Serving-shaped grouped softmax: the readout emits one support column per
/// class per hypercolumn, normalized in groups. 1024 columns in groups of
/// 32 is the hidden-layer shape the `predict` hot path sees.
const SOFTMAX_COLS: usize = 1024;
const SOFTMAX_GROUP: usize = 32;

fn bench_softmax_exp(c: &mut Criterion) {
    let mut rng = MatrixRng::seed_from(26);
    let src = rng.uniform(BATCH, SOFTMAX_COLS, -6.0, 6.0);

    let mut group = c.benchmark_group("softmax_exp");
    // One element per exp evaluation, so the rate reads as exp/sec.
    group.throughput(Throughput::Elements((BATCH * SOFTMAX_COLS) as u64));
    for (name, tier) in TIERS {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            // Softmax normalizes in place; clone per measured call (setup is
            // untimed) so every tier transforms the same raw supports.
            b.iter_batched(
                || src.clone(),
                |mut m| {
                    dispatch::softmax_groups_into_with(tier, &mut m, SOFTMAX_GROUP);
                    m
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// `update_traces` of `x` against `act` on every backend, as one group.
fn bench_traces_group(c: &mut Criterion, group: &str, x: &Matrix<f32>, act: &Matrix<f32>) {
    let backends: [(&str, Box<dyn Backend>); 2] = [
        ("naive", Box::new(NaiveBackend::new())),
        ("parallel", Box::new(ParallelBackend::new())),
    ];
    let mut group = c.benchmark_group(group);
    group.throughput(Throughput::Elements(x.rows() as u64));
    for (name, backend) in &backends {
        let mut pi = vec![0.01f32; x.cols()];
        let mut pj = vec![0.01f32; act.cols()];
        let mut pij = Matrix::filled(x.cols(), act.cols(), 0.001);
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                backend.update_traces(
                    black_box(x),
                    black_box(act),
                    0.01,
                    &mut pi,
                    &mut pj,
                    &mut pij,
                );
                black_box(pij.get(0, 0));
            });
        });
    }
    group.finish();
}

fn bench_backend_traces(c: &mut Criterion) {
    let mut rng = MatrixRng::seed_from(22);
    let x = sparse_input(BATCH);
    let act = rng.uniform(BATCH, TRACE_OUT, 0.0, 1.0);
    bench_traces_group(c, "backend_traces", &x, &act);
}

fn bench_backend_traces_readout(c: &mut Criterion) {
    const ROWS: usize = 128;
    const HIDDEN: usize = 1000;
    const CLASSES: usize = 2;
    let mut rng = MatrixRng::seed_from(24);
    // One softmax over the whole hidden row, as 1 HCU x 1000 MCU emits it.
    let mut x = rng.normal(ROWS, HIDDEN, 0.0, 2.0);
    NaiveBackend::new().grouped_softmax(&mut x, HIDDEN);
    let targets = Matrix::from_fn(ROWS, CLASSES, |r, c| f32::from(r % CLASSES == c));
    bench_traces_group(c, "backend_traces_readout", &x, &targets);
}

fn bench_backend_forward_readout(c: &mut Criterion) {
    const ROWS: usize = 256;
    const HIDDEN: usize = 1000;
    const CLASSES: usize = 2;
    let mut rng = MatrixRng::seed_from(27);
    let mut x = rng.normal(ROWS, HIDDEN, 0.0, 2.0);
    NaiveBackend::new().grouped_softmax(&mut x, HIDDEN);
    let weights = rng.uniform(HIDDEN, CLASSES, -0.5, 0.5);
    let bias: Vec<f32> = rng.uniform(1, CLASSES, -0.1, 0.1).into_vec();
    let mut out = Matrix::zeros(ROWS, CLASSES);

    let backends: [(&str, Box<dyn Backend>); 2] = [
        ("naive", Box::new(NaiveBackend::new())),
        ("parallel", Box::new(ParallelBackend::new())),
    ];
    let mut group = c.benchmark_group("backend_forward_readout");
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, backend) in &backends {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                backend.linear_forward(black_box(&x), &weights, &bias, &mut out);
                black_box(&out);
            });
        });
    }
    group.finish();
}

/// A pipeline shaped so the int8 weight-footprint advantage is visible:
/// 40 quantile bins x 28 features = 1120 encoded inputs into 32x32 hidden
/// units puts the f32 hidden weights at ~4.6 MB (spilling a typical L2)
/// while the int8 copy (~1.1 MB) stays L2-resident. Trained just enough to
/// be a real fitted artifact — prediction cost does not depend on how well
/// it converged.
fn fitted_pipeline() -> Pipeline {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 768,
        seed: 23,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        40,
        Network::builder()
            .hidden(32, 32, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Parallel)
            .seed(23),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 128,
            ..Default::default()
        },
    )
    .unwrap();
    pipeline
}

/// The narrow-weight kernel in isolation: the hidden-layer forward over the
/// same fitted tensors at f32 and int8 storage. This is where the
/// footprint advantage lives — the softmax and readout that end-to-end
/// prediction adds on top cost the same at every precision.
fn bench_quantized_forward(c: &mut Criterion) {
    let pipeline = fitted_pipeline();
    let requests = generate(&SyntheticHiggsConfig {
        n_samples: BATCH,
        seed: 25,
        ..Default::default()
    });
    let encoded = pipeline.encode(&requests.features).unwrap();
    let hidden = pipeline.network().hidden();
    let weights = hidden.masked_weights();
    let bias = hidden.bias();
    let naive = NaiveBackend::new();
    let mut out = Matrix::zeros(BATCH, weights.cols());

    let mut group = c.benchmark_group("quantized_forward");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("f32", |b| {
        b.iter(|| {
            naive.linear_forward(black_box(&encoded), weights, bias, &mut out);
            black_box(&out);
        });
    });
    let quantized = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
    group.bench_function("int8", |b| {
        b.iter(|| {
            quantized.hidden_forward_into(black_box(&encoded), &mut out);
            black_box(&out);
        });
    });
    group.finish();
}

fn bench_quantized_predict(c: &mut Criterion) {
    let pipeline = fitted_pipeline();
    let requests = generate(&SyntheticHiggsConfig {
        n_samples: BATCH,
        seed: 24,
        ..Default::default()
    });
    let x = &requests.features;

    // Single-threaded f32 reference: same network, naive backend, so every
    // contender below is a per-core number.
    let f32_pipeline = {
        let dir = std::env::temp_dir().join(format!("bcpnn_bench_backends_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        pipeline.save(&dir).unwrap();
        let reloaded = bcpnn_core::load_pipeline(&dir, BackendKind::Naive).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        reloaded
    };

    let mut group = c.benchmark_group("quantized_predict");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("f32", |b| {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        f32_pipeline
            .predict_proba_into(x, &mut ws, &mut out)
            .unwrap();
        b.iter(|| {
            f32_pipeline
                .predict_proba_into(black_box(x), &mut ws, &mut out)
                .unwrap();
            black_box(&out);
        });
    });
    let quantized = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
    group.bench_function("int8", |b| {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        quantized.predict_proba_into(x, &mut ws, &mut out).unwrap();
        b.iter(|| {
            quantized
                .predict_proba_into(black_box(x), &mut ws, &mut out)
                .unwrap();
            black_box(&out);
        });
    });
    group.finish();
}

criterion_group!(
    backends,
    bench_backend_forward,
    bench_backend_forward_readout,
    bench_hot_gather,
    bench_narrow_readout,
    bench_backend_traces,
    bench_backend_traces_readout,
    bench_softmax_exp,
    bench_quantized_forward,
    bench_quantized_predict
);

/// Append a `{"meta":{...}}` record to `BENCH_JSON` (when set) stating the
/// CPU feature set the dispatch probe detected and the tier it selected —
/// `bench_compare` folds it into the canonical baseline and the CI summary.
fn emit_bench_meta() {
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    // Feature names and tier names are fixed identifier strings, so no JSON
    // escaping is needed.
    let line = format!(
        "{{\"meta\":{{\"cpu_features\":\"{}\",\"simd_tier\":\"{}\"}}}}\n",
        dispatch::cpu_features(),
        dispatch::active_tier().as_str()
    );
    use std::io::Write as _;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        eprintln!("BENCH_JSON: could not append meta to {path}: {e}");
    }
}

fn main() {
    emit_bench_meta();
    backends();
}
