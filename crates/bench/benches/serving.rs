//! Serving-path benchmarks behind the CI `bench-regression` gate: one
//! one-row request on an idle server (`serve_single`), one 64-row request
//! as a block against the same rows one by one (`serve_block64`), and the
//! quantized→f32 cascade against each of its tiers alone
//! (`serve_cascade`).

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::uncertainty::margin;
use bcpnn_core::{Network, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_serve::loadgen::request_stream;
use bcpnn_serve::{
    BatchConfig, CascadeModel, InferenceServer, ModelRegistry, Pipeline, RowBlock, ServedModel,
    ShardConfig, ShardedServer, SubmitOptions,
};
use bcpnn_tensor::Matrix;

fn trained_pipeline() -> Pipeline {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 2000,
        seed: 5,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(4, 8, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Parallel)
            .seed(5),
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

/// One one-row `submit` → `wait` on an idle single-pool server with the
/// default batching: the coalescing window, the hand-off to a worker and
/// back, and one forward pass — the serving stack's share of a lone
/// `gateway_single` request.
fn bench_single(c: &mut Criterion) {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, trained_pipeline()));
    let server = InferenceServer::start(registry, BatchConfig::default());
    let row = request_stream(1, 17).row(0).to_vec();

    let mut group = c.benchmark_group("serve_single");
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));
    group.bench_function("idle", |b| {
        b.iter(|| black_box(server.submit("higgs", row.clone()).unwrap().wait().unwrap()));
    });
    group.finish();
}

/// One 64-row request through a default two-shard server, both ways a front
/// can hand it over: row by row — 64 submissions that hash over both
/// shards, so neither slot fills and both wait out the coalescing window,
/// then 64 waits — against one block, which is one submission, fills its
/// shard's slot and leaves at once. CI's bench-regression job asserts
/// `serve_block64/block < serve_block64/per_row`.
fn bench_block_vs_rows(c: &mut Criterion) {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, trained_pipeline()));
    let server = ShardedServer::start(Arc::clone(&registry), ShardConfig::new(2));
    let stream = request_stream(64, 16);

    let mut group = c.benchmark_group("serve_block64");
    group.sample_size(10);
    group.throughput(Throughput::Elements(64));
    group.bench_function("per_row", |b| {
        b.iter(|| {
            let handles: Vec<_> = stream
                .iter()
                .map(|row| server.submit("higgs", row.to_vec()).unwrap())
                .collect();
            for handle in handles {
                black_box(handle.wait().unwrap());
            }
        });
    });
    group.bench_function("block", |b| {
        b.iter(|| {
            let rows = RowBlock {
                n_cols: stream.width() as u32,
                data: stream.features().as_slice().to_vec(),
            };
            let handle = server.submit_block("higgs", rows, SubmitOptions::default());
            black_box(handle.unwrap().wait().unwrap())
        });
    });
    group.finish();
}

/// The compact cascade front: the same training data as
/// [`trained_pipeline`], but a coarser quantile encode and a quarter of
/// the hidden units — then int8-quantized. This is the deployment shape
/// of a cascade's cheap tier: a model small enough that running it on
/// *every* row costs a fraction of one f32 pass.
fn compact_pipeline() -> Pipeline {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 2000,
        seed: 5,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        6,
        Network::builder()
            .hidden(2, 8, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Parallel)
            .seed(5),
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

/// The cascade's full tier: the same synthetic-Higgs task at production
/// scale — a 40-bin quantile encode into a 32×32 hypercolumn hidden
/// layer (the shape the backend kernel benches use), where the forward
/// GEMM, not the per-row encode, is the dominant cost. That is the
/// regime a cascade exists for: every row the cheap tier answers skips
/// a genuinely expensive pass.
fn heavy_pipeline() -> Pipeline {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 768,
        seed: 5,
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
            .seed(5),
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

/// The quantized→f32 cascade against each tier alone on the same mixed
/// 256-row batch. The cheap tier is the int8-quantized *compact* model
/// (a same-size quantization cannot win end-to-end: encode, readout,
/// and softmax stay f32 and dominate, so only a smaller front makes the
/// cascade pay off); the full tier is the heavy f32 pipeline benchmarked
/// as `f32`. With the escalation threshold calibrated so ~65% of rows
/// stay cheap, the cascade must beat running f32 on everything — that
/// relative claim (`serve_cascade/cascade/256 < serve_cascade/f32/256`)
/// is asserted machine-readably by CI's bench-regression job, so a
/// routing or gather/scatter regression that erases the cheap tier's
/// win fails the build.
fn bench_cascade(c: &mut Criterion) {
    let batch = 256usize;
    let stream = request_stream(512, 15);
    let mut x = Matrix::zeros(batch, 28);
    for r in 0..batch {
        x.row_mut(r).copy_from_slice(stream.row(r % stream.len()));
    }

    let pipeline = heavy_pipeline();
    let cheap = QuantizedPipeline::quantize(&compact_pipeline(), QuantPrecision::Int8).unwrap();
    // Escalate the lowest-margin ~35% of this batch, calibrated from the
    // cheap tier's own margins — the same policy the accuracy gate uses.
    let proba = cheap.predict_proba(&x).unwrap();
    let mut margins: Vec<f32> = (0..batch).map(|r| margin(proba.row(r))).collect();
    margins.sort_by(f32::total_cmp);
    let threshold = margins[batch * 35 / 100];
    // Both builders are deterministic, so the cascade's tiers are
    // bit-identical to the standalone ones benchmarked alongside them.
    let cascade = CascadeModel::new(
        "bench",
        Box::new(QuantizedPipeline::quantize(&compact_pipeline(), QuantPrecision::Int8).unwrap()),
        Box::new(heavy_pipeline()),
        threshold,
    )
    .unwrap();

    let mut group = c.benchmark_group("serve_cascade");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch as u64));
    group.bench_with_input(BenchmarkId::new("f32", batch), &batch, |b, _| {
        b.iter(|| black_box(pipeline.predict_proba(black_box(&x)).unwrap()));
    });
    group.bench_with_input(BenchmarkId::new("int8_compact", batch), &batch, |b, _| {
        b.iter(|| black_box(cheap.predict_proba(black_box(&x)).unwrap()));
    });
    group.bench_with_input(BenchmarkId::new("cascade", batch), &batch, |b, _| {
        b.iter(|| black_box(cascade.predict_proba(black_box(&x)).unwrap()));
    });
    group.finish();
}

criterion_group!(serving, bench_single, bench_block_vs_rows, bench_cascade);
criterion_main!(serving);
