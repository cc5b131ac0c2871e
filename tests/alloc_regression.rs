//! Allocation regression tests for the zero-allocation inference data
//! plane: a counting global allocator proves that, after warmup, the
//! serving worker's steady-state batch loop — assembly into the reusable
//! batch matrix plus one `predict_proba_into` pass through a persistent
//! [`Workspace`] — performs **zero heap allocations** per batch.
//!
//! Methodology: the allocator counts per *thread* (thread-local counters),
//! so concurrent tests in this binary cannot pollute each other's
//! measurements. The global thread pool is pinned to a single thread
//! (`BCPNN_NUM_THREADS=1`) and models run on the Naive backend with
//! sub-cutoff GEMM shapes, so every kernel executes inline on the
//! measuring thread: what is counted is exactly the data plane, not pool
//! dispatch. CI runs this file explicitly in the release test leg.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Once;

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams, Workspace};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_serve::loadgen::{request_stream, RequestStream};
use bcpnn_serve::{
    BatchConfig, BatchExecutor, InferenceServer, ModelRegistry, RowBlock, ServedModel,
    SubmitOptions,
};
use bcpnn_tensor::Matrix;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper that counts alloc/realloc events per thread.
struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// thread-local counter bump, which itself never allocates (const-init TLS
// with a plain `Cell`). `try_with` tolerates TLS teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocation events on the current thread since process start.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Count the allocations `f` performs on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = thread_allocs();
    let result = f();
    (thread_allocs() - before, result)
}

static INIT: Once = Once::new();

/// Pin the global pool to one thread so every parallel helper takes its
/// sequential path on the measuring thread. Must run before first pool use;
/// `Once` serializes it across the test harness's threads.
fn init_single_thread_pool() {
    INIT.call_once(|| {
        std::env::set_var(bcpnn_parallel::NUM_THREADS_ENV, "1");
        assert_eq!(
            bcpnn_parallel::global_pool().num_threads(),
            1,
            "pool must be pinned to one thread before these tests run"
        );
    });
}

/// A small Naive-backend pipeline: every kernel is a plain loop and the SGD
/// readout GEMM stays far under the parallel-dispatch cutoff.
fn tiny_pipeline(seed: u64) -> (Pipeline, RequestStream) {
    tiny_pipeline_on(BackendKind::Naive, seed)
}

fn tiny_pipeline_on(backend: BackendKind, seed: u64) -> (Pipeline, RequestStream) {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 300,
        seed,
        ..Default::default()
    });
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
    (pipeline, request_stream(64, seed))
}

/// The first `n` rows of the stream, wrapping around, as one matrix.
fn stream_rows(stream: &RequestStream, n: usize) -> Matrix<f32> {
    let mut x = Matrix::zeros(n, stream.width());
    for r in 0..n {
        x.row_mut(r).copy_from_slice(stream.row(r % stream.len()));
    }
    x
}

/// Assemble `batch` stream rows into the executor and run one pass.
fn one_batch(
    executor: &mut BatchExecutor,
    pipeline: &Pipeline,
    stream: &RequestStream,
    batch: usize,
) {
    let x = executor.begin(batch, stream.width());
    for r in 0..batch {
        x.row_mut(r).copy_from_slice(stream.row(r % stream.len()));
    }
    let proba = executor.run(pipeline as &dyn Predictor).unwrap();
    assert_eq!(proba.rows(), batch);
}

#[test]
fn steady_state_worker_batch_loop_allocates_nothing() {
    init_single_thread_pool();
    let (pipeline, stream) = tiny_pipeline(70);
    let mut executor = BatchExecutor::new();
    // Warmup: the largest batch shape the loop will see, twice (the first
    // pass grows the buffers, the second proves the shapes are stable).
    one_batch(&mut executor, &pipeline, &stream, 32);
    one_batch(&mut executor, &pipeline, &stream, 32);
    // Steady state: the full assemble → forward cycle, including batches
    // smaller than the high-water mark, must not touch the allocator.
    let (allocs, ()) = count_allocs(|| {
        for round in 0..50 {
            let batch = [32usize, 8, 1, 17][round % 4];
            one_batch(&mut executor, &pipeline, &stream, batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "the steady-state worker batch loop must perform zero heap allocations after warmup"
    );
}

#[test]
fn warmed_predict_proba_into_allocates_nothing() {
    init_single_thread_pool();
    let (pipeline, stream) = tiny_pipeline(71);
    let mut x = Matrix::zeros(16, stream.width());
    for r in 0..16 {
        x.row_mut(r).copy_from_slice(stream.row(r));
    }
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    pipeline.predict_proba_into(&x, &mut ws, &mut out).unwrap();
    let warmed = ws.allocated_elems();
    let (allocs, ()) = count_allocs(|| {
        for _ in 0..50 {
            pipeline.predict_proba_into(&x, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(allocs, 0, "warmed predict_proba_into must not allocate");
    assert_eq!(
        ws.allocated_elems(),
        warmed,
        "workspace buffers must be stable in steady state"
    );
    // The allocating twin really does allocate — the counter works.
    let (alloc_path, _) = count_allocs(|| pipeline.predict_proba(&x).unwrap());
    assert!(alloc_path > 0, "sanity: the allocating path is counted");
    // And both paths agree bit-for-bit.
    assert_eq!(out, pipeline.predict_proba(&x).unwrap());
}

/// The pipeline serves through hot column indices in the workspace, which
/// the hidden layer gathers weight rows from. On both backends and past
/// the 512-row predict block, a warmed predict allocates nothing.
#[test]
fn warmed_hot_column_predict_allocates_nothing() {
    init_single_thread_pool();
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (pipeline, stream) = tiny_pipeline_on(backend, 75);
        let x = stream_rows(&stream, 600);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        pipeline.predict_proba_into(&x, &mut ws, &mut out).unwrap();
        let warmed = ws.allocated_elems();
        let small = x.select_rows(&(0..16).collect::<Vec<_>>());
        let (allocs, ()) = count_allocs(|| {
            for round in 0..20 {
                let batch = if round % 2 == 0 { &x } else { &small };
                pipeline
                    .predict_proba_into(batch, &mut ws, &mut out)
                    .unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "{backend:?}: a warmed hot-column predict allocated"
        );
        assert_eq!(ws.allocated_elems(), warmed, "{backend:?}");
    }
}

/// The online learner folds raw rows through `Pipeline::learn_batch`,
/// which encodes them densely into the workspace before the network's
/// trace update. Warmed, ten folds on either backend allocate nothing.
#[test]
fn warmed_learn_batch_allocates_nothing() {
    init_single_thread_pool();
    for backend in [BackendKind::Naive, BackendKind::Parallel] {
        let (mut pipeline, stream) = tiny_pipeline_on(backend, 76);
        let x = stream_rows(&stream, 32);
        let labels: Vec<usize> = (0..x.rows()).map(|r| r % 2).collect();
        let mut ws = Workspace::new();
        pipeline.learn_batch(&x, &labels, &mut ws).unwrap();
        pipeline.learn_batch(&x, &labels, &mut ws).unwrap();
        let warmed = ws.allocated_elems();
        let (allocs, ()) = count_allocs(|| {
            for _ in 0..10 {
                pipeline.learn_batch(&x, &labels, &mut ws).unwrap();
            }
        });
        assert_eq!(allocs, 0, "{backend:?}: a warmed learn_batch allocated");
        assert_eq!(ws.allocated_elems(), warmed, "{backend:?}");
    }
}

#[test]
fn warmed_cascade_forward_allocates_nothing() {
    init_single_thread_pool();
    let (pipeline, stream) = tiny_pipeline(73);
    let quantized =
        bcpnn_lowprec::QuantizedPipeline::quantize(&pipeline, bcpnn_lowprec::QuantPrecision::Int8)
            .unwrap();
    // An interior threshold so the steady-state loop exercises the full
    // route: cheap pass, margin test, gather, f32 sub-batch, scatter.
    let cascade = bcpnn_serve::CascadeModel::new(
        "alloc-regression",
        Box::new(quantized),
        Box::new(pipeline),
        0.6,
    )
    .unwrap();
    let mut x = Matrix::zeros(16, stream.width());
    for r in 0..16 {
        x.row_mut(r).copy_from_slice(stream.row(r));
    }
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    // Warmup twice: first pass sizes the workspace (including the cascade
    // gather/scatter scratch), second proves the shapes are stable.
    cascade.predict_proba_into(&x, &mut ws, &mut out).unwrap();
    cascade.predict_proba_into(&x, &mut ws, &mut out).unwrap();
    let warmed = ws.allocated_elems();
    let (allocs, ()) = count_allocs(|| {
        for _ in 0..50 {
            cascade.predict_proba_into(&x, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "the warmed cascade route (cheap tier + escalation) must not allocate"
    );
    assert_eq!(
        ws.allocated_elems(),
        warmed,
        "cascade workspace buffers must be stable in steady state"
    );
    // The counters moved: the cascade really routed, it didn't no-op.
    let stats = cascade.stats();
    assert_eq!(
        stats.cheap_hits() + stats.escalations(),
        52 * x.rows() as u64
    );
}

/// What a caller pays the allocator to hand a request to the server and
/// take its answer back is per request, not per row: one message in, one
/// message out. (Row by row it was three a row: the model name, the reply
/// channel, the reply.) The worker's side — one probability block per
/// request — is on its own thread and is not counted here.
#[test]
fn block_round_trip_allocations_do_not_grow_with_the_rows() {
    init_single_thread_pool();
    let (pipeline, stream) = tiny_pipeline(74);
    let registry = std::sync::Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, pipeline));
    let server = InferenceServer::start(registry, BatchConfig::default());
    let block = |rows: usize| RowBlock {
        n_cols: stream.width() as u32,
        data: (0..rows)
            .flat_map(|r| stream.row(r % stream.len()).to_vec())
            .collect(),
    };
    let round_trip = |rows: RowBlock| {
        let n_rows = rows.n_rows();
        let answer = server
            .submit_block("higgs", rows, SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(answer.proba.n_rows(), n_rows);
    };
    // Warm-up: the submit queue reaches its steady size.
    round_trip(block(256));
    round_trip(block(256));
    let counts: Vec<u64> = [8, 64, 256]
        .into_iter()
        .map(|rows| {
            let rows = block(rows);
            count_allocs(|| round_trip(rows)).0
        })
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations per round trip of 8, 64 and 256 rows: {counts:?}"
    );
    assert!(counts[0] <= 4, "a round trip allocated {} times", counts[0]);
}

#[test]
fn request_stream_row_views_allocate_nothing() {
    init_single_thread_pool();
    let stream = request_stream(128, 72);
    let (allocs, total) = count_allocs(|| {
        let mut total = 0.0f32;
        for i in 0..stream.len() {
            total += stream.row(i).iter().sum::<f32>();
        }
        total
    });
    assert_eq!(allocs, 0, "row views must be allocation-free");
    assert!(total.is_finite());
}
