//! End-to-end serving test: train → save (stage-tagged model directory) →
//! load into the registry → concurrent batched predictions through the
//! micro-batcher equal direct `predict_proba`, on both backends, across a
//! mid-flight hot-swap, with no dropped or mismatched responses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::{Network, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_serve::testutil::GatePredictor;
use bcpnn_serve::{
    BatchConfig, Exposition, InferenceServer, ModelRegistry, Pipeline, Priority, RowBlock,
    ServeError, ServeTarget, ServedModel, ShardConfig, ShardRouting, ShardedServer, SubmitOptions,
};
use bcpnn_tensor::Matrix;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 100;

/// Train a tiny Higgs pipeline through the shared `Pipeline::fit` entry
/// point and save it as a model directory.
fn train_and_save(seed: u64, dir: &std::path::Path) {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 500,
        seed,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(2, 4, 0.3)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(seed),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 2,
            batch_size: 64,
            ..Default::default()
        },
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(dir);
    pipeline.save(dir).unwrap();
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir()
        .join("bcpnn_serve_roundtrip")
        .join(format!("{name}_{}", std::process::id()))
}

/// Raw request stream shared by all clients, as a matrix for direct
/// reference predictions.
fn request_matrix(n: usize) -> Matrix<f32> {
    generate(&SyntheticHiggsConfig {
        n_samples: n,
        seed: 999,
        ..Default::default()
    })
    .features
}

/// Rows `rows` of the request stream as one block.
fn block_of(requests: &Matrix<f32>, rows: std::ops::Range<usize>) -> RowBlock {
    let width = requests.cols();
    RowBlock {
        n_cols: width as u32,
        data: requests.as_slice()[rows.start * width..rows.end * width].to_vec(),
    }
}

fn rows_match(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
}

fn serve_roundtrip_on(backend: BackendKind) {
    let dir_v1 = temp_dir(&format!("v1_{}", backend.name()));
    let dir_v2 = temp_dir(&format!("v2_{}", backend.name()));
    train_and_save(1, &dir_v1);
    train_and_save(2, &dir_v2);

    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_and_publish("higgs", 1, &dir_v1, backend)
        .unwrap();

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let requests = request_matrix(total);

    // Direct reference predictions from the *identical* loaded artifacts
    // (same object the server will run, so agreement must be exact up to
    // f32 noise).
    let v1_model = registry.get("higgs").unwrap();
    let direct_v1 = v1_model.predictor().predict_proba(&requests).unwrap();
    let v2_pipeline = Pipeline::load(&dir_v2, backend).unwrap();
    let direct_v2 = v2_pipeline.predict_proba(&requests).unwrap();
    assert!(
        direct_v1.max_abs_diff(&direct_v2) > 1e-3,
        "v1 and v2 must be distinguishable for the swap assertion to mean anything"
    );

    let server = InferenceServer::start(
        Arc::clone(&registry),
        BatchConfig {
            max_batch: 16,
            workers: 2,
        },
    );

    let matched_v1 = AtomicU64::new(0);
    let matched_v2 = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            let requests = &requests;
            let direct_v1 = &direct_v1;
            let direct_v2 = &direct_v2;
            let matched_v1 = &matched_v1;
            let matched_v2 = &matched_v2;
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let row = client * REQUESTS_PER_CLIENT + i;
                    let proba = server
                        .predict("higgs", requests.row(row).to_vec())
                        .expect("no request may be dropped or errored");
                    // Across the hot-swap every response must match one of
                    // the two published versions exactly — never a blend,
                    // never garbage.
                    if rows_match(&proba, direct_v1.row(row), 1e-5) {
                        matched_v1.fetch_add(1, Ordering::Relaxed);
                    } else if rows_match(&proba, direct_v2.row(row), 1e-5) {
                        matched_v2.fetch_add(1, Ordering::Relaxed);
                    } else {
                        panic!(
                            "row {row}: response {proba:?} matches neither v1 {:?} nor v2 {:?}",
                            direct_v1.row(row),
                            direct_v2.row(row)
                        );
                    }
                }
            });
        }
        // Hot-swap to v2 while the clients hammer the server.
        std::thread::sleep(Duration::from_millis(20));
        registry
            .load_and_publish("higgs", 2, &dir_v2, backend)
            .unwrap();
    });

    let v1_hits = matched_v1.load(Ordering::Relaxed);
    let v2_hits = matched_v2.load(Ordering::Relaxed);
    assert_eq!(
        v1_hits + v2_hits,
        total as u64,
        "every request must get a response matching a published version"
    );
    assert_eq!(registry.get("higgs").unwrap().version(), 2);
    assert_eq!(registry.hot_swaps(), 1);

    // After the swap has been observed, new predictions come from v2.
    let post = server.predict("higgs", requests.row(0).to_vec()).unwrap();
    assert!(
        rows_match(&post, direct_v2.row(0), 1e-5),
        "post-swap prediction must come from v2"
    );

    // The scheduler measured the concurrent load. How it was batched
    // depends on the load; the gated test below pins the policy down.
    let metrics = server.metrics();
    assert_eq!(metrics.requests, total as u64 + 1);
    assert_eq!(metrics.responses, total as u64 + 1);
    assert_eq!(metrics.errors, 0);
    assert!(metrics.batches >= 1);
    assert!(metrics.p50_latency_us > 0.0);
    assert!(metrics.p99_latency_us >= metrics.p50_latency_us);
    assert_eq!(metrics.batch_size_hist.iter().sum::<u64>(), metrics.batches);

    drop(server);
    std::fs::remove_dir_all(&dir_v1).ok();
    std::fs::remove_dir_all(&dir_v2).ok();
}

#[test]
fn serve_roundtrip_naive_backend() {
    serve_roundtrip_on(BackendKind::Naive);
}

#[test]
fn serve_roundtrip_parallel_backend() {
    serve_roundtrip_on(BackendKind::Parallel);
}

/// Sharded (4 pools) == single-pool == direct `predict_proba`, before and
/// after a hot-swap, with the rows sent as blocks and the mid-flight swap
/// itself crossed under concurrent load: every row of every response
/// matches the published version the response names, on every shard.
#[test]
fn sharded_equals_single_pool_equals_direct_across_hot_swap() {
    let backend = BackendKind::Parallel;
    let dir_v1 = temp_dir("shard_v1");
    let dir_v2 = temp_dir("shard_v2");
    train_and_save(1, &dir_v1);
    train_and_save(2, &dir_v2);

    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_and_publish("higgs", 1, &dir_v1, backend)
        .unwrap();

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let requests = request_matrix(total);
    let direct_v1 = registry
        .get("higgs")
        .unwrap()
        .predictor()
        .predict_proba(&requests)
        .unwrap();
    let v2_pipeline = Pipeline::load(&dir_v2, backend).unwrap();
    let direct_v2 = v2_pipeline.predict_proba(&requests).unwrap();

    let batch = BatchConfig {
        max_batch: 16,
        workers: 2,
    };
    let single = InferenceServer::start(Arc::clone(&registry), batch);
    let sharded = ShardedServer::start(
        Arc::clone(&registry),
        ShardConfig {
            shards: 4,
            batch,
            routing: ShardRouting::FeatureHash,
        },
    );
    assert_eq!(sharded.n_shards(), 4);

    // Both servers answer rows 0..32, sent as one block, from `direct`.
    let both_answer_from = |direct: &Matrix<f32>, version: u64| {
        let submit = SubmitOptions::default();
        let from_sharded = sharded.submit_block("higgs", block_of(&requests, 0..32), submit);
        let from_single = single.submit_block("higgs", block_of(&requests, 0..32), submit);
        let from_sharded = from_sharded.unwrap().wait().unwrap();
        let from_single = from_single.unwrap().wait().unwrap();
        assert_eq!(
            (from_sharded.version, from_single.version),
            (version, version)
        );
        assert_eq!(from_sharded.proba, from_single.proba);
        for row in 0..32 {
            assert!(rows_match(
                from_sharded.proba.row(row),
                direct.row(row),
                1e-5
            ));
        }
    };

    // Pre-swap: sharded == single-pool == direct, row-exact.
    both_answer_from(&direct_v1, 1);

    // Mid-flight: concurrent clients hammer the sharded server with
    // four-row blocks while v2 is hot-swapped in; every row of a response
    // matches the version the response names.
    const BLOCK: usize = 4;
    let matched_v1 = AtomicU64::new(0);
    let matched_v2 = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let sharded = &sharded;
            let requests = &requests;
            let direct_v1 = &direct_v1;
            let direct_v2 = &direct_v2;
            let matched_v1 = &matched_v1;
            let matched_v2 = &matched_v2;
            scope.spawn(move || {
                for i in (0..REQUESTS_PER_CLIENT).step_by(BLOCK) {
                    let first = client * REQUESTS_PER_CLIENT + i;
                    let answer = sharded
                        .submit_block(
                            "higgs",
                            block_of(requests, first..first + BLOCK),
                            SubmitOptions::default(),
                        )
                        .and_then(|handle| handle.wait())
                        .expect("no request may be dropped or errored");
                    let (direct, matched) = match answer.version {
                        1 => (direct_v1, matched_v1),
                        2 => (direct_v2, matched_v2),
                        other => panic!("row {first}: version {other} was never published"),
                    };
                    for r in 0..BLOCK {
                        assert!(
                            rows_match(answer.proba.row(r), direct.row(first + r), 1e-5),
                            "row {}: not the answer of version {}",
                            first + r,
                            answer.version
                        );
                    }
                    matched.fetch_add(BLOCK as u64, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(20));
        registry
            .load_and_publish("higgs", 2, &dir_v2, backend)
            .unwrap();
    });
    assert_eq!(
        matched_v1.load(Ordering::Relaxed) + matched_v2.load(Ordering::Relaxed),
        total as u64
    );

    // Post-swap: both servers now agree with direct v2.
    both_answer_from(&direct_v2, 2);

    // The shards really shared the load, and the aggregate adds up.
    let per_shard = sharded.shard_metrics();
    let aggregate = sharded.metrics();
    assert_eq!(
        aggregate.responses,
        per_shard.iter().map(|m| m.responses).sum::<u64>()
    );
    assert!(
        per_shard.iter().filter(|m| m.requests > 0).count() > 1,
        "hash routing must use more than one shard"
    );
    assert_eq!(aggregate.errors, 0);

    // The Prometheus view exposes both levels: the aggregate under
    // shard="all" and every individual shard.
    let text = Exposition::render(|out| sharded.write_metrics(out));
    assert!(text.contains("bcpnn_serve_responses_total{shard=\"all\"}"));
    assert!(text.contains("shard=\"3\""));

    drop(sharded);
    drop(single);
    std::fs::remove_dir_all(&dir_v1).ok();
    std::fs::remove_dir_all(&dir_v2).ok();
}

/// The batching policy through the public API, with no timing in it: rows
/// submitted while every worker of every shard is busy wait, and when the
/// workers come free each shard's rows leave as **one** batch, ordered by
/// priority and then by arrival.
#[test]
fn queued_rows_leave_as_one_batch_in_priority_then_fifo_order() {
    const SHARDS: usize = 2;
    const N: usize = 12;
    let gate = GatePredictor::new(1);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("gate", 1, gate.clone()));
    let server = ShardedServer::start(
        Arc::clone(&registry),
        ShardConfig {
            shards: SHARDS,
            batch: BatchConfig {
                max_batch: 64,
                workers: 1,
            },
            routing: ShardRouting::RoundRobin,
        },
    );
    // One row per shard goes straight to its idle worker and parks there.
    let parked: Vec<_> = (0..SHARDS)
        .map(|_| server.submit("gate", vec![-1.0]).unwrap())
        .collect();
    gate.wait_entered(SHARDS);

    // Row i goes to shard i % 2; every third row is High.
    let handles: Vec<_> = (0..N)
        .map(|i| {
            let priority = if i % 3 == 0 {
                Priority::High
            } else {
                Priority::Low
            };
            let options = SubmitOptions::new().priority(priority);
            server
                .submit_with_options("gate", vec![i as f32], options)
                .unwrap()
        })
        .collect();
    assert_eq!(server.queue_depths(), vec![1 + N as u64 / 2; SHARDS]);
    assert_eq!(gate.batches().len(), SHARDS, "every worker is still busy");

    gate.open();
    for handle in parked.into_iter().chain(handles) {
        assert_eq!(handle.wait().unwrap(), vec![0.5, 0.5]);
    }
    let mut queued = gate.batches().split_off(SHARDS);
    queued.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert_eq!(
        queued,
        vec![
            vec![0.0, 6.0, 2.0, 4.0, 8.0, 10.0],
            vec![3.0, 9.0, 1.0, 5.0, 7.0, 11.0]
        ],
        "one batch per shard: High rows first, arrival order within a priority"
    );
    let metrics = server.metrics();
    assert_eq!(metrics.batches, 2 * SHARDS as u64);
    assert_eq!(metrics.responses, (SHARDS + N) as u64);
    assert_eq!(server.queue_depths(), vec![0; SHARDS]);
}

/// One block far over `max_batch`, and many predict bands long, is one
/// batch — and answers every row with the bits the same row gets when it
/// is submitted alone.
#[test]
fn a_1100_row_block_equals_the_same_rows_submitted_one_by_one() {
    const ROWS: usize = 1100;
    let dir = temp_dir("big_block");
    train_and_save(5, &dir);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_and_publish("higgs", 1, &dir, BackendKind::Parallel)
        .unwrap();
    let server = InferenceServer::start(Arc::clone(&registry), BatchConfig::default());
    let requests = request_matrix(ROWS);

    let block = server
        .submit_block(
            "higgs",
            block_of(&requests, 0..ROWS),
            SubmitOptions::default(),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!((block.proba.n_rows(), block.abstained.len()), (ROWS, 0));
    let m = server.metrics();
    assert_eq!(
        (m.batches, m.batched_requests, m.responses),
        (1, 1100, 1100)
    );

    let handles: Vec<_> = (0..ROWS)
        .map(|r| server.submit("higgs", requests.row(r).to_vec()).unwrap())
        .collect();
    for (r, handle) in handles.into_iter().enumerate() {
        let alone: Vec<u32> = handle.wait().unwrap().iter().map(|p| p.to_bits()).collect();
        let in_block: Vec<u32> = block.proba.row(r).iter().map(|p| p.to_bits()).collect();
        assert_eq!(in_block, alone, "row {r}");
    }

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Requests whose deadline has already passed error with
/// `DeadlineExceeded` and are never executed: no responses, no batches, no
/// forward-pass work.
#[test]
fn expired_deadlines_error_without_execution() {
    let dir = temp_dir("deadline");
    train_and_save(3, &dir);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_and_publish("higgs", 1, &dir, BackendKind::Naive)
        .unwrap();
    let sharded = ShardedServer::start(Arc::clone(&registry), ShardConfig::new(2));

    let requests = request_matrix(16);
    let handles: Vec<_> = (0..16)
        .map(|row| {
            sharded
                .submit_with_options(
                    "higgs",
                    requests.row(row).to_vec(),
                    SubmitOptions::new().deadline(Duration::ZERO),
                )
                .unwrap()
        })
        .collect();
    for handle in handles {
        assert!(matches!(handle.wait(), Err(ServeError::DeadlineExceeded)));
    }
    let m = sharded.metrics();
    assert_eq!(m.expired, 16);
    assert_eq!(m.errors, 16);
    assert_eq!(m.responses, 0, "expired requests must not be executed");
    assert_eq!(m.batches, 0, "expired requests must not form batches");

    // A request with a generous deadline still round-trips afterwards.
    let proba = sharded
        .submit_with_options(
            "higgs",
            requests.row(0).to_vec(),
            SubmitOptions::new().deadline(Duration::from_secs(30)),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(proba.len(), 2);

    drop(sharded);
    std::fs::remove_dir_all(&dir).ok();
}
