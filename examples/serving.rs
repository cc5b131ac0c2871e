//! Serving walkthrough: train a model, save it as a self-contained
//! stage-tagged (v4) artifact with its encoder, load it into a registry,
//! and serve raw feature vectors through the micro-batching server —
//! including a hot-swap to a retrained version, sharded serving with a
//! per-model batch policy, priority/deadline requests, and a Prometheus
//! scrape.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_core::{Network, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_serve::{
    BatchConfig, InferenceServer, ModelRegistry, Pipeline, Priority, ServedModel, ShardConfig,
    ShardRouting, ShardedServer, SubmitOptions,
};

fn train(seed: u64) -> Pipeline {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 4000,
        seed,
        ..Default::default()
    });
    // The shared fit → (encoder + network) entry point from the core
    // model API; the encoder fixes the network's input width.
    let (pipeline, _report) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(4, 8, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Parallel)
            .seed(seed),
        TrainingParams {
            unsupervised_epochs: 2,
            supervised_epochs: 2,
            batch_size: 128,
            ..Default::default()
        },
    )
    .expect("training succeeds");
    pipeline
}

fn main() {
    // 1. Train and persist a self-contained serving artifact.
    let dir = std::env::temp_dir().join("bcpnn_serving_example");
    let _ = std::fs::remove_dir_all(&dir);
    train(1).save(&dir).expect("saving succeeds");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        let bytes = entry.metadata().unwrap().len();
        println!(
            "saved model artifact {} ({bytes} bytes)",
            entry.path().display()
        );
    }

    // 2. Load it into a registry and start the micro-batching server.
    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_and_publish("higgs", 1, &dir, BackendKind::Parallel)
        .expect("artifact loads");
    let server = InferenceServer::start(Arc::clone(&registry), BatchConfig::default());

    // 3. Serve raw 28-feature collision vectors.
    let requests = generate(&SyntheticHiggsConfig {
        n_samples: 64,
        seed: 99,
        ..Default::default()
    });
    let proba = server
        .predict("higgs", requests.features.row(0).to_vec())
        .expect("prediction succeeds");
    println!("\nP(background, signal) for one collision: {proba:?}");

    // 4. Hot-swap a retrained version; in-flight work is unaffected.
    let retrained = train(2);
    let quantized = QuantizedPipeline::quantize(&retrained, QuantPrecision::Int8)
        .expect("quantization succeeds");
    let (_, displaced) = registry.publish(ServedModel::new("higgs", 2, retrained));
    println!(
        "hot-swapped v{} -> v2; next prediction served by v{}",
        displaced.map(|m| m.version()).unwrap_or_default(),
        registry.get("higgs").unwrap().version()
    );
    let proba2 = server
        .predict("higgs", requests.features.row(0).to_vec())
        .expect("post-swap prediction succeeds");
    println!("same collision under v2: {proba2:?}");

    // 5. Quantized serving path: persist the int8 artifact, reload it, and
    //    publish it under its own name. A `QuantizedPipeline` is a
    //    `Predictor` like any other, so the same micro-batching server
    //    serves it — with 4x smaller weights and `f32` accumulation.
    let qdir = std::env::temp_dir().join("bcpnn_serving_example_int8");
    let _ = std::fs::remove_dir_all(&qdir);
    quantized.save(&qdir).expect("quantized artifact saves");
    let quantized = QuantizedPipeline::load(&qdir).expect("quantized artifact loads");
    let (narrow, wide) = quantized.weight_bytes();
    registry.publish(ServedModel::new("higgs-int8", 1, quantized));
    let qproba = server
        .predict("higgs-int8", requests.features.row(0).to_vec())
        .expect("quantized prediction succeeds");
    println!("\nsame collision, int8 weights ({narrow} B vs {wide} B f32): {qproba:?}");
    println!("\n{}", server.metrics());
    drop(server);

    // 6. Scale out: shard the model across 4 independent pools. Requests
    //    route by a stable hash of their feature vector; the per-model
    //    batch policy (small batches) overrides the server-wide default
    //    and can itself be hot-swapped.
    let policy = BatchConfig {
        max_batch: 16,
        workers: 1,
    };
    registry.publish(ServedModel::new("higgs", 3, train(3)).with_batch_policy(policy));
    let sharded = ShardedServer::start(
        Arc::clone(&registry),
        ShardConfig {
            shards: 4,
            batch: BatchConfig::default(),
            routing: ShardRouting::FeatureHash,
        },
    );
    let handles: Vec<_> = (0..requests.n_samples())
        .map(|r| {
            sharded
                .submit("higgs", requests.features.row(r).to_vec())
                .expect("submit succeeds")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("sharded prediction succeeds");
    }
    println!(
        "\nserved {} collisions across 4 shards:",
        requests.n_samples()
    );
    for (i, m) in sharded.shard_metrics().iter().enumerate() {
        println!(
            "  shard {i}: {} requests, mean batch {:.2}",
            m.requests, m.mean_batch_size
        );
    }

    // 7. Priority and deadline options. A high-priority request drains
    //    ahead of normal traffic; an already-expired deadline fails with
    //    DeadlineExceeded before any forward-pass work is spent on it.
    let urgent = sharded
        .submit_with_options(
            "higgs",
            requests.features.row(1).to_vec(),
            SubmitOptions::new()
                .priority(Priority::High)
                .deadline(Duration::from_millis(250)),
        )
        .expect("submit succeeds")
        .wait()
        .expect("within deadline");
    println!("\nhigh-priority prediction: {urgent:?}");
    let expired = sharded
        .submit_with_options(
            "higgs",
            requests.features.row(2).to_vec(),
            SubmitOptions::new().deadline(Duration::ZERO),
        )
        .expect("submit succeeds")
        .wait();
    println!("zero-deadline request: {}", expired.unwrap_err());

    // 8. Prometheus scrape: aggregated samples first, then per-shard ones
    //    labeled shard="i".
    println!("\nprometheus exposition (first 12 lines):");
    for line in sharded.to_prometheus().lines().take(12) {
        println!("  {line}");
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&qdir).ok();
}
