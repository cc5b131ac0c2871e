//! `bcpnn-serve` demo: train a Higgs classifier, serve it through the
//! micro-batcher under concurrent synthetic load, hot-swap a retrained
//! version mid-flight, and report the serving metrics.
//!
//! ```text
//! bcpnn-serve [--clients N] [--requests N] [--train-samples N]
//!             [--max-batch N] [--workers N]
//!             [--shards N] [--prometheus]
//! ```

use std::sync::Arc;
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_core::{Network, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_serve::loadgen::{self, LoadGenConfig};
use bcpnn_serve::{
    BatchConfig, ModelRegistry, Pipeline, ServedModel, ShardConfig, ShardRouting, ShardedServer,
};

struct Args {
    clients: usize,
    requests_per_client: usize,
    train_samples: usize,
    max_batch: usize,
    workers: usize,
    shards: usize,
    prometheus: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            clients: 4,
            requests_per_client: 250,
            train_samples: 2000,
            max_batch: 64,
            workers: 2,
            shards: 2,
            prometheus: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |what: &str| -> u64 {
                it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: {flag} needs a numeric {what}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--clients" => args.clients = value("count") as usize,
                "--requests" => args.requests_per_client = value("count") as usize,
                "--train-samples" => args.train_samples = value("count") as usize,
                "--max-batch" => args.max_batch = value("size") as usize,
                "--workers" => args.workers = value("count") as usize,
                "--shards" => args.shards = value("count") as usize,
                "--prometheus" => args.prometheus = true,
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

/// Train one model version on synthetic Higgs data through the shared
/// `Pipeline::fit` entry point (encoder + network in one call).
fn train_version(n_samples: usize, seed: u64) -> Pipeline {
    let data = generate(&SyntheticHiggsConfig {
        n_samples,
        seed,
        ..Default::default()
    });
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
    .expect("training on synthetic data succeeds");
    pipeline
}

fn main() {
    let args = Args::parse();
    println!("== bcpnn-serve demo ==");
    println!(
        "training v1 and v2 on {} synthetic Higgs collisions each...",
        args.train_samples
    );
    let v1 = train_version(args.train_samples, 1);
    let v2 = train_version(args.train_samples, 2);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, v1));
    let server = ShardedServer::start(
        Arc::clone(&registry),
        ShardConfig {
            shards: args.shards,
            batch: BatchConfig {
                max_batch: args.max_batch,
                workers: args.workers,
            },
            routing: ShardRouting::FeatureHash,
        },
    );
    println!(
        "serving {:?} across {} shard(s) with max_batch={} workers={}/shard",
        registry.model_names(),
        args.shards,
        args.max_batch,
        args.workers
    );

    // Drive the server from the load generator while a second thread
    // hot-swaps to v2 halfway through.
    let load = LoadGenConfig {
        model: "higgs".to_string(),
        clients: args.clients,
        requests_per_client: args.requests_per_client,
        seed: 42,
    };
    println!(
        "load: {} clients x {} requests, hot-swapping to v2 mid-run...",
        load.clients, load.requests_per_client
    );
    let report = std::thread::scope(|scope| {
        let registry = &registry;
        scope.spawn(move || {
            // Let the load build up, then swap.
            std::thread::sleep(Duration::from_millis(50));
            let (_, displaced) = registry.publish(ServedModel::new("higgs", 2, v2));
            println!(
                "hot-swapped higgs v{} -> v2 (in-flight batches finish on v1)",
                displaced.map(|m| m.version()).unwrap_or(0)
            );
        });
        loadgen::run(&server, &load)
    });

    println!();
    println!("== load report ==");
    println!(
        "responses {}  errors {}  invalid {}  wall {:?}  throughput {:.0} req/s",
        report.responses,
        report.errors,
        report.invalid,
        report.wall,
        report.throughput_rps()
    );
    let metrics = server.metrics();
    println!();
    println!(
        "== serving metrics (aggregated over {} shards) ==",
        args.shards
    );
    println!("{metrics}");
    print!("batch-size histogram:");
    for (i, &count) in metrics.batch_size_hist.iter().enumerate() {
        if count > 0 {
            print!("  [{}..{}): {}", 1usize << i, 1usize << (i + 1), count);
        }
    }
    println!();
    for (i, shard) in server.shard_metrics().iter().enumerate() {
        println!(
            "shard {i}: requests {}  responses {}  mean batch {:.2}  p99 ~{:.0} µs",
            shard.requests, shard.responses, shard.mean_batch_size, shard.p99_latency_us
        );
    }
    if args.prometheus {
        println!();
        println!("== prometheus exposition ==");
        print!("{}", server.to_prometheus());
    }
    println!(
        "registry: models {:?}, current version {}, hot swaps {}",
        registry.model_names(),
        registry
            .lookup("higgs")
            .map(|m| m.version())
            .unwrap_or_default(),
        registry.hot_swaps()
    );

    let healthy = report.invalid == 0 && report.errors == 0;
    println!();
    println!(
        "{}",
        if healthy {
            "OK: all responses valid across the hot-swap"
        } else {
            "FAILED: some responses were invalid or errored"
        }
    );
    std::process::exit(i32::from(!healthy));
}
