//! `bcpnn`: fit a Higgs classifier into a model directory, then serve saved
//! model directories over HTTP.
//!
//! ```text
//! bcpnn fit OUT [--csv PATH] [--seed N]
//! bcpnn serve DIR... [--addr HOST:PORT] [--backends N]
//! ```
//!
//! `fit` trains the pipeline every serving walkthrough uses (10 quantile
//! bins, 4 HCU × 8 MCU at density 0.4, hybrid readout, 2 + 2 epochs) on
//! 2,000 synthetic collisions, or on the first 200k rows of a HIGGS-format
//! CSV, and saves it to `OUT`.
//!
//! `serve` loads each `DIR` as the model named after the directory (a
//! name the HTTP routes accept: ASCII letters, digits, `-`, `_`, `.`), at
//! version 1, with an online learner attached. Without `--backends` the
//! gateway fronts one in-process serving stack; with `--backends N` the
//! cluster router fronts N in-process backend nodes, each holding every
//! model. `PUT /v1/models/{name}` may only load artifacts from the
//! directory that holds the `DIR`s. The first stdout line is
//! `listening on http://ADDR`; the process serves until killed.
//!
//! A usage error exits 2 with one line on stderr; a model that cannot be
//! fitted, saved or loaded exits 1.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_cluster::{BackendConfig, BackendNode, ClusterConfig, ClusterRouter, RouterHttp};
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_data::csv::load_higgs_csv;
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_gateway::router::valid_model_name;
use bcpnn_gateway::{FrontConfig, Gateway, GatewayConfig};
use bcpnn_learn::{LearnerConfig, OnlineLearner};
use bcpnn_serve::{ModelRegistry, ServeTarget, ServedModel, ShardConfig, ShardedServer};

const USAGE: &str =
    "usage: bcpnn fit OUT [--csv PATH] [--seed N] | bcpnn serve DIR... [--addr HOST:PORT] [--backends N]";

/// Synthetic rows `fit` trains on when no CSV is given.
const SYNTHETIC_ROWS: usize = 2_000;
/// Rows `fit` reads from the front of a CSV.
const CSV_ROWS: usize = 200_000;
/// Serving shards per stack (one stack per backend node in cluster mode).
const SHARDS: usize = 2;
/// HTTP worker threads of the front.
const FRONT_WORKERS: usize = 4;
/// Trained rows after which a learner tries to publish its shadow...
const PUBLISH_ROWS: u64 = 500;
/// ...or the time after which it tries anyway, if it trained any rows.
const PUBLISH_INTERVAL: Duration = Duration::from_secs(10);

fn usage(problem: &str) -> ! {
    eprintln!("bcpnn: {problem} ({USAGE})");
    exit(2)
}

fn fail(problem: impl std::fmt::Display) -> ! {
    eprintln!("bcpnn: {problem}");
    exit(1)
}

/// One subcommand's arguments: positional values plus `--flag value` pairs.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>, known: &[&str]) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        while let Some(arg) = raw.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg);
            } else if !known.contains(&arg.as_str()) {
                usage(&format!("unknown flag {arg}"));
            } else {
                let value = raw
                    .next()
                    .unwrap_or_else(|| usage(&format!("{arg} needs a value")));
                args.flags.push((arg, value));
            }
        }
        args
    }

    /// The value of `flag`; the last one wins when it is repeated.
    fn get(&self, flag: &str) -> Option<&str> {
        let last = self.flags.iter().rev().find(|(f, _)| f == flag);
        last.map(|(_, value)| value.as_str())
    }

    fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.get(flag).map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a number, got {raw:?}")))
        })
    }
}

fn main() {
    let mut raw = std::env::args().skip(1);
    match raw.next().as_deref() {
        Some("fit") => fit(&Args::parse(raw, &["--csv", "--seed"])),
        Some("serve") => serve(&Args::parse(raw, &["--addr", "--backends"])),
        Some(other) => usage(&format!("unknown subcommand {other:?}")),
        None => usage("missing subcommand"),
    }
}

fn fit(args: &Args) {
    let [out] = args.positional.as_slice() else {
        usage("fit takes exactly one OUT directory");
    };
    let seed = args.number("--seed").unwrap_or(1);
    let data = match args.get("--csv") {
        Some(path) => load_higgs_csv(path, Some(CSV_ROWS))
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}"))),
        None => generate(&SyntheticHiggsConfig {
            n_samples: SYNTHETIC_ROWS,
            seed,
            ..Default::default()
        }),
    };
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
    .unwrap_or_else(|e| fail(e));
    pipeline
        .save(out)
        .unwrap_or_else(|e| fail(format!("cannot save to {out}: {e}")));
    println!("fitted {} rows into {out}", data.labels.len());
}

fn serve(args: &Args) {
    if args.positional.is_empty() {
        usage("serve needs at least one model DIR");
    }
    let backends: Option<usize> = args.number("--backends");
    if backends == Some(0) {
        usage("--backends must be at least 1");
    }
    let mut models = Vec::new();
    let mut root: Option<PathBuf> = None;
    for raw in &args.positional {
        let dir = Path::new(raw)
            .canonicalize()
            .unwrap_or_else(|e| fail(format!("cannot resolve {raw}: {e}")));
        let (Some(parent), Some(name)) = (dir.parent(), dir.file_name()) else {
            usage(&format!("{} cannot name a model", dir.display()));
        };
        if !valid_model_name(&name.to_string_lossy()) {
            usage(&format!(
                "{raw}: a model name is 1-128 ASCII letters, digits, '-', '_' or '.'"
            ));
        }
        let pipeline = Pipeline::load(&dir, BackendKind::Parallel)
            .unwrap_or_else(|e| fail(format!("cannot load {raw}: {e}")));
        match &root {
            Some(root) if root != parent => {
                usage("every DIR must sit in the same parent directory")
            }
            _ => root = Some(parent.to_path_buf()),
        }
        models.push((name.to_string_lossy().into_owned(), pipeline));
    }
    let root = root.expect("at least one DIR was loaded");
    let state = std::env::temp_dir().join(format!("bcpnn-learn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let front = FrontConfig {
        addr: args.get("--addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: FRONT_WORKERS,
        ..FrontConfig::default()
    };
    match backends {
        None => {
            let (target, learners) = stack(&models, &state.join("local"));
            let config = GatewayConfig {
                front,
                artifact_root: Some(root),
            };
            let gateway = Gateway::start_with_learners(target, config, learners)
                .unwrap_or_else(|e| fail(format!("cannot bind: {e}")));
            serve_forever(gateway.local_addr(), &state)
        }
        Some(n) => {
            let nodes: Vec<BackendNode> = (0..n)
                .map(|i| {
                    let (target, learners) = stack(&models, &state.join(format!("node-{i}")));
                    let config = BackendConfig {
                        artifact_root: Some(root.clone()),
                        ..BackendConfig::default()
                    };
                    BackendNode::start_with_learners(target, config, learners)
                        .unwrap_or_else(|e| fail(format!("cannot start backend {i}: {e}")))
                })
                .collect();
            let router = Arc::new(ClusterRouter::start(ClusterConfig {
                backends: nodes.iter().map(BackendNode::local_addr).collect(),
                default_replication: n,
                ..ClusterConfig::default()
            }));
            let front = RouterHttp::start(router, front)
                .unwrap_or_else(|e| fail(format!("cannot bind: {e}")));
            serve_forever(front.local_addr(), &state)
        }
    }
}

/// Announce the front and park while its threads serve; the caller's
/// stack frame keeps every server alive until the process is killed.
fn serve_forever(addr: SocketAddr, state: &Path) -> ! {
    println!("listening on http://{addr}");
    println!("learner state in {}", state.display());
    loop {
        std::thread::park();
    }
}

/// One serving stack holding every model, each with an online learner
/// whose state lives under `state`.
fn stack(
    models: &[(String, Pipeline)],
    state: &Path,
) -> (Arc<dyn ServeTarget>, Vec<Arc<OnlineLearner>>) {
    let registry = Arc::new(ModelRegistry::new());
    let learners = models
        .iter()
        .map(|(name, pipeline)| {
            registry.publish(ServedModel::new(name, 1, pipeline.clone()));
            let config = LearnerConfig {
                state_dir: state.join(name),
                backend: BackendKind::Parallel,
                publish_rows: PUBLISH_ROWS,
                publish_interval: PUBLISH_INTERVAL,
                ..LearnerConfig::default()
            };
            OnlineLearner::start(Arc::clone(&registry), name, pipeline, config)
                .map(Arc::new)
                .unwrap_or_else(|e| fail(format!("cannot start the learner of {name}: {e}")))
        })
        .collect();
    let server = ShardedServer::start(registry, ShardConfig::new(SHARDS));
    (Arc::new(server), learners)
}
