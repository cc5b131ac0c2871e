//! `bcpnn-gateway` demo: train a Higgs classifier, expose it over HTTP,
//! and print a curl walkthrough for every endpoint.
//!
//! ```text
//! bcpnn-gateway [--addr HOST:PORT] [--shards N] [--workers N]
//!               [--train-samples N] [--model-dir DIR]
//!               [--port-file PATH] [--self-test]
//! ```
//!
//! By default the gateway binds an ephemeral port, prints the walkthrough,
//! and serves until killed — the shape the CI `gateway` job drives with
//! curl (`--port-file` publishes the chosen port). `--self-test` instead
//! runs the whole walkthrough in-process through the bundled HTTP client
//! and exits non-zero on any failure.

use std::path::PathBuf;
use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_core::{Network, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_gateway::{client, FrontConfig, Gateway, GatewayConfig};
use bcpnn_learn::{LearnerConfig, OnlineLearner};
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_serve::{ModelRegistry, Pipeline, ServeTarget, ServedModel, ShardConfig, ShardedServer};

struct Args {
    addr: String,
    shards: usize,
    workers: usize,
    train_samples: usize,
    model_dir: PathBuf,
    port_file: Option<PathBuf>,
    self_test: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            workers: 4,
            train_samples: 2000,
            model_dir: std::env::temp_dir().join("bcpnn-gateway-demo"),
            port_file: None,
            self_test: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |what: &str| -> String {
                it.next().unwrap_or_else(|| {
                    eprintln!("error: {flag} needs a {what}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--addr" => args.addr = value("host:port"),
                "--shards" => args.shards = parse_num(&flag, &value("count")),
                "--workers" => args.workers = parse_num(&flag, &value("count")),
                "--train-samples" => args.train_samples = parse_num(&flag, &value("count")),
                "--model-dir" => args.model_dir = PathBuf::from(value("directory")),
                "--port-file" => args.port_file = Some(PathBuf::from(value("path"))),
                "--self-test" => args.self_test = true,
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

fn parse_num(flag: &str, raw: &str) -> usize {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} needs a number, got {raw:?}");
        std::process::exit(2);
    })
}

/// Train one model version on synthetic Higgs data.
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
    println!("== bcpnn-gateway demo ==");
    println!(
        "training v1 (served) and v2 (saved for hot-swap) on {} synthetic Higgs collisions each...",
        args.train_samples
    );
    let v1 = train_version(args.train_samples, 1);
    let v2 = train_version(args.train_samples, 2);
    let v2_dir = args.model_dir.join("higgs-v2");
    v2.save(&v2_dir).expect("saving the v2 artifact succeeds");

    // The same v1 weights as a 4x-smaller int8 artifact, served side by
    // side under its own name so the two tiers can be compared live.
    let int8 =
        QuantizedPipeline::quantize(&v1, QuantPrecision::Int8).expect("int8 quantization succeeds");

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, v1.clone()));
    registry.publish(ServedModel::new("higgs-int8", 1, int8));
    let server = Arc::new(ShardedServer::start(
        Arc::clone(&registry),
        ShardConfig::new(args.shards),
    ));
    // Online learning for "higgs": labeled rows POSTed to the learn
    // endpoint fold into a shadow model that hot-swaps in when it beats
    // the live one on held-out traffic.
    // The demo retrains v1 from scratch every run, so stale learner state
    // from a previous run would describe a different base model.
    let _ = std::fs::remove_dir_all(args.model_dir.join("learn-state"));
    let learner = Arc::new(
        OnlineLearner::start(
            Arc::clone(&registry),
            "higgs",
            &v1,
            LearnerConfig {
                state_dir: args.model_dir.join("learn-state"),
                backend: BackendKind::Parallel,
                publish_rows: 500,
                publish_interval: std::time::Duration::from_secs(10),
                ..LearnerConfig::default()
            },
        )
        .expect("online learner starts"),
    );
    let gateway = Gateway::start_with_learners(
        Arc::clone(&server) as Arc<dyn ServeTarget>,
        GatewayConfig {
            front: FrontConfig {
                addr: args.addr.clone(),
                workers: args.workers,
                ..FrontConfig::default()
            },
            artifact_root: None,
        },
        vec![Arc::clone(&learner)],
    )
    .expect("gateway binds");
    let addr = gateway.local_addr();
    if let Some(port_file) = &args.port_file {
        std::fs::write(port_file, addr.port().to_string()).expect("port file is writable");
    }

    // One example row so the walkthrough's predict body is copy-pasteable.
    let sample = generate(&SyntheticHiggsConfig {
        n_samples: 1,
        seed: 42,
        ..Default::default()
    });
    let row: Vec<String> = sample
        .features
        .row(0)
        .iter()
        .map(|v| v.to_string())
        .collect();
    let row_json = format!("[[{}]]", row.join(","));

    println!();
    println!(
        "listening on http://{addr} ({} shards, {} gateway workers)",
        args.shards, args.workers
    );
    println!();
    println!("== curl walkthrough ==");
    println!("# liveness");
    println!("curl -s http://{addr}/healthz");
    println!("# registry listing (name, version, shapes)");
    println!("curl -s http://{addr}/v1/models");
    println!("# predict: rows in, probabilities out (with scheduling headers)");
    println!(
        "curl -s -X POST http://{addr}/v1/models/higgs/predict \\\n     -H 'X-Priority: high' -H 'X-Deadline-Ms: 250' \\\n     -d '{row_json}'"
    );
    println!("# the same weights served int8-quantized (4x smaller)");
    println!("curl -s -X POST http://{addr}/v1/models/higgs-int8/predict -d '{row_json}'");
    println!("# online learning: feed labeled rows; the shadow model hot-swaps in");
    println!("# automatically once it beats the live one on held-out traffic");
    println!(
        "curl -s -X POST http://{addr}/v1/models/higgs/learn \\\n     -d '{{\"rows\":{row_json},\"labels\":[1]}}'"
    );
    println!("# Prometheus scrape: serving, gateway, and online-learning counters");
    println!("curl -s http://{addr}/metrics | grep -E 'queue_depth|gateway_requests|learn_rows'");
    println!("# hot-swap to the saved v2 artifact (atomic; in-flight batches finish on v1)");
    println!(
        "curl -s -X PUT http://{addr}/v1/models/higgs \\\n     -d '{{\"path\":\"{}\",\"version\":2,\"backend\":\"parallel\"}}'",
        v2_dir.display()
    );
    println!();

    if args.self_test {
        run_self_test(addr, &row_json, &v2_dir, &learner);
        return;
    }

    println!("serving until killed (ctrl-c)...");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Drive the walkthrough through the bundled client and verify each step.
fn run_self_test(
    addr: std::net::SocketAddr,
    row_json: &str,
    v2_dir: &std::path::Path,
    learner: &OnlineLearner,
) {
    println!("== self-test ==");
    let mut ok = true;
    let mut check = |what: &str, passed: bool| {
        println!("{} {what}", if passed { "ok  " } else { "FAIL" });
        ok &= passed;
    };

    let health = client::request(addr, "GET", "/healthz", &[], b"").expect("healthz responds");
    check(
        "healthz is 200 ok",
        health.status == 200 && health.body_str().contains("ok"),
    );

    let predict = client::request(
        addr,
        "POST",
        "/v1/models/higgs/predict",
        &[("X-Priority", "high"), ("X-Deadline-Ms", "2000")],
        row_json.as_bytes(),
    )
    .expect("predict responds");
    check(
        "predict is 200 with v1 predictions",
        predict.status == 200 && predict.body_str().contains("\"version\":1"),
    );

    let int8 = client::request(
        addr,
        "POST",
        "/v1/models/higgs-int8/predict",
        &[],
        row_json.as_bytes(),
    )
    .expect("int8 predict responds");
    check(
        "int8 model predicts over the same endpoint",
        int8.status == 200 && int8.body_str().contains("\"predictions\""),
    );

    let swap_body = format!(
        "{{\"path\":\"{}\",\"version\":2,\"backend\":\"parallel\"}}",
        v2_dir.display()
    );
    let swap = client::request(addr, "PUT", "/v1/models/higgs", &[], swap_body.as_bytes())
        .expect("swap responds");
    check(
        "hot-swap is 200 and displaced v1",
        swap.status == 200 && swap.body_str().contains("\"displaced_version\":1"),
    );

    let models = client::request(addr, "GET", "/v1/models", &[], b"").expect("listing responds");
    check(
        "listing shows version 2",
        models.status == 200 && models.body_str().contains("\"version\":2"),
    );

    let metrics = client::request(addr, "GET", "/metrics", &[], b"").expect("metrics responds");
    let text = metrics.body_str();
    check(
        "metrics scrape is a valid exposition",
        metrics.status == 200 && bcpnn_serve::validate_prometheus(&text).is_ok(),
    );
    check(
        "scrape exports queue depth and gateway counters",
        text.contains("bcpnn_serve_queue_depth") && text.contains("bcpnn_gateway_requests_total"),
    );

    let missing = client::request(addr, "POST", "/v1/models/ghost/predict", &[], b"[[1]]")
        .expect("unknown model responds");
    check("unknown model is 404", missing.status == 404);

    // learn -> publish -> predict: stream enough labeled rows to cross the
    // publish threshold, wait for the folds, and confirm the automatic
    // hot-swap (the PUT above made the live model v2, so the learner's
    // publish lands as v3).
    let mut learn_ok = true;
    let mut streamed = 0u64;
    // Each 600-row round crosses the 500-trained-row publish threshold
    // once; a round whose gated publish is rejected (the shadow has not
    // caught up to the live model yet) just feeds the next round.
    for round in 0..5 {
        let learn_data = generate(&SyntheticHiggsConfig {
            n_samples: 600,
            seed: 7 + round,
            ..Default::default()
        });
        for start in (0..600).step_by(100) {
            let rows: Vec<String> = (start..start + 100)
                .map(|r| {
                    let cells: Vec<String> = learn_data
                        .features
                        .row(r)
                        .iter()
                        .map(|v| v.to_string())
                        .collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            let labels: Vec<String> = learn_data.labels[start..start + 100]
                .iter()
                .map(ToString::to_string)
                .collect();
            let body = format!(
                "{{\"rows\":[{}],\"labels\":[{}]}}",
                rows.join(","),
                labels.join(",")
            );
            let learn =
                client::request(addr, "POST", "/v1/models/higgs/learn", &[], body.as_bytes())
                    .expect("learn responds");
            learn_ok &= learn.status == 200 && learn.body_str().contains("\"accepted\":100");
            streamed += 100;
        }
        learner.drain();
        if learner.metrics().publishes >= 1 {
            break;
        }
    }
    check("learn accepts the streamed rows", learn_ok);
    let snapshot = learner.metrics();
    check(
        "shadow published at least once (learn -> hot-swap)",
        snapshot.publishes >= 1,
    );
    let post_swap = client::request(
        addr,
        "POST",
        "/v1/models/higgs/predict",
        &[],
        row_json.as_bytes(),
    )
    .expect("post-swap predict responds");
    let served_version = bcpnn_gateway::json::parse(&post_swap.body_str())
        .ok()
        .and_then(|doc| {
            doc.get("version")
                .and_then(bcpnn_gateway::json::Json::as_u64)
        })
        .unwrap_or(0);
    check(
        "post-publish predict serves the learner's version (past the PUT's v2)",
        post_swap.status == 200 && served_version >= 3,
    );
    let rescrape = client::request(addr, "GET", "/metrics", &[], b"").expect("metrics responds");
    check(
        "scrape counts the learned rows",
        rescrape.body_str().contains(&format!(
            "bcpnn_learn_rows_total{{model=\"higgs\"}} {streamed}"
        )),
    );

    println!();
    println!(
        "{}",
        if ok {
            "OK: gateway walkthrough verified"
        } else {
            "FAILED: see steps above"
        }
    );
    std::process::exit(i32::from(!ok));
}
