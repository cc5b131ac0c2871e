//! End-to-end online learning over the gateway: labeled rows POSTed to
//! `/v1/models/{name}/learn` must flow through the ingest queue into the
//! shadow trainer and come back out — via the accuracy-gated automatic
//! hot-swap — as a measurably better served model, while concurrent
//! predict traffic never sees an error or a paused response. The learn
//! metric families must join the `/metrics` scrape and stay valid.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::Dataset;
use bcpnn_gateway::{client, json, Gateway, GatewayConfig};
use bcpnn_learn::{LearnerConfig, OnlineLearner};
use bcpnn_serve::{ModelRegistry, ServeTarget, ServedModel, ShardConfig, ShardedServer};

use common::rows_body;

/// A deliberately under-trained base: few samples, one epoch each —
/// plenty of headroom for the online stream to improve on.
fn weak_base(seed: u64) -> Pipeline {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 80,
        seed,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        8,
        Network::builder()
            .hidden(2, 4, 0.3)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(seed),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 40,
            ..Default::default()
        },
    )
    .expect("weak base trains");
    pipeline
}

/// Accuracy of the served model on `eval`, measured through HTTP predict.
fn served_accuracy(addr: std::net::SocketAddr, eval: &Dataset) -> f64 {
    let n = eval.labels.len();
    let mut hits = 0usize;
    for start in (0..n).step_by(50) {
        let end = (start + 50).min(n);
        let body = rows_body(eval, start..end);
        let response = client::request(
            addr,
            "POST",
            "/v1/models/higgs/predict",
            &[],
            body.as_bytes(),
        )
        .expect("predict round-trips");
        assert_eq!(response.status, 200, "{}", response.body_str());
        let doc = json::parse(&response.body_str()).unwrap();
        let predictions = doc
            .get("predictions")
            .and_then(json::Json::as_array)
            .expect("predictions present");
        for (i, row) in predictions.iter().enumerate() {
            let cells = row.as_array().unwrap();
            let p0 = match &cells[0] {
                json::Json::Num(v) => v.as_f32().unwrap(),
                other => panic!("non-numeric probability {other:?}"),
            };
            let p1 = match &cells[1] {
                json::Json::Num(v) => v.as_f32().unwrap(),
                other => panic!("non-numeric probability {other:?}"),
            };
            let predicted = usize::from(p1 > p0);
            if predicted == eval.labels[start + i] {
                hits += 1;
            }
        }
    }
    hits as f64 / n as f64
}

#[test]
fn posted_rows_improve_the_served_model_with_zero_downtime() {
    let base = weak_base(71);
    let stream = generate(&SyntheticHiggsConfig {
        n_samples: 2000,
        seed: 72,
        ..Default::default()
    });
    let eval = generate(&SyntheticHiggsConfig {
        n_samples: 400,
        seed: 73,
        ..Default::default()
    });

    let state_dir =
        std::env::temp_dir().join(format!("bcpnn-learn-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, base.clone()));
    let server = Arc::new(ShardedServer::start(
        Arc::clone(&registry),
        ShardConfig::new(2),
    ));
    let learner = Arc::new(
        OnlineLearner::start(
            Arc::clone(&registry),
            "higgs",
            &base,
            LearnerConfig {
                state_dir: state_dir.clone(),
                backend: BackendKind::Naive,
                fold_rows: 64,
                publish_rows: 400,
                reservoir_stride: 10,
                min_eval_rows: 32,
                accuracy_delta: 0.02,
                ..LearnerConfig::default()
            },
        )
        .expect("learner starts"),
    );
    let gateway = Gateway::start_with_learners(
        Arc::clone(&server) as Arc<dyn ServeTarget>,
        GatewayConfig::default(),
        vec![Arc::clone(&learner)],
    )
    .expect("gateway binds an ephemeral port");
    let addr = gateway.local_addr();

    let base_accuracy = served_accuracy(addr, &eval);

    // Zero-downtime clause: predict traffic hammers throughout the learn
    // stream and every publish, and must never see a non-200.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let (improved, streamed) = std::thread::scope(|scope| {
        let mut predictors = Vec::new();
        for t in 0..2 {
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            let eval = &eval;
            predictors.push(scope.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let r = i % 100;
                    let body = rows_body(eval, r..r + 1);
                    let response = client::request(
                        addr,
                        "POST",
                        "/v1/models/higgs/predict",
                        &[],
                        body.as_bytes(),
                    )
                    .expect("predict keeps working while learning");
                    assert_eq!(
                        response.status,
                        200,
                        "prediction downtime: {}",
                        response.body_str()
                    );
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            }));
        }

        // Stream the labeled rows through the learn endpoint.
        let mut streamed = 0u64;
        for start in (0..2000).step_by(100) {
            let body = format!(
                "{{\"rows\":{},\"labels\":[{}]}}",
                rows_body(&stream, start..start + 100),
                stream.labels[start..start + 100]
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let response =
                client::request(addr, "POST", "/v1/models/higgs/learn", &[], body.as_bytes())
                    .expect("learn round-trips");
            assert_eq!(response.status, 200, "{}", response.body_str());
            let doc = json::parse(&response.body_str()).unwrap();
            assert_eq!(doc.get("model").and_then(json::Json::as_str), Some("higgs"));
            streamed += doc.get("accepted").and_then(json::Json::as_u64).unwrap();
        }
        learner.drain();

        // Publishes finished before the predictors stop: whatever they
        // serve next is the hot-swapped model.
        stop.store(true, Ordering::Relaxed);
        for p in predictors {
            p.join().expect("predictor thread");
        }
        (served.load(Ordering::Relaxed), streamed)
    });
    assert_eq!(streamed, 2000, "every POSTed row must be accepted");
    assert!(improved > 0, "predictors must actually have run");

    // The stream triggered at least one gated hot-swap, and the served
    // accuracy measurably improved over the weak base.
    let snapshot = learner.metrics();
    assert!(snapshot.publishes >= 1, "{snapshot:?}");
    assert_eq!(snapshot.rows_ingested, 2000, "{snapshot:?}");
    let live = registry.lookup("higgs").expect("model still served");
    assert!(live.version() > 1, "hot-swap must bump the version");

    let final_accuracy = served_accuracy(addr, &eval);
    assert!(
        final_accuracy >= base_accuracy + 0.02,
        "online learning must measurably improve held-out accuracy: \
         base {base_accuracy:.4} -> final {final_accuracy:.4}"
    );

    // The learn families joined the scrape, which stays valid.
    let scrape = client::request(addr, "GET", "/metrics", &[], b"").unwrap();
    assert_eq!(scrape.status, 200);
    let text = scrape.body_str();
    bcpnn_serve::validate_prometheus(&text).expect("scrape with learn families stays valid");
    assert!(text.contains("bcpnn_learn_rows_total{model=\"higgs\"} 2000"));
    assert!(text.contains("bcpnn_learn_publishes_total"));
    assert!(text.contains("bcpnn_learn_shadow_vs_live_accuracy"));

    let _ = std::fs::remove_dir_all(&state_dir);
}
