//! End-to-end gateway tests over a real socket: HTTP predict must equal
//! direct in-process `Pipeline::predict_proba` **bit for bit** on both
//! backends, requests the serving stack itself refuses must not cost a
//! forward pass (what the front refuses is `front_contract`'s table), the
//! `/metrics` scrape must pass the Prometheus validity
//! parser, and a hot-swap issued over HTTP mid-flight must be atomic per
//! request: every row of a multi-row response is served by one model
//! version, the one the response names. An int8-quantized twin served
//! beside its f32 source answers on its own name, bit for bit as in process.

mod common;

use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_gateway::{client, json, Gateway, GatewayConfig};
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_serve::{
    BatchConfig, ModelRegistry, ServeTarget, ServedModel, ShardConfig, ShardedServer,
};
use std::time::Duration;

use common::{assert_answered_by_one_version, predictions_of, rows_body, tiny_pipeline};

/// Gateway over a 2-shard server with small batches (so multi-row
/// requests really exercise batching).
fn gateway_over(registry: Arc<ModelRegistry>) -> (Gateway, Arc<ShardedServer>) {
    let server = Arc::new(ShardedServer::start(
        registry,
        ShardConfig {
            shards: 2,
            batch: BatchConfig {
                max_batch: 8,
                workers: 1,
            },
            ..ShardConfig::default()
        },
    ));
    let gateway = Gateway::start(
        Arc::clone(&server) as Arc<dyn ServeTarget>,
        GatewayConfig::default(),
    )
    .expect("gateway binds an ephemeral port");
    (gateway, server)
}

fn assert_http_matches_direct(backend: BackendKind) {
    let (pipeline, data) = tiny_pipeline(60, backend);
    let direct = pipeline
        .predict_proba(&data.features)
        .expect("direct inference succeeds");

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, pipeline));
    let (gateway, _server) = gateway_over(registry);

    // 30 rows across several requests: batches form across rows and (with
    // hash routing) across shards, and every probability must still be
    // the exact bits the in-process call produces.
    for chunk in [0..10usize, 10..13, 13..30] {
        let body = rows_body(&data, chunk.clone());
        let response = client::request(
            gateway.local_addr(),
            "POST",
            "/v1/models/higgs/predict",
            &[],
            body.as_bytes(),
        )
        .expect("predict request round-trips");
        assert_eq!(response.status, 200, "body: {}", response.body_str());
        let got = predictions_of(&response.body_str());
        assert_eq!(got.len(), chunk.len());
        for (i, r) in chunk.enumerate() {
            assert_eq!(got[i].len(), 2);
            for c in 0..2 {
                assert_eq!(
                    got[i][c].to_bits(),
                    direct.get(r, c).to_bits(),
                    "row {r} col {c}: HTTP {} vs direct {} must be bit-identical",
                    got[i][c],
                    direct.get(r, c)
                );
            }
        }
    }
}

#[test]
fn http_predict_matches_direct_bitwise_naive() {
    assert_http_matches_direct(BackendKind::Naive);
}

#[test]
fn http_predict_matches_direct_bitwise_parallel() {
    assert_http_matches_direct(BackendKind::Parallel);
}

#[test]
fn bad_requests_are_4xx_and_never_touch_a_worker() {
    let (pipeline, _) = tiny_pipeline(61, BackendKind::Naive);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, pipeline));
    let (gateway, server) = gateway_over(registry);
    let addr = gateway.local_addr();

    // Wrong feature width: parses fine, fails serve-side validation
    // before entering the batch queue.
    let r = client::request(addr, "POST", "/v1/models/higgs/predict", &[], b"[[1,2,3]]").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_str().contains("features"));
    // An unknown model is refused at submission.
    let r = client::request(addr, "POST", "/v1/models/ghost/predict", &[], b"[[1]]").unwrap();
    assert_eq!(r.status, 404);
    // An expired deadline comes back 504 (it reached the stack, was never
    // executed).
    let wide_row = format!("[[{}]]", vec!["0.5"; 28].join(","));
    let r = client::request(
        addr,
        "POST",
        "/v1/models/higgs/predict",
        &[("X-Deadline-Ms", "0")],
        wide_row.as_bytes(),
    )
    .unwrap();
    assert_eq!(r.status, 504);

    let m = server.metrics();
    assert_eq!(
        m.responses, 0,
        "no malformed request may consume a forward pass"
    );
    assert_eq!(m.requests, 1, "only the deadline probe was accepted");
    assert_eq!(m.expired, 1, "and it expired unexecuted");
    let g = gateway.metrics();
    assert_eq!((g.status_2xx, g.status_4xx, g.status_5xx), (0, 2, 1));
    assert_eq!(g.predict_rows, 1, "exactly the rows that reached the stack");
}

#[test]
fn hot_swap_over_http_is_atomic_mid_flight() {
    let (v1, data) = tiny_pipeline(62, BackendKind::Naive);
    let (v2, _) = tiny_pipeline(63, BackendKind::Naive);
    let direct_v1 = v1.predict_proba(&data.features).unwrap();
    let direct_v2 = v2.predict_proba(&data.features).unwrap();

    let artifact_dir =
        std::env::temp_dir().join(format!("bcpnn-gateway-roundtrip-{}", std::process::id()));
    v2.save(&artifact_dir).expect("v2 artifact saves");

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, v1));
    let (gateway, server) = gateway_over(registry);
    let addr = gateway.local_addr();

    // Hammer 16-row predictions from several client threads while the swap
    // PUT lands. The request is the atomicity unit: all 16 rows of a reply
    // must be v1 bits or all v2 bits, as its `version` says — never a
    // mixture, never an error.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mix_seen = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for t in 0..3 {
            let stop = Arc::clone(&stop);
            let data = &data;
            let direct_v1 = &direct_v1;
            let direct_v2 = &direct_v2;
            clients.push(scope.spawn(move || {
                let mut swapped_seen = false;
                let mut i = t;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let rows = i % 40..i % 40 + 16;
                    let body = rows_body(data, rows.clone());
                    let response = client::request(
                        addr,
                        "POST",
                        "/v1/models/higgs/predict",
                        &[],
                        body.as_bytes(),
                    )
                    .expect("predict keeps working through the swap");
                    assert_eq!(response.status, 200, "{}", response.body_str());
                    let version = assert_answered_by_one_version(
                        &response.body_str(),
                        rows,
                        direct_v1,
                        direct_v2,
                    );
                    swapped_seen |= version == 2;
                    i += 1;
                }
                swapped_seen
            }));
        }

        // Let traffic build, then swap over HTTP.
        std::thread::sleep(Duration::from_millis(50));
        let swap_body = format!(
            "{{\"path\":\"{}\",\"version\":2,\"backend\":\"naive\"}}",
            artifact_dir.display()
        );
        let swap = client::request(addr, "PUT", "/v1/models/higgs", &[], swap_body.as_bytes())
            .expect("swap request round-trips");
        assert_eq!(swap.status, 200, "{}", swap.body_str());
        let doc = json::parse(&swap.body_str()).unwrap();
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("displaced_version").unwrap().as_u64(), Some(1));

        // Give clients time to observe v2, then stop them.
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect::<Vec<bool>>()
    });
    assert!(
        mix_seen.iter().any(|&saw_v2| saw_v2),
        "at least one client must observe post-swap predictions"
    );

    // The listing now reports version 2, and post-swap predictions are
    // exactly the loaded artifact's bits (load(save(v2)) == v2 is the
    // persistence layer's bit-exactness guarantee).
    let listing = client::request(addr, "GET", "/v1/models", &[], b"").unwrap();
    assert!(listing.body_str().contains("\"version\":2"));
    let response = client::request(
        addr,
        "POST",
        "/v1/models/higgs/predict",
        &[],
        rows_body(&data, 0..5).as_bytes(),
    )
    .unwrap();
    let got = predictions_of(&response.body_str());
    for r in 0..5 {
        for c in 0..2 {
            assert_eq!(got[r][c].to_bits(), direct_v2.get(r, c).to_bits());
        }
    }
    assert_eq!(server.registry().hot_swaps(), 1);
    let _ = std::fs::remove_dir_all(&artifact_dir);
}

#[test]
fn metrics_scrape_is_valid_and_complete_after_traffic() {
    let (pipeline, data) = tiny_pipeline(64, BackendKind::Naive);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, pipeline));
    let (gateway, server) = gateway_over(registry);
    let addr = gateway.local_addr();

    let response = client::request(
        addr,
        "POST",
        "/v1/models/higgs/predict",
        &[("X-Priority", "high")],
        rows_body(&data, 0..12).as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);

    let scrape = client::request(addr, "GET", "/metrics", &[], b"").unwrap();
    assert_eq!(scrape.status, 200);
    assert_eq!(
        scrape.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    let text = scrape.body_str();
    let samples =
        bcpnn_serve::validate_prometheus(&text).expect("combined exposition passes the parser");
    assert!(
        samples > 50,
        "rich exposition expected, got {samples} samples"
    );

    // Serve-side: per-shard + aggregate, with the 12 rows accounted once.
    assert!(text.contains("bcpnn_serve_requests_total{shard=\"all\"} 12"));
    assert!(text.contains("bcpnn_serve_queue_depth"));
    // Gateway-side: the predict request and its rows, counted at the
    // gateway's own layer (no double count inside shard=\"all\").
    assert!(text.contains("bcpnn_gateway_predict_rows_total 12"));
    assert!(text.contains("bcpnn_gateway_responses_total{class=\"2xx\"} 1"));
    // Cross-check against the in-process snapshots.
    assert_eq!(server.metrics().responses, 12);
    assert_eq!(gateway.metrics().predict_rows, 12);
}

#[test]
fn int8_model_served_beside_its_source_predicts_over_http() {
    let (pipeline, data) = tiny_pipeline(65, BackendKind::Parallel);
    let int8 = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
    let direct = int8.predict_proba(&data.features).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, pipeline));
    registry.publish(ServedModel::new("higgs-int8", 1, int8));
    let (gateway, _server) = gateway_over(registry);

    let response = client::request(
        gateway.local_addr(),
        "POST",
        "/v1/models/higgs-int8/predict",
        &[],
        rows_body(&data, 0..8).as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    let got = predictions_of(&response.body_str());
    assert_eq!(got.len(), 8);
    for (r, row) in got.iter().enumerate() {
        let bits = |row: &[f32]| row.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(row), bits(direct.row(r)), "int8 row {r}");
    }
}
