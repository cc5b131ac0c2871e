//! End-to-end uncertainty round-trip tests: the gateway's HTTP exterior
//! and the cluster's binary interior must carry confidence — entropy,
//! top-2 margin, and the abstention verdict — **bit for bit** against a
//! direct in-process call. The abstention gate compares the same `f32`s
//! on every path (the header's decimal is shortest-round-trip, the wire
//! carries raw bits), so a client can recompute exactly which rows
//! abstained from the model's own probabilities. Malformed
//! `X-Abstain-Below` headers are rejected before a single forward pass
//! on both fronts.

use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_cluster::{
    BackendConfig, BackendNode, ClusterConfig, ClusterRouter, RouterHttp, RouterHttpConfig,
};
use bcpnn_core::model::Predictor;
use bcpnn_core::uncertainty::{entropy, margin};
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::Dataset;
use bcpnn_gateway::{client, json, Gateway, GatewayConfig};
use bcpnn_serve::{
    BatchConfig, ModelRegistry, ServeTarget, ServedModel, ShardConfig, ShardedServer,
};
use bcpnn_tensor::Matrix;

/// Train a tiny synthetic-Higgs pipeline on the given backend.
fn tiny_pipeline(seed: u64, backend: BackendKind) -> (Pipeline, Dataset) {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 400,
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
            .backend(backend)
            .seed(seed),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 50,
            ..Default::default()
        },
    )
    .expect("tiny pipeline trains");
    (pipeline, data)
}

/// Gateway over a 2-shard server with small batches.
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
        GatewayConfig {
            workers: 4,
            ..GatewayConfig::default()
        },
    )
    .expect("gateway binds an ephemeral port");
    (gateway, server)
}

/// Serialize feature rows the way a JSON client would.
fn rows_body(data: &Dataset, rows: std::ops::Range<usize>) -> String {
    let rows: Vec<String> = rows
        .map(|r| {
            let cells: Vec<String> = data.features.row(r).iter().map(|v| v.to_string()).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// A predict response's parallel per-row arrays, decoded exactly:
/// `None` entries are the abstained rows' JSON `null`s.
struct PredictReply {
    predictions: Vec<Option<Vec<f32>>>,
    uncertainty: Vec<Option<(f32, f32)>>,
    abstained: Vec<bool>,
}

fn num_of(value: Option<&json::Json>, what: &str) -> f32 {
    match value {
        Some(json::Json::Num(n)) => n.as_f32().unwrap_or_else(|| panic!("{what} is not finite")),
        other => panic!("{what} must be a number, got {other:?}"),
    }
}

fn parse_predict(body: &str) -> PredictReply {
    let doc = json::parse(body).expect("response body is valid JSON");
    let array_of = |key: &str| {
        doc.get(key)
            .and_then(json::Json::as_array)
            .unwrap_or_else(|| panic!("response carries an array {key:?}"))
    };
    let predictions = array_of("predictions")
        .iter()
        .map(|row| match row {
            json::Json::Null => None,
            json::Json::Arr(cells) => Some(
                cells
                    .iter()
                    .map(|cell| num_of(Some(cell), "probability"))
                    .collect(),
            ),
            other => panic!("prediction row must be an array or null, got {other:?}"),
        })
        .collect();
    let uncertainty = array_of("uncertainty")
        .iter()
        .map(|row| match row {
            json::Json::Null => None,
            obj @ json::Json::Obj(_) => Some((
                num_of(obj.get("entropy"), "entropy"),
                num_of(obj.get("margin"), "margin"),
            )),
            other => panic!("uncertainty must be an object or null, got {other:?}"),
        })
        .collect();
    let abstained = array_of("abstained")
        .iter()
        .map(|row| match row {
            json::Json::Bool(b) => *b,
            other => panic!("abstained must be a bool, got {other:?}"),
        })
        .collect();
    PredictReply {
        predictions,
        uncertainty,
        abstained,
    }
}

/// The median direct margin over `rows` — a threshold guaranteed to
/// split the holdout into abstained and answered rows.
fn median_margin(direct: &Matrix<f32>, rows: usize) -> f32 {
    let mut margins: Vec<f32> = (0..rows).map(|r| margin(direct.row(r))).collect();
    margins.sort_by(f32::total_cmp);
    margins[rows / 2]
}

/// Assert one front's predict reply against the direct call, row by row:
/// the abstention verdict is exactly `margin < threshold` on the direct
/// probabilities, live rows are bit-identical (probabilities, entropy,
/// margin), abstained rows are `null` throughout.
fn assert_reply_matches_direct(reply: &PredictReply, direct: &Matrix<f32>, threshold: f32) {
    let rows = reply.abstained.len();
    assert_eq!(reply.predictions.len(), rows);
    assert_eq!(reply.uncertainty.len(), rows);
    let mut abstained_rows = 0usize;
    for r in 0..rows {
        let should_abstain = margin(direct.row(r)) < threshold;
        assert_eq!(
            reply.abstained[r], should_abstain,
            "row {r}: the abstention verdict must be recomputable from the direct margins"
        );
        if should_abstain {
            abstained_rows += 1;
            assert!(
                reply.predictions[r].is_none(),
                "row {r}: abstained rows carry a null prediction"
            );
            assert!(
                reply.uncertainty[r].is_none(),
                "row {r}: abstained rows carry null uncertainty"
            );
            continue;
        }
        let proba = reply.predictions[r]
            .as_ref()
            .unwrap_or_else(|| panic!("row {r}: answered rows carry probabilities"));
        assert_eq!(proba.len(), direct.cols());
        for c in 0..direct.cols() {
            assert_eq!(
                proba[c].to_bits(),
                direct.get(r, c).to_bits(),
                "row {r} col {c}: probabilities must be bit-identical"
            );
        }
        let (got_entropy, got_margin) = reply.uncertainty[r]
            .unwrap_or_else(|| panic!("row {r}: answered rows carry uncertainty"));
        assert_eq!(
            got_entropy.to_bits(),
            entropy(direct.row(r)).to_bits(),
            "row {r}: entropy must be bit-identical to the shared kernel"
        );
        assert_eq!(
            got_margin.to_bits(),
            margin(direct.row(r)).to_bits(),
            "row {r}: margin must be bit-identical to the shared kernel"
        );
    }
    assert!(
        abstained_rows > 0 && abstained_rows < rows,
        "the median threshold must split the holdout, abstained {abstained_rows}/{rows}"
    );
}

/// Header values that must be rejected with a 400 naming the header —
/// non-numeric, non-finite, and out-of-range thresholds.
const BAD_THRESHOLDS: [&str; 8] = ["abc", "NaN", "inf", "-inf", "1.5", "-0.1", "", "0.2.3"];

#[test]
fn gateway_uncertainty_and_abstention_match_direct_bitwise() {
    const ROWS: usize = 20;
    let (pipeline, data) = tiny_pipeline(80, BackendKind::Naive);
    let direct = pipeline.predict_proba(&data.features).unwrap();
    let threshold = median_margin(&direct, ROWS);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, pipeline));
    let (gateway, _server) = gateway_over(registry);

    // With a threshold: the verdict, the survivors' probabilities, and
    // the uncertainty numbers all match the direct call bit for bit. The
    // header carries the threshold as a shortest-round-trip decimal, so
    // the gateway compares the very same f32 this test does.
    let response = client::request(
        gateway.local_addr(),
        "POST",
        "/v1/models/higgs/predict",
        &[("X-Abstain-Below", &threshold.to_string())],
        rows_body(&data, 0..ROWS).as_bytes(),
    )
    .expect("predict request round-trips");
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    assert_reply_matches_direct(&parse_predict(&response.body_str()), &direct, threshold);

    // Without the header nothing abstains, and uncertainty still rides
    // along bit-exactly for every row.
    let response = client::request(
        gateway.local_addr(),
        "POST",
        "/v1/models/higgs/predict",
        &[],
        rows_body(&data, 0..ROWS).as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    let reply = parse_predict(&response.body_str());
    assert_eq!(reply.abstained, vec![false; ROWS]);
    for r in 0..ROWS {
        let (got_entropy, got_margin) = reply.uncertainty[r].expect("live rows carry uncertainty");
        assert_eq!(got_entropy.to_bits(), entropy(direct.row(r)).to_bits());
        assert_eq!(got_margin.to_bits(), margin(direct.row(r)).to_bits());
    }
}

#[test]
fn gateway_rejects_malformed_abstain_headers_without_a_forward_pass() {
    let (pipeline, data) = tiny_pipeline(81, BackendKind::Naive);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, pipeline));
    let (gateway, server) = gateway_over(registry);
    let body = rows_body(&data, 0..1);

    for bad in BAD_THRESHOLDS {
        let r = client::request(
            gateway.local_addr(),
            "POST",
            "/v1/models/higgs/predict",
            &[("X-Abstain-Below", bad)],
            body.as_bytes(),
        )
        .unwrap();
        assert_eq!(r.status, 400, "threshold {bad:?}: {}", r.body_str());
        assert!(
            r.body_str().contains("X-Abstain-Below"),
            "threshold {bad:?}: the error must name the header, got {}",
            r.body_str()
        );
    }
    let m = server.metrics();
    assert_eq!(
        m.requests, 0,
        "a malformed threshold must never reach the serving stack"
    );
    assert_eq!(m.responses, 0);
}

/// A one-off cluster: one router HTTP front over backends that each load
/// the same persisted artifact (bit-identical replicas).
struct TestCluster {
    _nodes: Vec<BackendNode>,
    _router: Arc<ClusterRouter>,
    front: RouterHttp,
    artifact_root: std::path::PathBuf,
}

impl TestCluster {
    fn start(tag: &str, pipeline: &Pipeline, kind: BackendKind, n_backends: usize) -> TestCluster {
        let artifact_root = std::env::temp_dir().join(format!(
            "bcpnn-uncertainty-roundtrip-{tag}-{}",
            std::process::id()
        ));
        let v1_dir = artifact_root.join("model-v1");
        pipeline.save(&v1_dir).expect("v1 artifact saves");

        let mut nodes = Vec::with_capacity(n_backends);
        for _ in 0..n_backends {
            let registry = Arc::new(ModelRegistry::new());
            let replica = Pipeline::load(&v1_dir, kind).expect("v1 artifact loads");
            registry.publish(ServedModel::new("higgs", 1, replica));
            let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(2)));
            let node = BackendNode::start(
                server as Arc<dyn ServeTarget>,
                BackendConfig {
                    artifact_root: Some(artifact_root.clone()),
                    ..BackendConfig::default()
                },
            )
            .expect("backend node binds");
            nodes.push(node);
        }

        let router = Arc::new(ClusterRouter::start(ClusterConfig {
            backends: nodes.iter().map(BackendNode::local_addr).collect(),
            ..ClusterConfig::default()
        }));
        let front = RouterHttp::start(Arc::clone(&router), RouterHttpConfig::default())
            .expect("router HTTP front binds");
        TestCluster {
            _nodes: nodes,
            _router: router,
            front,
            artifact_root,
        }
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.front.local_addr()
    }
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.artifact_root);
    }
}

#[test]
fn cluster_front_carries_uncertainty_and_abstention_bitwise() {
    const ROWS: usize = 20;
    let (pipeline, data) = tiny_pipeline(82, BackendKind::Naive);
    let direct = pipeline.predict_proba(&data.features).unwrap();
    let threshold = median_margin(&direct, ROWS);
    let cluster = TestCluster::start("uncert", &pipeline, BackendKind::Naive, 2);

    // Same contract as the single-node gateway, but the threshold now
    // travels the binary interior protocol as a raw f32 and the verdict
    // comes back as in-band abstained row indices: the JSON a client
    // sees is indistinguishable from the gateway's, bit for bit.
    let response = client::request(
        cluster.addr(),
        "POST",
        "/v1/models/higgs/predict",
        &[("X-Abstain-Below", &threshold.to_string())],
        rows_body(&data, 0..ROWS).as_bytes(),
    )
    .expect("predict request round-trips");
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    assert_reply_matches_direct(&parse_predict(&response.body_str()), &direct, threshold);

    // Without the header nothing abstains and uncertainty is bit-exact —
    // entropy/margin recomputed from the wire's raw f32 rows.
    let response = client::request(
        cluster.addr(),
        "POST",
        "/v1/models/higgs/predict",
        &[],
        rows_body(&data, 0..ROWS).as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    let reply = parse_predict(&response.body_str());
    assert_eq!(reply.abstained, vec![false; ROWS]);
    for r in 0..ROWS {
        let (got_entropy, got_margin) = reply.uncertainty[r].expect("live rows carry uncertainty");
        assert_eq!(got_entropy.to_bits(), entropy(direct.row(r)).to_bits());
        assert_eq!(got_margin.to_bits(), margin(direct.row(r)).to_bits());
    }

    // The cluster front rejects malformed thresholds with the same table
    // as the gateway — a 400 naming the header, never a fan-out.
    for bad in BAD_THRESHOLDS {
        let r = client::request(
            cluster.addr(),
            "POST",
            "/v1/models/higgs/predict",
            &[("X-Abstain-Below", bad)],
            rows_body(&data, 0..1).as_bytes(),
        )
        .unwrap();
        assert_eq!(r.status, 400, "threshold {bad:?}: {}", r.body_str());
        assert!(
            r.body_str().contains("X-Abstain-Below"),
            "threshold {bad:?}: the error must name the header, got {}",
            r.body_str()
        );
    }
}
