//! End-to-end cluster tests over real sockets: HTTP predict through the
//! router (JSON exterior → binary interior → replica fan-out) must equal
//! direct in-process `Pipeline::predict_proba` **bit for bit** on both
//! compute backends; a cluster-wide hot-swap issued mid-flight must
//! converge every replica with per-node outcomes reported; and hard-killing
//! one of two replicas under load must lose zero requests for a replicated
//! model while an unreplicated model on the killed node fails with a clean
//! 502; and two replicas fed the same learn posts end bit-identical.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_cluster::{
    BackendConfig, BackendNode, ClusterConfig, ClusterRouter, RouterHttp, RouterHttpConfig,
};
use bcpnn_core::model::Predictor;
use bcpnn_core::Pipeline;
use bcpnn_gateway::{client, json};
use bcpnn_learn::{LearnerConfig, OnlineLearner};
use bcpnn_serve::{ModelRegistry, ServeTarget, ServedModel, ShardConfig, ShardedServer};

use common::{assert_answered_by_one_version, predictions_of, rows_body, tiny_pipeline};

/// A running test cluster. Backends are `Option` so a test can hard-kill
/// one (drop severs its live connections) while the tier keeps serving.
struct TestCluster {
    nodes: Vec<Option<BackendNode>>,
    router: Arc<ClusterRouter>,
    front: RouterHttp,
    artifact_root: std::path::PathBuf,
}

impl TestCluster {
    /// Save `pipeline` once, then start `n_backends` nodes that each load
    /// the artifact (so every replica holds bit-identical model state)
    /// and publish it under every name in `names`, fronted by a router.
    fn start(
        tag: &str,
        pipeline: &Pipeline,
        kind: BackendKind,
        names: &[&str],
        n_backends: usize,
        config: ClusterConfig,
    ) -> TestCluster {
        let artifact_root = std::env::temp_dir().join(format!(
            "bcpnn-cluster-roundtrip-{tag}-{}",
            std::process::id()
        ));
        let v1_dir = artifact_root.join("model-v1");
        pipeline.save(&v1_dir).expect("v1 artifact saves");

        let mut nodes = Vec::with_capacity(n_backends);
        for _ in 0..n_backends {
            let registry = Arc::new(ModelRegistry::new());
            for name in names {
                let replica = Pipeline::load(&v1_dir, kind).expect("v1 artifact loads");
                registry.publish(ServedModel::new(*name, 1, replica));
            }
            let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(2)));
            let node = BackendNode::start(
                server as Arc<dyn ServeTarget>,
                BackendConfig {
                    artifact_root: Some(artifact_root.clone()),
                    ..BackendConfig::default()
                },
            )
            .expect("backend node binds");
            nodes.push(Some(node));
        }

        let router = Arc::new(ClusterRouter::start(ClusterConfig {
            backends: nodes
                .iter()
                .map(|n| n.as_ref().unwrap().local_addr())
                .collect(),
            ..config
        }));
        let front = RouterHttp::start(Arc::clone(&router), RouterHttpConfig::default())
            .expect("router HTTP front binds");
        TestCluster {
            nodes,
            router,
            front,
            artifact_root,
        }
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.front.local_addr()
    }

    /// Hard-kill one backend: dropping the node severs its listener and
    /// every in-flight connection mid-byte.
    fn kill(&mut self, backend: usize) {
        self.nodes[backend] = None;
    }
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.artifact_root);
    }
}

fn assert_cluster_matches_direct(kind: BackendKind, tag: &str) {
    let (pipeline, data) = tiny_pipeline(70, kind);
    let direct = pipeline
        .predict_proba(&data.features)
        .expect("direct inference succeeds");
    let cluster = TestCluster::start(
        tag,
        &pipeline,
        kind,
        &["higgs"],
        2,
        ClusterConfig::default(),
    );

    // 30 rows across several request shapes: every probability must be
    // the exact bits the in-process call produces, no matter which
    // replica answers or how the interior frame batches the rows.
    for chunk in [0..10usize, 10..13, 13..30] {
        let body = rows_body(&data, chunk.clone());
        let response = client::request(
            cluster.addr(),
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
                    "row {r} col {c}: cluster {} vs direct {} must be bit-identical",
                    got[i][c],
                    direct.get(r, c)
                );
            }
        }
    }

    // An already-expired client deadline is answered 504 by the tier —
    // the backend reports it as a typed error, the router refuses to
    // burn the budget on a failover.
    let r = client::request(
        cluster.addr(),
        "POST",
        "/v1/models/higgs/predict",
        &[("X-Deadline-Ms", "0")],
        rows_body(&data, 0..1).as_bytes(),
    )
    .unwrap();
    assert_eq!(r.status, 504, "body: {}", r.body_str());
}

#[test]
fn cluster_predict_matches_direct_bitwise_naive() {
    assert_cluster_matches_direct(BackendKind::Naive, "naive");
}

#[test]
fn cluster_predict_matches_direct_bitwise_parallel() {
    assert_cluster_matches_direct(BackendKind::Parallel, "parallel");
}

#[test]
fn cluster_wide_hot_swap_converges_every_replica_mid_flight() {
    let kind = BackendKind::Naive;
    let (v1, data) = tiny_pipeline(71, kind);
    let (v2, _) = tiny_pipeline(72, kind);
    let direct_v1 = v1.predict_proba(&data.features).unwrap();
    let direct_v2 = v2.predict_proba(&data.features).unwrap();

    let cluster = TestCluster::start("swap", &v1, kind, &["higgs"], 2, ClusterConfig::default());
    let addr = cluster.addr();
    let v2_dir = cluster.artifact_root.join("model-v2");
    v2.save(&v2_dir).expect("v2 artifact saves");

    // Hammer 16-row predictions while the cluster-wide swap lands: all 16
    // rows of a reply must be v1 bits or all v2 bits, as the `version` the
    // answering backend put in its frame says — never a mixture, never an
    // error — even though the two replicas swap at slightly different
    // instants.
    let stop = Arc::new(AtomicBool::new(false));
    let saw_v2 = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for t in 0..3usize {
            let stop = Arc::clone(&stop);
            let data = &data;
            let direct_v1 = &direct_v1;
            let direct_v2 = &direct_v2;
            clients.push(scope.spawn(move || {
                let mut swapped_seen = false;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
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

        std::thread::sleep(Duration::from_millis(50));
        let swap_body = format!(
            "{{\"path\":\"{}\",\"version\":2,\"backend\":\"naive\"}}",
            v2_dir.display()
        );
        let swap = client::request(addr, "PUT", "/v1/models/higgs", &[], swap_body.as_bytes())
            .expect("swap request round-trips");
        assert_eq!(swap.status, 200, "{}", swap.body_str());
        // Per-node outcomes: both replicas swapped, each displacing v1.
        let doc = json::parse(&swap.body_str()).unwrap();
        let results = doc.get("results").and_then(json::Json::as_array).unwrap();
        assert_eq!(results.len(), 2, "replication 2 → two node outcomes");
        for outcome in results {
            assert!(matches!(outcome.get("ok"), Some(json::Json::Bool(true))));
            assert_eq!(
                outcome.get("version").and_then(json::Json::as_u64),
                Some(2),
                "outcome: {}",
                swap.body_str()
            );
            assert_eq!(
                outcome
                    .get("displaced_version")
                    .and_then(json::Json::as_u64),
                Some(1)
            );
        }

        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect::<Vec<bool>>()
    });
    assert!(
        saw_v2.iter().any(|&saw| saw),
        "at least one client must observe post-swap predictions"
    );

    // After convergence every replica answers with exactly v2's bits, so
    // repeated predicts are v2 regardless of which node is asked.
    for _ in 0..6 {
        let response = client::request(
            addr,
            "POST",
            "/v1/models/higgs/predict",
            &[],
            rows_body(&data, 0..5).as_bytes(),
        )
        .unwrap();
        assert_eq!(response.status, 200);
        let got = predictions_of(&response.body_str());
        for r in 0..5 {
            for c in 0..2 {
                assert_eq!(got[r][c].to_bits(), direct_v2.get(r, c).to_bits());
            }
        }
    }
    let listing = client::request(addr, "GET", "/v1/models", &[], b"").unwrap();
    assert!(listing.body_str().contains("\"version\":2"));
}

#[test]
fn killing_one_of_two_replicas_loses_no_requests() {
    let kind = BackendKind::Naive;
    let (pipeline, data) = tiny_pipeline(73, kind);
    let direct = pipeline.predict_proba(&data.features).unwrap();

    // "higgs" rides the default replication of 2 (both backends);
    // "solo" is pinned to a single replica via an override.
    let mut cluster = TestCluster::start(
        "kill",
        &pipeline,
        kind,
        &["higgs", "solo"],
        2,
        ClusterConfig {
            replication_overrides: vec![("solo".to_string(), 1)],
            ..ClusterConfig::default()
        },
    );
    let addr = cluster.addr();
    let victim = cluster.router.replicas_for("solo")[0];
    assert_eq!(cluster.router.replicas_for("higgs").len(), 2);

    // Sanity: the unreplicated model serves while its node is alive.
    let r = client::request(
        addr,
        "POST",
        "/v1/models/solo/predict",
        &[],
        rows_body(&data, 0..1).as_bytes(),
    )
    .unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());

    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for t in 0..3usize {
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            let data = &data;
            let direct = &direct;
            clients.push(scope.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let r = i % 40;
                    let body = rows_body(data, r..r + 1);
                    let response = client::request(
                        addr,
                        "POST",
                        "/v1/models/higgs/predict",
                        &[],
                        body.as_bytes(),
                    )
                    .expect("the router must keep answering");
                    // THE guarantee under test: with a surviving replica,
                    // not one request fails or drifts from the model's
                    // exact bits while a node dies mid-flight.
                    assert_eq!(response.status, 200, "{}", response.body_str());
                    let got = predictions_of(&response.body_str());
                    for c in 0..2 {
                        assert_eq!(got[0][c].to_bits(), direct.get(r, c).to_bits());
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            }));
        }

        // Let load build, then hard-kill the victim: its listener and
        // every live connection (including ones carrying requests right
        // now) are severed.
        std::thread::sleep(Duration::from_millis(60));
        let before_kill = completed.load(Ordering::Relaxed);
        cluster.kill(victim);
        std::thread::sleep(Duration::from_millis(250));
        stop.store(true, Ordering::Relaxed);
        for c in clients {
            c.join().expect("no client observed a failed request");
        }
        assert!(
            completed.load(Ordering::Relaxed) > before_kill,
            "traffic must keep completing after the kill"
        );
    });

    // The tier noticed: the victim's gauge is down, failovers counted.
    let metrics = client::request(addr, "GET", "/metrics", &[], b"").unwrap();
    let text = metrics.body_str();
    assert!(text.contains(&format!(
        "bcpnn_cluster_backend_up{{backend=\"{victim}\"}} 0"
    )));
    assert!(bcpnn_serve::validate_prometheus(&text).is_ok());

    // The unreplicated model lived only on the dead node: a clean 502,
    // not a hang and not a 500.
    let r = client::request(
        addr,
        "POST",
        "/v1/models/solo/predict",
        &[],
        rows_body(&data, 0..1).as_bytes(),
    )
    .unwrap();
    assert_eq!(r.status, 502, "body: {}", r.body_str());
    assert!(r.body_str().contains("replica"));

    // The replicated model is still bit-exact on the survivor.
    let response = client::request(
        addr,
        "POST",
        "/v1/models/higgs/predict",
        &[],
        rows_body(&data, 0..5).as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let got = predictions_of(&response.body_str());
    for r in 0..5 {
        for c in 0..2 {
            assert_eq!(got[r][c].to_bits(), direct.get(r, c).to_bits());
        }
    }
}

/// Learn posts through the real cluster path — HTTP front, router
/// broadcast, `Learn` frames, one learner per backend node — fold and
/// publish the same way on every replica: fold boundaries are the posts',
/// so however each node's trainer thread interleaves with the burst, the
/// two shadows end byte-identical and serve the same version.
#[test]
fn replicas_fed_the_same_learn_posts_end_bit_identical() {
    let kind = BackendKind::Parallel;
    let (pipeline, data) = tiny_pipeline(74, kind);
    let root = std::env::temp_dir().join(format!(
        "bcpnn-cluster-roundtrip-replicas-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);

    let mut replicas = Vec::new();
    let mut nodes = Vec::new();
    for node in 0..2 {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("higgs", 1, pipeline.clone()));
        let learner = Arc::new(
            OnlineLearner::start(
                Arc::clone(&registry),
                "higgs",
                &pipeline,
                LearnerConfig {
                    state_dir: root.join(format!("state-{node}")),
                    backend: kind,
                    fold_rows: 32,
                    publish_rows: 100,
                    reservoir_stride: 10,
                    min_eval_rows: 8,
                    ..LearnerConfig::default()
                },
            )
            .expect("learner starts"),
        );
        let server = Arc::new(ShardedServer::start(
            Arc::clone(&registry),
            ShardConfig::new(1),
        ));
        nodes.push(
            BackendNode::start_with_learners(
                server as Arc<dyn ServeTarget>,
                BackendConfig::default(),
                vec![Arc::clone(&learner)],
            )
            .expect("backend node binds"),
        );
        replicas.push((registry, learner));
    }
    let router = Arc::new(ClusterRouter::start(ClusterConfig {
        backends: nodes.iter().map(BackendNode::local_addr).collect(),
        ..ClusterConfig::default()
    }));
    let front = RouterHttp::start(Arc::clone(&router), RouterHttpConfig::default())
        .expect("router HTTP front binds");

    // A burst of 50-row posts, each acknowledged once both replicas queued
    // it, none waiting for a trainer.
    for start in (0..400).step_by(50) {
        let labels: Vec<String> = data.labels[start..start + 50]
            .iter()
            .map(usize::to_string)
            .collect();
        let body = format!(
            "{{\"rows\":{},\"labels\":[{}]}}",
            rows_body(&data, start..start + 50),
            labels.join(",")
        );
        let reply = client::request(
            front.local_addr(),
            "POST",
            "/v1/models/higgs/learn",
            &[],
            body.as_bytes(),
        )
        .expect("learn round-trips");
        assert_eq!(reply.status, 200, "{}", reply.body_str());
    }

    let mut versions = Vec::new();
    for (node, (registry, learner)) in replicas.iter().enumerate() {
        learner.drain();
        let snapshot = learner.metrics();
        assert_eq!(snapshot.rows_ingested, 400, "node {node}: {snapshot:?}");
        learner
            .shadow_pipeline()
            .save(root.join(format!("shadow-{node}")))
            .expect("shadow saves");
        versions.push(registry.lookup("higgs").expect("model stays").version());
    }
    let bytes = |node: usize| {
        std::fs::read(root.join(format!("shadow-{node}")).join("model.bcpnn"))
            .expect("saved shadow reads")
    };
    assert!(bytes(0) == bytes(1), "the replicas' shadows differ");
    assert_eq!(
        versions[0], versions[1],
        "the replicas serve different versions"
    );
    assert!(versions[0] > 1, "no replica published");

    drop(front);
    drop(router);
    drop(nodes);
    drop(replicas);
    let _ = std::fs::remove_dir_all(&root);
}
