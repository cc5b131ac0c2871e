//! The one exposition writer, end to end: every `/metrics` source writes
//! exactly the bytes it wrote before the writer existed, and a name
//! carrying `"`, `\` or a newline comes out as one valid, escaped sample.
//!
//! Each source is driven by a fixed event script and its exposition is
//! pinned by `bcpnn_tensor::io::crc32`. The pins were taken from the
//! renderers the writer replaced, so a pin that moves means a scrape
//! changed: a name, a label, a value, a bucket bound or their order.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_cluster::{BackendConfig, BackendNode, ClusterConfig, ClusterMetrics, ClusterRouter};
use bcpnn_core::model::Predictor;
use bcpnn_gateway::GatewayMetrics;
use bcpnn_learn::{LearnSnapshot, LearnerConfig, OnlineLearner};
use bcpnn_serve::testutil::GatePredictor;
use bcpnn_serve::{
    validate_prometheus, CascadeModel, Exposition, MetricsSnapshot, ModelRegistry, ServeTarget,
    ServedModel, ServingMetrics, ShardConfig, ShardedServer, SubmitOptions,
};
use bcpnn_tensor::io::crc32;
use bcpnn_tensor::Matrix;

use common::tiny_pipeline;

/// Every scrape of a server includes every live cascade in the process,
/// so the tests here take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A two-class cascade tier that answers `[0.5, 0.5]` (margin 0) for
/// every row.
fn even_tier() -> Box<dyn Predictor + Send + Sync> {
    let gate = GatePredictor::new(1);
    gate.open();
    Box::new(gate)
}

fn assert_pinned(what: &str, text: &str, crc: u32, len: usize) {
    validate_prometheus(text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
    assert_eq!(
        (crc32(text.as_bytes()), text.len()),
        (crc, len),
        "{what} moved:\n{text}"
    );
}

/// The lines of `text`, sorted: what stays fixed when only the order of
/// the lines changes.
fn sorted_lines(text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

#[test]
fn every_source_writes_the_bytes_it_wrote_before_the_writer() {
    let _serial = serial();

    let serving = ServingMetrics::new();
    serving.record_submits(5);
    serving.record_batch(3);
    serving.record_batch(2);
    serving.record_responses(4, Duration::from_micros(120));
    serving.record_responses(1, Duration::from_micros(9000));
    serving.record_expiries(1);
    serving.record_abstentions(1);
    let snapshot = serving.snapshot();
    let text =
        Exposition::render(|out| MetricsSnapshot::write_metrics(out, &[(vec![], &snapshot)]));
    assert_pinned("ServingMetrics", &text, 0x5aa2_4719, 4116);

    // Three zero-deadline rows expire unexecuted: every count is fixed,
    // and the hash routing puts one on shard 0 and two on shard 1.
    let registry = Arc::new(ModelRegistry::new());
    let gate = GatePredictor::new(1);
    gate.open();
    registry.publish(ServedModel::new("higgs", 1, gate));
    let sharded = ShardedServer::start(registry, ShardConfig::new(2));
    for x in [0.0f32, 1.0, 2.0] {
        let expired = sharded
            .submit_with_options(
                "higgs",
                vec![x],
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap()
            .wait();
        assert!(expired.is_err());
    }
    let text = Exposition::render(|out| sharded.write_metrics(out));
    assert_pinned("2-shard ShardedServer", &text, 0x2e93_eb8d, 11238);

    let gateway = GatewayMetrics::new();
    for status in [200, 404, 503] {
        gateway.record_request();
        gateway.record_status(status);
    }
    gateway.record_bytes_in(100);
    gateway.record_bytes_out(250);
    gateway.record_predict_rows(32);
    gateway.record_rejected_busy();
    let text = Exposition::render(|out| gateway.snapshot().write_metrics(out));
    assert_pinned("GatewayMetrics", &text, 0xd7fe_7dd8, 1113);

    let cluster = ClusterMetrics::new(2);
    for millis in [3, 200, 7000] {
        cluster.record_fanout();
        cluster.record_fanout_ok(Duration::from_millis(millis));
    }
    cluster.record_fanout();
    cluster.record_retry();
    cluster.record_failover();
    cluster.record_publish();
    cluster.set_backend_up(0, true);
    let text = Exposition::render(|out| cluster.write_metrics(out));
    assert_pinned("ClusterMetrics over 2 backends", &text, 0x0128_7515, 1736);

    let higgs = LearnSnapshot {
        rows_ingested: 800,
        rows_trained: 700,
        rows_heldout: 90,
        rows_rejected: 3,
        folds: 7,
        publishes: 2,
        publishes_rejected: 1,
        replayed_frames: 4,
        replay_log_bytes: 123_456,
        queue_depth: 10,
        shadow_accuracy: Some(0.8125),
        live_accuracy: Some(0.75),
    };
    // No evaluation yet: no accuracy samples for this one.
    let mnist = LearnSnapshot {
        shadow_accuracy: None,
        live_accuracy: None,
        ..higgs
    };
    let text = Exposition::render(|out| {
        bcpnn_learn::write_metrics(out, &[("higgs", higgs), ("mnist", mnist)])
    });
    assert_pinned("two learners", &text, 0x0634_6ab1, 2741);

    // Margin 0 under both thresholds: all 5 rows escalate and abstain.
    let cascade = CascadeModel::new("pinned", even_tier(), even_tier(), 0.5)
        .unwrap()
        .with_abstain_below(0.25);
    cascade.predict_proba(&Matrix::zeros(5, 1)).unwrap();
    let text = Exposition::render(bcpnn_serve::cascade::write_metrics);
    assert_pinned("one cascade", &text, 0x4e69_2a74, 580);
    drop(cascade);

    // Two idle backend nodes behind a router. The merge decides the order
    // of the lines (one group per family), the nodes decide the lines, so
    // the sorted lines are what is pinned.
    let node = || {
        let registry = Arc::new(ModelRegistry::new());
        let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(2)));
        BackendNode::start(server, BackendConfig::default()).unwrap()
    };
    let nodes = [node(), node()];
    let router = ClusterRouter::start(ClusterConfig {
        backends: nodes.iter().map(BackendNode::local_addr).collect(),
        health_interval: Duration::from_secs(3600),
        ..ClusterConfig::default()
    });
    let text = Exposition::render(|out| router.write_metrics(out));
    validate_prometheus(&text).unwrap_or_else(|e| panic!("merged scrape: {e}\n{text}"));
    let sorted = sorted_lines(&text);
    assert_eq!(
        (crc32(sorted.as_bytes()), sorted.len()),
        (0x916e_7e9a, 25892),
        "merged two-node scrape moved:\n{text}"
    );
}

#[test]
fn names_with_quotes_backslashes_and_newlines_are_escaped_once() {
    let _serial = serial();
    let name = "we\"ird\\na\nme";
    let escaped = r#"we\"ird\\na\nme"#;

    let state_dir = std::env::temp_dir().join(format!("bcpnn-exposition-{}", std::process::id()));
    let (base, _) = tiny_pipeline(95, BackendKind::Naive);
    let learner = OnlineLearner::start(
        Arc::new(ModelRegistry::new()),
        name,
        &base,
        LearnerConfig {
            state_dir: state_dir.clone(),
            backend: BackendKind::Naive,
            ..LearnerConfig::default()
        },
    )
    .unwrap();
    let text = Exposition::render(|out| {
        bcpnn_learn::write_metrics(out, &[(learner.model(), learner.metrics())]);
    });
    validate_prometheus(&text).unwrap_or_else(|e| panic!("learner: {e}\n{text}"));
    let sample = format!("bcpnn_learn_rows_total{{model=\"{escaped}\"}} 0\n");
    assert_eq!(text.matches(&sample).count(), 1, "{text}");
    drop(learner);
    let _ = std::fs::remove_dir_all(&state_dir);

    let cascade = CascadeModel::new(name, even_tier(), even_tier(), 0.5).unwrap();
    cascade.predict_proba(&Matrix::zeros(2, 1)).unwrap();
    let text = Exposition::render(bcpnn_serve::cascade::write_metrics);
    validate_prometheus(&text).unwrap_or_else(|e| panic!("cascade: {e}\n{text}"));
    let sample = format!("bcpnn_cascade_escalations_total{{model=\"{escaped}\"}} 2\n");
    assert_eq!(text.matches(&sample).count(), 1, "{text}");
}
