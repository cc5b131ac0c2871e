//! The gateway: the HTTP front ([`crate::front`]) over the in-process
//! serving stack ([`crate::LocalNode`]).
//!
//! The predict path preserves the serving stack's micro-batching: the
//! rows of every in-flight HTTP request are submitted as one block to the
//! shared [`ServeTarget`], so the collector coalesces blocks *across
//! connections* into vectorized batches exactly as in-process callers do.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use bcpnn_learn::OnlineLearner;
use bcpnn_serve::ServeTarget;

use crate::front::{FrontConfig, HttpFront};
use crate::local::LocalNode;
use crate::metrics::GatewaySnapshot;

/// Gateway configuration.
#[derive(Debug, Clone, Default)]
pub struct GatewayConfig {
    /// Listener, worker pool, byte ceilings and timeouts.
    pub front: FrontConfig,
    /// Allowlisted root for `PUT /v1/models/{name}` artifact paths: when
    /// set, publish requests naming a path that resolves outside this
    /// directory are answered `403` without touching the filesystem
    /// entry. `None` (the default) allows any path, for trusted
    /// single-host deployments.
    pub artifact_root: Option<PathBuf>,
}

/// The running HTTP gateway. Dropping it shuts the listener down
/// gracefully: queued connections are served, then the threads join.
#[derive(Debug)]
pub struct Gateway {
    front: HttpFront,
}

impl Gateway {
    /// Bind `config.front.addr` and start the accept + worker threads
    /// over `target` (an [`bcpnn_serve::InferenceServer`] or
    /// [`bcpnn_serve::ShardedServer`], shared as a trait object).
    pub fn start(target: Arc<dyn ServeTarget>, config: GatewayConfig) -> std::io::Result<Gateway> {
        Self::start_with_learners(target, config, Vec::new())
    }

    /// [`Gateway::start`], plus online learners: each learner serves
    /// `POST /v1/models/{name}/learn` for its model, and its
    /// `bcpnn_learn_*` metrics join the `/metrics` scrape. Models without
    /// a learner answer 404 on the learn endpoint.
    pub fn start_with_learners(
        target: Arc<dyn ServeTarget>,
        config: GatewayConfig,
        learners: Vec<Arc<OnlineLearner>>,
    ) -> std::io::Result<Gateway> {
        let node = LocalNode {
            target,
            learners,
            artifact_root: config.artifact_root,
        };
        let front = HttpFront::start(Arc::new(node), config.front)?;
        Ok(Gateway { front })
    }

    /// The address the gateway actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Point-in-time copy of the gateway-level counters (the serving
    /// stack's own metrics live on the target).
    #[must_use]
    pub fn metrics(&self) -> GatewaySnapshot {
        self.front.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use bcpnn_serve::{ModelRegistry, ShardConfig, ShardedServer};

    /// A gateway over an empty registry: everything but training.
    fn empty_gateway() -> (Gateway, Arc<ShardedServer>) {
        let registry = Arc::new(ModelRegistry::new());
        let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(2)));
        let gateway = Gateway::start(
            Arc::clone(&server) as Arc<dyn ServeTarget>,
            GatewayConfig {
                front: FrontConfig {
                    workers: 2,
                    ..FrontConfig::default()
                },
                artifact_root: None,
            },
        )
        .expect("gateway binds an ephemeral port");
        (gateway, server)
    }

    #[test]
    fn healthz_answers_ok() {
        let (gateway, _server) = empty_gateway();
        let response = client::request(gateway.local_addr(), "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body_str(), "{\"status\":\"ok\"}");
        assert_eq!(response.header("content-type"), Some("application/json"));
    }

    #[test]
    fn unknown_route_is_404_and_wrong_method_is_405() {
        let (gateway, _server) = empty_gateway();
        let addr = gateway.local_addr();
        assert_eq!(
            client::request(addr, "GET", "/nope", &[], b"")
                .unwrap()
                .status,
            404
        );
        let r = client::request(addr, "POST", "/healthz", &[], b"").unwrap();
        assert_eq!(r.status, 405);
        assert_eq!(r.header("allow"), Some("GET"));
    }

    #[test]
    fn predict_on_unknown_model_is_404_and_never_reaches_a_worker() {
        let (gateway, server) = empty_gateway();
        let r = client::request(
            gateway.local_addr(),
            "POST",
            "/v1/models/ghost/predict",
            &[],
            b"[[1,2,3]]",
        )
        .unwrap();
        assert_eq!(r.status, 404);
        assert_eq!(
            server.metrics().requests,
            0,
            "no submission must reach the stack"
        );
        assert_eq!(gateway.metrics().status_4xx, 1);
    }

    #[test]
    fn malformed_abstain_header_is_400_without_a_forward_pass() {
        let (gateway, server) = empty_gateway();
        let addr = gateway.local_addr();
        // The rejection table: junk, non-finite, and out-of-range values
        // must all be refused before any submission reaches the stack.
        for bad in ["abc", "NaN", "inf", "-inf", "1.5", "-0.1", "", "0.2.3"] {
            let r = client::request(
                addr,
                "POST",
                "/v1/models/ghost/predict",
                &[("X-Abstain-Below", bad)],
                b"[[1]]",
            )
            .unwrap();
            assert_eq!(r.status, 400, "X-Abstain-Below {bad:?} must be rejected");
            assert!(
                r.body_str().contains("X-Abstain-Below"),
                "error names the header for {bad:?}"
            );
        }
        assert_eq!(
            server.metrics().requests,
            0,
            "rejected headers never cost a forward pass"
        );
    }

    #[test]
    fn list_models_is_empty_json_on_an_empty_registry() {
        let (gateway, _server) = empty_gateway();
        let r = client::request(gateway.local_addr(), "GET", "/v1/models", &[], b"").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body_str(), "{\"models\":[]}");
    }

    #[test]
    fn metrics_scrape_is_a_valid_combined_exposition() {
        let (gateway, _server) = empty_gateway();
        let addr = gateway.local_addr();
        // A request beforehand so gateway counters are non-zero.
        let _ = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
        let r = client::request(addr, "GET", "/metrics", &[], b"").unwrap();
        assert_eq!(r.status, 200);
        let text = r.body_str();
        bcpnn_serve::validate_prometheus(&text).expect("combined exposition parses");
        assert!(text.contains("bcpnn_serve_queue_depth"));
        assert!(text.contains("bcpnn_gateway_requests_total"));
    }

    #[test]
    fn learn_without_a_learner_is_404() {
        let (gateway, _server) = empty_gateway();
        let r = client::request(
            gateway.local_addr(),
            "POST",
            "/v1/models/higgs/learn",
            &[],
            b"{\"rows\":[[1,2]],\"labels\":[0]}",
        )
        .unwrap();
        assert_eq!(r.status, 404);
        assert!(r.body_str().contains("no online learner"));
    }

    #[test]
    fn publish_with_a_bad_path_is_422() {
        let (gateway, _server) = empty_gateway();
        let r = client::request(
            gateway.local_addr(),
            "PUT",
            "/v1/models/higgs",
            &[],
            b"{\"path\":\"/definitely/not/a/model\",\"version\":1}",
        )
        .unwrap();
        assert_eq!(r.status, 422);
        assert!(r.body_str().contains("cannot load artifact"));
    }

    #[test]
    fn publish_outside_the_artifact_root_is_403() {
        let root = std::env::temp_dir().join(format!("bcpnn-gw-allowlist-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let registry = Arc::new(ModelRegistry::new());
        let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(1)));
        let gateway = Gateway::start(
            Arc::clone(&server) as Arc<dyn ServeTarget>,
            GatewayConfig {
                artifact_root: Some(root.clone()),
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let addr = gateway.local_addr();
        // Outside the root: forbidden, with the path named.
        let r = client::request(
            addr,
            "PUT",
            "/v1/models/higgs",
            &[],
            b"{\"path\":\"/definitely/not/a/model\",\"version\":1}",
        )
        .unwrap();
        assert_eq!(r.status, 403);
        assert!(r.body_str().contains("outside the allowed root"));
        // Inside the root but not a loadable artifact: past the
        // allowlist, into the loader's 422.
        let inside = root.join("empty");
        std::fs::create_dir_all(&inside).unwrap();
        let body = format!("{{\"path\":{:?},\"version\":1}}", inside.to_str().unwrap());
        let r = client::request(addr, "PUT", "/v1/models/higgs", &[], body.as_bytes()).unwrap();
        assert_eq!(r.status, 422);
    }

    #[test]
    fn publish_with_missing_fields_is_400() {
        let (gateway, _server) = empty_gateway();
        let addr = gateway.local_addr();
        for body in [
            &b"{}"[..],
            b"{\"path\":\"x\"}",
            b"{\"path\":\"x\",\"version\":\"v2\"}",
        ] {
            let r = client::request(addr, "PUT", "/v1/models/higgs", &[], body).unwrap();
            assert_eq!(r.status, 400, "body {body:?}");
        }
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let (gateway, _server) = empty_gateway();
        let addr = gateway.local_addr();
        let _ = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
        drop(gateway);
        // The port is released: a fresh connection is refused or reset.
        assert!(client::request(addr, "GET", "/healthz", &[], b"").is_err());
    }

    #[test]
    fn gateway_metrics_count_requests_and_bytes() {
        let (gateway, _server) = empty_gateway();
        let addr = gateway.local_addr();
        let _ = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
        let _ = client::request(addr, "GET", "/nope", &[], b"").unwrap();
        let m = gateway.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(m.status_2xx, 1);
        assert_eq!(m.status_4xx, 1);
        assert!(m.bytes_out > 0);
    }
}
