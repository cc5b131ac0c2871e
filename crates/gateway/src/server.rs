//! The gateway: the HTTP front ([`crate::front`]) over the in-process
//! serving stack ([`crate::LocalNode`]).
//!
//! The predict path preserves the serving stack's micro-batching: the
//! rows of every in-flight HTTP request are submitted as one block to the
//! shared [`ServeTarget`], so its workers batch blocks *across
//! connections* into vectorized passes exactly as for in-process callers.

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
    fn list_models_is_empty_json_on_an_empty_registry() {
        let (gateway, _server) = empty_gateway();
        let r = client::request(gateway.local_addr(), "GET", "/v1/models", &[], b"").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body_str(), "{\"models\":[]}");
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
