//! The router's exterior HTTP/1.1 surface: the gateway protocol, served
//! by the cluster.
//!
//! Clients keep speaking exactly what the single-node `bcpnn-gateway`
//! speaks, so pointing a load balancer at a router instead of a gateway
//! is a config change. That is structural: [`RouterHttp`] *is* the
//! gateway's [`HttpFront`] — worker pool, 503 shedding, parsing,
//! validation, rendering, `bcpnn_gateway_*` counters — started over
//! [`ClusterRouter`]'s [`ApiBackend`] implementation instead of the
//! in-process one. Only the backend calls differ: predict sends the
//! **whole row batch in one interior `Predict` frame** and fails over per
//! [`crate::router`]; publish and learn are broadcast to every replica
//! and report each node's outcome; the scrape is the merged cluster
//! exposition.

use std::net::SocketAddr;
use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_gateway::api::{
    ApiBackend, Learned, ModelEntry, Outcome, PredictFailure, Prediction, PublishRequest, Published,
};
use bcpnn_gateway::{ApiError, GatewaySnapshot, HttpFront};
use bcpnn_serve::{Exposition, SubmitOptions};

use crate::router::{no_backends, ClusterRouter};
use crate::wire::{Frame, RowBlock};

/// HTTP front configuration: the gateway's own front settings.
pub use bcpnn_gateway::FrontConfig as RouterHttpConfig;

/// The running HTTP front over a [`ClusterRouter`]. Dropping it shuts the
/// listener down gracefully: queued connections are served, then the
/// threads join.
#[derive(Debug)]
pub struct RouterHttp {
    front: HttpFront,
    router: Arc<ClusterRouter>,
}

impl RouterHttp {
    /// Bind `config.addr` and serve the cluster.
    pub fn start(
        router: Arc<ClusterRouter>,
        config: RouterHttpConfig,
    ) -> std::io::Result<RouterHttp> {
        let front = HttpFront::start(Arc::clone(&router) as Arc<dyn ApiBackend>, config)?;
        Ok(RouterHttp { front, router })
    }

    /// The address the front actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The cluster behind this front.
    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.router
    }

    /// Point-in-time copy of the front's `bcpnn_gateway_*` counters.
    #[must_use]
    pub fn metrics(&self) -> GatewaySnapshot {
        self.front.metrics()
    }
}

impl ApiBackend for ClusterRouter {
    fn health(&self) -> Option<(usize, usize)> {
        Some((self.cluster_metrics().backends_up(), self.backends().len()))
    }

    /// The merged cluster listing, each model annotated with its replica
    /// group.
    fn models(&self) -> Vec<ModelEntry> {
        ClusterRouter::models(self)
            .into_iter()
            .map(|m| ModelEntry {
                replicas: Some(self.replicas_for(&m.name)),
                name: m.name,
                version: m.version,
                n_inputs: u64::from(m.n_inputs),
                n_classes: u64::from(m.n_classes),
            })
            .collect()
    }

    /// One interior frame per request, failover per the router's rules;
    /// the backend's `PredictOk` is the reply as is. Rows count as
    /// submitted once a backend has answered for them.
    fn predict(
        &self,
        model: &str,
        rows: RowBlock,
        options: SubmitOptions,
    ) -> Result<Prediction, PredictFailure> {
        let (version, proba, abstained) =
            self.predict_rows(model, rows, &options)
                .map_err(|error| PredictFailure {
                    submitted: 0,
                    error,
                })?;
        Ok(Prediction {
            version,
            proba,
            abstained,
        })
    }

    fn publish(
        &self,
        model: &str,
        request: &PublishRequest,
    ) -> Result<Outcome<Published>, ApiError> {
        let backend = match request.backend {
            BackendKind::Naive => 0,
            BackendKind::Parallel => 1,
        };
        self.cluster_metrics().record_publish();
        let frame = Frame::Publish {
            model: model.to_string(),
            path: request.path.clone(),
            version: request.version,
            backend,
        };
        let decode = |reply| match reply {
            Frame::PublishOk { version, displaced } => Ok(Published { version, displaced }),
            other => Err(other),
        };
        let results = self.broadcast(model, &frame, decode);
        if results.is_empty() {
            return Err(no_backends());
        }
        Ok(Outcome::PerNode(results))
    }

    fn learn(
        &self,
        model: &str,
        rows: RowBlock,
        labels: Vec<u32>,
    ) -> Result<Outcome<Learned>, ApiError> {
        let frame = Frame::Learn {
            model: model.to_string(),
            rows,
            labels,
        };
        let decode = |reply| match reply {
            Frame::LearnOk {
                accepted,
                queue_depth,
            } => Ok(Learned {
                accepted,
                queue_depth,
                publishes: None,
            }),
            other => Err(other),
        };
        let results = self.broadcast(model, &frame, decode);
        if results.is_empty() {
            return Err(no_backends());
        }
        Ok(Outcome::PerNode(results))
    }

    fn scrape(&self, out: &mut Exposition) {
        self.write_metrics(out);
    }
}
