//! The one interface between the HTTP front ([`crate::front`]) and
//! whatever answers its requests: whole requests in, typed replies or an
//! [`ApiError`] out. Implemented by [`crate::LocalNode`] (the in-process
//! serving stack, what [`crate::Gateway`] fronts) and by the cluster
//! router in `bcpnn-cluster`.

use std::net::SocketAddr;

use bcpnn_backend::BackendKind;
use bcpnn_serve::{Exposition, RowBlock, SubmitOptions};

use crate::error::ApiError;

/// One model in the `GET /v1/models` listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelEntry {
    /// Registry name.
    pub name: String,
    /// Current version.
    pub version: u64,
    /// Feature width the model expects.
    pub n_inputs: u64,
    /// Number of output classes.
    pub n_classes: u64,
    /// Backend indices holding the model, primary first (cluster only).
    pub replicas: Option<Vec<usize>>,
}

/// A predict reply — the interior protocol's `PredictOk`, field for field.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Version of the model that answered every row of the request
    /// (`None` only from a backend node that could not name it).
    pub version: Option<u64>,
    /// One row of class probabilities per request row, in order;
    /// abstained rows are zero-filled.
    pub proba: RowBlock,
    /// Indices of the abstained rows.
    pub abstained: Vec<u32>,
}

/// A failed predict, with how far it got.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictFailure {
    /// Rows that reached the serving stack before the failure: all of the
    /// request's or none.
    pub submitted: usize,
    /// What failed, as the client reads it.
    pub error: ApiError,
}

/// A parsed `PUT /v1/models/{name}` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishRequest {
    /// Artifact directory on the serving host.
    pub path: String,
    /// Version to publish the artifact as.
    pub version: u64,
    /// Compute backend to load it on.
    pub backend: BackendKind,
}

/// One registry hot-swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Published {
    /// The version now served.
    pub version: u64,
    /// The version it displaced, if the name was already served.
    pub displaced: Option<u64>,
}

/// One accepted learn submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Learned {
    /// Rows now in the learner's queue.
    pub accepted: u64,
    /// Queue depth after the submission.
    pub queue_depth: u64,
    /// Generations the learner has published so far, where known (the
    /// interior protocol does not carry it).
    pub publishes: Option<u64>,
}

/// A publish or learn reply: one result from a single-node stack, or one
/// per replica from a cluster (rendered as a `results` array whose first
/// failure sets the response status).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<T> {
    /// The in-process stack's single result.
    Local(T),
    /// Every replica's result, in ring order.
    PerNode(Vec<NodeResult<T>>),
}

/// One replica's share of an [`Outcome::PerNode`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResult<T> {
    /// Backend index.
    pub backend: usize,
    /// That backend's address.
    pub addr: SocketAddr,
    /// The node's result, or its refusal as the node sent it.
    pub result: Result<T, ApiError>,
}

/// What the HTTP front serves. Object-safe; shared by every connection
/// worker.
pub trait ApiBackend: Send + Sync {
    /// `GET /healthz`: `(up, configured)` backend nodes for a cluster —
    /// `503` "degraded" once none is up. A single-node stack that answers
    /// at all is up, and reports nothing more.
    fn health(&self) -> Option<(usize, usize)> {
        None
    }

    /// `GET /v1/models`, sorted by name.
    fn models(&self) -> Vec<ModelEntry>;

    /// `POST /v1/models/{name}/predict`: `rows` is non-empty.
    fn predict(
        &self,
        model: &str,
        rows: RowBlock,
        options: SubmitOptions,
    ) -> Result<Prediction, PredictFailure>;

    /// `PUT /v1/models/{name}`.
    fn publish(
        &self,
        model: &str,
        request: &PublishRequest,
    ) -> Result<Outcome<Published>, ApiError>;

    /// `POST /v1/models/{name}/learn`: `rows` is non-empty and
    /// rectangular, with one label per row.
    fn learn(
        &self,
        model: &str,
        rows: RowBlock,
        labels: Vec<u32>,
    ) -> Result<Outcome<Learned>, ApiError>;

    /// `GET /metrics`: write the backend's metric families into `out`.
    /// The front then writes its own `bcpnn_gateway_*` counters into the
    /// same exposition.
    fn scrape(&self, out: &mut Exposition);
}
