//! # bcpnn-gateway
//!
//! A dependency-free HTTP/1.1 front-end for the `bcpnn-serve` stack: the
//! network boundary that turns the in-process sharded, zero-allocation
//! serving data plane into a service a load balancer can point at.
//!
//! Everything is `std`: `std::net::TcpListener`, a hand-rolled HTTP
//! parser ([`http`]), a hand-rolled JSON module ([`json`]) with bit-exact
//! `f32` round trips, and a bounded accept/worker thread pool. The build
//! is offline — no hyper, no serde — and the wire surface is small enough
//! that owning it outright is cheaper than shimming a framework.
//!
//! One front, swappable backends: [`HttpFront`] ([`front`]) serves the
//! endpoints below over any [`ApiBackend`] ([`api`]). [`Gateway`] is that
//! front over [`LocalNode`] ([`local`]), the operations of one in-process
//! serving stack; `bcpnn-cluster` starts the same front over its router
//! and runs the same `LocalNode` operations on every backend node.
//!
//! ## Endpoints
//!
//! | Method & path | Purpose |
//! |---|---|
//! | `POST /v1/models/{name}/predict` | Rows in (JSON array of arrays), probabilities, uncertainty and abstention out |
//! | `POST /v1/models/{name}/learn` | Labeled rows into the model's online learner |
//! | `PUT /v1/models/{name}` | Hot-swap a persisted `v4` (or older) artifact from a path |
//! | `GET /v1/models` | Registry listing with versions and shapes |
//! | `GET /metrics` | Prometheus scrape: the backend's exposition **and** the front's counters |
//! | `GET /healthz` | Liveness probe |
//!
//! Scheduling options thread through headers — `X-Priority:
//! high|normal|low`, `X-Deadline-Ms: <millis>`, `X-Abstain-Below:
//! <margin in [0,1]>` — and every failure answers with the status of its
//! [`ErrorCode`] ([`ErrorCode::status`]).
//!
//! ## Micro-batching still amortizes
//!
//! The gateway does not run models. The rows of a request are parsed in
//! one pass into one flat [`RowBlock`](bcpnn_serve::RowBlock) and submitted
//! as that block to the shared [`ServeTarget`](bcpnn_serve::ServeTarget),
//! so the serving stack's workers batch blocks *across HTTP
//! connections* into vectorized passes, one slow-to-send client never
//! blocks another's batch, and — a block is never split — one model
//! version answers every row of a reply.
//!
//! ```no_run
//! use std::sync::Arc;
//! use bcpnn_serve::{ModelRegistry, ServeTarget, ShardConfig, ShardedServer};
//! use bcpnn_gateway::{Gateway, GatewayConfig};
//!
//! let registry = Arc::new(ModelRegistry::new());
//! // ... publish fitted models into the registry ...
//! let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(4)));
//! let gateway = Gateway::start(server as Arc<dyn ServeTarget>, GatewayConfig::default())?;
//! println!("serving on http://{}", gateway.local_addr());
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod artifact;
pub mod client;
pub mod error;
pub mod front;
pub mod http;
pub mod json;
pub mod local;
pub mod metrics;
pub mod router;
mod server;

pub use api::ApiBackend;
pub use error::{ApiError, ErrorCode};
pub use front::{FrontConfig, HttpFront};
pub use local::LocalNode;
pub use metrics::{GatewayMetrics, GatewaySnapshot};
pub use server::{Gateway, GatewayConfig};
