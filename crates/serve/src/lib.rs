//! # bcpnn-serve
//!
//! Micro-batched inference serving for StreamBrain-rs: the subsystem that
//! turns trained BCPNN models into a concurrent, hot-swappable prediction
//! service.
//!
//! The paper's throughput story is batch-parallel HCU updates — amortize
//! per-item overhead by processing vectorized batches. This crate applies
//! the same insight to the serving workload:
//!
//! * Models are served through the core
//!   [`Predictor`](bcpnn_core::model::Predictor) trait: any fitted
//!   artifact publishes. The common case is [`Pipeline`] (re-exported from
//!   `bcpnn_core::model`) — a chain of fitted transformer stages bundled
//!   with a trained [`bcpnn_core::Network`], so requests carry *raw*
//!   feature vectors.
//! * [`ModelRegistry`] — named, versioned models shared as
//!   `Arc<ServedModel>`, with atomic zero-downtime **hot-swap**: in-flight
//!   batches finish on the version they started with.
//! * [`RowBlock`] — the flat row-major block that carries a request's rows
//!   (and the answer's probabilities): one allocation, one message to the
//!   scheduler and one reply, whatever the row count.
//! * [`InferenceServer`] — the micro-batching scheduler: submitted blocks
//!   (a single vector is a one-row block) wait in one queue, a slot per
//!   model, and worker threads pull batches of at most
//!   [`BatchConfig::max_batch`] rows from it, each run as one vectorized
//!   encode → forward → readout pass. Worker-driven: an idle worker takes
//!   a slot at once when it holds `max_batch` rows, and otherwise once its
//!   oldest block has waited a fixed 100 µs coalescing window; past that
//!   no clock closes a batch — it grows while every worker is busy. A
//!   block is never split, so one model version answers all of it
//!   ([`BlockPrediction::version`]).
//! * [`ShardedServer`] — one model partitioned across `N` independent
//!   worker pools sharing a registry, routed by a stable hash of
//!   the (block's first) feature vector, round-robin, or live pending-queue depth
//!   ([`ShardRouting::LeastLoaded`]), with per-shard and aggregated
//!   metrics.
//! * [`BatchExecutor`] — each worker's persistent batch-assembly matrix +
//!   model [`Workspace`] + output buffer: the steady-state micro-batch
//!   compute loop performs zero heap allocations after warmup
//!   (`tests/alloc_regression.rs` enforces it with a counting allocator).
//! * [`SubmitOptions`] — per-request [`Priority`] (high-priority requests
//!   drain first), deadline (expired requests fail with
//!   [`ServeError::DeadlineExceeded`] instead of wasting a forward pass),
//!   and a confidence floor ([`SubmitOptions::abstain_below`]): rows
//!   whose prediction margin falls below it are reported abstained
//!   ([`BlockPrediction::abstained`]; [`ServeError::Abstained`] to a
//!   single-row caller) instead of answered with low confidence.
//! * [`CascadeModel`] — the quantized→f32 **cascade**: a cheap tier
//!   answers the confident rows and only low-margin rows escalate to the
//!   full-precision parent, bit-identically to running it alone
//!   (`bcpnn_cascade_*_total` counters ride along on the same scrape).
//! * [`ServingMetrics`] — request/batch counters, batch-size histogram, and
//!   p50/p99 latency estimates, exposed as a [`MetricsSnapshot`].
//! * [`Exposition`] — the one Prometheus text-exposition writer: every
//!   `/metrics` family in the workspace (serve, cascade, learn, gateway,
//!   cluster) is declared, labelled, escaped and grouped through it
//!   ([`MetricsSnapshot::write_metrics`] writes the serving families;
//!   structural validity, family grouping included, is checkable with
//!   [`validate_prometheus`]).
//! * [`ServeTarget`] — the object-safe submission surface both server
//!   shapes share (options-carrying `submit_block`, registry access,
//!   metrics export); benches and tests drive one and the `bcpnn-gateway`
//!   HTTP front-end exposes one on the wire.
//! * [`loadgen`] — that surface plus [`loadgen::request_stream`], the
//!   deterministic synthetic-Higgs request stream the serving benches and
//!   tests send through it.
//!
//! ```
//! use std::sync::Arc;
//! use bcpnn_backend::BackendKind;
//! use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
//! use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
//! use bcpnn_serve::{BatchConfig, InferenceServer, ModelRegistry, ServedModel};
//!
//! // Train a tiny model on synthetic Higgs collisions: the one-call
//! // fit → (encoder + network) pipeline from the core model API.
//! let data = generate(&SyntheticHiggsConfig { n_samples: 300, ..Default::default() });
//! let (pipeline, _report) = Pipeline::fit(
//!     &data,
//!     10,
//!     Network::builder()
//!         .hidden(2, 4, 0.3)
//!         .classes(2)
//!         .readout(ReadoutKind::Hybrid)
//!         .backend(BackendKind::Naive)
//!         .seed(1),
//!     TrainingParams {
//!         unsupervised_epochs: 1,
//!         supervised_epochs: 1,
//!         batch_size: 50,
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//!
//! // Publish it and serve raw feature vectors through the micro-batcher.
//! let registry = Arc::new(ModelRegistry::new());
//! registry.publish(ServedModel::new("higgs", 1, pipeline));
//! let server = InferenceServer::start(Arc::clone(&registry), BatchConfig::default());
//!
//! let proba = server.predict("higgs", data.features.row(0).to_vec()).unwrap();
//! assert_eq!(proba.len(), 2);
//! assert!((proba.iter().sum::<f32>() - 1.0).abs() < 1e-4);
//! assert_eq!(server.metrics().responses, 1);
//! ```

#![warn(missing_docs)]

mod block;
pub mod cascade;
mod error;
pub mod loadgen;
mod metrics;
mod registry;
mod server;
mod shard;
pub mod testutil;

/// The serving artifact: re-exported from `bcpnn_core::model`, where the
/// unified estimator/transformer API lives.
pub use bcpnn_core::model::Pipeline;
/// Per-worker scratch for the zero-allocation data plane: re-exported from
/// `bcpnn_core::workspace`.
pub use bcpnn_core::Workspace;
pub use block::RowBlock;
pub use cascade::{CascadeModel, CascadeStats};
pub use error::{ServeError, ServeResult};
pub use loadgen::ServeTarget;
pub use metrics::{
    validate_prometheus, Exposition, Family, MetricKind, MetricsSnapshot, ServingMetrics,
};
pub use registry::{ModelRegistry, ServedModel};
pub use server::{
    BatchConfig, BatchExecutor, BlockHandle, BlockPrediction, InferenceServer, PredictionHandle,
    Priority, SubmitOptions,
};
pub use shard::{RouteMode, ShardConfig, ShardRouting, ShardedServer};
