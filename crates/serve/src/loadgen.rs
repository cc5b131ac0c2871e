//! Synthetic-Higgs load generator: drives any [`ServeTarget`] from
//! concurrent client threads, verifying responses as they arrive.
//!
//! Used by the `bcpnn-serve` demo binary, the serving benchmark, and the
//! hot-swap integration test to put realistic concurrent load on the
//! micro-batcher. The request payloads come from [`request_stream`], a
//! deterministic flat-matrix stream of synthetic Higgs events:
//!
//! ```
//! use bcpnn_serve::loadgen::request_stream;
//!
//! let stream = request_stream(16, 7);
//! assert_eq!((stream.len(), stream.width()), (16, 28));
//! // Deterministic: the same seed always produces the same stream.
//! assert_eq!(stream.row(3), request_stream(16, 7).row(3));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_tensor::Matrix;

use crate::block::RowBlock;
use crate::error::ServeResult;
use crate::metrics::MetricsSnapshot;
use crate::registry::ModelRegistry;
use crate::server::{BlockHandle, InferenceServer, PredictionHandle, SubmitOptions};
use crate::shard::ShardedServer;

/// A submission sink over the serving stack: the single-pool
/// [`InferenceServer`] or the [`ShardedServer`], behind one object-safe
/// surface.
///
/// This is what generalizes "something that serves models": the load
/// generator drives one to produce traffic, and the HTTP gateway
/// (`bcpnn-gateway`) exposes one on the wire — both without caring how
/// many collector/worker pools sit behind it. A `ServeTarget` can accept
/// option-carrying submissions, report its shared [`ModelRegistry`] (for
/// listings and hot-swap), and export its metrics.
pub trait ServeTarget: Send + Sync {
    /// Enqueue a block of raw feature rows with explicit
    /// priority/deadline/abstention options: one hand-off and one reply
    /// for the whole block, answered by one model version.
    fn submit_block(
        &self,
        model: &str,
        rows: RowBlock,
        options: SubmitOptions,
    ) -> ServeResult<BlockHandle>;

    /// Enqueue one raw feature vector — a one-row
    /// [`ServeTarget::submit_block`]; returns a handle to wait on.
    fn submit_with_options(
        &self,
        model: &str,
        features: Vec<f32>,
        options: SubmitOptions,
    ) -> ServeResult<PredictionHandle> {
        let row = RowBlock {
            n_cols: features.len() as u32,
            data: features,
        };
        Ok(self.submit_block(model, row, options)?.into())
    }

    /// The registry this target resolves models from. Publishing to it
    /// hot-swaps what subsequent batches use.
    fn registry(&self) -> &Arc<ModelRegistry>;

    /// Point-in-time metrics (aggregated across shards where relevant).
    fn metrics(&self) -> MetricsSnapshot;

    /// Prometheus text exposition of the target's metrics (per-shard and
    /// aggregate samples for a sharded target).
    fn to_prometheus(&self) -> String;

    /// Blocking single-request round trip with default options.
    fn predict(&self, model: &str, features: Vec<f32>) -> ServeResult<Vec<f32>> {
        self.submit_with_options(model, features, SubmitOptions::default())?
            .wait()
    }

    /// Class count of the named model, for response validation.
    fn n_classes_of(&self, model: &str) -> Option<usize> {
        self.registry()
            .lookup(model)
            .map(|m| m.predictor().n_classes())
    }
}

impl ServeTarget for InferenceServer {
    fn submit_block(
        &self,
        model: &str,
        rows: RowBlock,
        options: SubmitOptions,
    ) -> ServeResult<BlockHandle> {
        InferenceServer::submit_block(self, model, rows, options)
    }

    fn registry(&self) -> &Arc<ModelRegistry> {
        InferenceServer::registry(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        InferenceServer::metrics(self)
    }

    fn to_prometheus(&self) -> String {
        InferenceServer::to_prometheus(self)
    }
}

impl ServeTarget for ShardedServer {
    fn submit_block(
        &self,
        model: &str,
        rows: RowBlock,
        options: SubmitOptions,
    ) -> ServeResult<BlockHandle> {
        ShardedServer::submit_block(self, model, rows, options)
    }

    fn registry(&self) -> &Arc<ModelRegistry> {
        ShardedServer::registry(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        ShardedServer::metrics(self)
    }

    fn to_prometheus(&self) -> String {
        ShardedServer::to_prometheus(self)
    }
}

/// Load-generation knobs.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Registry name of the model to hit.
    pub model: String,
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Requests each client sends.
    pub requests_per_client: usize,
    /// Seed of the synthetic-Higgs request stream.
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            model: "higgs".to_string(),
            clients: 4,
            requests_per_client: 250,
            seed: 7,
        }
    }
}

/// Outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Successful responses received across all clients.
    pub responses: u64,
    /// Error responses received across all clients.
    pub errors: u64,
    /// Responses whose probabilities failed validation (wrong length or not
    /// summing to one) — always zero for a healthy server.
    pub invalid: u64,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

impl LoadReport {
    /// Successful responses per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.responses as f64 / self.wall.as_secs_f64()
        }
    }
}

/// A deterministic stream of raw feature vectors, stored as one flat
/// row-major buffer.
///
/// The previous spelling (`Vec<Vec<f32>>`) cost one heap allocation per
/// synthetic request before a single request had even been sent. The
/// stream now keeps the generator's feature matrix as-is — one allocation
/// for the whole stream — and hands out borrowed row views; callers that
/// need an owned payload (the submit API takes `Vec<f32>`) copy exactly
/// the rows they send.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestStream {
    features: Matrix<f32>,
}

impl RequestStream {
    /// Number of request vectors in the stream.
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.features.rows() == 0
    }

    /// Width of every request vector.
    pub fn width(&self) -> usize {
        self.features.cols()
    }

    /// Borrowed view of request `i` (no allocation).
    ///
    /// # Panics
    /// Panics if `i >= len()` (debug assertion, like [`Matrix::row`]).
    pub fn row(&self, i: usize) -> &[f32] {
        self.features.row(i)
    }

    /// Iterate over the request vectors as borrowed row views.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.features.iter_rows()
    }

    /// The whole stream as its backing feature matrix.
    pub fn features(&self) -> &Matrix<f32> {
        &self.features
    }
}

/// A deterministic stream of raw Higgs feature vectors for requests.
pub fn request_stream(n: usize, seed: u64) -> RequestStream {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: n.max(1),
        seed,
        ..Default::default()
    });
    RequestStream {
        features: data.features,
    }
}

/// Drive a server (single-pool or sharded) from `config.clients` concurrent
/// threads, each sending its slice of a shared synthetic request stream and
/// validating every response. Blocks until all clients finish.
pub fn run<T: ServeTarget>(server: &T, config: &LoadGenConfig) -> LoadReport {
    let total = config.clients * config.requests_per_client;
    let stream = request_stream(total, config.seed);
    let n_classes = server.n_classes_of(&config.model).unwrap_or(2);
    let responses = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let invalid = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..config.clients {
            let stream = &stream;
            let responses = &responses;
            let errors = &errors;
            let invalid = &invalid;
            let model = &config.model;
            let per_client = config.requests_per_client;
            scope.spawn(move || {
                for i in 0..per_client {
                    // The only per-request allocation left: the owned
                    // payload the submit API hands to the batcher.
                    let features = stream.row(client * per_client + i).to_vec();
                    match server.predict(model, features) {
                        Ok(proba) => {
                            responses.fetch_add(1, Ordering::Relaxed);
                            let sum: f32 = proba.iter().sum();
                            if proba.len() != n_classes || (sum - 1.0).abs() > 1e-3 {
                                invalid.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    LoadReport {
        responses: responses.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        invalid: invalid.load(Ordering::Relaxed),
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, ServedModel};
    use crate::server::BatchConfig;
    use crate::testutil::tiny_pipeline;
    use std::sync::Arc;

    #[test]
    fn stream_is_deterministic_and_wide_enough() {
        let a = request_stream(50, 3);
        let b = request_stream(50, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(!a.is_empty());
        assert_eq!(a.width(), 28);
        assert!(a.iter().all(|row| row.len() == 28));
        assert_ne!(a, request_stream(50, 4));
        // Row views are windows into one flat buffer, not copies.
        assert_eq!(a.row(7), a.features().row(7));
        assert_eq!(a.features().shape(), (50, 28));
    }

    #[test]
    fn throughput_is_zero_for_empty_or_instant_runs() {
        // A run that finished in zero wall-clock time (or never ran) must
        // report 0 req/s, not inf or NaN.
        let instant = LoadReport {
            responses: 100,
            errors: 0,
            invalid: 0,
            wall: Duration::ZERO,
        };
        assert_eq!(instant.throughput_rps(), 0.0);
        let empty = LoadReport {
            responses: 0,
            errors: 0,
            invalid: 0,
            wall: Duration::ZERO,
        };
        assert_eq!(empty.throughput_rps(), 0.0);
        assert!(empty.throughput_rps().is_finite());
        // A normal run still divides.
        let normal = LoadReport {
            responses: 100,
            errors: 0,
            invalid: 0,
            wall: Duration::from_secs(2),
        };
        assert_eq!(normal.throughput_rps(), 50.0);
    }

    #[test]
    fn loadgen_drives_a_sharded_server() {
        use crate::shard::{ShardConfig, ShardedServer};
        let (pipeline, _) = tiny_pipeline(41);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("higgs", 1, pipeline));
        let server = ShardedServer::start(registry, ShardConfig::new(2));
        let report = run(
            &server,
            &LoadGenConfig {
                clients: 2,
                requests_per_client: 20,
                ..Default::default()
            },
        );
        assert_eq!(report.responses, 40);
        assert_eq!(report.errors, 0);
        assert_eq!(report.invalid, 0);
        assert_eq!(server.metrics().responses, 40);
    }

    #[test]
    fn concurrent_load_completes_without_invalid_responses() {
        let (pipeline, _) = tiny_pipeline(40);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("higgs", 1, pipeline));
        let server = InferenceServer::start(registry, BatchConfig::default());
        let report = run(
            &server,
            &LoadGenConfig {
                clients: 4,
                requests_per_client: 25,
                ..Default::default()
            },
        );
        assert_eq!(report.responses, 100);
        assert_eq!(report.errors, 0);
        assert_eq!(report.invalid, 0);
        assert!(report.throughput_rps() > 0.0);
        // How the 100 rows were batched depends on the load; the policy is
        // pinned down in `server::tests` with a gated predictor.
        let m = server.metrics();
        assert_eq!(m.responses, 100);
        assert_eq!(m.batch_size_hist.iter().sum::<u64>(), m.batches);
    }
}
