//! Sharded serving: one model partitioned across several independent
//! worker pools.
//!
//! Once a single micro-batching pool saturates — one queue behind one
//! lock — the next scaling step is the one the message-passing
//! cluster literature takes for Swendsen-Wang: partition the work across
//! independent workers and keep the per-worker batch vectorization. A
//! [`ShardedServer`] owns `N` full [`InferenceServer`] pools over one
//! shared [`ModelRegistry`], so a hot-swap still flips every shard
//! atomically, and each shard batches, schedules, and measures
//! independently.
//!
//! Routing is deterministic by default: a stable FNV-1a hash of the raw
//! feature bytes picks the shard, so identical requests land on the same
//! pool (cache-friendly, reproducible). [`ShardRouting::RoundRobin`]
//! spreads strictly uniformly instead, for workloads with hot duplicate
//! vectors.
//!
//! Per-shard [`MetricsSnapshot`]s aggregate exactly (counters and
//! histograms add) into one server-wide view, and both levels are written
//! into one Prometheus exposition by the server's
//! [`ServeTarget::write_metrics`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::block::RowBlock;
use crate::error::ServeResult;
use crate::loadgen::ServeTarget;
use crate::metrics::MetricsSnapshot;
use crate::registry::ModelRegistry;
use crate::server::{BatchConfig, BlockHandle, InferenceServer, PredictionHandle, SubmitOptions};

/// How a [`ShardedServer`] assigns requests to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardRouting {
    /// Stable FNV-1a hash of the feature bytes of the request's first
    /// row: identical vectors always hit the same shard.
    #[default]
    FeatureHash,
    /// Strict rotation across shards: perfectly uniform load regardless of
    /// the feature distribution.
    RoundRobin,
    /// Load-aware: send each request to the shard with the smallest
    /// pending-queue depth (accepted requests without a terminal outcome;
    /// ties break toward the lowest shard id). Unlike the static policies
    /// above this adapts when one shard falls behind — a slow batch, a
    /// skewed hash, a noisy neighbour — at the cost of three atomic loads
    /// per shard on the submit path.
    LeastLoaded,
}

/// Alias for [`ShardRouting`]: the request-to-shard route mode.
pub type RouteMode = ShardRouting;

/// Configuration for a [`ShardedServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of independent worker pools.
    pub shards: usize,
    /// Batching defaults applied inside every shard (per-model policies
    /// published to the registry still override them).
    pub batch: BatchConfig,
    /// Request-to-shard assignment strategy.
    pub routing: ShardRouting,
}

impl ShardConfig {
    /// `shards` pools with default batching and hash routing.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            batch: BatchConfig::default(),
            routing: ShardRouting::default(),
        }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::new(4)
    }
}

/// `N` independent [`InferenceServer`] pools over one shared registry,
/// with deterministic request routing and aggregated metrics.
///
/// ```
/// use std::sync::Arc;
/// use bcpnn_backend::BackendKind;
/// use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
/// use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
/// use bcpnn_serve::{Exposition, ModelRegistry, ServeTarget, ServedModel, ShardConfig, ShardedServer};
///
/// let data = generate(&SyntheticHiggsConfig { n_samples: 300, ..Default::default() });
/// let (pipeline, _) = Pipeline::fit(
///     &data,
///     10,
///     Network::builder()
///         .hidden(2, 4, 0.3)
///         .classes(2)
///         .readout(ReadoutKind::Hybrid)
///         .backend(BackendKind::Naive)
///         .seed(1),
///     TrainingParams {
///         unsupervised_epochs: 1,
///         supervised_epochs: 1,
///         batch_size: 50,
///         ..Default::default()
///     },
/// )
/// .unwrap();
///
/// let registry = Arc::new(ModelRegistry::new());
/// registry.publish(ServedModel::new("higgs", 1, pipeline));
/// let server = ShardedServer::start(Arc::clone(&registry), ShardConfig::new(2));
/// assert_eq!(server.n_shards(), 2);
///
/// // Requests route to a shard; a hot-swap through the shared registry
/// // flips every shard at once.
/// let proba = server.predict("higgs", data.features.row(0).to_vec()).unwrap();
/// assert_eq!(proba.len(), 2);
///
/// // Per-shard and aggregate samples are written into one scrape.
/// let text = Exposition::render(|out| server.write_metrics(out));
/// assert!(text.contains(r#"bcpnn_serve_requests_total{shard="all"} 1"#));
/// ```
pub struct ShardedServer {
    registry: Arc<ModelRegistry>,
    shards: Vec<InferenceServer>,
    routing: ShardRouting,
    next: AtomicUsize,
}

impl ShardedServer {
    /// Start `config.shards` full worker pools over `registry`.
    pub fn start(registry: Arc<ModelRegistry>, config: ShardConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        let shards = (0..config.shards)
            .map(|_| InferenceServer::start(Arc::clone(&registry), config.batch))
            .collect();
        Self {
            registry,
            shards,
            routing: config.routing,
            next: AtomicUsize::new(0),
        }
    }

    /// The shared registry. Publishing to it hot-swaps the model on every
    /// shard at once (each shard resolves the current version per batch).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a feature vector routes to under the configured policy.
    /// Round-robin routing advances the rotation, so consecutive calls
    /// return consecutive shards; least-loaded routing reads each shard's
    /// live queue depth.
    pub fn route(&self, features: &[f32]) -> usize {
        match self.routing {
            ShardRouting::FeatureHash => fnv1a_f32(features) as usize % self.shards.len(),
            ShardRouting::RoundRobin => {
                self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()
            }
            ShardRouting::LeastLoaded => {
                argmin(self.shards.iter().map(InferenceServer::queue_depth))
            }
        }
    }

    /// Live pending-queue depth of every shard, indexed by shard id (what
    /// [`ShardRouting::LeastLoaded`] balances on).
    #[must_use]
    pub fn queue_depths(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(InferenceServer::queue_depth)
            .collect()
    }

    /// Enqueue a block of feature rows, whole, on the shard its first row
    /// routes to: the block is one batch's worth of work for one pool, not
    /// a handful of rows for each.
    pub fn submit_block(
        &self,
        model: &str,
        rows: RowBlock,
        options: SubmitOptions,
    ) -> ServeResult<BlockHandle> {
        // A block with no rows has no first row; it routes as `&[]`.
        let first = rows.data.get(..rows.n_cols as usize).unwrap_or(&[]);
        self.shards[self.route(first)].submit_block(model, rows, options)
    }

    /// Enqueue one feature vector with default options on its shard.
    pub fn submit(&self, model: &str, features: Vec<f32>) -> ServeResult<PredictionHandle> {
        self.submit_with_options(model, features, SubmitOptions::default())
    }

    /// Enqueue one feature vector with explicit priority/deadline options
    /// on its shard — a one-row [`ShardedServer::submit_block`].
    pub fn submit_with_options(
        &self,
        model: &str,
        features: Vec<f32>,
        options: SubmitOptions,
    ) -> ServeResult<PredictionHandle> {
        ServeTarget::submit_with_options(self, model, features, options)
    }

    /// Submit and block until the class probabilities arrive.
    pub fn predict(&self, model: &str, features: Vec<f32>) -> ServeResult<Vec<f32>> {
        self.submit(model, features)?.wait()
    }

    /// Aggregated metrics across every shard (counters and histograms add
    /// exactly; means and percentiles are recomputed from the merged
    /// histograms).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::aggregate(&self.shard_metrics())
    }

    /// Point-in-time metrics of each shard, indexed by shard id.
    #[must_use]
    pub fn shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.shards.iter().map(|s| s.metrics()).collect()
    }
}

impl std::fmt::Debug for ShardedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServer")
            .field("shards", &self.shards.len())
            .field("routing", &self.routing)
            .field("models", &self.registry.model_names())
            .finish()
    }
}

/// Index of the smallest value, ties breaking toward the lowest index.
///
/// # Panics
/// Panics on an empty iterator (a sharded server always has ≥ 1 shard).
fn argmin<I: Iterator<Item = u64>>(values: I) -> usize {
    let mut best = None;
    for (i, v) in values.enumerate() {
        match best {
            Some((_, bv)) if v >= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.expect("argmin of no shards").0
}

/// FNV-1a over the IEEE-754 bit patterns of the features: stable across
/// runs and platforms, cheap enough to sit on the submit path.
fn fnv1a_f32(features: &[f32]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &f in features {
        for byte in f.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Exposition;
    use crate::registry::ServedModel;
    use crate::server::Priority;
    use crate::testutil::{tiny_pipeline, GatePredictor};
    use crate::ServeError;
    use std::time::Duration;

    fn sharded(seed: u64, routing: ShardRouting) -> (ShardedServer, bcpnn_data::Dataset) {
        let (pipeline, data) = tiny_pipeline(seed);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("higgs", 1, pipeline));
        let server = ShardedServer::start(
            registry,
            ShardConfig {
                shards: 4,
                batch: BatchConfig {
                    max_batch: 8,
                    workers: 1,
                },
                routing,
            },
        );
        (server, data)
    }

    #[test]
    fn hash_routing_is_stable_and_in_range() {
        let (server, data) = sharded(50, ShardRouting::FeatureHash);
        for r in 0..20 {
            let row = data.features.row(r);
            let shard = server.route(row);
            assert!(shard < 4);
            assert_eq!(shard, server.route(row), "same vector, same shard");
        }
        // 20 distinct vectors across 4 shards: the hash must actually
        // spread (a constant router would put all 20 on one shard).
        let distinct: std::collections::HashSet<usize> = (0..20)
            .map(|r| server.route(data.features.row(r)))
            .collect();
        assert!(distinct.len() > 1, "hash routing must spread load");
    }

    #[test]
    fn round_robin_routing_rotates_uniformly() {
        let (server, data) = sharded(51, ShardRouting::RoundRobin);
        let row = data.features.row(0);
        let shards: Vec<usize> = (0..8).map(|_| server.route(row)).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn argmin_picks_the_smallest_with_stable_ties() {
        assert_eq!(argmin([3u64, 1, 2].into_iter()), 1);
        assert_eq!(argmin([0u64, 0, 0].into_iter()), 0, "ties break low");
        assert_eq!(argmin([5u64, 2, 2, 7].into_iter()), 1);
        assert_eq!(argmin([9u64].into_iter()), 0);
    }

    #[test]
    fn least_loaded_routing_avoids_the_busy_shard() {
        // A gated model: each shard's one worker parks inside the forward
        // pass, so submitted work stays pending until the gate opens.
        let gate = GatePredictor::new(1);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("gate", 1, gate.clone()));
        let server = ShardedServer::start(
            registry,
            ShardConfig {
                shards: 3,
                batch: BatchConfig {
                    max_batch: 8,
                    workers: 1,
                },
                routing: ShardRouting::LeastLoaded,
            },
        );
        // All depths are zero: ties break toward shard 0.
        assert_eq!(server.route(&[0.0]), 0);
        assert_eq!(server.queue_depths(), vec![0, 0, 0]);
        // One pending request on shard 0 steers the next one to shard 1,
        // the next to shard 2, then back to 0 — queue depth, not rotation.
        let h0 = server.submit("gate", vec![0.0]).unwrap();
        assert_eq!(server.queue_depths(), vec![1, 0, 0]);
        assert_eq!(server.route(&[0.0]), 1);
        let h1 = server.submit("gate", vec![1.0]).unwrap();
        let h2 = server.submit("gate", vec![2.0]).unwrap();
        assert_eq!(server.queue_depths(), vec![1, 1, 1]);
        assert_eq!(server.route(&[3.0]), 0);
        gate.open();
        for handle in [h0, h1, h2] {
            assert_eq!(handle.wait().unwrap(), vec![0.5, 0.5]);
        }
        assert_eq!(server.queue_depths(), vec![0, 0, 0]);
    }

    #[test]
    fn least_loaded_serving_still_returns_correct_predictions() {
        let (server, data) = sharded(57, ShardRouting::LeastLoaded);
        let direct = server
            .registry()
            .get("higgs")
            .unwrap()
            .predictor()
            .predict_proba(&data.features)
            .unwrap();
        let handles: Vec<_> = (0..30)
            .map(|r| {
                server
                    .submit("higgs", data.features.row(r).to_vec())
                    .unwrap()
            })
            .collect();
        for (r, handle) in handles.into_iter().enumerate() {
            let got = handle.wait().unwrap();
            for (c, v) in got.iter().enumerate() {
                assert!((v - direct.get(r, c)).abs() < 1e-5, "row {r} col {c}");
            }
        }
        let m = server.metrics();
        assert_eq!(m.responses, 30);
        assert_eq!(m.pending, 0, "drained server has no pending requests");
    }

    #[test]
    fn sharded_predictions_match_direct_inference() {
        let (server, data) = sharded(52, ShardRouting::FeatureHash);
        let direct = server
            .registry()
            .get("higgs")
            .unwrap()
            .predictor()
            .predict_proba(&data.features)
            .unwrap();
        let handles: Vec<_> = (0..40)
            .map(|r| {
                server
                    .submit("higgs", data.features.row(r).to_vec())
                    .unwrap()
            })
            .collect();
        for (r, handle) in handles.into_iter().enumerate() {
            let got = handle.wait().unwrap();
            for (c, v) in got.iter().enumerate() {
                assert!(
                    (v - direct.get(r, c)).abs() < 1e-5,
                    "row {r} col {c}: {v} vs {}",
                    direct.get(r, c)
                );
            }
        }
        let m = server.metrics();
        assert_eq!(m.responses, 40);
        assert_eq!(m.errors, 0);
        assert_eq!(
            m.responses,
            server
                .shard_metrics()
                .iter()
                .map(|s| s.responses)
                .sum::<u64>()
        );
    }

    #[test]
    fn a_block_goes_whole_to_the_shard_of_its_first_row() {
        let (server, data) = sharded(56, ShardRouting::FeatureHash);
        let direct = server
            .registry()
            .get("higgs")
            .unwrap()
            .predictor()
            .predict_proba(&data.features)
            .unwrap();
        let rows = RowBlock {
            n_cols: 28,
            data: data.features.as_slice()[..10 * 28].to_vec(),
        };
        let home = server.route(rows.row(0));
        let answer = server
            .submit_block("higgs", rows, SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        for r in 0..10 {
            assert_eq!(answer.proba.row(r), direct.row(r), "row {r}");
        }
        // Ten distinct vectors would hash over several shards one by one.
        for (shard, m) in server.shard_metrics().iter().enumerate() {
            let expected = if shard == home { 10 } else { 0 };
            assert_eq!(m.requests, expected, "shard {shard}");
        }
    }

    #[test]
    fn round_robin_spreads_load_across_all_shards() {
        let (server, data) = sharded(53, ShardRouting::RoundRobin);
        let handles: Vec<_> = (0..40)
            .map(|r| {
                server
                    .submit("higgs", data.features.row(r).to_vec())
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let per_shard = server.shard_metrics();
        assert_eq!(per_shard.len(), 4);
        for (i, m) in per_shard.iter().enumerate() {
            assert_eq!(m.requests, 10, "shard {i} must take exactly 1/4 the load");
        }
    }

    #[test]
    fn options_flow_through_to_the_shard() {
        let (server, data) = sharded(54, ShardRouting::FeatureHash);
        let expired = server
            .submit_with_options(
                "higgs",
                data.features.row(0).to_vec(),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap()
            .wait();
        assert!(matches!(expired, Err(ServeError::DeadlineExceeded)));
        let ok = server
            .submit_with_options(
                "higgs",
                data.features.row(1).to_vec(),
                SubmitOptions::new().priority(Priority::High),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ok.len(), 2);
        let m = server.metrics();
        assert_eq!(m.expired, 1);
        assert_eq!(m.responses, 1);
    }

    #[test]
    fn prometheus_export_covers_aggregate_and_every_shard() {
        let (server, data) = sharded(55, ShardRouting::RoundRobin);
        for r in 0..8 {
            server
                .predict("higgs", data.features.row(r).to_vec())
                .unwrap();
        }
        let text = Exposition::render(|out| server.write_metrics(out));
        // One declaration per metric; the aggregate is labeled shard="all"
        // so summing over the real shards never double-counts.
        assert_eq!(text.matches("# TYPE bcpnn_serve_requests_total").count(), 1);
        assert!(text.contains("bcpnn_serve_requests_total{shard=\"all\"} 8"));
        for shard in 0..4 {
            assert!(
                text.contains(&format!(
                    "bcpnn_serve_requests_total{{shard=\"{shard}\"}} 2"
                )),
                "missing shard {shard} samples"
            );
        }
    }

    #[test]
    fn sharded_server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedServer>();
    }
}
