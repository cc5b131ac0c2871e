//! What load is put on: [`ServeTarget`], the submission surface both
//! server shapes share, and [`request_stream`], a deterministic
//! flat-matrix stream of synthetic Higgs events that the serving benches
//! and the allocation and hot-swap tests send through it:
//!
//! ```
//! use bcpnn_serve::loadgen::request_stream;
//!
//! let stream = request_stream(16, 7);
//! assert_eq!((stream.len(), stream.width()), (16, 28));
//! // Deterministic: the same seed always produces the same stream.
//! assert_eq!(stream.row(3), request_stream(16, 7).row(3));
//! ```

use std::sync::Arc;

use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_tensor::Matrix;

use crate::block::RowBlock;
use crate::error::ServeResult;
use crate::metrics::{Exposition, MetricsSnapshot};
use crate::registry::ModelRegistry;
use crate::server::{BlockHandle, InferenceServer, PredictionHandle, SubmitOptions};
use crate::shard::ShardedServer;

/// A submission sink over the serving stack: the single-pool
/// [`InferenceServer`] or the [`ShardedServer`], behind one object-safe
/// surface.
///
/// This is what generalizes "something that serves models": benches and
/// tests drive one to produce traffic, and the HTTP gateway
/// (`bcpnn-gateway`) exposes one on the wire — both without caring how
/// many worker pools sit behind it. A `ServeTarget` can accept
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

    /// Write the target's `/metrics` families into `out`: the serving
    /// families (unlabeled for one pool; one `shard="all"` aggregate plus
    /// one `shard="i"` sample per shard for a sharded target), then the
    /// counters of every live [`CascadeModel`](crate::CascadeModel).
    fn write_metrics(&self, out: &mut Exposition);

    /// Blocking single-request round trip with default options.
    fn predict(&self, model: &str, features: Vec<f32>) -> ServeResult<Vec<f32>> {
        self.submit_with_options(model, features, SubmitOptions::default())?
            .wait()
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

    fn write_metrics(&self, out: &mut Exposition) {
        MetricsSnapshot::write_metrics(out, &[(vec![], &self.metrics())]);
        crate::cascade::write_metrics(out);
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

    fn write_metrics(&self, out: &mut Exposition) {
        let per_shard = self.shard_metrics();
        let all = MetricsSnapshot::aggregate(&per_shard);
        let ids: Vec<String> = (0..per_shard.len()).map(|i| i.to_string()).collect();
        let mut series = vec![(vec![("shard", "all")], &all)];
        for (id, snapshot) in ids.iter().zip(&per_shard) {
            series.push((vec![("shard", id.as_str())], snapshot));
        }
        MetricsSnapshot::write_metrics(out, &series);
        crate::cascade::write_metrics(out);
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
