//! The [`ModelRegistry`]: named, versioned models shared across threads as
//! `Arc<ServedModel>`, with atomic hot-swap.
//!
//! The swap protocol is the standard read-copy-update shape: readers clone
//! the `Arc` out of the registry under a short read lock and then work
//! entirely off their clone, so publishing a new version never blocks or
//! invalidates an in-flight batch — old versions die when the last batch
//! holding them finishes.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_core::model::{Pipeline, Predictor};
use parking_lot::RwLock;

use crate::error::{ServeError, ServeResult};
use crate::server::BatchConfig;

/// A named, versioned, immutable serving artifact, optionally carrying its
/// own batching policy (see [`ServedModel::with_batch_policy`]).
///
/// A served model is any fitted
/// [`Predictor`](bcpnn_core::model::Predictor) — a loaded [`Pipeline`] is
/// the common case, but a bare `Network` or a custom head serve just the
/// same: the scheduler only talks through the trait.
pub struct ServedModel {
    name: String,
    version: u64,
    predictor: Box<dyn Predictor + Send + Sync>,
    batch_policy: Option<BatchConfig>,
}

impl std::fmt::Debug for ServedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedModel")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("n_inputs", &self.predictor.n_inputs())
            .field("n_classes", &self.predictor.n_classes())
            .finish()
    }
}

impl ServedModel {
    /// Wrap a fitted predictor under a model name and version.
    pub fn new(
        name: impl Into<String>,
        version: u64,
        predictor: impl Predictor + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            version,
            predictor: Box::new(predictor),
            batch_policy: None,
        }
    }

    /// Attach a per-model batching policy. The workers cut this
    /// model's batches at its own `max_batch` instead of the server default
    /// (the policy's `workers` field is ignored — the worker pool is shared,
    /// and a ripe batch of any model leaves as soon as one of its workers
    /// is idle).
    /// Publishing a new version with a different policy changes batching
    /// live, with no server restart.
    #[must_use]
    pub fn with_batch_policy(mut self, policy: BatchConfig) -> Self {
        self.batch_policy = Some(policy);
        self
    }

    /// The model's own batching policy, if one was attached.
    pub fn batch_policy(&self) -> Option<BatchConfig> {
        self.batch_policy
    }

    /// The model's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model's version number.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The fitted model behind this artifact.
    pub fn predictor(&self) -> &(dyn Predictor + Send + Sync) {
        self.predictor.as_ref()
    }
}

/// Thread-safe map of model name → current [`ServedModel`] version.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ServedModel>>>,
    swaps: AtomicU64,
}

impl ModelRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a model, atomically replacing any existing version under the
    /// same name (hot-swap). Returns the shared handle, plus the displaced
    /// version if there was one.
    pub fn publish(&self, model: ServedModel) -> (Arc<ServedModel>, Option<Arc<ServedModel>>) {
        let handle = Arc::new(model);
        let previous = self
            .models
            .write()
            .insert(handle.name().to_string(), Arc::clone(&handle));
        if previous.is_some() {
            self.swaps.fetch_add(1, Ordering::Relaxed);
        }
        (handle, previous)
    }

    /// The current version's batching policy for a model, if the model is
    /// registered and carries one.
    pub fn batch_policy(&self, name: &str) -> Option<BatchConfig> {
        self.models.read().get(name).and_then(|m| m.batch_policy())
    }

    /// Load a model directory (see [`Pipeline::load`]) and publish it.
    pub fn load_and_publish<P: AsRef<Path>>(
        &self,
        name: &str,
        version: u64,
        dir: P,
        backend: BackendKind,
    ) -> ServeResult<Arc<ServedModel>> {
        let pipeline = Pipeline::load(dir, backend)?;
        Ok(self.publish(ServedModel::new(name, version, pipeline)).0)
    }

    /// Current version of a model, or an [`ServeError::UnknownModel`] error.
    pub fn get(&self, name: &str) -> ServeResult<Arc<ServedModel>> {
        self.models
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Current version of a model, if registered.
    pub fn lookup(&self, name: &str) -> Option<Arc<ServedModel>> {
        self.models.read().get(name).cloned()
    }

    /// Unregister a model, returning its last version.
    pub fn remove(&self, name: &str) -> Option<Arc<ServedModel>> {
        self.models.write().remove(name)
    }

    /// Names of all registered models, sorted.
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.models.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.read().is_empty()
    }

    /// How many publishes replaced an existing version (hot-swaps).
    pub fn hot_swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_pipeline;

    #[test]
    fn publish_get_remove_lifecycle() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert!(matches!(
            registry.get("higgs"),
            Err(ServeError::UnknownModel(_))
        ));

        let (pipeline, _) = tiny_pipeline(10);
        let (handle, previous) = registry.publish(ServedModel::new("higgs", 1, pipeline));
        assert!(previous.is_none());
        assert_eq!(handle.version(), 1);
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.model_names(), vec!["higgs".to_string()]);

        let got = registry.get("higgs").unwrap();
        assert_eq!(got.version(), 1);
        assert!(Arc::ptr_eq(&handle, &got));

        let removed = registry.remove("higgs").unwrap();
        assert_eq!(removed.version(), 1);
        assert!(registry.is_empty());
    }

    #[test]
    fn hot_swap_replaces_atomically_and_keeps_old_handles_alive() {
        let registry = ModelRegistry::new();
        let (v1, _) = tiny_pipeline(11);
        let (v2, data) = tiny_pipeline(12);
        registry.publish(ServedModel::new("higgs", 1, v1));
        assert_eq!(registry.hot_swaps(), 0);

        // A "request in flight" holds the old version.
        let in_flight = registry.get("higgs").unwrap();

        let (new_handle, displaced) = registry.publish(ServedModel::new("higgs", 2, v2));
        assert_eq!(registry.hot_swaps(), 1);
        assert_eq!(displaced.unwrap().version(), 1);
        assert_eq!(registry.get("higgs").unwrap().version(), 2);

        // The displaced version still serves its in-flight work.
        assert_eq!(in_flight.version(), 1);
        let proba = in_flight.predictor().predict_proba(&data.features).unwrap();
        assert_eq!(proba.rows(), data.n_samples());
        drop(new_handle);
    }

    #[test]
    fn per_model_batch_policy_follows_hot_swap() {
        let registry = ModelRegistry::new();
        let (v1, _) = tiny_pipeline(13);
        let (v2, _) = tiny_pipeline(14);
        registry.publish(ServedModel::new("higgs", 1, v1));
        assert_eq!(registry.batch_policy("higgs"), None);
        assert_eq!(registry.batch_policy("nope"), None);

        let policy = BatchConfig {
            max_batch: 4,
            workers: 1,
        };
        registry.publish(ServedModel::new("higgs", 2, v2).with_batch_policy(policy));
        assert_eq!(registry.batch_policy("higgs"), Some(policy));
        assert_eq!(registry.get("higgs").unwrap().batch_policy(), Some(policy));
    }

    #[test]
    fn any_predictor_can_be_served() {
        // The registry is generic over Predictor: a bare readout head (an
        // SGD classifier over hidden activations) publishes just like a
        // full pipeline.
        let (pipeline, data) = tiny_pipeline(16);
        let hidden = pipeline
            .network()
            .encode(&pipeline.encode(&data.features).unwrap())
            .unwrap();
        let head = pipeline.network().sgd_readout().unwrap().clone();
        let direct = head.predict_proba(&hidden).unwrap();
        let registry = ModelRegistry::new();
        registry.publish(ServedModel::new("sgd-head", 1, head));
        let got = registry.get("sgd-head").unwrap();
        assert_eq!(got.predictor().n_classes(), 2);
        assert_eq!(got.predictor().n_inputs(), hidden.cols());
        let via_trait = got.predictor().predict_proba(&hidden).unwrap();
        assert!(via_trait.max_abs_diff(&direct) < 1e-6);
    }

    #[test]
    fn served_model_is_send_and_sync() {
        // Static assertion: the scheduler moves Arc<ServedModel> across the
        // submitting and worker threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServedModel>();
        assert_send_sync::<Arc<ServedModel>>();
        assert_send_sync::<ModelRegistry>();
        assert_send_sync::<Pipeline>();
    }
}
