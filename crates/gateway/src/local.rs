//! The node-local model operations: predict, publish, learn, listing and
//! scrape over one in-process serving stack.
//!
//! [`LocalNode`] is what [`crate::Gateway`] fronts over HTTP and what the
//! cluster's `BackendNode` fronts over the interior protocol: the typed
//! results are rendered to JSON by the one and to frames by the other, so
//! neither carries a second copy of an operation.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bcpnn_learn::OnlineLearner;
use bcpnn_serve::{Exposition, Pipeline, RowBlock, ServeTarget, ServedModel, SubmitOptions};

use crate::api::{
    ApiBackend, Learned, ModelEntry, Outcome, PredictFailure, Prediction, PublishRequest, Published,
};
use crate::error::{ApiError, ErrorCode};

/// One in-process serving stack with its online learners and publish
/// allowlist.
pub struct LocalNode {
    /// The serving stack.
    pub target: Arc<dyn ServeTarget>,
    /// Online learners, each serving learn requests for the registry
    /// model it feeds.
    pub learners: Vec<Arc<OnlineLearner>>,
    /// When set, publishes naming a path that resolves outside this
    /// directory are refused before the filesystem entry is touched.
    pub artifact_root: Option<PathBuf>,
}

impl LocalNode {
    /// Load a persisted artifact from a path on this host and publish it
    /// — the registry's atomic hot-swap. A path outside the allowlisted
    /// root is [`ErrorCode::Forbidden`]; a bad artifact is the client's
    /// problem ([`ErrorCode::Io`]), not an internal error.
    pub fn publish(&self, model: &str, request: &PublishRequest) -> Result<Published, ApiError> {
        let path = &request.path;
        if let Some(root) = &self.artifact_root {
            if !crate::artifact::path_allowed(root, Path::new(path)) {
                return Err(ApiError::new(
                    ErrorCode::Forbidden,
                    format!("artifact path {path:?} is outside the allowed root"),
                ));
            }
        }
        let pipeline = Pipeline::load(path, request.backend).map_err(|e| {
            let message = format!("cannot load artifact at {path:?}: {e}");
            ApiError::new(ErrorCode::Io, message)
        })?;
        let (handle, displaced) =
            self.target
                .registry()
                .publish(ServedModel::new(model, request.version, pipeline));
        Ok(Published {
            version: handle.version(),
            displaced: displaced.map(|m| m.version()),
        })
    }

    /// Feed labeled rows to the model's online learner.
    ///
    /// Acceptance is durability, not training: `Ok` means every row is in
    /// the learner's bounded queue and will be written to the replay log
    /// before it is folded. A full queue is backpressure
    /// ([`ErrorCode::Overloaded`]), a post larger than the whole queue is
    /// [`ErrorCode::BadRequest`], and a model with no learner attached is
    /// [`ErrorCode::UnknownModel`].
    pub fn learn(&self, model: &str, rows: RowBlock, labels: &[u32]) -> Result<Learned, ApiError> {
        let learner = self
            .learners
            .iter()
            .find(|l| l.model() == model)
            .ok_or_else(|| {
                ApiError::new(
                    ErrorCode::UnknownModel,
                    format!("no online learner is attached to model {model:?}"),
                )
            })?;
        let labels: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
        let accepted = learner.submit(rows, &labels)?;
        let snapshot = learner.metrics();
        Ok(Learned {
            accepted: accepted as u64,
            queue_depth: snapshot.queue_depth,
            publishes: Some(snapshot.publishes),
        })
    }
}

impl ApiBackend for LocalNode {
    /// Registry listing with versions and shapes, sorted by name.
    fn models(&self) -> Vec<ModelEntry> {
        let registry = self.target.registry();
        registry
            .model_names()
            .into_iter()
            .filter_map(|name| registry.lookup(&name))
            .map(|model| ModelEntry {
                name: model.name().to_string(),
                version: model.version(),
                n_inputs: model.predictor().n_inputs() as u64,
                n_classes: model.predictor().n_classes() as u64,
                replicas: None,
            })
            .collect()
    }

    /// One submission and one wait for the whole request: its rows stay
    /// one block through the serving stack, which never splits a block
    /// across batches — so one model version answers every row, and
    /// `version` names it, also across a hot-swap.
    fn predict(
        &self,
        model: &str,
        rows: RowBlock,
        options: SubmitOptions,
    ) -> Result<Prediction, PredictFailure> {
        let n_rows = rows.n_rows();
        let handle = self
            .target
            .submit_block(model, rows, options)
            .map_err(|error| PredictFailure {
                submitted: 0,
                error: error.into(),
            })?;
        let answer = handle.wait().map_err(|error| PredictFailure {
            submitted: n_rows,
            error: error.into(),
        })?;
        Ok(Prediction {
            version: Some(answer.version),
            proba: answer.proba,
            abstained: answer.abstained,
        })
    }

    fn publish(
        &self,
        model: &str,
        request: &PublishRequest,
    ) -> Result<Outcome<Published>, ApiError> {
        Ok(Outcome::Local(LocalNode::publish(self, model, request)?))
    }

    fn learn(
        &self,
        model: &str,
        rows: RowBlock,
        labels: Vec<u32>,
    ) -> Result<Outcome<Learned>, ApiError> {
        Ok(Outcome::Local(LocalNode::learn(
            self, model, rows, &labels,
        )?))
    }

    /// The serving stack's families (per-shard + aggregate) followed by
    /// every attached learner's `bcpnn_learn_*` families.
    fn scrape(&self, out: &mut Exposition) {
        self.target.write_metrics(out);
        if !self.learners.is_empty() {
            let snapshots: Vec<(&str, bcpnn_learn::LearnSnapshot)> = self
                .learners
                .iter()
                .map(|l| (l.model(), l.metrics()))
                .collect();
            bcpnn_learn::write_metrics(out, &snapshots);
        }
    }
}
