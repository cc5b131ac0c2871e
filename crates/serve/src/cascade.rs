//! The quantized→f32 **cascade**: a [`Predictor`] that answers cheap when
//! the cheap tier is confident and escalates only the uncertain rows.
//!
//! A [`CascadeModel`] wraps two predictors with identical shapes — a cheap
//! tier (typically a `bcpnn_lowprec` quantized pipeline) and a full tier
//! (the f32 parent it was quantized from). A batch runs through the cheap
//! tier first; rows whose top-2 probability margin
//! ([`bcpnn_core::uncertainty::margin`]) falls below the escalation
//! threshold are gathered into a sub-batch, re-run through the full tier,
//! and scattered back. Because every model in this codebase computes rows
//! independently, the escalated rows' outputs are **bit-identical** to
//! running the full model on the whole batch
//! (`tests/cascade_equivalence.rs` proves it).
//!
//! The gather/scatter buffers come from the shared [`Workspace`]'s cascade
//! scratch ([`Workspace::take_cascade_scratch`]), so the steady-state
//! cascade pass stays zero-allocation like every other serving path.
//!
//! Edge thresholds are exact by construction:
//!
//! * `escalate_below <= 0.0` — margins are never negative, so nothing
//!   escalates: the cascade is the cheap tier.
//! * `escalate_below >= 1.0` — every row escalates: the cascade is
//!   bit-identical to the full tier.
//!
//! Each cascade publishes three monotonically increasing counters —
//! `bcpnn_cascade_cheap_hits_total`, `bcpnn_cascade_escalations_total`,
//! and `bcpnn_cascade_abstentions_total`, labeled by model name — through
//! [`write_metrics`], which the servers call when they write their
//! `/metrics` families.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use bcpnn_core::model::Predictor;
use bcpnn_core::{uncertainty, CoreError, CoreResult, EvalReport, Workspace};
use bcpnn_tensor::Matrix;

use crate::metrics::{Exposition, MetricKind};

/// Live counters of one cascade's routing decisions. Shared (`Arc`) between
/// the model and the metrics exposition; all updates are relaxed atomics on
/// the inference path.
#[derive(Debug, Default)]
pub struct CascadeStats {
    cheap_hits: AtomicU64,
    escalations: AtomicU64,
    abstentions: AtomicU64,
}

impl CascadeStats {
    /// Rows answered by the cheap tier (margin at or above the escalation
    /// threshold).
    pub fn cheap_hits(&self) -> u64 {
        self.cheap_hits.load(Ordering::Relaxed)
    }

    /// Rows escalated to the full-precision tier.
    pub fn escalations(&self) -> u64 {
        self.escalations.load(Ordering::Relaxed)
    }

    /// Rows whose *final* margin (after any escalation) still fell below
    /// the cascade's abstention threshold. Informational: the cascade
    /// still returns the probabilities; serving-layer abstention is
    /// [`SubmitOptions::abstain_below`].
    ///
    /// [`SubmitOptions::abstain_below`]: crate::SubmitOptions::abstain_below
    pub fn abstentions(&self) -> u64 {
        self.abstentions.load(Ordering::Relaxed)
    }
}

/// Registry of live cascade counters for the Prometheus exposition:
/// `(model name, weak stats handle)`. Weak so a dropped cascade disappears
/// from `/metrics` instead of freezing at its last counts.
static STATS_REGISTRY: Mutex<Vec<(String, Weak<CascadeStats>)>> = Mutex::new(Vec::new());

fn register_stats(name: &str, stats: &Arc<CascadeStats>) {
    let mut registry = STATS_REGISTRY.lock().unwrap();
    // Latest registration wins the name; drop dead entries while we hold
    // the lock anyway.
    registry.retain(|(n, w)| n != name && w.strong_count() > 0);
    registry.push((name.to_string(), Arc::downgrade(stats)));
}

/// Write every live cascade's counters into `out`, one `model`-labeled
/// sample per cascade; nothing when no cascade exists. Both servers'
/// [`ServeTarget::write_metrics`] call it, so cascades show up on the same
/// scrape as the serving metrics.
///
/// [`ServeTarget::write_metrics`]: crate::ServeTarget::write_metrics
pub fn write_metrics(out: &mut Exposition) {
    let mut registry = STATS_REGISTRY.lock().unwrap();
    registry.retain(|(_, w)| w.strong_count() > 0);
    if registry.is_empty() {
        return;
    }
    type Counter = (&'static str, &'static str, fn(&CascadeStats) -> u64);
    let counters: [Counter; 3] = [
        (
            "cheap_hits",
            "Rows resolved by the cheap (quantized) cascade tier.",
            CascadeStats::cheap_hits,
        ),
        (
            "escalations",
            "Rows escalated to the full-precision cascade tier.",
            CascadeStats::escalations,
        ),
        (
            "abstentions",
            "Rows whose final margin stayed below the cascade abstention threshold.",
            CascadeStats::abstentions,
        ),
    ];
    for (name, help, value) in counters {
        let name = format!("bcpnn_cascade_{name}_total");
        let mut family = out.family(&name, MetricKind::Counter, help);
        for (model, stats) in registry.iter() {
            if let Some(stats) = stats.upgrade() {
                family.sample(&[("model", model)], value(&stats));
            }
        }
    }
}

/// A two-tier cascade predictor: cheap tier first, full tier for the rows
/// the cheap tier is unsure about. See the [module docs](self).
///
/// Implements [`Predictor`], so it publishes to a [`ModelRegistry`] and
/// hot-swaps exactly like any single-tier model.
///
/// [`ModelRegistry`]: crate::ModelRegistry
pub struct CascadeModel {
    name: String,
    cheap: Box<dyn Predictor + Send + Sync>,
    full: Box<dyn Predictor + Send + Sync>,
    escalate_below: f32,
    abstain_below: Option<f32>,
    stats: Arc<CascadeStats>,
}

impl fmt::Debug for CascadeModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CascadeModel")
            .field("name", &self.name)
            .field("escalate_below", &self.escalate_below)
            .field("abstain_below", &self.abstain_below)
            .field("n_inputs", &self.full.n_inputs())
            .field("n_classes", &self.full.n_classes())
            .finish()
    }
}

impl CascadeModel {
    /// Build a cascade from a cheap and a full tier with identical input
    /// and class shapes. `name` labels the cascade's counters in the
    /// Prometheus exposition; `escalate_below` is the top-2 margin under
    /// which a cheap-tier row is re-run through the full tier.
    pub fn new(
        name: impl Into<String>,
        cheap: Box<dyn Predictor + Send + Sync>,
        full: Box<dyn Predictor + Send + Sync>,
        escalate_below: f32,
    ) -> CoreResult<Self> {
        if cheap.n_inputs() != full.n_inputs() || cheap.n_classes() != full.n_classes() {
            return Err(CoreError::InvalidParams(format!(
                "cascade tiers disagree on shape: cheap {}x{} vs full {}x{}",
                cheap.n_inputs(),
                cheap.n_classes(),
                full.n_inputs(),
                full.n_classes()
            )));
        }
        if !escalate_below.is_finite() {
            return Err(CoreError::InvalidParams(format!(
                "cascade escalation threshold must be finite, got {escalate_below}"
            )));
        }
        let name = name.into();
        let stats = Arc::new(CascadeStats::default());
        register_stats(&name, &stats);
        Ok(Self {
            name,
            cheap,
            full,
            escalate_below,
            abstain_below: None,
            stats,
        })
    }

    /// Also count (in [`CascadeStats::abstentions`]) the rows whose final
    /// margin stays below `threshold` even after escalation. Metric-only:
    /// the rows' probabilities are still returned.
    #[must_use]
    pub fn with_abstain_below(mut self, threshold: f32) -> Self {
        self.abstain_below = Some(threshold);
        self
    }

    /// The cascade's metrics name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The escalation threshold rows must clear to stay in the cheap tier.
    pub fn escalate_below(&self) -> f32 {
        self.escalate_below
    }

    /// Shared handle to this cascade's routing counters.
    pub fn stats(&self) -> Arc<CascadeStats> {
        Arc::clone(&self.stats)
    }
}

impl Predictor for CascadeModel {
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        self.predict_proba_into(x, &mut ws, &mut out)?;
        Ok(out)
    }

    fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        self.cheap.predict_proba_into(x, ws, out)?;

        // The cascade's own gather/scatter buffers must outlive the inner
        // full-tier call (which reuses the same workspace), so take them
        // out of the workspace rather than borrowing.
        let (mut sub_x, mut sub_out, mut rows) = ws.take_cascade_scratch();
        rows.clear();
        let escalate_all = self.escalate_below >= 1.0;
        for r in 0..out.rows() {
            if escalate_all || uncertainty::margin(out.row(r)) < self.escalate_below {
                rows.push(r);
            }
        }
        self.stats
            .cheap_hits
            .fetch_add((out.rows() - rows.len()) as u64, Ordering::Relaxed);

        if !rows.is_empty() {
            self.stats
                .escalations
                .fetch_add(rows.len() as u64, Ordering::Relaxed);
            sub_x.resize(rows.len(), x.cols());
            for (i, &r) in rows.iter().enumerate() {
                sub_x.row_mut(i).copy_from_slice(x.row(r));
            }
            let result = self.full.predict_proba_into(&sub_x, ws, &mut sub_out);
            if let Err(err) = result {
                ws.restore_cascade_scratch(sub_x, sub_out, rows);
                return Err(err);
            }
            for (i, &r) in rows.iter().enumerate() {
                out.row_mut(r).copy_from_slice(sub_out.row(i));
            }
        }

        if let Some(threshold) = self.abstain_below {
            let low = (0..out.rows())
                .filter(|&r| uncertainty::margin(out.row(r)) < threshold)
                .count();
            self.stats
                .abstentions
                .fetch_add(low as u64, Ordering::Relaxed);
        }
        ws.restore_cascade_scratch(sub_x, sub_out, rows);
        Ok(())
    }

    fn n_inputs(&self) -> usize {
        self.full.n_inputs()
    }

    fn n_classes(&self) -> usize {
        self.full.n_classes()
    }

    fn evaluate(&self, x: &Matrix<f32>, labels: &[usize]) -> CoreResult<EvalReport> {
        if x.rows() != labels.len() {
            return Err(CoreError::DataMismatch(
                "evaluation set size and label count differ".into(),
            ));
        }
        let proba = self.predict_proba(x)?;
        Ok(EvalReport::from_probabilities(&proba, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::validate_prometheus;
    use crate::testutil::tiny_pipeline;

    fn cascade_fixture(name: &str, threshold: f32) -> (CascadeModel, bcpnn_data::Dataset) {
        // Two differently seeded pipelines stand in for quantized/f32
        // tiers: what matters here is routing, not precision.
        let (cheap, data) = tiny_pipeline(70);
        let (full, _) = tiny_pipeline(71);
        let cascade = CascadeModel::new(name, Box::new(cheap), Box::new(full), threshold).unwrap();
        (cascade, data)
    }

    #[test]
    fn threshold_zero_is_the_cheap_tier_bit_for_bit() {
        let (cheap, data) = tiny_pipeline(70);
        let (cascade, _) = cascade_fixture("cascade-zero", 0.0);
        let direct = cheap.predict_proba(&data.features).unwrap();
        let routed = cascade.predict_proba(&data.features).unwrap();
        assert_eq!(routed, direct);
        assert_eq!(cascade.stats().escalations(), 0);
        assert_eq!(cascade.stats().cheap_hits(), data.n_samples() as u64);
    }

    #[test]
    fn threshold_one_is_the_full_tier_bit_for_bit() {
        let (full, _) = tiny_pipeline(71);
        let (cascade, data) = cascade_fixture("cascade-one", 1.0);
        let direct = full.predict_proba(&data.features).unwrap();
        let routed = cascade.predict_proba(&data.features).unwrap();
        assert_eq!(routed, direct);
        assert_eq!(cascade.stats().cheap_hits(), 0);
        assert_eq!(cascade.stats().escalations(), data.n_samples() as u64);
    }

    #[test]
    fn interior_threshold_splits_the_batch() {
        let (cascade, data) = cascade_fixture("cascade-split", 0.5);
        cascade.predict_proba(&data.features).unwrap();
        let stats = cascade.stats();
        assert_eq!(
            stats.cheap_hits() + stats.escalations(),
            data.n_samples() as u64,
            "every row is routed exactly once"
        );
    }

    #[test]
    fn abstain_threshold_counts_low_margin_rows() {
        let (cheap, data) = tiny_pipeline(70);
        let (full, _) = tiny_pipeline(71);
        // Margin can never reach 2.0, so every row counts as an
        // abstention candidate.
        let cascade = CascadeModel::new("cascade-abstain", Box::new(cheap), Box::new(full), 0.0)
            .unwrap()
            .with_abstain_below(2.0);
        cascade.predict_proba(&data.features).unwrap();
        assert_eq!(cascade.stats().abstentions(), data.n_samples() as u64);
    }

    #[test]
    fn mismatched_tiers_are_rejected() {
        let (cheap, data) = tiny_pipeline(70);
        let (full, _) = tiny_pipeline(71);
        let head = full
            .network()
            .sgd_readout()
            .expect("hybrid readout has an SGD head")
            .clone();
        // The bare head expects hidden activations, not raw features.
        let err = CascadeModel::new("bad", Box::new(cheap), Box::new(head), 0.5).unwrap_err();
        assert!(err.to_string().contains("shape"));
        drop(data);
    }

    #[test]
    fn exposition_is_valid_and_forgets_dropped_cascades() {
        let (cascade, data) = cascade_fixture("cascade-exposed", 0.5);
        cascade.predict_proba(&data.features).unwrap();
        let text = Exposition::render(write_metrics);
        assert!(text.contains("bcpnn_cascade_cheap_hits_total{model=\"cascade-exposed\"}"));
        assert!(text.contains("bcpnn_cascade_escalations_total"));
        assert!(text.contains("bcpnn_cascade_abstentions_total"));
        assert!(validate_prometheus(&text).is_ok(), "exposition: {text}");
        drop(cascade);
        let text = Exposition::render(write_metrics);
        assert!(
            !text.contains("cascade-exposed"),
            "dropped cascades must disappear from the scrape"
        );
    }

    #[test]
    fn nonfinite_threshold_is_rejected() {
        let (cheap, _) = tiny_pipeline(70);
        let (full, _) = tiny_pipeline(71);
        assert!(CascadeModel::new("nan", Box::new(cheap), Box::new(full), f32::NAN).is_err());
    }
}
