//! `bcpnn_learn_*` Prometheus metrics for the online-learning tier.
//!
//! One [`LearnMetrics`] instance lives inside each [`crate::OnlineLearner`]
//! (relaxed atomics — these are statistics, not synchronization). Because a
//! process may run one learner per model, [`write_metrics`] takes *all*
//! learners at once and writes each family once through the shared
//! [`Exposition`] writer, with a `model="..."` label per learner.

use std::sync::atomic::{AtomicU64, Ordering};

use bcpnn_serve::{Exposition, MetricKind};

/// Sentinel for "no evaluation has happened yet" in the accuracy gauges.
const UNSET: u64 = u64::MAX;

/// Relaxed-atomic counters and gauges of one learner.
#[derive(Debug, Default)]
pub struct LearnMetrics {
    pub(crate) rows_ingested: AtomicU64,
    pub(crate) rows_trained: AtomicU64,
    pub(crate) rows_heldout: AtomicU64,
    pub(crate) rows_rejected: AtomicU64,
    pub(crate) folds: AtomicU64,
    pub(crate) publishes: AtomicU64,
    pub(crate) publishes_rejected: AtomicU64,
    pub(crate) replayed_frames: AtomicU64,
    pub(crate) replay_log_bytes: AtomicU64,
    pub(crate) queue_depth: AtomicU64,
    /// Accuracy in millionths (0..=1_000_000), `UNSET` before the first
    /// reservoir evaluation.
    pub(crate) shadow_accuracy: AtomicU64,
    pub(crate) live_accuracy: AtomicU64,
}

impl LearnMetrics {
    pub(crate) fn new() -> Self {
        let m = Self::default();
        m.shadow_accuracy.store(UNSET, Ordering::Relaxed);
        m.live_accuracy.store(UNSET, Ordering::Relaxed);
        m
    }

    pub(crate) fn set_accuracy(&self, shadow: f32, live: f32) {
        let enc = |acc: f32| (f64::from(acc.clamp(0.0, 1.0)) * 1e6).round() as u64;
        self.shadow_accuracy.store(enc(shadow), Ordering::Relaxed);
        self.live_accuracy.store(enc(live), Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter and gauge.
    pub fn snapshot(&self) -> LearnSnapshot {
        let acc = |a: &AtomicU64| {
            let v = a.load(Ordering::Relaxed);
            (v != UNSET).then(|| v as f64 / 1e6)
        };
        LearnSnapshot {
            rows_ingested: self.rows_ingested.load(Ordering::Relaxed),
            rows_trained: self.rows_trained.load(Ordering::Relaxed),
            rows_heldout: self.rows_heldout.load(Ordering::Relaxed),
            rows_rejected: self.rows_rejected.load(Ordering::Relaxed),
            folds: self.folds.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            publishes_rejected: self.publishes_rejected.load(Ordering::Relaxed),
            replayed_frames: self.replayed_frames.load(Ordering::Relaxed),
            replay_log_bytes: self.replay_log_bytes.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            shadow_accuracy: acc(&self.shadow_accuracy),
            live_accuracy: acc(&self.live_accuracy),
        }
    }
}

/// Plain-value copy of [`LearnMetrics`] (what tests and [`write_metrics`]
/// consume).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnSnapshot {
    /// Labeled rows accepted into the ingest queue.
    pub rows_ingested: u64,
    /// Rows folded into the shadow (ingested minus held-out minus pending).
    pub rows_trained: u64,
    /// Rows diverted into the held-out evaluation reservoir.
    pub rows_heldout: u64,
    /// Rows refused because the ingest queue was full.
    pub rows_rejected: u64,
    /// Shadow-trainer fold batches applied.
    pub folds: u64,
    /// Successful hot-swap publishes of the shadow.
    pub publishes: u64,
    /// Publishes blocked by the accuracy gate.
    pub publishes_rejected: u64,
    /// Frames replayed from the log at startup.
    pub replayed_frames: u64,
    /// Current replay-log size in bytes.
    pub replay_log_bytes: u64,
    /// Rows currently waiting in the ingest queue.
    pub queue_depth: u64,
    /// Shadow accuracy on the reservoir (`None` before first evaluation).
    pub shadow_accuracy: Option<f64>,
    /// Live (published) model accuracy on the same reservoir.
    pub live_accuracy: Option<f64>,
}

/// Write the `bcpnn_learn_*` families for a set of learners into `out`,
/// one `model`-labeled sample per learner per family. A gauge no learner
/// has a value for yet (the accuracies before the first evaluation) is
/// left out entirely.
pub fn write_metrics(out: &mut Exposition, learners: &[(&str, LearnSnapshot)]) {
    type Def<T> = (&'static str, &'static str, fn(&LearnSnapshot) -> T);
    let counters: [Def<u64>; 8] = [
        (
            "bcpnn_learn_rows_total",
            "Labeled rows accepted by the learn endpoint.",
            |s| s.rows_ingested,
        ),
        (
            "bcpnn_learn_rows_trained_total",
            "Rows folded into the shadow model.",
            |s| s.rows_trained,
        ),
        (
            "bcpnn_learn_rows_heldout_total",
            "Rows diverted to the held-out evaluation reservoir.",
            |s| s.rows_heldout,
        ),
        (
            "bcpnn_learn_rows_rejected_total",
            "Rows refused because the ingest queue was full.",
            |s| s.rows_rejected,
        ),
        (
            "bcpnn_learn_folds_total",
            "Shadow-trainer fold batches applied.",
            |s| s.folds,
        ),
        (
            "bcpnn_learn_publishes_total",
            "Shadow models published via registry hot-swap.",
            |s| s.publishes,
        ),
        (
            "bcpnn_learn_publishes_rejected_total",
            "Publishes blocked by the accuracy gate.",
            |s| s.publishes_rejected,
        ),
        (
            "bcpnn_learn_replayed_frames_total",
            "Replay-log frames folded back at startup.",
            |s| s.replayed_frames,
        ),
    ];
    for (name, help, value) in counters {
        let mut family = out.family(name, MetricKind::Counter, help);
        for (model, snapshot) in learners {
            family.sample(&[("model", model)], value(snapshot));
        }
    }
    let gauges: [Def<Option<f64>>; 5] = [
        (
            "bcpnn_learn_replay_log_bytes",
            "Current replay-log size in bytes.",
            |s| Some(s.replay_log_bytes as f64),
        ),
        (
            "bcpnn_learn_queue_depth",
            "Rows waiting in the ingest queue.",
            |s| Some(s.queue_depth as f64),
        ),
        (
            "bcpnn_learn_shadow_accuracy",
            "Shadow-model accuracy on the held-out reservoir.",
            |s| s.shadow_accuracy,
        ),
        (
            "bcpnn_learn_live_accuracy",
            "Published-model accuracy on the held-out reservoir.",
            |s| s.live_accuracy,
        ),
        (
            "bcpnn_learn_shadow_vs_live_accuracy",
            "Shadow minus live accuracy on the held-out reservoir (positive: shadow is ahead).",
            |s| Some(s.shadow_accuracy? - s.live_accuracy?),
        ),
    ];
    for (name, help, value) in gauges {
        // A gauge no learner has a value for yet is left out.
        if learners.iter().all(|(_, s)| value(s).is_none()) {
            continue;
        }
        let mut family = out.family(name, MetricKind::Gauge, help);
        for (model, snapshot) in learners {
            if let Some(value) = value(snapshot) {
                family.sample(&[("model", model)], value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_valid_prometheus_and_has_the_canonical_counter() {
        let metrics = LearnMetrics::new();
        metrics.rows_ingested.store(42, Ordering::Relaxed);
        metrics.set_accuracy(0.8125, 0.75);
        let other = LearnMetrics::new();
        let learners = [("higgs", metrics.snapshot()), ("mnist", other.snapshot())];
        let text = Exposition::render(|out| write_metrics(out, &learners));
        bcpnn_serve::validate_prometheus(&text).expect("exposition parses");
        assert!(text.contains("bcpnn_learn_rows_total{model=\"higgs\"} 42"));
        assert!(text.contains("bcpnn_learn_rows_total{model=\"mnist\"} 0"));
        assert!(text.contains("bcpnn_learn_shadow_accuracy{model=\"higgs\"} 0.8125"));
        // No evaluation yet on `mnist` -> no accuracy sample for it.
        assert!(!text.contains("bcpnn_learn_shadow_accuracy{model=\"mnist\"}"));
        assert!(text.contains("bcpnn_learn_shadow_vs_live_accuracy{model=\"higgs\"} 0.0625"));
    }

    #[test]
    fn snapshot_reports_unset_accuracy_as_none() {
        let metrics = LearnMetrics::new();
        let snap = metrics.snapshot();
        assert_eq!(snap.shadow_accuracy, None);
        assert_eq!(snap.live_accuracy, None);
    }
}
