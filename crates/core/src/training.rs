//! Training orchestration: the unsupervised + supervised two-phase loop,
//! per-epoch statistics, and the observer hook used for in-situ
//! visualization (§III-B of the paper).

use std::time::{Duration, Instant};

use bcpnn_tensor::{Matrix, MatrixRng};

use crate::error::{CoreError, CoreResult};
use crate::network::Network;
use crate::params::TrainingParams;
use crate::workspace::Workspace;

/// Which phase of training an epoch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingPhase {
    /// Label-free training of the hidden HCU/MCU layer.
    Unsupervised,
    /// Supervised training of the classification head(s) on the frozen
    /// hidden code.
    Supervised,
}

impl std::fmt::Display for TrainingPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainingPhase::Unsupervised => f.write_str("unsupervised"),
            TrainingPhase::Supervised => f.write_str("supervised"),
        }
    }
}

/// Statistics of one completed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Phase the epoch belongs to.
    pub phase: TrainingPhase,
    /// Epoch index within its phase (0-based).
    pub epoch: usize,
    /// Wall-clock duration of the epoch.
    pub duration: Duration,
    /// Number of structural-plasticity swaps performed at the end of the
    /// epoch (unsupervised epochs only, and only on plasticity epochs).
    pub plasticity_swaps: Option<usize>,
    /// Mean cross-entropy of the SGD head during the epoch (supervised
    /// epochs of networks with an SGD head only).
    pub sgd_loss: Option<f32>,
}

/// Observer invoked at the end of every epoch — the hook behind the in-situ
/// receptive-field visualization (`bcpnn_bench::insitu` implements it with an
/// in-memory mask recorder playing the role of the ParaView Catalyst adaptor).
pub trait TrainingObserver {
    /// Called after each epoch with the network state and the epoch stats.
    fn on_epoch_end(&mut self, network: &Network, stats: &EpochStats);
}

/// Full report of a training run.
#[derive(Debug, Clone, Default)]
pub struct FitReport {
    /// Per-epoch statistics in execution order.
    pub epochs: Vec<EpochStats>,
    /// Total wall-clock training time.
    pub total_duration: Duration,
}

impl FitReport {
    /// Total training time in seconds (the quantity on the right axis of
    /// Fig. 3 / Fig. 4).
    #[must_use]
    pub fn train_time_seconds(&self) -> f64 {
        self.total_duration.as_secs_f64()
    }

    /// Total number of structural-plasticity swaps across the run.
    #[must_use]
    pub fn total_plasticity_swaps(&self) -> usize {
        self.epochs.iter().filter_map(|e| e.plasticity_swaps).sum()
    }

    /// Mean SGD loss of the final supervised epoch, if any.
    #[must_use]
    pub fn final_sgd_loss(&self) -> Option<f32> {
        self.epochs.iter().rev().find_map(|e| e.sgd_loss)
    }
}

/// The two-phase trainer.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    params: TrainingParams,
}

impl Trainer {
    /// Create a trainer with the given schedule.
    pub fn new(params: TrainingParams) -> Self {
        Self { params }
    }

    /// The training schedule.
    pub fn params(&self) -> &TrainingParams {
        &self.params
    }

    /// Train `network` on `(x, labels)` without observers.
    pub fn fit(
        &self,
        network: &mut Network,
        x: &Matrix<f32>,
        labels: &[usize],
    ) -> CoreResult<FitReport> {
        self.fit_with_observers(network, x, labels, &mut [])
    }

    /// Train `network` on `(x, labels)`, invoking every observer at the end
    /// of each epoch.
    pub fn fit_with_observers(
        &self,
        network: &mut Network,
        x: &Matrix<f32>,
        labels: &[usize],
        observers: &mut [&mut dyn TrainingObserver],
    ) -> CoreResult<FitReport> {
        self.params.validate().map_err(CoreError::InvalidParams)?;
        if x.rows() != labels.len() {
            return Err(CoreError::DataMismatch(format!(
                "{} samples but {} labels",
                x.rows(),
                labels.len()
            )));
        }
        if x.rows() == 0 {
            return Err(CoreError::DataMismatch("empty training set".into()));
        }
        for &l in labels {
            if l >= network.n_classes() {
                return Err(CoreError::DataMismatch(format!(
                    "label {l} out of range for {} classes",
                    network.n_classes()
                )));
            }
        }
        let start = Instant::now();
        let mut report = FitReport::default();
        let mut rng = MatrixRng::seed_from(self.params.seed);
        let batch = self.params.batch_size;
        let plasticity_interval = network.hidden().params().plasticity_interval;
        // One workspace across every epoch of both phases: batch assembly,
        // activations, noise, targets and gradients all reach a steady
        // state after the first batch and stop churning the allocator.
        let mut ws = Workspace::new();

        // ---- Phase 1: unsupervised hidden-layer training -----------------
        for epoch in 0..self.params.unsupervised_epochs {
            let t0 = Instant::now();
            let order = self.epoch_order(&mut rng, x.rows());
            for chunk in order.chunks(batch) {
                let mut xb = std::mem::take(&mut ws.batch);
                x.select_rows_into(chunk, &mut xb);
                let step = network.hidden_mut().train_batch_with(&xb, &mut ws);
                ws.batch = xb;
                step?;
            }
            // Structural plasticity runs once per `plasticity_interval`
            // epochs (the paper updates the receptive fields every epoch).
            let swaps = if (epoch + 1) % plasticity_interval == 0 {
                Some(
                    network
                        .hidden_mut()
                        .structural_plasticity_step()
                        .total_swaps(),
                )
            } else {
                None
            };
            let stats = EpochStats {
                phase: TrainingPhase::Unsupervised,
                epoch,
                duration: t0.elapsed(),
                plasticity_swaps: swaps,
                sgd_loss: None,
            };
            for obs in observers.iter_mut() {
                obs.on_epoch_end(network, &stats);
            }
            report.epochs.push(stats);
        }

        // ---- Phase 2: supervised readout training -------------------------
        for epoch in 0..self.params.supervised_epochs {
            let t0 = Instant::now();
            let order = self.epoch_order(&mut rng, x.rows());
            let mut sgd_loss_acc = 0.0f32;
            let mut sgd_batches = 0usize;
            for chunk in order.chunks(batch) {
                let mut xb = std::mem::take(&mut ws.batch);
                let mut yb = std::mem::take(&mut ws.labels);
                let mut hidden = std::mem::take(&mut ws.hidden);
                x.select_rows_into(chunk, &mut xb);
                yb.clear();
                yb.extend(chunk.iter().map(|&i| labels[i]));
                let step = (|| -> CoreResult<()> {
                    network.hidden().forward_into(&xb, &mut hidden)?;
                    if let Some(readout) = network.bcpnn_readout_mut() {
                        readout.train_batch_with(&hidden, &yb, &mut ws)?;
                    }
                    if let Some(readout) = network.sgd_readout_mut() {
                        sgd_loss_acc += readout.train_batch_with(&hidden, &yb, &mut ws)?;
                        sgd_batches += 1;
                    }
                    Ok(())
                })();
                ws.batch = xb;
                ws.labels = yb;
                ws.hidden = hidden;
                step?;
            }
            if let Some(readout) = network.sgd_readout_mut() {
                readout.end_epoch();
            }
            let stats = EpochStats {
                phase: TrainingPhase::Supervised,
                epoch,
                duration: t0.elapsed(),
                plasticity_swaps: None,
                sgd_loss: (sgd_batches > 0).then(|| sgd_loss_acc / sgd_batches as f32),
            };
            for obs in observers.iter_mut() {
                obs.on_epoch_end(network, &stats);
            }
            report.epochs.push(stats);
        }

        report.total_duration = start.elapsed();
        Ok(report)
    }

    fn epoch_order(&self, rng: &mut MatrixRng, n: usize) -> Vec<usize> {
        if self.params.shuffle {
            rng.permutation(n)
        } else {
            (0..n).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReadoutKind;
    use bcpnn_backend::BackendKind;

    /// Toy binary dataset: class decided by which half of the binary inputs
    /// is denser.
    fn toy_data(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Vec<usize>) {
        let mut rng = MatrixRng::seed_from(seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let x = Matrix::from_fn(n, d, |r, c| {
            let cls = labels[r];
            let hot = if cls == 0 { c < d / 2 } else { c >= d / 2 };
            let p = if hot { 0.55 } else { 0.1 };
            f32::from(rng.uniform_scalar::<f64>(0.0, 1.0) < p)
        });
        (x, labels)
    }

    fn tiny_network(readout: ReadoutKind, seed: u64) -> Network {
        Network::builder()
            .input(24)
            .hidden(2, 6, 0.5)
            .classes(2)
            .readout(readout)
            .backend(BackendKind::Parallel)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn trainer(unsup: usize, sup: usize) -> Trainer {
        Trainer::new(TrainingParams {
            unsupervised_epochs: unsup,
            supervised_epochs: sup,
            batch_size: 32,
            seed: 7,
            shuffle: true,
        })
    }

    #[test]
    fn fit_produces_one_stat_per_epoch() {
        let (x, y) = toy_data(256, 24, 1);
        let mut net = tiny_network(ReadoutKind::Hybrid, 2);
        let report = trainer(3, 2).fit(&mut net, &x, &y).unwrap();
        assert_eq!(report.epochs.len(), 5);
        assert_eq!(
            report
                .epochs
                .iter()
                .filter(|e| e.phase == TrainingPhase::Unsupervised)
                .count(),
            3
        );
        assert!(report.total_duration.as_secs_f64() > 0.0);
        assert!(report.train_time_seconds() > 0.0);
        assert!(report.final_sgd_loss().is_some());
    }

    #[test]
    fn training_beats_chance_on_a_separable_problem() {
        let (x, y) = toy_data(600, 24, 3);
        let (xt, yt) = toy_data(300, 24, 4);
        let mut net = tiny_network(ReadoutKind::Hybrid, 5);
        trainer(4, 6).fit(&mut net, &x, &y).unwrap();
        let report = net.evaluate(&xt, &yt).unwrap();
        assert!(
            report.accuracy > 0.8,
            "expected well above chance, got {}",
            report.accuracy
        );
        assert!(report.auc > 0.8, "AUC {}", report.auc);
        // The pure-BCPNN head also learns the task.
        let bcpnn_report = net.evaluate_with(ReadoutKind::Bcpnn, &xt, &yt).unwrap();
        assert!(
            bcpnn_report.accuracy > 0.7,
            "BCPNN head {}",
            bcpnn_report.accuracy
        );
    }

    #[test]
    fn observers_are_invoked_every_epoch() {
        struct Counter {
            calls: usize,
            unsup: usize,
        }
        impl TrainingObserver for Counter {
            fn on_epoch_end(&mut self, network: &Network, stats: &EpochStats) {
                self.calls += 1;
                if stats.phase == TrainingPhase::Unsupervised {
                    self.unsup += 1;
                    // The mask snapshot is available in-situ.
                    assert_eq!(network.hidden().receptive_field_snapshot().rows(), 2);
                }
            }
        }
        let (x, y) = toy_data(128, 24, 6);
        let mut net = tiny_network(ReadoutKind::Sgd, 7);
        let mut counter = Counter { calls: 0, unsup: 0 };
        trainer(2, 3)
            .fit_with_observers(&mut net, &x, &y, &mut [&mut counter])
            .unwrap();
        assert_eq!(counter.calls, 5);
        assert_eq!(counter.unsup, 2);
    }

    #[test]
    fn plasticity_runs_on_the_configured_interval() {
        let (x, y) = toy_data(128, 24, 8);
        let mut params = crate::params::HiddenLayerParams {
            n_inputs: 24,
            n_hcu: 2,
            n_mcu: 4,
            receptive_field: 0.4,
            plasticity_interval: 2,
            ..Default::default()
        };
        params.trace_rate = 0.1;
        let mut net = Network::builder()
            .hidden_params(params)
            .classes(2)
            .backend(BackendKind::Naive)
            .seed(9)
            .build()
            .unwrap();
        let report = trainer(4, 0).fit(&mut net, &x, &y).unwrap();
        let with_plasticity: Vec<bool> = report
            .epochs
            .iter()
            .map(|e| e.plasticity_swaps.is_some())
            .collect();
        assert_eq!(with_plasticity, vec![false, true, false, true]);
    }

    #[test]
    fn fit_rejects_inconsistent_inputs() {
        let (x, _) = toy_data(64, 24, 10);
        let mut net = tiny_network(ReadoutKind::Hybrid, 11);
        let t = trainer(1, 1);
        assert!(t.fit(&mut net, &x, &[0, 1]).is_err());
        assert!(t.fit(&mut net, &Matrix::zeros(0, 24), &[]).is_err());
        let bad_labels: Vec<usize> = vec![3; 64];
        assert!(t.fit(&mut net, &x, &bad_labels).is_err());
    }

    #[test]
    fn deterministic_given_the_same_seeds() {
        let (x, y) = toy_data(200, 24, 12);
        let mut a = tiny_network(ReadoutKind::Hybrid, 13);
        let mut b = tiny_network(ReadoutKind::Hybrid, 13);
        trainer(2, 2).fit(&mut a, &x, &y).unwrap();
        trainer(2, 2).fit(&mut b, &x, &y).unwrap();
        let (xt, yt) = toy_data(100, 24, 14);
        let ra = a.evaluate(&xt, &yt).unwrap();
        let rb = b.evaluate(&xt, &yt).unwrap();
        assert_eq!(ra.accuracy, rb.accuracy);
        assert!((ra.auc - rb.auc).abs() < 1e-12);
    }
}
