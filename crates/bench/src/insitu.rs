//! In-situ training observation: the Rust counterpart of StreamBrain's
//! ParaView Catalyst adaptor (§III-B).
//!
//! [`MaskHistory`] implements [`bcpnn_core::TrainingObserver`]: at the end
//! of every unsupervised epoch it snapshots the receptive-field masks in
//! memory, so the Fig. 2 experiment can report how far structural
//! plasticity moved them.

use bcpnn_core::{EpochStats, Network, TrainingObserver, TrainingPhase};
use bcpnn_tensor::Matrix;
use parking_lot::Mutex;

/// In-memory mask recorder: keeps one mask snapshot per unsupervised epoch.
/// Thread-safe so it can be shared with analysis code while training runs.
#[derive(Debug, Default)]
pub struct MaskHistory {
    snapshots: Mutex<Vec<(usize, Matrix<f32>)>>,
}

impl MaskHistory {
    /// Create an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.lock().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded `(epoch, mask)` snapshots, in order.
    pub fn snapshots(&self) -> Vec<(usize, Matrix<f32>)> {
        self.snapshots.lock().clone()
    }

    /// Fraction of mask entries that changed between the first and last
    /// snapshot (a scalar measure of how much structural plasticity moved
    /// the receptive fields, used by the Fig. 2 harness).
    pub fn total_change_fraction(&self) -> f64 {
        let snaps = self.snapshots.lock();
        if snaps.len() < 2 {
            return 0.0;
        }
        let first = &snaps.first().expect("non-empty").1;
        let last = &snaps.last().expect("non-empty").1;
        let changed = first
            .as_slice()
            .iter()
            .zip(last.as_slice())
            .filter(|(a, b)| (*a - *b).abs() > 0.5)
            .count();
        changed as f64 / first.len() as f64
    }
}

impl TrainingObserver for &MaskHistory {
    fn on_epoch_end(&mut self, network: &Network, stats: &EpochStats) {
        if stats.phase == TrainingPhase::Unsupervised {
            self.snapshots
                .lock()
                .push((stats.epoch, network.hidden().receptive_field_snapshot()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcpnn_backend::BackendKind;
    use bcpnn_core::{Network, ReadoutKind, Trainer, TrainingParams};
    use bcpnn_tensor::MatrixRng;

    fn toy_data(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Vec<usize>) {
        let mut rng = MatrixRng::seed_from(seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let x = Matrix::from_fn(n, d, |r, c| {
            let hot = if labels[r] == 0 {
                c < d / 2
            } else {
                c >= d / 2
            };
            f32::from(rng.uniform_scalar::<f64>(0.0, 1.0) < if hot { 0.5 } else { 0.1 })
        });
        (x, labels)
    }

    #[test]
    fn mask_history_records_evolution() {
        let (x, y) = toy_data(200, 24, 4);
        let mut net = Network::builder()
            .input(24)
            .hidden(2, 4, 0.25)
            .classes(2)
            .readout(ReadoutKind::Sgd)
            .backend(BackendKind::Parallel)
            .seed(5)
            .build()
            .unwrap();
        let history = MaskHistory::new();
        {
            let mut handle = &history;
            Trainer::new(TrainingParams {
                unsupervised_epochs: 4,
                supervised_epochs: 1,
                batch_size: 25,
                seed: 6,
                shuffle: true,
            })
            .fit_with_observers(&mut net, &x, &y, &mut [&mut handle])
            .unwrap();
        }
        assert_eq!(history.len(), 4);
        assert!(!history.is_empty());
        let snaps = history.snapshots();
        assert_eq!(snaps[0].1.shape(), (2, 24));
        // The toy problem concentrates information in half the inputs, so
        // plasticity moves at least some connections over four epochs.
        assert!(history.total_change_fraction() > 0.0);
    }

    #[test]
    fn total_change_fraction_compares_first_and_last_snapshot() {
        let history = MaskHistory::new();
        assert_eq!(history.total_change_fraction(), 0.0);
        let first = Matrix::from_vec(2, 4, vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]);
        // A middle snapshot that moved everything does not count.
        let middle = Matrix::from_vec(2, 4, vec![0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0]);
        // Entries 1 and 6 flipped: 2 of 8.
        let last = Matrix::from_vec(2, 4, vec![1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        history.snapshots.lock().push((0, first));
        assert_eq!(history.total_change_fraction(), 0.0);
        history.snapshots.lock().extend([(1, middle), (2, last)]);
        assert_eq!(history.total_change_fraction(), 0.25);
    }
}
