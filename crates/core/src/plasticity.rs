//! Structural plasticity: learning *where to look*.
//!
//! Once per epoch (§III-B of the paper) every hypercolumn re-evaluates its
//! receptive field: active connections that carry little information about
//! the HCU's minicolumn variable are silenced, and silent connections that
//! would carry more information are activated. The information carried by a
//! connection is the mutual information between the binary input variable
//! and the HCU's categorical (minicolumn) variable, estimated directly from
//! the probability traces — silent connections keep updating their traces,
//! which is why the training cost is independent of the receptive-field
//! size (Fig. 4's flat timing curve).

use bcpnn_backend::Backend;
use bcpnn_tensor::Matrix;

use crate::mask::ReceptiveFieldMask;
use crate::traces::ProbabilityTraces;

/// Configuration of the structural-plasticity update.
#[derive(Debug, Clone, PartialEq)]
pub struct PlasticityConfig {
    /// Maximum number of (silence, activate) swaps per HCU per update.
    pub max_swaps: usize,
    /// A swap only happens when the candidate silent connection scores at
    /// least this much more information (in nats) than the active
    /// connection it replaces. Hysteresis against oscillation.
    pub min_improvement: f32,
}

impl Default for PlasticityConfig {
    fn default() -> Self {
        Self {
            max_swaps: 8,
            min_improvement: 1e-4,
        }
    }
}

/// Summary of one structural-plasticity update.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlasticityReport {
    /// Number of connection swaps performed per HCU.
    pub swaps_per_hcu: Vec<usize>,
    /// Mean information score of the active connections after the update,
    /// per HCU (diagnostic, rendered by the in-situ observer).
    pub mean_active_score: Vec<f32>,
}

impl PlasticityReport {
    /// Total number of swaps across all HCUs.
    pub fn total_swaps(&self) -> usize {
        self.swaps_per_hcu.iter().sum()
    }
}

/// The structural-plasticity operator.
#[derive(Debug, Clone, Default)]
pub struct StructuralPlasticity {
    config: PlasticityConfig,
}

impl StructuralPlasticity {
    /// Create the operator with the given configuration.
    pub fn new(config: PlasticityConfig) -> Self {
        Self { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &PlasticityConfig {
        &self.config
    }

    /// Compute the information score of every (HCU, input) pair from the
    /// traces. Returned matrix is `n_hcu x n_inputs`.
    pub fn scores(
        &self,
        backend: &dyn Backend,
        traces: &ProbabilityTraces,
        n_mcu: usize,
        n_hcu: usize,
    ) -> Matrix<f32> {
        let mut scores = Matrix::zeros(n_hcu, traces.n_inputs());
        backend.mutual_information(&traces.pi, &traces.pj, &traces.pij, n_mcu, &mut scores);
        scores
    }

    /// Apply one plasticity update: for every HCU, swap up to
    /// `max_swaps` of its lowest-scoring active connections for its
    /// highest-scoring silent connections (only when the improvement exceeds
    /// `min_improvement`). Returns a report of what changed.
    pub fn update(&self, mask: &mut ReceptiveFieldMask, scores: &Matrix<f32>) -> PlasticityReport {
        assert_eq!(
            (mask.n_hcu(), mask.n_inputs()),
            scores.shape(),
            "score matrix must be n_hcu x n_inputs"
        );
        let mut report = PlasticityReport::default();
        for h in 0..mask.n_hcu() {
            let score_row = scores.row(h);
            // Active connections sorted by ascending score (worst first).
            let mut active: Vec<usize> = mask.active_indices(h);
            active.sort_by(|&a, &b| {
                score_row[a]
                    .partial_cmp(&score_row[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // Silent connections sorted by descending score (best first).
            let mut silent: Vec<usize> = mask.silent_indices(h);
            silent.sort_by(|&a, &b| {
                score_row[b]
                    .partial_cmp(&score_row[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut swaps = 0usize;
            for k in 0..self.config.max_swaps.min(active.len()).min(silent.len()) {
                let worst_active = active[k];
                let best_silent = silent[k];
                if score_row[best_silent] > score_row[worst_active] + self.config.min_improvement {
                    mask.swap(h, worst_active, best_silent);
                    swaps += 1;
                } else {
                    break;
                }
            }
            report.swaps_per_hcu.push(swaps);
            let act = mask.active_indices(h);
            let mean = if act.is_empty() {
                0.0
            } else {
                act.iter().map(|&i| score_row[i]).sum::<f32>() / act.len() as f32
            };
            report.mean_active_score.push(mean);
        }
        report
    }

    /// Convenience wrapper: compute scores from the traces and apply the
    /// update in one call.
    pub fn update_from_traces(
        &self,
        backend: &dyn Backend,
        traces: &ProbabilityTraces,
        n_mcu: usize,
        mask: &mut ReceptiveFieldMask,
    ) -> PlasticityReport {
        let scores = self.scores(backend, traces, n_mcu, mask.n_hcu());
        self.update(mask, &scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcpnn_tensor::MatrixRng;

    fn uniform_mask(n_hcu: usize, n_inputs: usize, active: usize, seed: u64) -> ReceptiveFieldMask {
        let mut rng = MatrixRng::seed_from(seed);
        ReceptiveFieldMask::random(n_hcu, n_inputs, active, &mut rng)
    }

    #[test]
    fn update_moves_towards_high_scoring_inputs() {
        // Scores: inputs 0..5 carry information, the rest none.
        let n_inputs = 20;
        let scores = Matrix::from_fn(1, n_inputs, |_, i| if i < 5 { 1.0 } else { 0.0 });
        let mut mask = uniform_mask(1, n_inputs, 5, 1);
        let plast = StructuralPlasticity::new(PlasticityConfig {
            max_swaps: 5,
            min_improvement: 1e-6,
        });
        // Run a few rounds; the mask must converge onto inputs 0..5.
        for _ in 0..5 {
            plast.update(&mut mask, &scores);
        }
        let active = mask.active_indices(0);
        assert_eq!(
            active,
            vec![0, 1, 2, 3, 4],
            "mask should cover the informative inputs"
        );
    }

    #[test]
    fn update_preserves_connection_budget() {
        let n_inputs = 50;
        let mut rng = MatrixRng::seed_from(2);
        let scores: Matrix<f32> = rng.uniform(3, n_inputs, 0.0, 1.0);
        let mut mask = uniform_mask(3, n_inputs, 15, 3);
        let plast = StructuralPlasticity::default();
        let report = plast.update(&mut mask, &scores);
        assert_eq!(report.swaps_per_hcu.len(), 3);
        for h in 0..3 {
            assert_eq!(mask.active_indices(h).len(), 15);
        }
    }

    #[test]
    fn no_swaps_when_already_optimal() {
        let n_inputs = 10;
        let scores = Matrix::from_fn(1, n_inputs, |_, i| if i < 3 { 1.0 } else { 0.0 });
        // Mask already sits on the three informative inputs.
        let mut m = Matrix::zeros(1, n_inputs);
        for i in 0..3 {
            m.set(0, i, 1.0);
        }
        let mut mask = ReceptiveFieldMask::from_matrix(m).unwrap();
        let plast = StructuralPlasticity::default();
        let report = plast.update(&mut mask, &scores);
        assert_eq!(report.total_swaps(), 0);
        assert_eq!(mask.active_indices(0), vec![0, 1, 2]);
    }

    #[test]
    fn min_improvement_acts_as_hysteresis() {
        let n_inputs = 6;
        // Tiny score differences everywhere.
        let scores = Matrix::from_fn(1, n_inputs, |_, i| i as f32 * 1e-6);
        let mut mask = uniform_mask(1, n_inputs, 3, 4);
        let before = mask.clone();
        let plast = StructuralPlasticity::new(PlasticityConfig {
            max_swaps: 3,
            min_improvement: 0.1,
        });
        plast.update(&mut mask, &scores);
        assert_eq!(mask, before, "improvements below the threshold are ignored");
    }

    #[test]
    fn max_swaps_bounds_the_update() {
        let n_inputs = 40;
        // All active connections are worthless, all silent ones are great.
        let mut m = Matrix::zeros(1, n_inputs);
        for i in 0..10 {
            m.set(0, i, 1.0);
        }
        let mut mask = ReceptiveFieldMask::from_matrix(m).unwrap();
        let scores = Matrix::from_fn(1, n_inputs, |_, i| if i < 10 { 0.0 } else { 1.0 });
        let plast = StructuralPlasticity::new(PlasticityConfig {
            max_swaps: 4,
            min_improvement: 1e-6,
        });
        let report = plast.update(&mut mask, &scores);
        assert_eq!(report.total_swaps(), 4);
        assert_eq!(mask.active_indices(0).len(), 10);
    }

    #[test]
    fn report_mean_scores_increase_after_update() {
        let n_inputs = 30;
        let scores = Matrix::from_fn(1, n_inputs, |_, i| i as f32 / n_inputs as f32);
        let mut mask = uniform_mask(1, n_inputs, 10, 5);
        let plast = StructuralPlasticity::new(PlasticityConfig {
            max_swaps: 10,
            min_improvement: 1e-9,
        });
        let before_mean: f32 = {
            let act = mask.active_indices(0);
            act.iter().map(|&i| scores.get(0, i)).sum::<f32>() / act.len() as f32
        };
        let report = plast.update(&mut mask, &scores);
        assert!(report.mean_active_score[0] >= before_mean);
    }

    #[test]
    fn scores_from_traces_use_the_backend() {
        let backend = bcpnn_backend::BackendKind::Naive.create();
        let traces = ProbabilityTraces::new(6, 4, 2, 0.3);
        let plast = StructuralPlasticity::default();
        let s = plast.scores(backend.as_ref(), &traces, 2, 2);
        assert_eq!(s.shape(), (2, 6));
        // Independent initial traces carry ~zero information.
        assert!(s.as_slice().iter().all(|v| v.abs() < 1e-3));
    }
}
