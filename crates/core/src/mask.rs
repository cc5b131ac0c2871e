//! Receptive-field masks: the sparse connectivity structure each hypercolumn
//! learns through structural plasticity.
//!
//! Each HCU owns a binary mask over the input variables. The *density*
//! hyperparameter fixes how many connections may be active (Fig. 4 sweeps
//! it); structural plasticity decides *which* connections those are
//! (Fig. 1/2/5 visualise the result).

use bcpnn_tensor::{Matrix, MatrixRng};

use crate::error::{CoreError, CoreResult};

/// Binary receptive-field masks for all hypercolumns of a layer
/// (`n_hcu x n_inputs`, entries 0.0 or 1.0).
#[derive(Debug, Clone, PartialEq)]
pub struct ReceptiveFieldMask {
    mask: Matrix<f32>,
    active_per_hcu: usize,
}

impl ReceptiveFieldMask {
    /// Create a mask where every HCU is connected to a uniformly random
    /// subset of `active_per_hcu` inputs (each HCU draws its own subset, so
    /// different HCUs start looking at different parts of the input, as in
    /// Fig. 1).
    pub fn random(
        n_hcu: usize,
        n_inputs: usize,
        active_per_hcu: usize,
        rng: &mut MatrixRng,
    ) -> Self {
        assert!(
            n_hcu > 0 && n_inputs > 0,
            "mask dimensions must be positive"
        );
        let active_per_hcu = active_per_hcu.clamp(1, n_inputs);
        let mut mask = Matrix::zeros(n_hcu, n_inputs);
        for h in 0..n_hcu {
            for idx in rng.choose_indices(n_inputs, active_per_hcu) {
                mask.set(h, idx, 1.0);
            }
        }
        Self {
            mask,
            active_per_hcu,
        }
    }

    /// A fully connected mask (receptive field 100 %).
    pub fn full(n_hcu: usize, n_inputs: usize) -> Self {
        Self {
            mask: Matrix::filled(n_hcu, n_inputs, 1.0),
            active_per_hcu: n_inputs,
        }
    }

    /// Build from an explicit 0/1 matrix (used when loading a saved model).
    /// An empty matrix, values other than 0 and 1, an HCU without active
    /// connections and rows with differing numbers of active entries are
    /// typed [`CoreError::Format`] errors.
    pub fn from_matrix(mask: Matrix<f32>) -> CoreResult<Self> {
        let bad = |msg: String| Err(CoreError::Format(format!("receptive-field mask: {msg}")));
        if mask.rows() == 0 || mask.cols() == 0 {
            return bad("must be non-empty".into());
        }
        let mut first = None;
        for h in 0..mask.rows() {
            let row = mask.row(h);
            if let Some(v) = row.iter().find(|&&v| v != 0.0 && v != 1.0) {
                return bad(format!("entries must be 0 or 1, got {v}"));
            }
            let c = row.iter().filter(|&&v| v == 1.0).count();
            if c == 0 {
                return bad(format!("HCU {h} has no active connections"));
            }
            if *first.get_or_insert(c) != c {
                return bad("all HCUs must have the same number of active connections".into());
            }
        }
        Ok(Self {
            active_per_hcu: first.unwrap_or(0),
            mask,
        })
    }

    /// Number of hypercolumns.
    pub fn n_hcu(&self) -> usize {
        self.mask.rows()
    }

    /// Number of input variables.
    pub fn n_inputs(&self) -> usize {
        self.mask.cols()
    }

    /// Number of active connections per HCU.
    pub fn active_per_hcu(&self) -> usize {
        self.active_per_hcu
    }

    /// Effective density (active connections / inputs).
    pub fn density(&self) -> f64 {
        self.active_per_hcu as f64 / self.n_inputs() as f64
    }

    /// The raw 0/1 matrix (`n_hcu x n_inputs`), as consumed by
    /// [`bcpnn_backend::Backend::apply_mask`].
    pub fn as_matrix(&self) -> &Matrix<f32> {
        &self.mask
    }

    /// Whether input `i` is connected to HCU `h`.
    pub fn is_active(&self, h: usize, i: usize) -> bool {
        self.mask.get(h, i) == 1.0
    }

    /// Indices of the active connections of HCU `h` (ascending).
    pub fn active_indices(&self, h: usize) -> Vec<usize> {
        self.mask
            .row(h)
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == 1.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the silent connections of HCU `h` (ascending).
    pub fn silent_indices(&self, h: usize) -> Vec<usize> {
        self.mask
            .row(h)
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == 0.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Swap one connection of HCU `h`: silence `deactivate` and activate
    /// `activate`. The per-HCU active count is preserved.
    ///
    /// # Panics
    /// Panics if `deactivate` is not currently active or `activate` is not
    /// currently silent.
    pub fn swap(&mut self, h: usize, deactivate: usize, activate: usize) {
        assert!(
            self.is_active(h, deactivate),
            "connection {deactivate} of HCU {h} is not active"
        );
        assert!(
            !self.is_active(h, activate),
            "connection {activate} of HCU {h} is already active"
        );
        self.mask.set(h, deactivate, 0.0);
        self.mask.set(h, activate, 1.0);
    }

    /// Fraction of inputs covered by at least one HCU (how much of the data
    /// stream the network can see at all). Used in the Fig. 3 analysis of
    /// why extra HCUs help little once coverage saturates.
    pub fn input_coverage(&self) -> f64 {
        let n = self.n_inputs();
        let mut covered = 0usize;
        for i in 0..n {
            if (0..self.n_hcu()).any(|h| self.is_active(h, i)) {
                covered += 1;
            }
        }
        covered as f64 / n as f64
    }

    /// Overlap between two HCUs' receptive fields (Jaccard index).
    pub fn overlap(&self, h1: usize, h2: usize) -> f64 {
        let a = self.active_indices(h1);
        let b = self.active_indices(h2);
        let bset: std::collections::HashSet<usize> = b.iter().copied().collect();
        let inter = a.iter().filter(|i| bset.contains(i)).count();
        let union = a.len() + b.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_mask_has_exact_density() {
        let mut rng = MatrixRng::seed_from(1);
        let m = ReceptiveFieldMask::random(4, 100, 30, &mut rng);
        assert_eq!(m.n_hcu(), 4);
        assert_eq!(m.n_inputs(), 100);
        assert_eq!(m.active_per_hcu(), 30);
        assert!((m.density() - 0.3).abs() < 1e-12);
        for h in 0..4 {
            assert_eq!(m.active_indices(h).len(), 30);
            assert_eq!(m.silent_indices(h).len(), 70);
        }
    }

    #[test]
    fn different_hcus_get_different_fields() {
        let mut rng = MatrixRng::seed_from(2);
        let m = ReceptiveFieldMask::random(2, 200, 50, &mut rng);
        assert!(m.overlap(0, 1) < 0.9, "random fields should not coincide");
        assert_eq!(m.overlap(0, 0), 1.0);
    }

    #[test]
    fn oversized_request_is_clamped() {
        let mut rng = MatrixRng::seed_from(3);
        let m = ReceptiveFieldMask::random(1, 10, 500, &mut rng);
        assert_eq!(m.active_per_hcu(), 10);
        assert_eq!(m.density(), 1.0);
    }

    #[test]
    fn full_mask_covers_everything() {
        let m = ReceptiveFieldMask::full(3, 17);
        assert_eq!(m.density(), 1.0);
        assert_eq!(m.input_coverage(), 1.0);
        assert!(m.is_active(2, 16));
    }

    #[test]
    fn swap_preserves_active_count() {
        let mut rng = MatrixRng::seed_from(4);
        let mut m = ReceptiveFieldMask::random(1, 20, 5, &mut rng);
        let act = m.active_indices(0);
        let sil = m.silent_indices(0);
        m.swap(0, act[0], sil[0]);
        assert_eq!(m.active_indices(0).len(), 5);
        assert!(!m.is_active(0, act[0]));
        assert!(m.is_active(0, sil[0]));
    }

    #[test]
    #[should_panic(expected = "is not active")]
    fn swap_rejects_silencing_a_silent_connection() {
        let mut rng = MatrixRng::seed_from(5);
        let mut m = ReceptiveFieldMask::random(1, 10, 3, &mut rng);
        let sil = m.silent_indices(0);
        m.swap(0, sil[0], sil[1]);
    }

    #[test]
    fn coverage_grows_with_hcus() {
        let mut rng = MatrixRng::seed_from(6);
        let one = ReceptiveFieldMask::random(1, 100, 30, &mut rng);
        let four = ReceptiveFieldMask::random(4, 100, 30, &mut rng);
        assert!(four.input_coverage() > one.input_coverage());
    }

    #[test]
    fn from_matrix_roundtrip() {
        let mut rng = MatrixRng::seed_from(7);
        let m = ReceptiveFieldMask::random(3, 40, 10, &mut rng);
        let rebuilt = ReceptiveFieldMask::from_matrix(m.as_matrix().clone()).unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    #[should_panic(expected = "must be 0 or 1")]
    fn from_matrix_rejects_non_binary() {
        let uneven = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 0.0]);
        assert!(ReceptiveFieldMask::from_matrix(uneven).is_err());
        assert!(ReceptiveFieldMask::from_matrix(Matrix::zeros(1, 3)).is_err());
        // The error is typed; unwrapping it shows the message.
        ReceptiveFieldMask::from_matrix(Matrix::filled(1, 4, 0.5f32)).unwrap();
    }
}
