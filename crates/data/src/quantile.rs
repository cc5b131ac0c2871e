//! Per-feature quantile binning.
//!
//! The paper's preprocessing (§V): "we compute the 10-quantiles and split
//! the distribution into ten groups with approximately even sizes". This
//! module fits those per-feature decile boundaries on the training set and
//! maps every value to its bin index; `crate::encode` then one-hot encodes
//! the bin indices into the 280-dimensional binary input the BCPNN layer
//! consumes.

use bcpnn_tensor::stats::{bin_index, quantile_boundaries};
use bcpnn_tensor::{IoError, Matrix};

use crate::dataset::Dataset;

/// A fitted per-feature quantile binner.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileBinner {
    /// Interior bin boundaries per feature (`n_features` vectors of
    /// `n_bins - 1` ascending values).
    boundaries: Vec<Vec<f64>>,
    n_bins: usize,
}

impl QuantileBinner {
    /// Fit `n_bins`-quantile boundaries on every feature of the dataset
    /// (the paper uses `n_bins = 10`).
    ///
    /// # Panics
    /// Panics if the dataset is empty or `n_bins < 2`.
    pub fn fit(dataset: &Dataset, n_bins: usize) -> Self {
        Self::fit_matrix(&dataset.features, n_bins)
    }

    /// Fit `n_bins`-quantile boundaries on every column of a bare feature
    /// matrix (no labels or names needed) — the entry point
    /// [`crate::encode::QuantileEncoder::fit_matrix`] uses.
    ///
    /// # Panics
    /// Panics if the matrix has no rows or `n_bins < 2`.
    pub fn fit_matrix(features: &Matrix<f32>, n_bins: usize) -> Self {
        assert!(n_bins >= 2, "need at least two bins");
        assert!(features.rows() > 0, "cannot fit on an empty matrix");
        let boundaries = (0..features.cols())
            .map(|c| {
                let column: Vec<f64> = (0..features.rows())
                    .map(|r| features.get(r, c) as f64)
                    .collect();
                quantile_boundaries(&column, n_bins)
            })
            .collect();
        Self { boundaries, n_bins }
    }

    /// The fitted boundaries as one `n_features x (n_bins - 1)` matrix:
    /// the binner's persisted form.
    pub fn boundaries(&self) -> Matrix<f64> {
        Matrix::from_fn(self.n_features(), self.n_bins - 1, |f, b| {
            self.boundaries[f][b]
        })
    }

    /// Rebuild a binner from [`QuantileBinner::boundaries`]. Fewer than two
    /// bins and non-finite or descending boundaries are typed
    /// [`IoError::Format`] errors, never a panic in [`bin_index`].
    pub fn from_boundaries(m: &Matrix<f64>) -> Result<Self, IoError> {
        if m.cols() == 0 {
            return Err(IoError::Format("a binner needs at least two bins".into()));
        }
        let boundaries: Vec<Vec<f64>> = (0..m.rows()).map(|f| m.row(f).to_vec()).collect();
        for (f, b) in boundaries.iter().enumerate() {
            if b.iter().any(|v| !v.is_finite()) || b.windows(2).any(|w| w[0] > w[1]) {
                return Err(IoError::Format(format!(
                    "feature {f}: boundaries must be finite and ascending"
                )));
            }
        }
        Ok(Self {
            boundaries,
            n_bins: m.cols() + 1,
        })
    }

    /// Number of bins per feature.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Number of features the binner was fitted on.
    pub fn n_features(&self) -> usize {
        self.boundaries.len()
    }

    /// Bin index of a single value of a single feature.
    pub fn bin_of(&self, feature: usize, value: f64) -> usize {
        bin_index(&self.boundaries[feature], value)
    }

    /// Map every value of the dataset to its bin index. The result is an
    /// `n_samples x n_features` matrix of integers stored as `f32`.
    ///
    /// # Panics
    /// Panics if the feature count differs from the fitted one.
    pub fn transform(&self, dataset: &Dataset) -> Matrix<f32> {
        assert_eq!(
            dataset.n_features(),
            self.n_features(),
            "binner was fitted on {} features, dataset has {}",
            self.n_features(),
            dataset.n_features()
        );
        Matrix::from_fn(dataset.n_samples(), dataset.n_features(), |r, c| {
            self.bin_of(c, dataset.features.get(r, c) as f64) as f32
        })
    }

    /// Histogram of bin occupancy for one feature of a dataset (diagnostic:
    /// on the fitting set every bin should hold ≈ `n / n_bins` samples).
    pub fn bin_occupancy(&self, dataset: &Dataset, feature: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_bins];
        for r in 0..dataset.n_samples() {
            counts[self.bin_of(feature, dataset.features.get(r, feature) as f64)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::higgs::{generate, SyntheticHiggsConfig};
    use bcpnn_tensor::MatrixRng;

    fn higgs(n: usize, seed: u64) -> Dataset {
        generate(&SyntheticHiggsConfig {
            n_samples: n,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn decile_bins_are_roughly_balanced_on_the_fit_set() {
        let d = higgs(5000, 1);
        let binner = QuantileBinner::fit(&d, 10);
        assert_eq!(binner.n_bins(), 10);
        assert_eq!(binner.n_features(), 28);
        // Continuous features should land ~500 samples per decile.
        for &feature in &[0usize, 3, 5, 21, 25] {
            let occ = binner.bin_occupancy(&d, feature);
            assert_eq!(occ.iter().sum::<usize>(), 5000);
            for (b, &c) in occ.iter().enumerate() {
                assert!(
                    (c as f64 - 500.0).abs() < 150.0,
                    "feature {feature} bin {b} holds {c} samples"
                );
            }
        }
    }

    #[test]
    fn fit_matrix_matches_dataset_fit() {
        let d = higgs(800, 9);
        assert_eq!(
            QuantileBinner::fit(&d, 10),
            QuantileBinner::fit_matrix(&d.features, 10)
        );
    }

    #[test]
    fn transform_produces_valid_bin_indices() {
        let d = higgs(1000, 2);
        let binner = QuantileBinner::fit(&d, 10);
        let bins = binner.transform(&d);
        assert_eq!(bins.shape(), (1000, 28));
        for v in bins.as_slice() {
            assert!(*v >= 0.0 && *v < 10.0);
            assert_eq!(v.fract(), 0.0, "bin indices must be integral");
        }
    }

    #[test]
    fn transform_generalises_to_new_data() {
        let train = higgs(2000, 3);
        let test = higgs(500, 4);
        let binner = QuantileBinner::fit(&train, 10);
        let bins = binner.transform(&test);
        assert_eq!(bins.shape(), (500, 28));
        assert!(bins.as_slice().iter().all(|&v| v < 10.0));
    }

    #[test]
    fn monotone_transformation_of_values_preserves_bins() {
        // Quantile binning is invariant to monotone rescaling of a feature.
        let mut rng = MatrixRng::seed_from(5);
        let raw: Matrix<f32> = rng.uniform(500, 1, 0.0, 1.0);
        let scaled = raw.map(|v| v * 100.0 + 7.0);
        let d_raw = Dataset::new(raw, vec![0; 500], None);
        let d_scaled = Dataset::new(scaled, vec![0; 500], None);
        let b_raw = QuantileBinner::fit(&d_raw, 10).transform(&d_raw);
        let b_scaled = QuantileBinner::fit(&d_scaled, 10).transform(&d_scaled);
        assert_eq!(b_raw, b_scaled);
    }

    #[test]
    fn degenerate_constant_feature_goes_to_one_bin() {
        let features = Matrix::filled(100, 1, 3.5f32);
        let d = Dataset::new(features, vec![0; 100], None);
        let binner = QuantileBinner::fit(&d, 10);
        let bins = binner.transform(&d);
        let first = bins.get(0, 0);
        assert!(bins.as_slice().iter().all(|&v| v == first));
    }

    #[test]
    #[should_panic(expected = "fitted on")]
    fn transform_rejects_schema_mismatch() {
        let d = higgs(100, 6);
        let binner = QuantileBinner::fit(&d, 10);
        let other = Dataset::new(Matrix::zeros(5, 3), vec![0; 5], None);
        let _ = binner.transform(&other);
    }
}
