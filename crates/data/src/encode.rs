//! Binary input encodings for the BCPNN layer.
//!
//! The paper encodes every feature "as a one-hot vector of size ten, with
//! the component being hot indicating which quantile the feature belongs
//! to", giving 28 × 10 = 280 binary inputs. [`QuantileEncoder`] implements
//! exactly that. [`Standardizer`] serves the baselines that read the raw
//! continuous features instead.

use bcpnn_tensor::{IoError, Matrix};

use crate::dataset::Dataset;
use crate::quantile::QuantileBinner;

/// One-hot quantile encoder (the paper's preprocessing).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileEncoder {
    binner: QuantileBinner,
}

impl QuantileEncoder {
    /// Fit the per-feature quantile boundaries on a training set.
    pub fn fit(dataset: &Dataset, n_bins: usize) -> Self {
        Self {
            binner: QuantileBinner::fit(dataset, n_bins),
        }
    }

    /// Fit on a bare feature matrix (no labels or names needed) — the
    /// entry point `bcpnn_core::Pipeline::fit` uses.
    ///
    /// # Panics
    /// Panics if the matrix has no rows or `n_bins < 2`.
    pub fn fit_matrix(features: &Matrix<f32>, n_bins: usize) -> Self {
        Self {
            binner: QuantileBinner::fit_matrix(features, n_bins),
        }
    }

    /// Number of bins per feature.
    pub fn n_bins(&self) -> usize {
        self.binner.n_bins()
    }

    /// Width of the encoded representation (`n_features · n_bins`).
    pub fn encoded_width(&self) -> usize {
        self.binner.n_features() * self.binner.n_bins()
    }

    /// The underlying binner.
    pub fn binner(&self) -> &QuantileBinner {
        &self.binner
    }

    /// Encode a dataset into the binary one-hot representation
    /// (`n_samples x encoded_width`, exactly one hot bit per feature block).
    pub fn transform(&self, dataset: &Dataset) -> Matrix<f32> {
        self.transform_rows(&dataset.features)
    }

    /// Encode a bare feature matrix (`n_rows x n_features`, no labels or
    /// names needed). This is the serving entry point: inference requests
    /// arrive as raw feature vectors, not full datasets.
    ///
    /// # Panics
    /// Panics if the feature count differs from the fitted one.
    pub fn transform_rows(&self, features: &Matrix<f32>) -> Matrix<f32> {
        let mut out = Matrix::zeros(0, 0);
        self.transform_rows_into(features, &mut out);
        out
    }

    /// Encode a bare feature matrix into a caller-provided buffer (reset to
    /// `n_rows x encoded_width`): the buffer-reusing twin of
    /// [`QuantileEncoder::transform_rows`], used by the zero-allocation
    /// serving data plane.
    ///
    /// # Panics
    /// Panics if the feature count differs from the fitted one.
    pub fn transform_rows_into(&self, features: &Matrix<f32>, out: &mut Matrix<f32>) {
        out.reset(features.rows(), self.encoded_width());
        for r in 0..features.rows() {
            self.encode_into(features.row(r), out.row_mut(r));
        }
    }

    /// Encode a bare feature matrix as the hot columns of its one-hot code:
    /// `out` is resized to `n_rows · n_features` and row `r`'s columns land
    /// in `out[r * n_features..(r + 1) * n_features]`, ascending. This is
    /// the serving encoding: a row of the paper's code is 28 ones among 280
    /// columns, so the hidden layer reads at most 28 weight rows instead of
    /// scanning 252 zeros.
    ///
    /// # Panics
    /// Panics if the feature count differs from the fitted one.
    pub fn transform_rows_hot_into(&self, features: &Matrix<f32>, out: &mut Vec<u32>) {
        let k = self.n_features();
        out.resize(features.rows() * k, 0);
        for (r, cols) in out.chunks_exact_mut(k.max(1)).enumerate() {
            for (c, hot) in cols.iter_mut().zip(self.hot_columns(features.row(r))) {
                *c = hot as u32;
            }
        }
    }

    /// Encode one raw feature vector into its binary one-hot code.
    ///
    /// # Panics
    /// Panics if the feature count differs from the fitted one.
    pub fn encode_row(&self, features: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.encoded_width()];
        self.encode_into(features, &mut out);
        out
    }

    /// The dense one-hot code: 1.0 at every hot column of `features`.
    fn encode_into(&self, features: &[f32], out: &mut [f32]) {
        for c in self.hot_columns(features) {
            out[c] = 1.0;
        }
    }

    /// The single authoritative one-hot layout: column `f * n_bins +
    /// bin(f, v)` is hot for every feature value, one per feature, so the
    /// columns come out ascending.
    fn hot_columns<'a>(&'a self, features: &'a [f32]) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(
            features.len(),
            self.binner.n_features(),
            "encoder was fitted on {} features, row has {}",
            self.binner.n_features(),
            features.len()
        );
        let k = self.n_bins();
        features
            .iter()
            .enumerate()
            .map(move |(f, &v)| f * k + self.binner.bin_of(f, v as f64))
    }

    /// Number of raw features the encoder was fitted on.
    pub fn n_features(&self) -> usize {
        self.binner.n_features()
    }

    /// The fitted state: one `n_features x (n_bins - 1)` matrix of
    /// ascending interior boundaries, the encoder's persisted form.
    pub fn boundaries(&self) -> Matrix<f64> {
        self.binner.boundaries()
    }

    /// Rebuild an encoder from [`QuantileEncoder::boundaries`]. Fewer than
    /// two bins and non-finite or descending boundaries are typed
    /// [`IoError::Format`] errors, never a panic in the binner.
    pub fn from_boundaries(boundaries: &Matrix<f64>) -> Result<Self, IoError> {
        Ok(Self {
            binner: QuantileBinner::from_boundaries(boundaries)?,
        })
    }

    /// Human-readable name of one encoded input column
    /// (`<feature>@q<bin>`), used when rendering receptive fields.
    pub fn column_name(&self, dataset: &Dataset, column: usize) -> String {
        let k = self.n_bins();
        let feature = column / k;
        let bin = column % k;
        format!("{}@q{}", dataset.feature_names[feature], bin)
    }
}

/// Standardise features to zero mean / unit variance (fit on the training
/// set). Used by the MLP / logistic-regression baselines that consume raw
/// continuous features rather than the binary code.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl Standardizer {
    /// Fit per-feature means and standard deviations.
    pub fn fit(dataset: &Dataset) -> Self {
        let means = bcpnn_tensor::reduce::col_means(&dataset.features);
        let vars = bcpnn_tensor::reduce::col_variances(&dataset.features);
        let stds = vars.iter().map(|v| v.sqrt().max(1e-6)).collect();
        Self { means, stds }
    }

    /// Number of features the standardizer was fitted on.
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Standardise a dataset's features.
    ///
    /// # Panics
    /// Panics if the feature count differs from the fitted one.
    pub fn transform(&self, dataset: &Dataset) -> Matrix<f32> {
        let x = &dataset.features;
        assert_eq!(
            x.cols(),
            self.n_features(),
            "standardizer was fitted on a different schema"
        );
        Matrix::from_fn(x.rows(), x.cols(), |r, c| {
            (x.get(r, c) - self.means[c]) / self.stds[c]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::higgs::{generate, SyntheticHiggsConfig};

    fn higgs(n: usize, seed: u64) -> Dataset {
        generate(&SyntheticHiggsConfig {
            n_samples: n,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn one_hot_encoding_has_the_paper_width_and_density() {
        let d = higgs(500, 1);
        let enc = QuantileEncoder::fit(&d, 10);
        assert_eq!(enc.encoded_width(), 280);
        let x = enc.transform(&d);
        assert_eq!(x.shape(), (500, 280));
        // Exactly one hot bit per 10-wide feature block.
        for r in 0..x.rows() {
            let row = x.row(r);
            for f in 0..28 {
                let s: f32 = row[f * 10..(f + 1) * 10].iter().sum();
                assert_eq!(s, 1.0, "row {r} feature {f} has {s} hot bits");
            }
        }
        // Overall density is exactly 1/10.
        let total: f32 = bcpnn_tensor::reduce::sum(&x);
        assert_eq!(total, 500.0 * 28.0);
    }

    #[test]
    fn encoding_only_contains_zeros_and_ones() {
        let d = higgs(200, 2);
        let enc = QuantileEncoder::fit(&d, 8);
        let x = enc.transform(&d);
        assert!(x.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn column_names_are_traceable_to_features() {
        let d = higgs(100, 3);
        let enc = QuantileEncoder::fit(&d, 10);
        assert_eq!(enc.column_name(&d, 0), "lepton_pt@q0");
        assert_eq!(enc.column_name(&d, 19), "lepton_eta@q9");
        assert_eq!(enc.column_name(&d, 279), "m_wwbb@q9");
    }

    #[test]
    fn transform_rows_matches_dataset_transform() {
        let d = higgs(300, 6);
        let enc = QuantileEncoder::fit(&d, 10);
        let via_dataset = enc.transform(&d);
        let via_rows = enc.transform_rows(&d.features);
        assert_eq!(via_dataset, via_rows);
        // Single-row encoding agrees too.
        for r in 0..5 {
            assert_eq!(enc.encode_row(d.features.row(r)), via_dataset.row(r));
        }
    }

    #[test]
    fn hot_columns_are_the_ones_of_the_dense_code() {
        let d = higgs(120, 16);
        let enc = QuantileEncoder::fit(&d, 10);
        let dense = enc.transform_rows(&d.features);
        let mut hot = vec![u32::MAX; 3]; // stale, wrong length
        enc.transform_rows_hot_into(&d.features, &mut hot);
        assert_eq!(hot.len(), 120 * 28);
        for r in 0..d.n_samples() {
            let ones: Vec<u32> = (0..enc.encoded_width() as u32)
                .filter(|&c| dense.get(r, c as usize) == 1.0)
                .collect();
            assert_eq!(&hot[r * 28..(r + 1) * 28], ones.as_slice(), "row {r}");
        }
        enc.transform_rows_hot_into(&Matrix::zeros(0, 28), &mut hot);
        assert!(hot.is_empty());
    }

    #[test]
    fn transform_rows_into_matches_allocating_twins_on_stale_buffers() {
        let d = higgs(150, 15);
        let mut out = Matrix::filled(3, 2, f32::NAN);
        let one_hot = QuantileEncoder::fit(&d, 10);
        one_hot.transform_rows_into(&d.features, &mut out);
        assert_eq!(out, one_hot.transform_rows(&d.features));
        // A larger stale buffer is overwritten, not accumulated into.
        let small = higgs(20, 16);
        one_hot.transform_rows_into(&small.features, &mut out);
        assert_eq!(out, one_hot.transform_rows(&small.features));
    }

    #[test]
    fn encoder_roundtrips_through_its_boundaries() {
        let d = higgs(400, 7);
        let enc = QuantileEncoder::fit(&d, 10);
        let boundaries = enc.boundaries();
        assert_eq!(boundaries.shape(), (28, 9));
        let back = QuantileEncoder::from_boundaries(&boundaries).unwrap();
        assert_eq!(enc, back);
        // The rebuilt encoder produces identical codes on fresh data.
        let fresh = higgs(50, 8);
        assert_eq!(enc.transform(&fresh), back.transform(&fresh));
    }

    #[test]
    fn corrupt_encoder_files_are_rejected() {
        let rejects = |rows: usize, cols: usize, values: Vec<f64>| {
            let m = Matrix::from_vec(rows, cols, values);
            assert!(matches!(
                QuantileEncoder::from_boundaries(&m),
                Err(IoError::Format(_))
            ));
        };
        // One bin: no boundaries at all.
        rejects(2, 0, vec![]);
        // Non-ascending boundaries.
        rejects(1, 2, vec![2.0, 1.0]);
        // NaN boundaries defeat ordering comparisons; they must be a typed
        // error, not a downstream panic.
        rejects(1, 2, vec![f64::NAN, 1.0]);
        rejects(1, 2, vec![0.0, f64::INFINITY]);
    }

    #[test]
    fn matrix_fitting_matches_dataset_fitting() {
        let d = higgs(600, 10);
        assert_eq!(
            QuantileEncoder::fit(&d, 10),
            QuantileEncoder::fit_matrix(&d.features, 10)
        );
    }

    #[test]
    fn standardizer_centres_and_scales() {
        let d = higgs(2000, 5);
        let std = Standardizer::fit(&d);
        let z = std.transform(&d);
        let means = bcpnn_tensor::reduce::col_means(&z);
        let vars = bcpnn_tensor::reduce::col_variances(&z);
        for (c, (&m, &v)) in means.iter().zip(vars.iter()).enumerate() {
            assert!(m.abs() < 1e-3, "feature {c} mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "feature {c} variance {v}");
        }
    }
}
