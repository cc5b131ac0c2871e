//! # bcpnn-data
//!
//! Dataset substrate for the Higgs-boson BCPNN reproduction: a synthetic
//! stand-in for the UCI HIGGS dataset, a loader for the real `HIGGS.csv`,
//! the paper's quantile one-hot preprocessing, splitting/batching helpers,
//! and a synthetic digit-pattern set for the receptive-field demos.
//!
//! The paper's pipeline (§V) is:
//!
//! 1. extract a balanced subset of the training set ([`split::balanced_subset`]),
//! 2. compute per-feature 10-quantiles ([`quantile::QuantileBinner`]),
//! 3. one-hot encode each feature's bin → 280 binary inputs
//!    ([`encode::QuantileEncoder`]),
//! 4. feed the binary code to the BCPNN layer (`bcpnn-core`).
//!
//! ```
//! use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
//! use bcpnn_data::encode::QuantileEncoder;
//! use bcpnn_data::split::stratified_split;
//!
//! let data = generate(&SyntheticHiggsConfig { n_samples: 2000, ..Default::default() });
//! let (train, test) = stratified_split(&data, 0.25, 1);
//! let encoder = QuantileEncoder::fit(&train, 10);
//! let x_train = encoder.transform(&train);
//! assert_eq!(x_train.cols(), 280);
//! assert_eq!(encoder.transform(&test).cols(), 280);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod csv;
pub mod dataset;
pub mod digits;
pub mod encode;
pub mod higgs;
pub mod quantile;
pub mod split;

pub use batch::BatchIterator;
pub use dataset::Dataset;
pub use encode::{QuantileEncoder, Standardizer};
pub use higgs::SyntheticHiggsConfig;
pub use quantile::QuantileBinner;
