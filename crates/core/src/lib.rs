//! # bcpnn-core
//!
//! The Bayesian Confidence Propagation Neural Network (BCPNN), as used for
//! Higgs-boson classification in the StreamBrain paper (Svedin et al.,
//! CLUSTER 2021).
//!
//! The model is a three-layer network (input → hidden → classification)
//! whose hidden layer is a population of **hypercolumn units** (HCUs), each
//! containing `n_mcu` **minicolumn units** (MCUs) competing through a
//! softmax over the HCU's sparse, learned receptive field. Learning is
//! purely local: probability traces (`p_i`, `p_j`, `p_ij`) accumulate batch
//! statistics and the weights are their log-odds — no backpropagation.
//! **Structural plasticity** re-learns *where* each HCU looks, by swapping
//! low-information active connections for high-information silent ones once
//! per epoch. Supervision only enters in the output layer, either as a
//! BCPNN associative readout or as an SGD-trained softmax head (the paper's
//! "BCPNN + SGD" hybrid).
//!
//! ```
//! use bcpnn_core::{Network, ReadoutKind, Trainer, TrainingParams};
//! use bcpnn_backend::BackendKind;
//! use bcpnn_tensor::{Matrix, MatrixRng};
//!
//! // A tiny separable toy problem (the real pipeline feeds quantile-encoded
//! // Higgs collisions from `bcpnn-data`).
//! let mut rng = MatrixRng::seed_from(0);
//! let labels: Vec<usize> = (0..128).map(|i| i % 2).collect();
//! let x = Matrix::from_fn(128, 20, |r, c| {
//!     let hot = if labels[r] == 0 { c < 10 } else { c >= 10 };
//!     f32::from(rng.uniform_scalar::<f64>(0.0, 1.0) < if hot { 0.5 } else { 0.1 })
//! });
//!
//! let mut net = Network::builder()
//!     .input(20)
//!     .hidden(2, 4, 0.5)            // 2 HCUs x 4 MCUs, 50% receptive field
//!     .classes(2)
//!     .readout(ReadoutKind::Hybrid) // BCPNN features + SGD head
//!     .backend(BackendKind::Parallel)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! let trainer = Trainer::new(TrainingParams {
//!     unsupervised_epochs: 2,
//!     supervised_epochs: 2,
//!     batch_size: 32,
//!     ..Default::default()
//! });
//! trainer.fit(&mut net, &x, &labels).unwrap();
//! let report = net.evaluate(&x, &labels).unwrap();
//! assert!(report.accuracy > 0.5);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod calibration;
mod classifier;
mod error;
mod hcu;
mod mask;
pub mod metrics;
pub mod model;
mod network;
mod params;
mod plasticity;
pub mod serialize;
mod sgd;
mod traces;
mod training;
pub mod uncertainty;
pub mod workspace;

pub use baseline::{MlpClassifier, MlpParams};
pub use calibration::{Calibration, CalibrationMethod, IsotonicMap};
pub use classifier::{BcpnnClassifier, BcpnnClassifierParams};
pub use error::{CoreError, CoreResult};
pub use hcu::HiddenLayer;
pub use mask::ReceptiveFieldMask;
pub use metrics::EvalReport;
pub use model::{NetworkEstimator, Pipeline, Predictor};
pub use network::{Network, NetworkBuilder, ReadoutKind};
pub use params::{HiddenLayerParams, SgdParams, TrainingParams};
pub use plasticity::{PlasticityConfig, PlasticityReport, StructuralPlasticity};
pub use serialize::{load_pipeline, save_pipeline};
pub use sgd::SgdClassifier;
pub use traces::ProbabilityTraces;
pub use training::{EpochStats, FitReport, Trainer, TrainingObserver, TrainingPhase};
pub use workspace::Workspace;
