//! # bcpnn-backend
//!
//! Swappable compute backends for the BCPNN kernels, mirroring
//! StreamBrain's NumPy / OpenMP / CUDA / FPGA backend architecture.
//!
//! The [`Backend`] trait defines the six batched kernels the training loop
//! needs (forward pass, grouped softmax, trace update, weight recomputation,
//! mask application, and mutual-information scoring). Two implementations
//! are provided:
//!
//! * [`NaiveBackend`] — single-threaded reference loops (StreamBrain's plain
//!   NumPy backend; used as the correctness oracle),
//! * [`ParallelBackend`] — multi-threaded, GEMM-based kernels on top of
//!   `bcpnn-tensor` and `bcpnn-parallel` (StreamBrain's OpenMP/MKL backend;
//!   the default, and the one every binary and benchmark workload runs).
//!
//! The paper's CUDA and FPGA backends are hardware we substitute with the
//! threaded CPU backend; ARCHITECTURE.md ("Compute backends and
//! precision") has the contract the two are held to.
//!
//! ```
//! use bcpnn_backend::{Backend, BackendKind};
//! use bcpnn_tensor::{Matrix, MatrixRng};
//!
//! let backend = BackendKind::Parallel.create();
//! let mut rng = MatrixRng::seed_from(0);
//! let x: Matrix<f32> = rng.bernoulli(4, 10, 0.3);
//! let w: Matrix<f32> = rng.normal(10, 6, 0.0, 0.1);
//! let bias = vec![0.0f32; 6];
//! let mut support = Matrix::zeros(4, 6);
//! backend.linear_forward(&x, &w, &bias, &mut support);
//! backend.grouped_softmax(&mut support, 3); // 2 HCUs x 3 MCUs
//! assert!(support.all_finite());
//! ```

#![warn(missing_docs)]

mod dispatch;
pub mod kernels;
mod naive;
mod parallel;
mod traits;

pub use dispatch::{default_backend, BackendKind};
pub use naive::NaiveBackend;
pub use parallel::ParallelBackend;
pub use traits::Backend;
