//! # bcpnn-tensor
//!
//! Dense linear-algebra substrate for StreamBrain-rs.
//!
//! StreamBrain expresses the BCPNN activation and trace update as GEMM calls
//! handed to MKL (CPU) or cuBLAS (GPU). This crate is the corresponding
//! substrate for the Rust reproduction: a row-major [`Matrix`] type, naive /
//! cache-blocked / multi-threaded [`gemm`] kernels (parallelised over the
//! `bcpnn-parallel` pool), element-wise and reduction kernels, seeded random
//! generation ([`MatrixRng`]), scalar statistics for preprocessing, and
//! the workspace's one byte codec ([`io`]: CRC-framed little-endian
//! binary).
//!
//! ```
//! use bcpnn_tensor::{gemm, Matrix, MatrixRng};
//!
//! let mut rng = MatrixRng::seed_from(1);
//! let x: Matrix<f32> = rng.uniform(8, 16, 0.0, 1.0);   // batch x inputs
//! let w: Matrix<f32> = rng.normal(16, 4, 0.0, 0.1);    // inputs x units
//! let mut support = Matrix::zeros(8, 4);
//! gemm(1.0, &x, &w, 0.0, &mut support);                // support = x · w
//! bcpnn_tensor::reduce::softmax_rows(&mut support);    // unit competition
//! assert!(support.all_finite());
//! ```

#![warn(missing_docs)]

pub mod elementwise;
mod gemm;
pub mod io;
mod matrix;
mod random;
pub mod reduce;
mod scalar;
pub mod simd;
pub mod stats;
pub mod vector;

pub use gemm::{gemm, gemm_blocked, gemm_naive, gemm_nt, gemm_tn, gemm_tn_serial, gemv};
pub use io::{write_matrix, FrameReader, IoError};
pub use matrix::Matrix;
pub use random::MatrixRng;
pub use scalar::Scalar;
