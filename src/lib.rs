//! # streambrain
//!
//! Facade crate of the StreamBrain-rs workspace, a Rust reproduction of
//! *"Higgs Boson Classification: Brain-inspired BCPNN Learning with
//! StreamBrain"* (Svedin et al., CLUSTER 2021) grown toward a
//! production-scale serving system.
//!
//! The real functionality lives in the `bcpnn-*` crates, re-exported here
//! so the workspace-level integration tests and examples have one import
//! root:
//!
//! * [`tensor`] — dense matrices, GEMM kernels, seeded RNG.
//! * [`parallel`] — thread pool and OpenMP-style loop sharing.
//! * [`backend`] — swappable naive / parallel BCPNN kernel backends.
//! * [`core`] — the BCPNN network, training loop, and persistence.
//! * [`data`] — synthetic Higgs data, quantile one-hot encoding, splits.
//! * [`lowprec`] — int8 / bfloat16 quantized serving (`QuantizedPipeline`).
//! * [`serve`] — micro-batched inference serving with model hot-swap.

pub use bcpnn_backend as backend;
pub use bcpnn_core as core;
pub use bcpnn_data as data;
pub use bcpnn_lowprec as lowprec;
pub use bcpnn_parallel as parallel;
pub use bcpnn_serve as serve;
pub use bcpnn_tensor as tensor;
