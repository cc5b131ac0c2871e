//! # bcpnn-lowprec
//!
//! Reduced-precision inference for BCPNN / StreamBrain-rs.
//!
//! The StreamBrain paper (§III-A) lists an FPGA backend for exploring
//! "reduced/different numerical representation". The part of that
//! exploration this repo serves is narrow weight *storage* behind a wide
//! accumulator:
//!
//! * [`QuantizedPipeline`] — quantize a fitted `bcpnn_core::Pipeline`'s
//!   weights to int8 once ([`QuantPrecision`]), then run allocation-free
//!   `predict_proba_into` inference with `f32` accumulation and narrow
//!   weight storage, persist in the one-file `v5` model container (kind
//!   `quantized`), and publish to the serving registry like any other
//!   model.
//!
//! ```
//! use bcpnn_lowprec::QuantPrecision;
//!
//! assert_eq!(QuantPrecision::Int8.name(), "int8");
//! ```

#![warn(missing_docs)]

mod quantized;

pub use quantized::{QuantPrecision, QuantizedPipeline};
