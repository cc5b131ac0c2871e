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
//!   weights to int8 or bf16 once ([`QuantPrecision`]), then run
//!   allocation-free `predict_proba_into` inference with `f32` accumulation
//!   and narrow weight storage, persist as a stage-tagged artifact, and
//!   publish to the serving registry like any other model.
//! * [`Bf16`] — bfloat16 (truncated IEEE-754 single precision with
//!   round-to-nearest-even), the storage format of the bf16 precision.
//!
//! ```
//! use bcpnn_lowprec::Bf16;
//!
//! let x = 0.123_f32;
//! let rounded = Bf16::round_f32(x);
//! assert!((rounded - x).abs() < 1e-3);
//! ```

#![warn(missing_docs)]

mod bf16;
mod quantized;

pub use bf16::Bf16;
pub use quantized::{QuantPrecision, QuantizedPipeline};
