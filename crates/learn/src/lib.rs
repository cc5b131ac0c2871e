//! # bcpnn-learn — online learning as a service
//!
//! BCPNN weights are Bayesian co-activation counters, which makes the
//! model natively incremental: folding a labeled row into a fitted
//! network is the same trace update the offline trainer loops over, not a
//! refit. This crate turns that property into a serving-tier capability —
//! continuous deployment of the *model itself*:
//!
//! - [`OnlineLearner`] owns a shadow clone of a published model, ingests
//!   labeled rows through a bounded queue, folds them on a background
//!   trainer thread ([`bcpnn_core::Pipeline::learn_batch`]), evaluates the
//!   shadow against a held-out reservoir, and publishes through the
//!   registry's atomic hot-swap when the accuracy gate passes — serving
//!   never pauses.
//! - [`ReplayLog`] makes acknowledged rows durable: an append-only,
//!   CRC-framed binary log (the same defensive framing discipline as
//!   `bcpnn_cluster::wire`) that a restarted learner replays over its
//!   last checkpoint to rebuild the shadow bit-for-bit. The log rotates
//!   on every publish.
//! - [`write_metrics`] writes the `bcpnn_learn_*` metric families (rows
//!   ingested/trained/rejected, publishes, accuracy gauges, log bytes)
//!   through `bcpnn_serve`'s one exposition writer, so they join the
//!   gateway and cluster scrapes as ordinary families.
//!
//! The wire face lives upstream: `POST /v1/models/{name}/learn` on
//! `bcpnn-gateway`, and the `Learn` opcode (fan-out to every replica of
//! the model's group) on `bcpnn-cluster`.

#![warn(missing_docs)]

mod learner;
pub mod metrics;
pub mod replay;

pub use learner::{LearnError, LearnerConfig, OnlineLearner};
pub use metrics::{write_metrics, LearnMetrics, LearnSnapshot};
pub use replay::{LearnFrame, Recovery, ReplayLog};
