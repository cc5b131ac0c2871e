//! # bcpnn-viz
//!
//! What the reproduction ledger renders of the receptive fields, standing
//! in for StreamBrain's ParaView Catalyst integration (§III-B of the paper).
//!
//! * [`ascii`] — terminal rendering of receptive fields and masks.
//! * [`insitu`] — [`MaskHistory`], a [`bcpnn_core::TrainingObserver`] that
//!   snapshots the receptive-field masks at the end of every unsupervised
//!   epoch (Fig. 2).

#![warn(missing_docs)]

pub mod ascii;
pub mod insitu;

pub use insitu::MaskHistory;
