//! # bcpnn-cluster — multi-node serving for the BCPNN stack
//!
//! The single-node story so far: `bcpnn-serve` batches and executes
//! inference in-process, and `bcpnn-gateway` puts an HTTP/1.1 face on
//! one such server. This crate scales that story *out*: many backend
//! nodes, each wrapping its own `ShardedServer`, fronted by a router
//! that speaks the gateway's HTTP protocol to clients and a compact
//! binary protocol to the backends.
//!
//! ```text
//!   client ──HTTP/1.1 (JSON)──▶ HttpFront (bcpnn-gateway's, unchanged)
//!                                   │ ApiBackend
//!                     ┌─────────────┴──────────────┐
//!              LocalNode (= Gateway)         ClusterRouter (= RouterHttp)
//!                     │                            │ consistent-hash ring
//!               ShardedServer            binary frames, per replica
//!                                                  ▼
//!                                     BackendNode ─▶ LocalNode ─▶ ShardedServer
//! ```
//!
//! ## Pieces
//!
//! * [`wire`] — the length-prefixed interior protocol: raw f32 rows,
//!   no JSON between router and backend.
//! * [`placement`] — the consistent-hash ring; each model lands on a
//!   replica group of `replication` distinct backends.
//! * [`pool`] — per-backend TCP connection pools with health state.
//! * [`backend`] — a node: TCP listener decoding frames into the
//!   gateway's node-local operations ([`bcpnn_gateway::LocalNode`]).
//! * [`router`] — fan-out, failover, cluster-wide broadcast, merged
//!   metrics.
//! * [`httpfront`] — the router as an [`bcpnn_gateway::ApiBackend`], and
//!   the gateway's HTTP front started over it.
//! * [`metrics`] — `bcpnn_cluster_*` Prometheus counters.
//!
//! ## Failure model
//!
//! Transport failures (refused, reset, protocol garbage) mark the
//! backend down and fail over to the next replica; requests are lost
//! only when *every* replica of a model is gone. Application errors
//! (unknown model, shape mismatch, model failure) are authoritative —
//! every replica holds the same artifact bits, so they are returned to
//! the client without retry. A client deadline is a hard budget: when
//! it expires mid-fan-out the router answers `DeadlineExceeded` (HTTP
//! 504) instead of burning the budget on another replica.

#![warn(missing_docs)]

pub mod backend;
pub mod httpfront;
pub mod metrics;
pub mod placement;
pub mod pool;
pub mod router;
pub mod wire;

pub use backend::{BackendConfig, BackendNode};
pub use httpfront::{RouterHttp, RouterHttpConfig};
pub use metrics::ClusterMetrics;
pub use placement::Ring;
pub use pool::BackendPool;
pub use router::{ClusterConfig, ClusterRouter};
pub use wire::{ErrorCode, Frame, ModelInfo, RowBlock, WireError};
