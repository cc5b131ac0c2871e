//! # bcpnn-parallel
//!
//! Data-parallel execution substrate for StreamBrain-rs.
//!
//! StreamBrain's CPU backend is built on OpenMP worker threads that share
//! loop iterations; this crate plays the same role for the Rust
//! reproduction. It provides:
//!
//! * [`ThreadPool`] — a persistent pool of worker threads with a shared
//!   injector queue,
//! * [`ThreadPool::scope`] — structured (scoped) task spawning so tasks may
//!   borrow from the caller's stack,
//! * [`parallel_for`] / [`parallel_for_chunks`] — OpenMP-`parallel for`
//!   style index-range sharing,
//! * [`parallel_map_reduce`] — chunked map + sequential combine,
//! * [`par_for_each_with`] — items shared out among threads that each keep
//!   a state of their own (the banded predict's per-thread scratch),
//! * slice helpers ([`par_chunks_mut`], [`par_zip_chunks_mut`]) used by the
//!   GEMM and trace-update kernels in `bcpnn-tensor` / `bcpnn-backend`.
//!
//! A global pool (lazily created, sized from `BCPNN_NUM_THREADS` or the
//! number of available cores) is available through [`global_pool`], which is
//! what the higher-level crates use by default.
//!
//! ## Example
//!
//! ```
//! use bcpnn_parallel::{global_pool, parallel_for, par_chunks_mut};
//!
//! let mut data = vec![0u64; 10_000];
//! // Square every index in parallel.
//! par_chunks_mut(&mut data, 1024, |start, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = ((start + i) as u64).pow(2);
//!     }
//! });
//! assert_eq!(data[100], 10_000);
//! assert!(global_pool().num_threads() >= 1);
//! parallel_for(0, data.len(), |_i| { /* side-effect free body */ });
//! ```

#![warn(missing_docs)]

mod config;
mod partition;
mod pool;
mod scope;
mod slice_ops;

pub use config::{PoolConfig, NUM_THREADS_ENV};
pub use partition::{chunk_ranges, even_ranges, Range};
pub use pool::{global_pool, ThreadPool};
pub use scope::Scope;
pub use slice_ops::{
    par_chunks_mut, par_for_each_with, par_map_collect, par_zip_chunks_mut, parallel_for,
    parallel_for_chunks, parallel_map_reduce,
};
