//! The micro-batching inference server.
//!
//! Callers submit [`RowBlock`]s of raw feature rows through a synchronous
//! API — a whole request through [`InferenceServer::submit_block`], a
//! single vector (a one-row block) through [`InferenceServer::submit`].
//! The submitting thread puts the block into its model's *slot* of one
//! shared queue; a pool of *worker* threads pulls per-model batches of at
//! most [`BatchConfig::max_batch`] rows from that queue and runs each as
//! one vectorized
//! [`Predictor::predict_proba`](bcpnn_core::model::Predictor::predict_proba)
//! pass — for a [`Pipeline`](crate::Pipeline), encode → hidden-layer
//! forward → readout — then sends each block its rows of the result over
//! the block's own channel: one message in, one message out, whatever the
//! row count. A one-row request crosses two threads: the caller's and one
//! worker's. This is the same amortization the paper applies to training
//! (batch-parallel HCU updates) turned toward the serving workload. The
//! scheduler only talks to models through the `Predictor` trait, so any
//! fitted artifact serves.
//!
//! The batching policy is **worker-driven**: only an idle worker takes a
//! batch. It takes a *full* slot (one holding `max_batch` rows) at once,
//! and otherwise the oldest *ripe* slot, whatever its size. A slot is ripe
//! once its oldest block has waited the fixed 100 µs coalescing window — so
//! small requests that arrive together share a batch, and a lone row on an
//! idle server costs the window plus one forward pass. Past the window no
//! clock closes a batch: while every worker is busy the slot grows to
//! whatever arrives during the forward passes, and a request of `max_batch`
//! rows never waits. A block is never split across batches; one that alone
//! exceeds `max_batch` is its own batch.
//!
//! Per-model policy: a [`ServedModel`] published with
//! [`with_batch_policy`](crate::ServedModel::with_batch_policy) overrides
//! the server-wide `max_batch` for its own requests, and a hot-swap that
//! changes the policy takes effect on the next batch.
//!
//! Requests carry [`SubmitOptions`]: a worker takes high-[`Priority`]
//! requests first when a batch cannot hold everything pending, and
//! requests whose deadline has passed are expired with
//! [`ServeError::DeadlineExceeded`] instead of wasting forward-pass work.
//!
//! Hot-swap safety: the model `Arc` is resolved from the registry once per
//! batch, when a worker takes it. Every row of a block therefore sees one
//! model version — the one its reply names — swaps never stall the
//! pipeline, and displaced versions finish their in-flight batches before
//! being dropped.
//!
//! Dropping the server drains the queue: the workers run every queued
//! block, window or not, before they exit, so no accepted request is left
//! unanswered.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bcpnn_core::model::Predictor;
use bcpnn_core::{CoreResult, Workspace};
use bcpnn_tensor::Matrix;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};

use crate::block::RowBlock;
use crate::error::{ServeError, ServeResult};
use crate::loadgen::ServeTarget;
use crate::metrics::{MetricsSnapshot, ServingMetrics};
use crate::registry::{ModelRegistry, ServedModel};

/// Micro-batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest batch a worker runs: a slot that holds this many rows goes
    /// to the next idle worker at once. Smaller slots go once their oldest
    /// block has waited the 100 µs coalescing window. A single block with
    /// more rows than this runs as its own batch.
    pub max_batch: usize,
    /// Number of worker threads running batches. Ignored when the config
    /// is used as a *per-model* policy (the worker pool is shared).
    pub workers: usize,
}

impl BatchConfig {
    /// Defaults: batches of up to 64, 2 workers.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            workers: 2,
        }
    }
}

/// Scheduling priority of a request. When a batch cannot hold every
/// pending request, higher priorities go first (FIFO within a priority):
/// the derived order, `High < Normal < Low`, is the drain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Served before Normal and Low traffic.
    High,
    /// The default.
    #[default]
    Normal,
    /// Served after everything else.
    Low,
}

/// Per-request scheduling options for [`InferenceServer::submit_block`]
/// and [`InferenceServer::submit_with_options`]; they apply to every row
/// of the block.
///
/// ```
/// use std::time::Duration;
/// use bcpnn_serve::{Priority, SubmitOptions};
///
/// let options = SubmitOptions::new()
///     .priority(Priority::High)
///     .deadline(Duration::from_millis(5))
///     .abstain_below(0.2);
/// assert_eq!(options.priority, Priority::High);
/// assert_eq!(options.deadline, Some(Duration::from_millis(5)));
/// assert_eq!(options.abstain_below, Some(0.2));
/// assert_eq!(SubmitOptions::default().deadline, None);
/// assert_eq!(SubmitOptions::default().abstain_below, None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubmitOptions {
    /// Drain order relative to other pending requests.
    pub priority: Priority,
    /// Give up on the request this long after submission: if no worker has
    /// started its forward pass by then, it fails with
    /// [`ServeError::DeadlineExceeded`] instead of being executed.
    pub deadline: Option<Duration>,
    /// Abstain instead of answering when the prediction's top-2
    /// probability margin ([`bcpnn_core::uncertainty::margin`]) is below
    /// this threshold: the row is listed in [`BlockPrediction::abstained`]
    /// (a single-row caller receives [`ServeError::Abstained`]) rather than
    /// answered with a low-confidence probability vector. The forward pass
    /// still runs (the margin comes from its output); only the answer is
    /// withheld. Sensible thresholds lie in `[0, 1]`; `0` (and `None`)
    /// never abstain.
    pub abstain_below: Option<f32>,
}

impl SubmitOptions {
    /// Default options: normal priority, no deadline, never abstain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the priority.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the deadline (measured from submission).
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the confidence floor: abstain when the top-2 probability margin
    /// falls below `threshold`.
    #[must_use]
    pub fn abstain_below(mut self, threshold: f32) -> Self {
        self.abstain_below = Some(threshold);
        self
    }
}

/// One queued request: a block of rows for one model, scheduled, run and
/// answered as a whole.
struct Request {
    model: Arc<str>,
    rows: RowBlock,
    enqueued: Instant,
    priority: Priority,
    /// Absolute expiry instant, if the caller set a deadline.
    deadline: Option<Instant>,
    /// Confidence floor: a row whose top-2 margin falls below this is
    /// reported abstained.
    abstain_below: Option<f32>,
    reply: Sender<ServeResult<BlockPrediction>>,
}

impl Request {
    fn expired_at(&self, now: Instant) -> bool {
        matches!(self.deadline, Some(deadline) if now >= deadline)
    }

    /// Answer the whole block with `error`; every row counts as failed.
    fn fail(&self, error: ServeError, metrics: &ServingMetrics) {
        for _ in 0..self.rows.n_rows() {
            metrics.record_error();
        }
        let _ = self.reply.send(Err(error));
    }
}

/// Reusable per-worker inference state: the batch-assembly matrix, the
/// model [`Workspace`], the output-probability buffer, and where each
/// block of the batch sits in the assembly matrix.
///
/// This is the zero-allocation data plane of a serving worker. All the
/// buffers grow to the largest batch shape seen and never shrink, so after
/// warmup an `assemble → run` cycle performs **zero heap allocations**
/// (`tests/alloc_regression.rs` enforces this with a counting allocator).
/// Each worker thread owns one executor; they are `Send`, not shared.
#[derive(Debug, Default)]
pub struct BatchExecutor {
    x: Matrix<f32>,
    proba: Matrix<f32>,
    ws: Workspace,
    /// The requests whose feature width matched the model at execution
    /// time: index into the batch's request list, and the rows of `x` the
    /// block was copied to.
    valid: Vec<(usize, Range<usize>)>,
}

impl BatchExecutor {
    /// Create an executor with empty buffers (they warm up on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start assembling a batch: returns the `rows x width` assembly
    /// matrix (resized in place, contents unspecified). The caller fills
    /// every row, then calls [`BatchExecutor::run`].
    pub fn begin(&mut self, rows: usize, width: usize) -> &mut Matrix<f32> {
        self.x.resize(rows, width);
        &mut self.x
    }

    /// Run one vectorized forward pass over the assembled batch through
    /// [`Predictor::predict_proba_into`], returning the per-row class
    /// probabilities (borrowed from the executor's reusable buffer).
    pub fn run(&mut self, predictor: &dyn Predictor) -> CoreResult<&Matrix<f32>> {
        predictor.predict_proba_into(&self.x, &mut self.ws, &mut self.proba)?;
        Ok(&self.proba)
    }
}

/// The answer to one submitted block — the shape of the interior wire
/// protocol's `PredictOk` frame, so a backend node passes it on as is.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPrediction {
    /// Version of the model that answered every row of the block.
    pub version: u64,
    /// One row of class probabilities per submitted row, in order;
    /// abstained rows are zero-filled.
    pub proba: RowBlock,
    /// Indices of the rows whose top-2 margin fell below
    /// [`SubmitOptions::abstain_below`], ascending.
    pub abstained: Vec<u32>,
}

/// Handle to one in-flight block.
#[derive(Debug)]
pub struct BlockHandle {
    rx: Receiver<ServeResult<BlockPrediction>>,
}

impl BlockHandle {
    /// Block until the answer arrives. Abstention is per row and in-band
    /// ([`BlockPrediction::abstained`]); an `Err` is the whole block's.
    pub fn wait(self) -> ServeResult<BlockPrediction> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Block for at most `timeout`; `None` means it is still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServeResult<BlockPrediction>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

/// Handle to one in-flight single-row prediction: a one-row block.
#[derive(Debug)]
pub struct PredictionHandle {
    block: BlockHandle,
}

impl From<BlockHandle> for PredictionHandle {
    /// View the handle of a **one-row** block as that row's prediction.
    fn from(block: BlockHandle) -> Self {
        PredictionHandle { block }
    }
}

/// A one-row block's answer as that row's: its probabilities, or
/// [`ServeError::Abstained`].
fn one_row(answer: ServeResult<BlockPrediction>) -> ServeResult<Vec<f32>> {
    let answer = answer?;
    if answer.abstained.is_empty() {
        Ok(answer.proba.data)
    } else {
        Err(ServeError::Abstained)
    }
}

impl PredictionHandle {
    /// Block until the prediction (class probabilities) arrives.
    pub fn wait(self) -> ServeResult<Vec<f32>> {
        one_row(self.block.wait())
    }

    /// Block for at most `timeout`; `None` means it is still in flight.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServeResult<Vec<f32>>> {
        self.block.wait_timeout(timeout).map(one_row)
    }
}

/// The running server: `workers` threads pulling batches from one queue
/// over a shared [`ModelRegistry`].
pub struct InferenceServer {
    registry: Arc<ModelRegistry>,
    metrics: Arc<ServingMetrics>,
    queue: Arc<Queue>,
    /// Server-wide batching defaults; a model's own policy overrides them.
    config: BatchConfig,
    workers: Vec<JoinHandle<()>>,
}

impl InferenceServer {
    /// Start the worker threads.
    pub fn start(registry: Arc<ModelRegistry>, config: BatchConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.workers > 0, "need at least one worker");
        let metrics = Arc::new(ServingMetrics::new());
        let queue = Arc::new(Queue::default());
        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let registry = Arc::clone(&registry);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("bcpnn-serve-worker-{i}"))
                    .spawn(move || run_worker(&queue, &registry, &metrics))
                    .expect("failed to spawn worker thread")
            })
            .collect();

        Self {
            registry,
            metrics,
            queue,
            config,
            workers,
        }
    }

    /// The registry this server resolves models from. Publishing to it
    /// hot-swaps what subsequent batches use.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Enqueue a block of raw feature rows for the named model — one push
    /// onto the queue and one reply, whatever the row count. The block is
    /// never split across batches, so one model version answers all of
    /// it. Unknown models and wrong feature widths fail fast, before
    /// entering the batch queue.
    pub fn submit_block(
        &self,
        model: &str,
        rows: RowBlock,
        options: SubmitOptions,
    ) -> ServeResult<BlockHandle> {
        let served = self.registry.get(model)?;
        let expected = served.predictor().n_inputs();
        if rows.n_cols as usize != expected {
            return Err(ServeError::ShapeMismatch {
                expected,
                got: rows.n_cols as usize,
            });
        }
        let (reply, rx) = unbounded();
        let n_rows = rows.n_rows();
        if n_rows == 0 {
            // Nothing to schedule: the empty answer is known here.
            let _ = reply.send(Ok(BlockPrediction {
                version: served.version(),
                proba: RowBlock {
                    n_cols: served.predictor().n_classes() as u32,
                    data: Vec::new(),
                },
                abstained: Vec::new(),
            }));
            return Ok(BlockHandle { rx });
        }
        // Counted before a worker can answer it, so the queue depth never
        // reads a finished block as still pending.
        for _ in 0..n_rows {
            self.metrics.record_submit();
        }
        let enqueued = Instant::now();
        let max_batch = served.batch_policy().unwrap_or(self.config).max_batch;
        self.queue.push(
            Request {
                model: Arc::from(model),
                rows,
                enqueued,
                priority: options.priority,
                deadline: options.deadline.map(|d| enqueued + d),
                abstain_below: options.abstain_below,
                reply,
            },
            max_batch.max(1),
        );
        Ok(BlockHandle { rx })
    }

    /// Enqueue one raw feature vector for the named model with default
    /// [`SubmitOptions`]; returns a handle to wait on. Unknown models and
    /// wrong feature widths fail fast, before entering the batch queue.
    pub fn submit(&self, model: &str, features: Vec<f32>) -> ServeResult<PredictionHandle> {
        self.submit_with_options(model, features, SubmitOptions::default())
    }

    /// Enqueue one raw feature vector with explicit priority/deadline
    /// options — a one-row [`InferenceServer::submit_block`]; returns a
    /// handle to wait on.
    pub fn submit_with_options(
        &self,
        model: &str,
        features: Vec<f32>,
        options: SubmitOptions,
    ) -> ServeResult<PredictionHandle> {
        ServeTarget::submit_with_options(self, model, features, options)
    }

    /// Submit and block until the class probabilities arrive.
    pub fn predict(&self, model: &str, features: Vec<f32>) -> ServeResult<Vec<f32>> {
        self.submit(model, features)?.wait()
    }

    /// Point-in-time copy of the serving metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of accepted rows that have not yet reached a terminal
    /// outcome (response, error, or expiry): the pending-queue depth
    /// load-aware routing balances on. Cheap — three relaxed atomic loads
    /// — so it can sit on the submit path.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.metrics.queue_depth()
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        // The workers drain every slot, ripe or not, and then exit.
        self.queue.slots.lock().draining = true;
        self.queue.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for InferenceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceServer")
            .field("models", &self.registry.model_names())
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// How long a slot's oldest block waits before the slot may leave for an
/// idle worker (a full slot leaves at once). It lets small requests that
/// arrive together share a batch, and it keeps the latency of a lone row
/// on an idle server set by the clock: without it that latency is a chain
/// of thread wake-ups whose cost differs from run to run by more than the
/// repo benchmark's `gateway_single` bound allows. At 50 µs (Linux's
/// default timer slack, `PR_SET_TIMERSLACK`, so the shortest window a
/// timed wait honours) that workload's rows/s already spread over ten runs
/// by more than a quarter of their median at 250 µs; at 100 µs by under
/// half that. Not an option — nothing in the repo needs another value.
const COALESCE_WINDOW: Duration = Duration::from_micros(100);

/// The one queue the workers pull from: a slot of pending blocks per
/// model, behind one lock, and the condition variable an idle worker
/// sleeps on.
#[derive(Default)]
struct Queue {
    slots: Mutex<Slots>,
    /// Wakes an idle worker: a slot opened or filled up, a worker left
    /// blocks behind, or the server is being dropped.
    wake: Condvar,
}

/// One slot per model ever submitted to. An emptied slot stays, so its
/// buffer is reused: once warm, a push allocates nothing.
#[derive(Default)]
struct Slots {
    pending: HashMap<Arc<str>, Pending>,
    /// Set by `Drop`: every slot is due, and a worker that finds none
    /// exits.
    draining: bool,
}

/// A model's requests accumulating toward a batch, under that model's
/// effective batching policy (resolved when the slot's first block
/// arrived).
#[derive(Default)]
struct Pending {
    requests: Vec<Request>,
    max_batch: usize,
}

impl Pending {
    /// Rows waiting in the slot: what `max_batch` is measured against.
    fn rows(&self) -> usize {
        self.requests.iter().map(|r| r.rows.n_rows()).sum()
    }

    /// When the slot may leave for an idle worker: [`COALESCE_WINDOW`]
    /// after its oldest block arrived; `None` while it is empty.
    fn ripe_at(&self) -> Option<Instant> {
        Some(self.requests.iter().map(|r| r.enqueued).min()? + COALESCE_WINDOW)
    }
}

impl Slots {
    /// The batch due now, if any: the next batch (see [`take_batch`]) of a
    /// full slot, else of the slot that ripened first — while draining,
    /// every slot that holds a block is ripe.
    fn take_due(&mut self, now: Instant) -> Option<(Arc<str>, Vec<Request>)> {
        let (_, _, model) = self
            .pending
            .iter()
            .filter_map(|(model, slot)| {
                Some((slot.rows() < slot.max_batch, slot.ripe_at()?, model))
            })
            .filter(|&(not_full, ripe_at, _)| !not_full || self.draining || ripe_at <= now)
            .min()?;
        let model = Arc::clone(model);
        let slot = self.pending.get_mut(&model).expect("slot was just found");
        let batch = take_batch(&mut slot.requests, slot.max_batch);
        Some((model, batch))
    }

    /// When the next slot ripens; `None` when no block is queued.
    fn next_ripe(&self) -> Option<Instant> {
        self.pending.values().filter_map(Pending::ripe_at).min()
    }
}

impl Queue {
    /// Add a block to its model's slot and wake a worker when an idle one
    /// has something new to do: time a slot that was empty, or take a
    /// full one.
    fn push(&self, request: Request, max_batch: usize) {
        let mut slots = self.slots.lock();
        let slot = slots.pending.entry(Arc::clone(&request.model)).or_default();
        let opened = slot.requests.is_empty();
        if opened {
            slot.max_batch = max_batch;
        }
        slot.requests.push(request);
        let full = slot.rows() >= slot.max_batch;
        drop(slots);
        if opened || full {
            self.wake.notify_one();
        }
    }

    /// Block until a batch is due and take it, in priority order: the next
    /// batch of a full slot at once, otherwise of the slot that ripened
    /// first. While the server is being dropped every slot is due, and
    /// `None` means nothing is left.
    fn next_batch(&self) -> Option<(Arc<str>, Vec<Request>)> {
        let mut slots = self.slots.lock();
        loop {
            let now = Instant::now();
            if let Some(batch) = slots.take_due(now) {
                // Another idle worker times, or takes, what is left behind.
                let more = slots.next_ripe().is_some();
                drop(slots);
                if more {
                    self.wake.notify_one();
                }
                return Some(batch);
            }
            match slots.next_ripe() {
                _ if slots.draining => return None,
                Some(at) => {
                    let _ = self
                        .wake
                        .wait_for(&mut slots, at.saturating_duration_since(now));
                }
                None => self.wake.wait(&mut slots),
            }
        }
    }
}

/// Stable-sort pending requests into drain order: priority first, FIFO
/// within a priority (insertion order is FIFO and the sort is stable).
fn order_for_dispatch(requests: &mut [Request]) {
    requests.sort_by_key(|r| r.priority);
}

/// Split one batch off a full slot: whole blocks in drain order while
/// they fit in `max_batch` rows — at least the first, so a block that alone
/// exceeds the cap is its own batch; what does not fit stays queued for a
/// later batch. This is where [`Priority`] bites — a burst bigger than
/// one batch drains High before Normal before Low.
fn take_batch(requests: &mut Vec<Request>, max_batch: usize) -> Vec<Request> {
    order_for_dispatch(requests);
    let mut rows = 0;
    let fit = requests
        .iter()
        .take_while(|r| {
            rows += r.rows.n_rows();
            rows <= max_batch
        })
        .count();
    requests.drain(..fit.max(1)).collect()
}

/// Split off the requests whose deadline has already passed.
fn split_expired(requests: Vec<Request>, now: Instant) -> (Vec<Request>, Vec<Request>) {
    requests.into_iter().partition(|r| !r.expired_at(now))
}

/// Reply `DeadlineExceeded` to every expired request and count its rows.
fn expire(requests: Vec<Request>, metrics: &ServingMetrics) {
    for request in requests {
        for _ in 0..request.rows.n_rows() {
            metrics.record_expired();
        }
        let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
    }
}

/// A worker thread: take batches until the server is dropped and its
/// queue is empty, resolving each batch's model version as it is taken.
fn run_worker(queue: &Queue, registry: &ModelRegistry, metrics: &ServingMetrics) {
    // Persistent per-worker buffers: the steady-state batch loop runs
    // allocation-free after warmup.
    let mut executor = BatchExecutor::new();
    while let Some((model, requests)) = queue.next_batch() {
        match registry.get(&model) {
            Ok(served) => run_batch(&served, requests, metrics, &mut executor),
            // The model was removed after the requests were accepted: their
            // rows count as failed, so the queue depth returns to zero.
            Err(err) => {
                for request in requests {
                    request.fail(err.clone(), metrics);
                }
            }
        }
    }
}

/// Worker body: run one batch against the model version resolved for it,
/// as a single vectorized pass through the worker's persistent
/// [`BatchExecutor`], and send every block its answer. Requests whose
/// deadline passed while they sat in the queue are expired here, before
/// any forward-pass work is spent on them. A pass that fails, panics or
/// emits a non-finite probability fails every block of the batch with
/// [`ServeError::Model`]; nothing non-finite is ever answered.
///
/// The compute plane — assembly into the reusable batch matrix plus the
/// `predict_proba_into` pass through the persistent workspace — performs
/// zero heap allocations after warmup; only the reply payloads (one owned
/// probability block per request, handed to the caller) still allocate.
fn run_batch(
    model: &ServedModel,
    requests: Vec<Request>,
    metrics: &ServingMetrics,
    executor: &mut BatchExecutor,
) {
    // Only pay the partition allocation when something actually expired.
    let now = Instant::now();
    let requests = if requests.iter().any(|r| r.expired_at(now)) {
        let (live, expired) = split_expired(requests, now);
        expire(expired, metrics);
        live
    } else {
        requests
    };
    if requests.is_empty() {
        return;
    }
    metrics.record_batch(requests.iter().map(|r| r.rows.n_rows()).sum());
    let predictor = model.predictor();
    let width = predictor.n_inputs();

    // A hot-swap may have changed the expected width between submit-time
    // validation and dispatch; reject mismatching blocks individually.
    executor.valid.clear();
    let mut rows = 0;
    for (i, request) in requests.iter().enumerate() {
        if request.rows.n_cols as usize == width {
            let end = rows + request.rows.n_rows();
            executor.valid.push((i, rows..end));
            rows = end;
        } else {
            let got = request.rows.n_cols as usize;
            let expected = width;
            request.fail(ServeError::ShapeMismatch { expected, got }, metrics);
        }
    }
    if executor.valid.is_empty() {
        return;
    }

    executor.x.resize(rows, width);
    let x = executor.x.as_mut_slice();
    for (i, at) in &executor.valid {
        let block = &requests[*i].rows.data;
        x[at.start * width..at.end * width].copy_from_slice(&block[..at.len() * width]);
    }
    // A predictor that panics, or emits a NaN or an infinity, fails its own
    // batch like one that returns an error, and the worker lives on (its
    // buffers are plain scratch, resized by the next pass).
    let outcome = catch_unwind(AssertUnwindSafe(|| executor.run(predictor).map(drop)))
        .map_err(|_| ServeError::Model("the predictor panicked".into()))
        .and_then(|result| result.map_err(ServeError::from))
        .and_then(|()| {
            let proba = executor.proba.as_slice();
            if proba.iter().all(|p| p.is_finite()) {
                Ok(())
            } else {
                Err(ServeError::Model(
                    "the predictor emitted a non-finite probability".into(),
                ))
            }
        });
    if let Err(err) = outcome {
        for (i, _) in &executor.valid {
            requests[*i].fail(err.clone(), metrics);
        }
        return;
    }

    let proba = &executor.proba;
    let classes = proba.cols();
    let now = Instant::now();
    for (i, at) in &executor.valid {
        let request = &requests[*i];
        let mut data = proba.as_slice()[at.start * classes..at.end * classes].to_vec();
        // Abstention gate: the forward pass already ran (margins come from
        // its output); only the row's answer is withheld.
        let mut abstained = Vec::new();
        if let Some(threshold) = request.abstain_below {
            for r in 0..at.len() {
                let row = &mut data[r * classes..(r + 1) * classes];
                if bcpnn_core::uncertainty::margin(row) < threshold {
                    row.fill(0.0);
                    abstained.push(r as u32);
                }
            }
        }
        let latency = now.saturating_duration_since(request.enqueued);
        for _ in 0..abstained.len() {
            metrics.record_abstained();
        }
        for _ in abstained.len()..at.len() {
            metrics.record_response(latency);
        }
        let _ = request.reply.send(Ok(BlockPrediction {
            version: model.version(),
            proba: RowBlock {
                n_cols: classes as u32,
                data,
            },
            abstained,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ServedModel;
    use crate::testutil::{tiny_pipeline, GatePredictor, NonFinitePredictor};

    fn server_with_model(seed: u64) -> (InferenceServer, bcpnn_data::Dataset) {
        let (pipeline, data) = tiny_pipeline(seed);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("higgs", 1, pipeline));
        let server = InferenceServer::start(
            registry,
            BatchConfig {
                max_batch: 8,
                workers: 2,
            },
        );
        (server, data)
    }

    #[test]
    fn single_prediction_round_trips() {
        let (server, data) = server_with_model(30);
        let proba = server
            .predict("higgs", data.features.row(0).to_vec())
            .unwrap();
        assert_eq!(proba.len(), 2);
        let s: f32 = proba.iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn batched_predictions_match_direct_inference() {
        let (server, data) = server_with_model(31);
        let direct = server
            .registry()
            .get("higgs")
            .unwrap()
            .predictor()
            .predict_proba(&data.features)
            .unwrap();
        let handles: Vec<_> = (0..40)
            .map(|r| {
                server
                    .submit("higgs", data.features.row(r).to_vec())
                    .unwrap()
            })
            .collect();
        for (r, handle) in handles.into_iter().enumerate() {
            let got = handle.wait().unwrap();
            for (c, v) in got.iter().enumerate() {
                assert!(
                    (v - direct.get(r, c)).abs() < 1e-5,
                    "row {r} col {c}: {v} vs {}",
                    direct.get(r, c)
                );
            }
        }
        let m = server.metrics();
        assert_eq!(m.responses, 40 + m.errors);
        assert!(m.batches >= 1);
        assert!(m.mean_batch_size >= 1.0);
    }

    #[test]
    fn unknown_model_fails_fast() {
        let (server, data) = server_with_model(32);
        let err = server
            .submit("nope", data.features.row(0).to_vec())
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(_)));
    }

    #[test]
    fn wrong_width_fails_fast() {
        let (server, _) = server_with_model(33);
        let err = server.submit("higgs", vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(
            err,
            ServeError::ShapeMismatch {
                expected: 28,
                got: 2
            }
        ));
    }

    #[test]
    fn batches_respect_max_batch() {
        let (server, data) = server_with_model(34);
        let handles: Vec<_> = (0..64)
            .map(|i| {
                server
                    .submit("higgs", data.features.row(i % data.n_samples()).to_vec())
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let m = server.metrics();
        // max_batch = 8 in this fixture: 64 requests need >= 8 batches.
        assert!(m.batches >= 8, "batches {}", m.batches);
        let max_bucket_with_counts = m.batch_size_hist.iter().rposition(|&c| c > 0).unwrap();
        assert!(
            max_bucket_with_counts <= 3,
            "no batch may exceed 8 requests (bucket {max_bucket_with_counts})"
        );
    }

    /// One worker behind a closed gate. The first row goes straight to the
    /// idle worker and parks there, so everything submitted afterwards is
    /// queued by policy, not by timing.
    fn gated_server(max_batch: usize) -> (InferenceServer, GatePredictor, PredictionHandle) {
        let gate = GatePredictor::new(1);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("gate", 1, gate.clone()));
        let server = InferenceServer::start(
            registry,
            BatchConfig {
                max_batch,
                workers: 1,
            },
        );
        let first = server.submit("gate", vec![-1.0]).unwrap();
        gate.wait_entered(1);
        (server, gate, first)
    }

    /// The first `n` rows of the fixture's data as one block.
    fn first_rows(data: &bcpnn_data::Dataset, n: usize) -> RowBlock {
        let width = data.features.cols();
        RowBlock {
            n_cols: width as u32,
            data: data.features.as_slice()[..n * width].to_vec(),
        }
    }

    /// `n` one-feature rows tagged `from, from + 1, ...` for the gate model.
    fn tagged(from: usize, n: usize) -> RowBlock {
        RowBlock {
            n_cols: 1,
            data: (from..from + n).map(|tag| tag as f32).collect(),
        }
    }

    /// Submit blocks to the gated server, open the gate, wait for every
    /// answer, and return what each forward pass after the parked row saw.
    fn run_gated(max_batch: usize, blocks: Vec<(RowBlock, Priority)>) -> Vec<Vec<f32>> {
        let (server, gate, first) = gated_server(max_batch);
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|(rows, priority)| {
                let n_rows = rows.n_rows();
                let options = SubmitOptions::new().priority(priority);
                (server.submit_block("gate", rows, options).unwrap(), n_rows)
            })
            .collect();
        gate.open();
        assert_eq!(first.wait().unwrap(), vec![0.5, 0.5]);
        for (handle, n_rows) in handles {
            let answer = handle.wait().unwrap();
            assert_eq!((answer.version, answer.proba.n_rows()), (1, n_rows));
            assert!(answer.abstained.is_empty());
        }
        assert_eq!(server.queue_depth(), 0);
        gate.batches().split_off(1)
    }

    #[test]
    fn a_block_of_max_batch_rows_is_exactly_one_batch() {
        let (pipeline, data) = tiny_pipeline(43);
        let direct = pipeline.predict_proba(&data.features).unwrap();
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("higgs", 7, pipeline));
        let server = InferenceServer::start(registry, BatchConfig::default());
        let rows = first_rows(&data, 64);
        let answer = server
            .submit_block("higgs", rows, SubmitOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(answer.version, 7);
        assert_eq!((answer.proba.n_rows(), answer.proba.n_cols), (64, 2));
        for r in 0..64 {
            for c in 0..2 {
                assert_eq!(answer.proba.row(r)[c].to_bits(), direct.get(r, c).to_bits());
            }
        }
        let m = server.metrics();
        assert_eq!((m.requests, m.responses), (64, 64));
        assert_eq!((m.batches, m.batched_requests), (1, 64));
    }

    #[test]
    fn a_full_block_leaves_while_a_smaller_one_is_still_pending() {
        // The 63 rows wait for the worker; the 64 that jump them (High)
        // fill a batch by themselves and are cut at once.
        let batches = run_gated(
            64,
            vec![
                (tagged(100, 63), Priority::Normal),
                (tagged(200, 64), Priority::High),
            ],
        );
        assert_eq!(batches, vec![tagged(200, 64).data, tagged(100, 63).data]);
    }

    #[test]
    fn a_block_and_a_later_row_fill_one_batch() {
        let (server, gate, first) = gated_server(64);
        let block = server
            .submit_block("gate", tagged(0, 63), SubmitOptions::default())
            .unwrap();
        let row = server.submit("gate", vec![63.0]).unwrap();
        gate.open();
        assert_eq!(block.wait().unwrap().proba.n_rows(), 63);
        assert_eq!(row.wait().unwrap(), vec![0.5, 0.5]);
        first.wait().unwrap();
        assert_eq!(gate.batches(), vec![vec![-1.0], tagged(0, 64).data]);
        let m = server.metrics();
        assert_eq!((m.batches, m.batched_requests, m.responses), (2, 65, 65));
    }

    #[test]
    fn blocks_are_never_split_and_a_batch_never_exceeds_the_cap() {
        // 80 rows under a cap of 64 are two batches of 40, and the High
        // block submitted last runs first.
        let batches = run_gated(
            64,
            vec![
                (tagged(0, 40), Priority::Normal),
                (tagged(40, 40), Priority::High),
            ],
        );
        assert_eq!(batches, vec![tagged(40, 40).data, tagged(0, 40).data]);
    }

    #[test]
    fn a_block_over_the_cap_is_its_own_batch() {
        let batches = run_gated(
            64,
            vec![
                (tagged(0, 10), Priority::Normal),
                (tagged(10, 200), Priority::Normal),
            ],
        );
        assert_eq!(batches, vec![tagged(0, 10).data, tagged(10, 200).data]);
    }

    #[test]
    fn an_expired_block_replies_once_and_counts_its_rows() {
        let (server, data) = server_with_model(44);
        let rows = first_rows(&data, 5);
        let handle = server
            .submit_block("higgs", rows, SubmitOptions::new().deadline(Duration::ZERO))
            .unwrap();
        assert!(matches!(
            handle.wait_timeout(Duration::from_secs(5)),
            Some(Err(ServeError::DeadlineExceeded))
        ));
        assert!(matches!(handle.wait(), Err(ServeError::Disconnected)));
        let m = server.metrics();
        assert_eq!((m.requests, m.expired, m.errors), (5, 5, 5));
        assert_eq!((m.responses, m.batches), (0, 0));
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn a_block_reports_abstention_per_row_in_band() {
        let (server, data) = server_with_model(45);
        let rows = first_rows(&data, 6);
        // The top-2 margin never exceeds 1: every row abstains, and the
        // block still gets an answer rather than an error.
        let answer = server
            .submit_block("higgs", rows, SubmitOptions::new().abstain_below(1.5))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(answer.abstained, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!((answer.proba.n_rows(), answer.proba.n_cols), (6, 2));
        assert!(answer.proba.data.iter().all(|&p| p == 0.0));
        let m = server.metrics();
        assert_eq!((m.abstained, m.errors, m.responses), (6, 6, 0));
    }

    #[test]
    fn a_block_is_checked_before_it_is_queued() {
        let (server, _) = server_with_model(46);
        let submit = |model, rows| server.submit_block(model, rows, SubmitOptions::default());
        let narrow = RowBlock::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!(matches!(
            submit("higgs", narrow.clone()),
            Err(ServeError::ShapeMismatch {
                expected: 28,
                got: 2
            })
        ));
        assert!(matches!(
            submit("nope", narrow),
            Err(ServeError::UnknownModel(_))
        ));
        // No rows: nothing to run, answered without a batch.
        let empty = RowBlock {
            n_cols: 28,
            data: Vec::new(),
        };
        let answer = submit("higgs", empty).unwrap().wait().unwrap();
        assert_eq!((answer.version, answer.proba.n_rows()), (1, 0));
        let m = server.metrics();
        assert_eq!((m.requests, m.batches), (0, 0));
    }

    #[test]
    fn rows_queued_behind_busy_workers_leave_as_one_batch_in_priority_order() {
        let (server, gate, first) = gated_server(4);
        let handles: Vec<_> = [
            (Priority::Low, 0.0),
            (Priority::Normal, 1.0),
            (Priority::High, 2.0),
        ]
        .into_iter()
        .map(|(priority, tag)| {
            server
                .submit_with_options("gate", vec![tag], SubmitOptions::new().priority(priority))
                .unwrap()
        })
        .collect();
        assert_eq!(server.queue_depth(), 4);
        assert_eq!(gate.batches(), vec![vec![-1.0]], "the worker is busy");
        gate.open();
        for handle in handles.into_iter().chain([first]) {
            assert_eq!(handle.wait().unwrap(), vec![0.5, 0.5]);
        }
        // Three rows waited for the one worker and left together, High
        // first: no clock closed the batch early.
        assert_eq!(gate.batches(), vec![vec![-1.0], vec![2.0, 1.0, 0.0]]);
        assert_eq!(server.metrics().batches, 2);
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn a_full_slot_ships_at_max_batch_even_when_every_worker_is_busy() {
        let (server, gate, first) = gated_server(4);
        // Nine rows behind the busy worker at max_batch 4: two full batches
        // are cut without waiting for it, the ninth row waits.
        let handles: Vec<_> = (0..9)
            .map(|i| server.submit("gate", vec![i as f32]).unwrap())
            .collect();
        gate.open();
        for handle in handles.into_iter().chain([first]) {
            handle.wait().unwrap();
        }
        assert_eq!(
            gate.batches(),
            vec![
                vec![-1.0],
                vec![0.0, 1.0, 2.0, 3.0],
                vec![4.0, 5.0, 6.0, 7.0],
                vec![8.0]
            ]
        );
    }

    #[test]
    fn one_row_on_an_idle_server_is_answered_without_filling_the_batch() {
        let (pipeline, data) = tiny_pipeline(42);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("higgs", 1, pipeline));
        let server = InferenceServer::start(
            registry,
            BatchConfig {
                max_batch: 1024,
                workers: 1,
            },
        );
        // Nothing will ever fill the batch: the row leaves because it has
        // waited the coalescing window and the worker is idle.
        let handle = server
            .submit("higgs", data.features.row(0).to_vec())
            .unwrap();
        let proba = handle
            .wait_timeout(Duration::from_secs(5))
            .expect("an idle worker takes the ripe row")
            .unwrap();
        assert_eq!(proba.len(), 2);
        assert_eq!(server.metrics().batches, 1);
    }

    /// Panics on a row whose first feature is negative.
    struct PanicsOnNegative;

    impl Predictor for PanicsOnNegative {
        fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
            assert!(x.iter_rows().all(|row| row[0] >= 0.0), "negative feature");
            Ok(Matrix::filled(x.rows(), 2, 0.5))
        }
        fn n_inputs(&self) -> usize {
            1
        }
        fn n_classes(&self) -> usize {
            2
        }
    }

    #[test]
    fn a_panicking_predictor_fails_its_own_batch_only() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("touchy", 1, PanicsOnNegative));
        let server = InferenceServer::start(
            registry,
            BatchConfig {
                max_batch: 8,
                workers: 1,
            },
        );
        let err = server.predict("touchy", vec![-1.0]).unwrap_err();
        assert!(matches!(err, ServeError::Model(_)), "{err:?}");
        // The only worker survived, and the failed row is not left
        // pending.
        assert_eq!(server.predict("touchy", vec![1.0]).unwrap(), vec![0.5, 0.5]);
        let m = server.metrics();
        assert_eq!((m.errors, m.responses), (1, 1));
        assert_eq!(server.queue_depth(), 0);
    }

    /// [`PanicsOnNegative`] behind a gate, so a test decides what shares a
    /// batch.
    struct GatedPanicsOnNegative(GatePredictor);

    impl Predictor for GatedPanicsOnNegative {
        fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
            self.0.predict_proba(x)?;
            PanicsOnNegative.predict_proba(x)
        }
        fn n_inputs(&self) -> usize {
            1
        }
        fn n_classes(&self) -> usize {
            2
        }
    }

    #[test]
    fn a_panicking_predictor_fails_every_block_of_its_batch_and_only_those() {
        let gate = GatePredictor::new(1);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new(
            "touchy",
            1,
            GatedPanicsOnNegative(gate.clone()),
        ));
        let server = InferenceServer::start(
            registry,
            BatchConfig {
                max_batch: 4,
                workers: 1,
            },
        );
        let block = |data: &[f32]| {
            let rows = RowBlock {
                n_cols: 1,
                data: data.to_vec(),
            };
            server
                .submit_block("touchy", rows, SubmitOptions::default())
                .unwrap()
        };
        let parked = block(&[0.0]);
        gate.wait_entered(1);
        // Four rows fill a batch: the good block shares the bad one's fate.
        let good = block(&[1.0, 2.0]);
        let bad = block(&[-1.0, 3.0]);
        // The next batch is another pass.
        let later = block(&[4.0]);
        gate.open();
        assert_eq!(parked.wait().unwrap().proba.n_rows(), 1);
        for failed in [good, bad] {
            let err = failed.wait().unwrap_err();
            assert!(matches!(err, ServeError::Model(_)), "{err:?}");
        }
        assert_eq!(later.wait().unwrap().proba.data, vec![0.5, 0.5]);
        assert_eq!(
            gate.batches(),
            vec![vec![0.0], vec![1.0, 2.0, -1.0, 3.0], vec![4.0]]
        );
        let m = server.metrics();
        assert_eq!((m.errors, m.responses), (4, 2));
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn per_model_batch_policy_overrides_server_default() {
        let (pipeline, data) = tiny_pipeline(37);
        let registry = Arc::new(ModelRegistry::new());
        // The model caps its own batches at 2, far below the server's 64.
        registry.publish(
            ServedModel::new("higgs", 1, pipeline).with_batch_policy(BatchConfig {
                max_batch: 2,
                workers: 1,
            }),
        );
        let server = InferenceServer::start(Arc::clone(&registry), BatchConfig::default());
        let handles: Vec<_> = (0..16)
            .map(|i| {
                server
                    .submit("higgs", data.features.row(i).to_vec())
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let m = server.metrics();
        assert!(m.batches >= 8, "16 requests at max_batch 2: {}", m.batches);
        let biggest = m.batch_size_hist.iter().rposition(|&c| c > 0).unwrap();
        assert!(
            biggest <= 1,
            "no batch may exceed the per-model cap of 2 (bucket {biggest})"
        );
    }

    #[test]
    fn zero_deadline_requests_expire_unexecuted() {
        let (server, data) = server_with_model(38);
        let handles: Vec<_> = (0..6)
            .map(|i| {
                server
                    .submit_with_options(
                        "higgs",
                        data.features.row(i).to_vec(),
                        SubmitOptions::new().deadline(Duration::ZERO),
                    )
                    .unwrap()
            })
            .collect();
        for handle in handles {
            assert!(matches!(handle.wait(), Err(ServeError::DeadlineExceeded)));
        }
        let m = server.metrics();
        assert_eq!(m.expired, 6);
        assert_eq!(m.errors, 6);
        assert_eq!(m.responses, 0, "expired requests must never be executed");
        assert_eq!(m.batches, 0, "an all-expired slot dispatches no batch");
    }

    #[test]
    fn generous_deadlines_do_not_expire() {
        let (server, data) = server_with_model(39);
        let proba = server
            .submit_with_options(
                "higgs",
                data.features.row(0).to_vec(),
                SubmitOptions::new()
                    .priority(Priority::High)
                    .deadline(Duration::from_secs(30)),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(proba.len(), 2);
        assert_eq!(server.metrics().expired, 0);
    }

    #[test]
    fn impossible_abstain_threshold_abstains_every_request() {
        let (server, data) = server_with_model(40);
        // The top-2 margin never exceeds 1, so a threshold above 1 forces
        // abstention on every row — after the forward pass ran.
        let handles: Vec<_> = (0..6)
            .map(|i| {
                server
                    .submit_with_options(
                        "higgs",
                        data.features.row(i).to_vec(),
                        SubmitOptions::new().abstain_below(1.5),
                    )
                    .unwrap()
            })
            .collect();
        for handle in handles {
            assert!(matches!(handle.wait(), Err(ServeError::Abstained)));
        }
        let m = server.metrics();
        assert_eq!(m.abstained, 6);
        assert_eq!(m.errors, 6);
        assert_eq!(m.responses, 0);
        assert!(m.batches >= 1, "abstention happens after the forward pass");
    }

    #[test]
    fn zero_abstain_threshold_never_abstains() {
        let (server, data) = server_with_model(41);
        let proba = server
            .submit_with_options(
                "higgs",
                data.features.row(0).to_vec(),
                SubmitOptions::new().abstain_below(0.0),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(proba.len(), 2);
        let m = server.metrics();
        assert_eq!(m.abstained, 0);
        assert_eq!(m.responses, 1);
    }

    #[test]
    fn dispatch_order_is_priority_then_fifo() {
        let (reply, _keep) = unbounded();
        let now = Instant::now();
        let mk = |priority: Priority, tag: f32| Request {
            model: "m".into(),
            rows: RowBlock {
                n_cols: 1,
                data: vec![tag],
            },
            enqueued: now,
            priority,
            deadline: None,
            abstain_below: None,
            reply: reply.clone(),
        };
        let mut requests = vec![
            mk(Priority::Low, 0.0),
            mk(Priority::Normal, 1.0),
            mk(Priority::High, 2.0),
            mk(Priority::Normal, 3.0),
            mk(Priority::High, 4.0),
        ];
        order_for_dispatch(&mut requests);
        let tags: Vec<f32> = requests.iter().map(|r| r.rows.data[0]).collect();
        assert_eq!(tags, vec![2.0, 4.0, 1.0, 3.0, 0.0]);
    }

    #[test]
    fn take_batch_drains_high_priority_and_leaves_the_low_tail() {
        let (reply, _keep) = unbounded();
        let now = Instant::now();
        let mk = |priority: Priority, tag: f32| Request {
            model: "m".into(),
            rows: RowBlock {
                n_cols: 1,
                data: vec![tag],
            },
            enqueued: now,
            priority,
            deadline: None,
            abstain_below: None,
            reply: reply.clone(),
        };
        let mut slot = vec![
            mk(Priority::Low, 0.0),
            mk(Priority::Normal, 1.0),
            mk(Priority::High, 2.0),
            mk(Priority::Low, 3.0),
            mk(Priority::High, 4.0),
        ];
        // A burst of 5 with room for 3: both Highs and the first Normal
        // leave; the Lows stay queued for the next dispatch.
        let batch = take_batch(&mut slot, 3);
        let taken: Vec<f32> = batch.iter().map(|r| r.rows.data[0]).collect();
        assert_eq!(taken, vec![2.0, 4.0, 1.0]);
        let left: Vec<f32> = slot.iter().map(|r| r.rows.data[0]).collect();
        assert_eq!(left, vec![0.0, 3.0]);
        // The tail drains next, still in FIFO order.
        let rest = take_batch(&mut slot, 3);
        assert_eq!(rest.len(), 2);
        assert!(slot.is_empty());
    }

    #[test]
    fn split_expired_partitions_on_the_deadline() {
        let (reply, _keep) = unbounded();
        let now = Instant::now();
        let mk = |deadline: Option<Instant>| Request {
            model: "m".into(),
            rows: RowBlock::from_rows(&[]),
            enqueued: now,
            priority: Priority::Normal,
            deadline,
            abstain_below: None,
            reply: reply.clone(),
        };
        let requests = vec![
            mk(None),
            mk(Some(now - Duration::from_millis(1))),
            mk(Some(now + Duration::from_secs(60))),
        ];
        let (live, expired) = split_expired(requests, now);
        assert_eq!(live.len(), 2);
        assert_eq!(expired.len(), 1);
    }

    #[test]
    fn shutdown_is_clean_with_requests_in_flight() {
        let (server, data) = server_with_model(35);
        let handles: Vec<_> = (0..16)
            .map(|i| {
                server
                    .submit("higgs", data.features.row(i).to_vec())
                    .unwrap()
            })
            .collect();
        drop(server); // joins the workers, which drain every slot first
        for handle in handles {
            // Every request gets *some* terminal answer: a prediction or a
            // disconnect — never a hang.
            match handle.wait() {
                Ok(proba) => assert_eq!(proba.len(), 2),
                Err(ServeError::Disconnected) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn dropping_the_server_answers_every_queued_block() {
        let (server, gate, first) = gated_server(64);
        let rows: Vec<_> = (0..16)
            .map(|i| server.submit("gate", vec![i as f32]).unwrap())
            .collect();
        let block = server
            .submit_block("gate", tagged(100, 40), SubmitOptions::default())
            .unwrap();
        let metrics = Arc::clone(&server.metrics);
        assert_eq!(metrics.queue_depth(), 57);
        // Neither the window nor a free worker is waited for: the drop
        // itself must see every queued block answered.
        gate.open();
        drop(server);
        assert_eq!(first.wait().unwrap(), vec![0.5, 0.5]);
        for row in rows {
            assert_eq!(row.wait().unwrap(), vec![0.5, 0.5]);
        }
        let answer = block.wait().unwrap();
        assert_eq!((answer.version, answer.proba.n_rows()), (1, 40));
        assert_eq!(metrics.queue_depth(), 0);
        assert_eq!(metrics.snapshot().responses, 57);
    }

    #[test]
    fn a_non_finite_probability_fails_its_batch_as_a_model_error() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("broken", 1, NonFinitePredictor));
        let server = InferenceServer::start(registry, BatchConfig::default());
        // NaN, then ±inf: neither reaches the caller as an answer.
        for bad in [-1.0, 0.0] {
            let err = server.predict("broken", vec![bad]).unwrap_err();
            assert!(matches!(err, ServeError::Model(_)), "{bad}: {err:?}");
        }
        // The workers live on, and no failed row is left pending.
        assert_eq!(server.predict("broken", vec![1.0]).unwrap(), vec![0.5, 0.5]);
        let m = server.metrics();
        assert_eq!((m.errors, m.responses), (2, 1));
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn removing_a_model_errors_queued_requests() {
        let (server, data) = server_with_model(36);
        // Race removal against the dispatch; whichever side wins, the
        // caller must get a terminal answer.
        let handle = server
            .submit("higgs", data.features.row(0).to_vec())
            .unwrap();
        server.registry().remove("higgs");
        match handle.wait() {
            Ok(proba) => assert_eq!(proba.len(), 2),
            Err(ServeError::UnknownModel(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
        // New submissions fail fast.
        assert!(matches!(
            server.submit("higgs", data.features.row(0).to_vec()),
            Err(ServeError::UnknownModel(_))
        ));
    }
}
