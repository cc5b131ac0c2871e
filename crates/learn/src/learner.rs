//! The online learner: shadow trainer, held-out reservoir, gated
//! hot-swap publishing, and crash recovery.
//!
//! One [`OnlineLearner`] continuously improves one registry model. Labeled
//! posts arrive through a bounded queue ([`OnlineLearner::submit`], fed by
//! the gateway's learn endpoint); a background trainer thread takes one
//! post at a time, diverts every k-th row into a held-out evaluation
//! reservoir, appends the rest to the replay log, and folds them into a
//! *shadow* copy of the model ([`Pipeline::learn_batch`]). Every N trained
//! rows the shadow is evaluated against the reservoir and, if it has not
//! regressed past the configured delta, published through the registry's
//! atomic hot-swap. Serving never blocks on any of this: readers keep
//! resolving the registry exactly as before, and in-flight batches finish
//! on the version they started on.
//!
//! # Fold boundaries
//!
//! The EMA traces depend on where the stream is cut into folds, so the
//! cuts come from the data alone: a post is folded in `fold_rows` chunks
//! at offsets 0, `fold_rows`, 2·`fold_rows`, …, a fold never spans two
//! posts, and a publish is tried after the fold that brings the trained-row
//! count to `publish_rows`. When the trainer wakes plays no part, so two
//! learners fed the same posts in the same order end bit-identical.
//!
//! # Durability
//!
//! The learner's state directory pairs a checkpoint with its replay log:
//!
//! ```text
//! state_dir/
//!   current            <- the active generation number (atomic rename)
//!   checkpoint-{n}/    <- pipeline artifact the shadow was last saved as
//!   replay-{n}.log     <- labeled rows folded since that checkpoint
//! ```
//!
//! A publish creates generation `n+1` (fresh checkpoint + empty log) and
//! then swaps `current` with one atomic rename, so a crash at any point
//! leaves a consistent pair: either the old checkpoint with its full log,
//! or the new checkpoint with an empty one. Restart loads the checkpoint
//! and replays the log; because folds are deterministic and the shadow is
//! re-normalized to the checkpoint state after every save, the rebuilt
//! shadow is bit-identical to the one that was killed.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::{CoreError, Pipeline, Workspace};
use bcpnn_serve::{ModelRegistry, RowBlock, ServedModel};
use bcpnn_tensor::Matrix;

use crate::metrics::{LearnMetrics, LearnSnapshot};
use crate::replay::ReplayLog;

/// Why a [`OnlineLearner::submit`] call was refused. Submissions are
/// all-or-nothing: a refused batch leaves no partial rows behind.
#[derive(Debug)]
pub enum LearnError {
    /// The bounded ingest queue cannot take the whole batch right now —
    /// backpressure; retry later.
    QueueFull {
        /// Total queue capacity in rows.
        capacity: usize,
    },
    /// The block's width does not match the model's input width.
    ShapeMismatch {
        /// Feature width the model expects.
        expected: usize,
        /// Width of the submitted block.
        got: usize,
    },
    /// A label is outside the model's class range.
    BadLabel {
        /// The offending label.
        label: usize,
        /// Number of classes the model has.
        n_classes: usize,
    },
    /// Rows and labels differ in length, the batch is empty, or it holds
    /// more rows than the queue ever can (no retry can succeed).
    BadBatch(String),
    /// The learner is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "learn queue is full ({capacity} rows); retry later")
            }
            Self::ShapeMismatch { expected, got } => {
                write!(f, "learn rows must have {expected} features, got {got}")
            }
            Self::BadLabel { label, n_classes } => {
                write!(f, "label {label} out of range for {n_classes} classes")
            }
            Self::BadBatch(what) => write!(f, "{what}"),
            Self::ShuttingDown => write!(f, "learner is shutting down"),
        }
    }
}

impl std::error::Error for LearnError {}

/// Tuning knobs of one [`OnlineLearner`].
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// Directory for checkpoints and the replay log. Created if absent; if
    /// it holds a previous learner's state, that state is recovered and
    /// the `base` pipeline passed to [`OnlineLearner::start`] is ignored.
    pub state_dir: PathBuf,
    /// Backend checkpoints are loaded onto (backends are runtime
    /// configuration, not model state).
    pub backend: BackendKind,
    /// Ingest queue capacity in rows; submissions beyond it are refused
    /// with [`LearnError::QueueFull`], a post larger than it with
    /// [`LearnError::BadBatch`].
    pub queue_capacity: usize,
    /// Rows per fold (one replay-log frame, one `learn_batch` call): a post
    /// is folded in chunks of this many rows at fixed offsets, its last
    /// chunk holding the remainder.
    pub fold_rows: usize,
    /// Try to publish the shadow once this many rows were trained since
    /// the last attempt (checked after every fold).
    pub publish_rows: u64,
    /// Accuracy-gate tolerance: publish only while
    /// `shadow_accuracy + accuracy_delta >= live_accuracy` on the
    /// reservoir. `0.0` demands the shadow never regress at all.
    pub accuracy_delta: f64,
    /// Held-out reservoir capacity in rows (a ring — newest rows displace
    /// the oldest, so the gate tracks the current distribution).
    pub reservoir_capacity: usize,
    /// Every `reservoir_stride`-th ingested row is held out for evaluation
    /// instead of trained. `0` disables the reservoir (publishes are then
    /// ungated).
    pub reservoir_stride: u64,
    /// Gate publishes only once the reservoir holds at least this many
    /// rows; below it (cold start) publishes pass ungated.
    pub min_eval_rows: usize,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        Self {
            state_dir: PathBuf::from("learn-state"),
            backend: BackendKind::Parallel,
            queue_capacity: 8192,
            fold_rows: 256,
            publish_rows: 1024,
            accuracy_delta: 0.01,
            reservoir_capacity: 512,
            reservoir_stride: 10,
            min_eval_rows: 32,
        }
    }
}

struct QueueState {
    /// Accepted posts with their labels; a fold never spans two.
    posts: VecDeque<(RowBlock, Vec<usize>)>,
    /// Rows across `posts`, counted against `queue_capacity`.
    rows: usize,
    ingested: u64,
    applied: u64,
    shutdown: bool,
}

struct Inner {
    model: String,
    config: LearnerConfig,
    registry: Arc<ModelRegistry>,
    metrics: LearnMetrics,
    input_width: usize,
    n_classes: usize,
    queue: Mutex<QueueState>,
    /// Wakes the trainer thread (new post / shutdown).
    work: Condvar,
    /// Wakes `drain()` callers (rows applied).
    progress: Condvar,
    shadow: Mutex<Pipeline>,
}

/// A continuously-learning deployment of one model. See the
/// [crate docs](crate) for the life cycle; dropping the learner stops the
/// trainer thread (pending queued rows are discarded — acknowledged rows
/// that already reached the replay log are not).
pub struct OnlineLearner {
    inner: Arc<Inner>,
    trainer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for OnlineLearner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineLearner")
            .field("model", &self.inner.model)
            .field("state_dir", &self.inner.config.state_dir)
            .finish()
    }
}

impl OnlineLearner {
    /// Start a learner for `model`, recovering from `config.state_dir` if
    /// it holds previous state and seeding it from `base` otherwise.
    ///
    /// In both cases the in-memory shadow is established by *loading* the
    /// checkpoint artifact (never by adopting `base` directly), so the
    /// shadow's state is always exactly what a restart would reconstruct.
    /// Replay-log frames found on disk are folded back in before the
    /// trainer thread starts.
    pub fn start(
        registry: Arc<ModelRegistry>,
        model: &str,
        base: &Pipeline,
        config: LearnerConfig,
    ) -> Result<OnlineLearner, CoreError> {
        std::fs::create_dir_all(&config.state_dir).map_err(CoreError::Io)?;
        let metrics = LearnMetrics::new();

        // Resolve the active generation: recover it, or mint generation 0
        // from `base`.
        let generation = match read_current(&config.state_dir).map_err(CoreError::Io)? {
            Some(generation) => generation,
            None => {
                base.save(checkpoint_dir(&config.state_dir, 0))?;
                write_current(&config.state_dir, 0).map_err(CoreError::Io)?;
                0
            }
        };
        let mut shadow = Pipeline::load(
            checkpoint_dir(&config.state_dir, generation),
            config.backend,
        )?;
        let (log, recovery) =
            ReplayLog::open(&log_path(&config.state_dir, generation)).map_err(CoreError::Io)?;

        // Replay: fold the logged rows back in, frame by frame, exactly as
        // the trainer originally did.
        let mut ws = Workspace::new();
        for frame in &recovery.frames {
            shadow.learn_batch(&frame.rows, &frame.labels, &mut ws)?;
        }
        metrics.replayed_frames.store(
            recovery.frames.len() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        metrics
            .replay_log_bytes
            .store(log.bytes(), std::sync::atomic::Ordering::Relaxed);

        let input_width = shadow.input_width();
        let n_classes = shadow.n_classes();
        let inner = Arc::new(Inner {
            model: model.to_string(),
            config,
            registry,
            metrics,
            input_width,
            n_classes,
            queue: Mutex::new(QueueState {
                posts: VecDeque::new(),
                rows: 0,
                ingested: 0,
                applied: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
            shadow: Mutex::new(shadow),
        });
        let trainer = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("bcpnn-learn-{model}"))
                .spawn(move || trainer_loop(&inner, generation, log, ws))
                .expect("failed to spawn learner trainer thread")
        };
        Ok(OnlineLearner {
            inner,
            trainer: Some(trainer),
        })
    }

    /// The registry model this learner feeds.
    pub fn model(&self) -> &str {
        &self.inner.model
    }

    /// Offer a block of labeled rows, one label per row. All-or-nothing:
    /// either every row is queued (and will be durably logged before it is
    /// trained) or none is. The block is one post: its fold boundaries
    /// are fixed offsets into it (see the module docs). Returns the number
    /// of rows accepted.
    pub fn submit(&self, rows: RowBlock, labels: &[usize]) -> Result<usize, LearnError> {
        let n_rows = rows.n_rows();
        if n_rows == 0 {
            return Err(LearnError::BadBatch("learn batch is empty".into()));
        }
        if n_rows != labels.len() {
            return Err(LearnError::BadBatch(format!(
                "{n_rows} rows but {} labels",
                labels.len()
            )));
        }
        if rows.n_cols as usize != self.inner.input_width {
            return Err(LearnError::ShapeMismatch {
                expected: self.inner.input_width,
                got: rows.n_cols as usize,
            });
        }
        for &label in labels {
            if label >= self.inner.n_classes {
                return Err(LearnError::BadLabel {
                    label,
                    n_classes: self.inner.n_classes,
                });
            }
        }
        let capacity = self.inner.config.queue_capacity;
        if n_rows > capacity {
            return Err(LearnError::BadBatch(format!(
                "{n_rows} rows exceed the learn queue's capacity of {capacity}; split the post"
            )));
        }
        let mut state = self.inner.queue.lock().unwrap();
        if state.shutdown {
            return Err(LearnError::ShuttingDown);
        }
        if state.rows + n_rows > capacity {
            self.inner
                .metrics
                .rows_rejected
                .fetch_add(n_rows as u64, std::sync::atomic::Ordering::Relaxed);
            return Err(LearnError::QueueFull { capacity });
        }
        state.posts.push_back((rows, labels.to_vec()));
        state.rows += n_rows;
        state.ingested += n_rows as u64;
        self.inner
            .metrics
            .rows_ingested
            .fetch_add(n_rows as u64, std::sync::atomic::Ordering::Relaxed);
        self.inner
            .metrics
            .queue_depth
            .store(state.rows as u64, std::sync::atomic::Ordering::Relaxed);
        drop(state);
        self.inner.work.notify_one();
        Ok(n_rows)
    }

    /// Block until every row accepted so far has been folded (and any
    /// publish it triggered has completed). A test/ops barrier, not a
    /// serving-path call.
    pub fn drain(&self) {
        let mut state = self.inner.queue.lock().unwrap();
        while state.applied < state.ingested && !state.shutdown {
            state = self.inner.progress.wait(state).unwrap();
        }
    }

    /// Point-in-time copy of the learner's counters.
    #[must_use]
    pub fn metrics(&self) -> LearnSnapshot {
        self.inner.metrics.snapshot()
    }

    /// A clone of the current shadow pipeline (what the next publish would
    /// ship). Locks the trainer out briefly; intended for tests and
    /// introspection.
    #[must_use]
    pub fn shadow_pipeline(&self) -> Pipeline {
        self.inner.shadow.lock().unwrap().clone()
    }
}

impl Drop for OnlineLearner {
    fn drop(&mut self) {
        {
            let mut state = self.inner.queue.lock().unwrap();
            state.shutdown = true;
        }
        self.inner.work.notify_all();
        self.inner.progress.notify_all();
        if let Some(trainer) = self.trainer.take() {
            let _ = trainer.join();
        }
    }
}

fn checkpoint_dir(state_dir: &Path, generation: u64) -> PathBuf {
    state_dir.join(format!("checkpoint-{generation}"))
}

fn log_path(state_dir: &Path, generation: u64) -> PathBuf {
    state_dir.join(format!("replay-{generation}.log"))
}

/// Read the active generation number, `None` on a fresh state dir.
fn read_current(state_dir: &Path) -> std::io::Result<Option<u64>> {
    match std::fs::read_to_string(state_dir.join("current")) {
        Ok(text) => text.trim().parse::<u64>().map(Some).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt generation marker in {}", state_dir.display()),
            )
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Atomically point `current` at `generation` (write-then-rename).
fn write_current(state_dir: &Path, generation: u64) -> std::io::Result<()> {
    let tmp = state_dir.join("current.tmp");
    std::fs::write(&tmp, format!("{generation}\n"))?;
    std::fs::rename(&tmp, state_dir.join("current"))
}

/// Everything the trainer thread owns outright (no locks needed).
struct TrainerState {
    generation: u64,
    log: ReplayLog,
    ws: Workspace,
    reservoir: VecDeque<(Vec<f32>, usize)>,
    split_counter: u64,
    rows_since_publish: u64,
}

fn trainer_loop(inner: &Arc<Inner>, generation: u64, log: ReplayLog, ws: Workspace) {
    let mut state = TrainerState {
        generation,
        log,
        ws,
        reservoir: VecDeque::new(),
        split_counter: 0,
        rows_since_publish: 0,
    };
    let fold_rows = inner.config.fold_rows.max(1);
    loop {
        let (rows, labels) = {
            let mut queue = inner.queue.lock().unwrap();
            let post = loop {
                if queue.shutdown {
                    return;
                }
                if let Some(post) = queue.posts.pop_front() {
                    break post;
                }
                queue = inner.work.wait(queue).unwrap();
            };
            queue.rows -= post.0.n_rows();
            inner
                .metrics
                .queue_depth
                .store(queue.rows as u64, std::sync::atomic::Ordering::Relaxed);
            post
        };

        // The publish counter resets on every attempt, accepted or not,
        // so a rejected shadow re-qualifies only after fresh evidence.
        let chunks = rows.data.chunks(fold_rows * inner.input_width);
        for (chunk, chunk_labels) in chunks.zip(labels.chunks(fold_rows)) {
            fold(inner, &mut state, chunk, chunk_labels);
            if state.rows_since_publish >= inner.config.publish_rows {
                try_publish(inner, &mut state);
                state.rows_since_publish = 0;
            }
        }

        let mut queue = inner.queue.lock().unwrap();
        queue.applied += labels.len() as u64;
        drop(queue);
        inner.progress.notify_all();
    }
}

/// Split one chunk of a post (row-major `rows`, one label each) into
/// reservoir and training rows, log the training rows as one frame, and
/// fold them into the shadow.
fn fold(inner: &Arc<Inner>, state: &mut TrainerState, rows: &[f32], labels: &[usize]) {
    let mut train_data = Vec::with_capacity(rows.len());
    let mut train_labels = Vec::with_capacity(labels.len());
    let mut n_heldout = 0u64;
    for (row, &label) in rows.chunks_exact(inner.input_width).zip(labels) {
        state.split_counter += 1;
        let hold_out = inner.config.reservoir_stride > 0
            && state
                .split_counter
                .is_multiple_of(inner.config.reservoir_stride);
        if hold_out {
            if state.reservoir.len() >= inner.config.reservoir_capacity {
                state.reservoir.pop_front();
            }
            state.reservoir.push_back((row.to_vec(), label));
            n_heldout += 1;
        } else {
            train_data.extend_from_slice(row);
            train_labels.push(label);
        }
    }
    inner
        .metrics
        .rows_heldout
        .fetch_add(n_heldout, std::sync::atomic::Ordering::Relaxed);
    let n_train = train_labels.len();
    if n_train == 0 {
        return;
    }
    let rows = Matrix::from_vec(n_train, inner.input_width, train_data);

    // Durability before learning: a row is folded only once it is on disk,
    // so an acknowledged-and-trained row always survives a restart.
    if state.log.append(&rows, &train_labels).is_err() {
        // An unloggable fold must not be trained either (replay would
        // silently diverge). Drop the fold; the rejection counter is the
        // operator's signal.
        inner
            .metrics
            .rows_rejected
            .fetch_add(n_train as u64, std::sync::atomic::Ordering::Relaxed);
        return;
    }
    let _ = state.log.sync();
    inner
        .metrics
        .replay_log_bytes
        .store(state.log.bytes(), std::sync::atomic::Ordering::Relaxed);

    let fold = {
        let mut shadow = inner.shadow.lock().unwrap();
        shadow.learn_batch(&rows, &train_labels, &mut state.ws)
    };
    if fold.is_ok() {
        state.rows_since_publish += n_train as u64;
        inner
            .metrics
            .rows_trained
            .fetch_add(n_train as u64, std::sync::atomic::Ordering::Relaxed);
        inner
            .metrics
            .folds
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Accuracy of `predictor` on the reservoir rows.
fn reservoir_accuracy(
    predictor: &dyn Predictor,
    rows: &Matrix<f32>,
    labels: &[usize],
) -> Option<f64> {
    let proba = predictor.predict_proba(rows).ok()?;
    let predicted = bcpnn_tensor::reduce::row_argmax(&proba);
    let hits = predicted.iter().zip(labels).filter(|(p, l)| p == l).count();
    Some(hits as f64 / labels.len() as f64)
}

/// Evaluate the shadow against the live model on the reservoir and, if the
/// gate passes, checkpoint + rotate + hot-swap.
fn try_publish(inner: &Arc<Inner>, state: &mut TrainerState) {
    // The gate, when there is enough held-out evidence to run it.
    if state.reservoir.len() >= inner.config.min_eval_rows.max(1) {
        let n = state.reservoir.len();
        let mut data = Vec::with_capacity(n * inner.input_width);
        let mut labels = Vec::with_capacity(n);
        for (row, label) in &state.reservoir {
            data.extend_from_slice(row);
            labels.push(*label);
        }
        let rows = Matrix::from_vec(n, inner.input_width, data);
        let shadow_acc = {
            let shadow = inner.shadow.lock().unwrap();
            reservoir_accuracy(&*shadow, &rows, &labels)
        };
        let live_acc = inner
            .registry
            .lookup(&inner.model)
            .and_then(|model| reservoir_accuracy(model.predictor(), &rows, &labels));
        if let (Some(shadow_acc), Some(live_acc)) = (shadow_acc, live_acc) {
            inner
                .metrics
                .set_accuracy(shadow_acc as f32, live_acc as f32);
            if shadow_acc + inner.config.accuracy_delta < live_acc {
                inner
                    .metrics
                    .publishes_rejected
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return;
            }
        }
    }

    // Next generation: checkpoint the shadow, give it a fresh empty log,
    // and swap `current` atomically — see the module docs for why this
    // ordering is crash-consistent.
    let next = state.generation + 1;
    let dir = checkpoint_dir(&inner.config.state_dir, next);
    let publish = (|| -> Result<(), CoreError> {
        {
            let mut shadow = inner.shadow.lock().unwrap();
            shadow.save(&dir)?;
            // Re-normalize the shadow to exactly the state a restart would
            // load (save does not persist transient RNG position), so
            // checkpoint + empty log keeps describing the shadow exactly.
            *shadow = Pipeline::load(&dir, inner.config.backend)?;
        }
        let (new_log, _) =
            ReplayLog::open(&log_path(&inner.config.state_dir, next)).map_err(CoreError::Io)?;
        write_current(&inner.config.state_dir, next).map_err(CoreError::Io)?;
        state.log = new_log;
        Ok(())
    })();
    if publish.is_err() {
        // Could not make the new generation durable; keep serving and
        // learning on the old one and surface it as a rejected publish.
        inner
            .metrics
            .publishes_rejected
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let old = state.generation;
    state.generation = next;
    inner
        .metrics
        .replay_log_bytes
        .store(state.log.bytes(), std::sync::atomic::Ordering::Relaxed);

    // Hot-swap: the registry publish is atomic; readers either get the old
    // or the new version, and in-flight batches finish on the old one.
    let version = inner
        .registry
        .lookup(&inner.model)
        .map_or(1, |m| m.version() + 1);
    let clone = inner.shadow.lock().unwrap().clone();
    inner
        .registry
        .publish(ServedModel::new(&inner.model, version, clone));
    inner
        .metrics
        .publishes
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    // The displaced generation is garbage now (best-effort cleanup).
    let _ = std::fs::remove_dir_all(checkpoint_dir(&inner.config.state_dir, old));
    let _ = std::fs::remove_file(log_path(&inner.config.state_dir, old));
}
