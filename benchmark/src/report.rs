//! What one repetition of a workload is given and hands back, and the
//! per-run resources (scratch directories, peak memory) around it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bcpnn_core::EvalReport;

use crate::stats::median;
use crate::trace::Tracer;

/// Failure messages kept per repetition and per load phase; the counts
/// keep counting.
pub const MAX_ERRORS: usize = 5;

/// What one repetition is given.
pub struct Run<'a> {
    /// Derives every input the program receives: the data, the request
    /// stream, the cascade threshold. `--seed` plus the repetition's index.
    pub data_seed: u64,
    /// Seeds the models' own draws (receptive fields, initial weights,
    /// epoch shuffles): `fixture::MODEL_SEED` plus the repetition's index.
    pub model_seed: u64,
    /// Time to measure for: `--seconds` over the repetitions of a run.
    pub budget: Duration,
    /// `--seconds`, for the workload whose operation count is fixed.
    pub seconds: u64,
    /// The benchmark's `out/` directory.
    pub out: &'a Path,
}

/// One repetition: fresh set-up, one measured phase.
#[derive(Default)]
pub struct Rep {
    /// Data generation, training or loading the served models, starting
    /// servers, warm-up.
    pub setup_s: f64,
    pub rows_per_s: f64,
    /// One sample per operation (request, batch or fit).
    pub latencies_ms: Vec<f64>,
    pub accuracy: f64,
    pub auc: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations or checks failed (first few).
    pub errors: Vec<String>,
    /// Per-layer metrics; filled in the traced pass only.
    pub layers: Vec<(&'static str, f64)>,
}

impl Rep {
    /// Count one operation, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.fail(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(why);
        }
    }

    pub fn quality(&mut self, eval: &EvalReport) {
        self.accuracy = eval.accuracy;
        self.auc = eval.auc;
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Median duration of the spans called `span`, in `unit_ns`, per `per`.
    pub fn layer_from_spans(
        &mut self,
        tracer: &Tracer,
        name: &'static str,
        span: &str,
        unit_ns: f64,
        per: f64,
    ) {
        self.layer(name, median(&tracer.durations_ns(span)) / unit_ns / per);
    }

    /// Median self time (duration minus covered children) of the spans
    /// called `span`, in milliseconds.
    pub fn layer_from_self_times(&mut self, tracer: &Tracer, name: &'static str, span: &str) {
        self.layer(name, median(&tracer.self_times_ns(span)) / NS_PER_MS);
    }
}

pub const NS_PER_US: f64 = 1e3;
pub const NS_PER_MS: f64 = 1e6;
pub const NS_PER_S: f64 = 1e9;

/// `Ok` when `ok`, else the message.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// A scratch directory inside the benchmark's `out/`, removed on drop —
/// also when a repetition panics and unwinds.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out: &Path, label: &str) -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out.join(format!("tmp-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("the benchmark's out directory is writable");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
