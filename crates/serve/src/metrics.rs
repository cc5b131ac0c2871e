//! Serving metrics: request/batch counters, a batch-size histogram, and a
//! log-bucketed latency histogram with p50/p99 estimates.
//!
//! Everything is lock-free atomics so the hot path (one `fetch_add` per
//! counter per block of rows) never contends with readers;
//! [`ServingMetrics::snapshot`] folds the counters into an owned
//! [`MetricsSnapshot`] for reporting.
//!
//! Snapshots can be merged across shards with
//! [`MetricsSnapshot::aggregate`] and written in Prometheus text
//! exposition format with [`MetricsSnapshot::write_metrics`], through
//! [`Exposition`]: the one writer every `/metrics` source in the
//! workspace writes through.

use std::collections::{HashMap, HashSet};
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of latency buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1)) µs`, with the last bucket open-ended.
const LATENCY_BUCKETS: usize = 28;
/// Number of batch-size buckets: bucket `i` holds sizes in
/// `[2^i, 2^(i+1))`, with the last bucket open-ended.
const BATCH_BUCKETS: usize = 16;

/// Lock-free serving counters; shared by the scheduler threads.
#[derive(Debug, Default)]
pub struct ServingMetrics {
    /// Requests accepted by `submit`.
    requests: AtomicU64,
    /// Successful responses delivered.
    responses: AtomicU64,
    /// Error responses delivered.
    errors: AtomicU64,
    /// Requests expired past their deadline without running.
    expired: AtomicU64,
    /// Requests the model abstained on (confidence below the caller's
    /// threshold).
    abstained: AtomicU64,
    /// Batches dispatched to workers.
    batches: AtomicU64,
    /// Sum of batch sizes (for the mean).
    batched_requests: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    /// Sum of request latencies in microseconds (for the mean).
    latency_sum_us: AtomicU64,
    latency_hist: [AtomicU64; LATENCY_BUCKETS],
}

fn bucket_of(value: u64, buckets: usize) -> usize {
    // value 0 and 1 land in bucket 0; otherwise floor(log2(value)).
    ((64 - value.max(1).leading_zeros() as usize) - 1).min(buckets - 1)
}

impl ServingMetrics {
    /// Create zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `rows` accepted requests: one atomic add for a whole block.
    pub fn record_submits(&self, rows: usize) {
        self.requests.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Count a dispatched batch of the given size.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.batch_hist[bucket_of(size as u64, BATCH_BUCKETS)].fetch_add(1, Ordering::Relaxed);
    }

    /// Count `rows` delivered responses that share one end-to-end latency
    /// (the rows of one block): the same totals as `rows` one-row calls, in
    /// three atomic adds.
    pub fn record_responses(&self, rows: usize, latency: Duration) {
        let rows = rows as u64;
        self.responses.fetch_add(rows, Ordering::Relaxed);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_sum_us
            .fetch_add(us.wrapping_mul(rows), Ordering::Relaxed);
        self.latency_hist[bucket_of(us, LATENCY_BUCKETS)].fetch_add(rows, Ordering::Relaxed);
    }

    /// Count `rows` error responses.
    pub fn record_errors(&self, rows: usize) {
        self.errors.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Count `rows` requests expired past their deadline (also error
    /// responses).
    pub fn record_expiries(&self, rows: usize) {
        self.expired.fetch_add(rows as u64, Ordering::Relaxed);
        self.errors.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Count `rows` requests the model abstained on (also error responses —
    /// each caller receives [`ServeError::Abstained`] instead of a
    /// prediction).
    ///
    /// [`ServeError::Abstained`]: crate::ServeError::Abstained
    pub fn record_abstentions(&self, rows: usize) {
        self.abstained.fetch_add(rows as u64, Ordering::Relaxed);
        self.errors.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Number of accepted requests without a terminal outcome yet
    /// (`requests - responses - errors`, saturating): the live
    /// pending-queue depth. Every terminal path records exactly one
    /// response or error, so this converges back to zero when the queue
    /// drains.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        let done = self.responses.load(Ordering::Relaxed) + self.errors.load(Ordering::Relaxed);
        self.requests.load(Ordering::Relaxed).saturating_sub(done)
    }

    /// Fold the live counters into an owned snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency_hist: Vec<u64> = self
            .latency_hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let batch_hist: Vec<u64> = self
            .batch_hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        MetricsSnapshot::from_sums(Sums {
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            abstained: self.abstained.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            latency_sum_us: self.latency_sum_us.load(Ordering::Relaxed),
            batch_hist,
            latency_hist,
        })
    }
}

/// Raw sums a snapshot derives its means and percentiles from. Kept
/// internal so merging shards stays exact (sums add; means don't).
struct Sums {
    requests: u64,
    responses: u64,
    errors: u64,
    expired: u64,
    abstained: u64,
    batches: u64,
    batched_requests: u64,
    latency_sum_us: u64,
    batch_hist: Vec<u64>,
    latency_hist: Vec<u64>,
}

/// Estimate a percentile from a log2-bucketed histogram: find the bucket the
/// rank falls in and return its geometric midpoint (`2^i * sqrt(2)`), which
/// is within a factor of `sqrt(2)` of the true value.
fn percentile_from_hist(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 2f64.powi(i as i32) * std::f64::consts::SQRT_2;
        }
    }
    2f64.powi(hist.len() as i32 - 1) * std::f64::consts::SQRT_2
}

/// A point-in-time copy of the serving counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted.
    pub requests: u64,
    /// Successful responses delivered.
    pub responses: u64,
    /// Error responses delivered (includes `expired`).
    pub errors: u64,
    /// Requests that expired past their deadline without being executed.
    pub expired: u64,
    /// Requests the model abstained on: the forward pass ran but the
    /// top-2 probability margin fell below the caller's
    /// `abstain_below` threshold, so the caller got
    /// `ServeError::Abstained` instead of a prediction. Also counted in
    /// `errors`.
    pub abstained: u64,
    /// Accepted requests still waiting for a terminal outcome when the
    /// snapshot was taken (`requests - responses - errors`): the
    /// pending-queue depth `RouteMode`-style load-aware routing balances
    /// on.
    pub pending: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch_size: f64,
    /// Mean end-to-end latency in microseconds.
    pub mean_latency_us: f64,
    /// Median end-to-end latency in microseconds (log-bucket estimate).
    pub p50_latency_us: f64,
    /// 99th-percentile end-to-end latency in microseconds (log-bucket
    /// estimate).
    pub p99_latency_us: f64,
    /// Batch-size histogram; bucket `i` counts batches of `2^i..2^(i+1)`
    /// requests.
    pub batch_size_hist: Vec<u64>,
    /// Latency histogram; bucket `i` counts responses in
    /// `2^i..2^(i+1)` µs.
    pub latency_hist_us: Vec<u64>,
    /// Exact sum of batch sizes (`mean_batch_size` = this / `batches`).
    pub batched_requests: u64,
    /// Exact sum of response latencies in microseconds
    /// (`mean_latency_us` = this / `responses`).
    pub latency_sum_us: u64,
}

impl MetricsSnapshot {
    fn from_sums(sums: Sums) -> Self {
        MetricsSnapshot {
            requests: sums.requests,
            responses: sums.responses,
            errors: sums.errors,
            expired: sums.expired,
            abstained: sums.abstained,
            pending: sums.requests.saturating_sub(sums.responses + sums.errors),
            batches: sums.batches,
            mean_batch_size: if sums.batches == 0 {
                0.0
            } else {
                sums.batched_requests as f64 / sums.batches as f64
            },
            mean_latency_us: if sums.responses == 0 {
                0.0
            } else {
                sums.latency_sum_us as f64 / sums.responses as f64
            },
            p50_latency_us: percentile_from_hist(&sums.latency_hist, 0.50),
            p99_latency_us: percentile_from_hist(&sums.latency_hist, 0.99),
            batch_size_hist: sums.batch_hist,
            latency_hist_us: sums.latency_hist,
            batched_requests: sums.batched_requests,
            latency_sum_us: sums.latency_sum_us,
        }
    }

    /// Merge per-shard snapshots into one: counters, histograms, and the
    /// carried raw sums add exactly; means and percentiles are recomputed
    /// from the merged sums, so the aggregate is what a single combined
    /// server would have reported.
    pub fn aggregate<'a, I: IntoIterator<Item = &'a MetricsSnapshot>>(snapshots: I) -> Self {
        let mut sums = Sums {
            requests: 0,
            responses: 0,
            errors: 0,
            expired: 0,
            abstained: 0,
            batches: 0,
            batched_requests: 0,
            latency_sum_us: 0,
            batch_hist: vec![0; BATCH_BUCKETS],
            latency_hist: vec![0; LATENCY_BUCKETS],
        };
        for s in snapshots {
            sums.requests += s.requests;
            sums.responses += s.responses;
            sums.errors += s.errors;
            sums.expired += s.expired;
            sums.abstained += s.abstained;
            sums.batches += s.batches;
            sums.batched_requests += s.batched_requests;
            sums.latency_sum_us += s.latency_sum_us;
            for (acc, &v) in sums.batch_hist.iter_mut().zip(&s.batch_size_hist) {
                *acc += v;
            }
            for (acc, &v) in sums.latency_hist.iter_mut().zip(&s.latency_hist_us) {
                *acc += v;
            }
        }
        MetricsSnapshot::from_sums(sums)
    }

    /// Write the serving families into `out`, one sample per labeled
    /// snapshot in each family (e.g. `shard="all"`, `shard="0"`, …; an
    /// empty label set for a single pool).
    ///
    /// Counters become `_total` counters, the batch-size and latency
    /// histograms become cumulative-`le` Prometheus histograms with `_sum`
    /// and `_count`, and the latency quantile estimates are exported as
    /// gauges.
    ///
    /// ```
    /// use std::time::Duration;
    /// use bcpnn_serve::{Exposition, MetricsSnapshot, ServingMetrics};
    ///
    /// let metrics = ServingMetrics::new();
    /// metrics.record_submits(1);
    /// metrics.record_batch(1);
    /// metrics.record_responses(1, Duration::from_micros(250));
    ///
    /// let snapshot = metrics.snapshot();
    /// let text = Exposition::render(|out| MetricsSnapshot::write_metrics(out, &[(vec![], &snapshot)]));
    /// assert!(text.contains("# TYPE bcpnn_serve_requests_total counter"));
    /// assert!(text.contains("bcpnn_serve_requests_total 1"));
    /// assert!(text.contains("bcpnn_serve_latency_microseconds_count 1"));
    /// assert!(text.contains("bcpnn_serve_queue_depth 0"));
    /// ```
    pub fn write_metrics(out: &mut Exposition, series: &[(Vec<(&str, &str)>, &MetricsSnapshot)]) {
        type Def<T> = (&'static str, &'static str, fn(&MetricsSnapshot) -> T);
        let counters: [Def<u64>; 6] = [
            ("requests", "Requests accepted by submit.", |s| s.requests),
            ("responses", "Successful responses delivered.", |s| {
                s.responses
            }),
            ("errors", "Error responses delivered.", |s| s.errors),
            (
                "deadline_expired",
                "Requests expired past their deadline without running.",
                |s| s.expired,
            ),
            (
                "abstained",
                "Requests the model abstained on (confidence below threshold).",
                |s| s.abstained,
            ),
            ("batches", "Batches dispatched to workers.", |s| s.batches),
        ];
        for (name, help, value) in counters {
            let name = format!("bcpnn_serve_{name}_total");
            let mut family = out.family(&name, MetricKind::Counter, help);
            for (labels, snapshot) in series {
                family.sample(labels, value(snapshot));
            }
        }

        // Bucket `i` holds `2^i..2^(i+1)`, so its bound is `2^(i+1) - 1`,
        // the largest integer it holds; the last bucket is open-ended.
        type Hist = fn(&MetricsSnapshot) -> (&[u64], u64);
        let histograms: [(&str, &str, Hist); 2] = [
            ("batch_size", "Requests per dispatched batch.", |s| {
                (&s.batch_size_hist, s.batched_requests)
            }),
            (
                "latency_microseconds",
                "End-to-end request latency in microseconds.",
                |s| (&s.latency_hist_us, s.latency_sum_us),
            ),
        ];
        for (name, help, value) in histograms {
            let name = format!("bcpnn_serve_{name}");
            let mut family = out.family(&name, MetricKind::Histogram, help);
            for (labels, snapshot) in series {
                let (counts, sum) = value(snapshot);
                let bounds = (1..counts.len()).map(|i| (1u128 << i) - 1);
                family.histogram(labels, bounds, counts, sum);
            }
        }

        let gauges: [Def<f64>; 4] = [
            (
                "queue_depth",
                "Accepted requests still waiting for a terminal outcome.",
                |s| s.pending as f64,
            ),
            (
                "latency_p50_microseconds",
                "Estimated median end-to-end latency.",
                |s| s.p50_latency_us,
            ),
            (
                "latency_p99_microseconds",
                "Estimated 99th-percentile end-to-end latency.",
                |s| s.p99_latency_us,
            ),
            (
                "mean_batch_size",
                "Mean requests per dispatched batch.",
                |s| s.mean_batch_size,
            ),
        ];
        for (name, help, value) in gauges {
            let name = format!("bcpnn_serve_{name}");
            let mut family = out.family(&name, MetricKind::Gauge, help);
            for (labels, snapshot) in series {
                family.sample(labels, value(snapshot));
            }
        }
    }
}

/// The type a metric family is declared with on its `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// Cumulative `_bucket{le=...}` samples plus `_sum` and `_count`.
    Histogram,
    /// Declared without a type (what a parsed family without a known
    /// `# TYPE` line becomes).
    #[default]
    Untyped,
}

impl MetricKind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Untyped => "untyped",
        }
    }

    /// Parse a `# TYPE` keyword; anything unknown is [`MetricKind::Untyped`].
    pub fn parse(keyword: &str) -> MetricKind {
        match keyword {
            "counter" => MetricKind::Counter,
            "gauge" => MetricKind::Gauge,
            "histogram" => MetricKind::Histogram,
            _ => MetricKind::Untyped,
        }
    }
}

/// The one Prometheus text-exposition writer every `/metrics` source
/// writes through.
///
/// [`Exposition::family`] writes a family's `# HELP`/`# TYPE` pair and
/// returns a [`Family`] handle that writes its samples. The handle borrows
/// the writer mutably, so a family's samples are contiguous by
/// construction; declaring the same family twice is a bug (a debug
/// assertion). Label rendering, escaping (`\\`, `\"`, `\n`) and histogram
/// bucket accumulation live here and nowhere else.
///
/// ```
/// use bcpnn_serve::{validate_prometheus, Exposition, MetricKind};
///
/// let text = Exposition::render(|out| {
///     let mut requests = out.family("requests_total", MetricKind::Counter, "Requests seen.");
///     requests.sample(&[("model", "a\"b")], 3);
///     requests.sample(&[("model", "c")], 4);
///     out.family("latency_seconds", MetricKind::Histogram, "Latency.")
///         .histogram(&[], [0.1, 1.0], &[2, 1, 1], 2.5);
/// });
/// assert!(text.contains("requests_total{model=\"a\\\"b\"} 3\n"));
/// assert!(text.contains("latency_seconds_bucket{le=\"1\"} 3\n"));
/// assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 4\n"));
/// assert!(text.contains("latency_seconds_count 4\n"));
/// assert_eq!(validate_prometheus(&text), Ok(7));
/// ```
#[derive(Debug, Default)]
pub struct Exposition {
    text: String,
    declared: HashSet<String>,
}

impl Exposition {
    /// Run `write` against a fresh writer and return the exposition text.
    pub fn render(write: impl FnOnce(&mut Exposition)) -> String {
        let mut out = Exposition::default();
        write(&mut out);
        out.text
    }

    /// Declare a family — its `# HELP` and `# TYPE` lines — and return the
    /// handle that writes its samples.
    pub fn family<'a>(&'a mut self, name: &'a str, kind: MetricKind, help: &str) -> Family<'a> {
        let fresh = self.declared.insert(name.to_owned());
        debug_assert!(fresh, "metric family {name} declared twice");
        let _ = writeln!(self.text, "# HELP {name} {help}");
        let _ = writeln!(self.text, "# TYPE {name} {}", kind.as_str());
        Family {
            text: &mut self.text,
            name,
        }
    }
}

/// The sample writer of one declared family; see [`Exposition`].
#[derive(Debug)]
pub struct Family<'a> {
    text: &'a mut String,
    name: &'a str,
}

impl Family<'_> {
    /// One sample: `name{labels} value` (no braces without labels).
    pub fn sample(&mut self, labels: &[(&str, &str)], value: impl Display) {
        self.series("", labels, "", value);
    }

    /// One histogram series from per-bucket (not cumulative) `counts`:
    /// bucket `i` is written with `le` = the `i`-th of `bounds`, and the
    /// counts past the last bound go only into `+Inf`. `_count` is the
    /// total.
    pub fn histogram(
        &mut self,
        labels: &[(&str, &str)],
        bounds: impl IntoIterator<Item = impl Display>,
        counts: &[u64],
        sum: impl Display,
    ) {
        let mut bounds = bounds.into_iter();
        let mut total = 0u64;
        for &count in counts {
            total += count;
            if let Some(le) = bounds.next() {
                self.series("_bucket", labels, &format!("le=\"{le}\""), total);
            }
        }
        self.series("_bucket", labels, "le=\"+Inf\"", total);
        self.series("_sum", labels, "", sum);
        self.series("_count", labels, "", total);
    }

    /// One sample of the family's `suffix` series (`_bucket`, `_sum`,
    /// `_count` or nothing): `labels` are escaped and come first, then
    /// `written`, a label body already rendered (`k="v",...`), e.g. one
    /// read back out of another exposition.
    pub fn series(
        &mut self,
        suffix: &str,
        labels: &[(&str, &str)],
        written: &str,
        value: impl Display,
    ) {
        let escape = |v: &str| {
            v.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        };
        let mut pairs: Vec<String> = labels
            .iter()
            .map(|(key, v)| format!("{key}=\"{}\"", escape(v)))
            .collect();
        pairs.extend((!written.is_empty()).then(|| written.to_string()));
        let braces = if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        };
        let _ = writeln!(self.text, "{}{suffix}{braces} {value}", self.name);
    }
}

/// Check a Prometheus text exposition for structural validity, returning
/// the number of samples it contains.
///
/// This is the same check the crate's own unit tests apply to what
/// [`Exposition`] writes, made public so integration tests can assert a
/// whole `/metrics` scrape still parses: every line must be a
/// `# HELP`/`# TYPE` comment or a `name{labels} value` sample with a
/// parseable value and balanced, quoted labels; no metric may be declared
/// more than once; and each family's samples form one group that follows
/// its `# HELP`/`# TYPE` lines (`_bucket`/`_sum`/`_count` samples belong to
/// their declared histogram) — the text format forbids re-opening a
/// family further down the scrape.
///
/// ```
/// use bcpnn_serve::{validate_prometheus, Exposition, MetricsSnapshot, ServingMetrics};
///
/// let metrics = ServingMetrics::new();
/// metrics.record_submits(1);
/// metrics.record_responses(1, std::time::Duration::from_micros(120));
/// let snapshot = metrics.snapshot();
/// let text = Exposition::render(|out| MetricsSnapshot::write_metrics(out, &[(vec![], &snapshot)]));
/// let samples = validate_prometheus(&text).expect("exposition is valid");
/// assert!(samples > 0);
/// assert!(validate_prometheus("not { prometheus").is_err());
/// assert!(validate_prometheus("m 1\nn 1\nm 2\n").is_err());
/// ```
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().unwrap().is_ascii_alphabetic()
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    let mut samples = 0usize;
    let mut declared: HashSet<String> = HashSet::new();
    let mut kinds: HashMap<String, String> = HashMap::new();
    // The family being written, whether it has samples yet, and every
    // family left behind: entering one of those again re-opens it.
    let mut current: Option<(String, bool)> = None;
    let mut closed: HashSet<String> = HashSet::new();
    let mut enter = |family: &str, is_sample: bool| -> Result<(), String> {
        match &mut current {
            Some((name, has_samples)) if name == family => {
                if !is_sample && *has_samples {
                    return Err(format!("{family} is declared after its samples"));
                }
                *has_samples |= is_sample;
                return Ok(());
            }
            Some((name, _)) => {
                closed.insert(std::mem::take(name));
            }
            None => {}
        }
        if closed.contains(family) {
            return Err(format!("family {family} is re-opened"));
        }
        current = Some((family.to_string(), is_sample));
        Ok(())
    };
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap();
            let name = parts.next().unwrap_or("");
            if kind != "HELP" && kind != "TYPE" {
                return Err(format!("unknown comment kind in {line:?}"));
            }
            if !valid_name(name) {
                return Err(format!("bad metric name in {line:?}"));
            }
            if !declared.insert(format!("{kind} {name}")) {
                return Err(format!("duplicate {kind} declaration for {name}"));
            }
            if kind == "TYPE" {
                let t = parts.next().unwrap_or("");
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&t) {
                    return Err(format!("bad type {t:?} in {line:?}"));
                }
                kinds.insert(name.to_string(), t.to_string());
            }
            enter(name, false)?;
            continue;
        }
        // Sample line: name[{labels}] value
        let Some((name_part, value_part)) = line.rsplit_once(' ') else {
            return Err(format!("sample without a value in {line:?}"));
        };
        if value_part.parse::<f64>().is_err() && value_part != "+Inf" {
            return Err(format!("unparseable value in {line:?}"));
        }
        let name = if let Some((name, labels)) = name_part.split_once('{') {
            let Some(labels) = labels.strip_suffix('}') else {
                return Err(format!("unbalanced braces in {line:?}"));
            };
            for pair in
                split_label_pairs(labels).map_err(|problem| format!("{problem} in {line:?}"))?
            {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(format!("label without '=' in {line:?}"));
                };
                if !valid_name(k) && k != "le" {
                    return Err(format!("bad label key in {line:?}"));
                }
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(format!("unquoted label value in {line:?}"));
                }
            }
            name
        } else {
            name_part
        };
        if !valid_name(name) {
            return Err(format!("bad sample name in {line:?}"));
        }
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| {
                kinds
                    .get(*base)
                    .is_some_and(|t| t == "histogram" || t == "summary")
            })
            .unwrap_or(name);
        enter(family, true)?;
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition contains no samples".into());
    }
    Ok(samples)
}

/// Split a `k="v",k2="v2"` label body on the commas *between* pairs,
/// leaving commas (and `\"`-escaped quotes) inside quoted values intact —
/// a sample like `m{path="a,b"} 1` is valid and must not be split apart.
fn split_label_pairs(labels: &str) -> Result<impl Iterator<Item = &str>, String> {
    let mut cuts = Vec::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in labels.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => cuts.push(i),
            _ => {}
        }
    }
    if in_quotes {
        return Err("unterminated quoted label value".to_string());
    }
    let mut start = 0;
    let mut pairs = Vec::with_capacity(cuts.len() + 1);
    for cut in cuts {
        pairs.push(&labels[start..cut]);
        start = cut + 1;
    }
    pairs.push(&labels[start..]);
    Ok(pairs.into_iter())
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests {}  responses {}  errors {} (expired {})  batches {}  mean batch {:.2}",
            self.requests,
            self.responses,
            self.errors,
            self.expired,
            self.batches,
            self.mean_batch_size
        )?;
        write!(
            f,
            "latency µs: mean {:.0}  p50 ~{:.0}  p99 ~{:.0}",
            self.mean_latency_us, self.p50_latency_us, self.p99_latency_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exposition of `series`, one labeled snapshot per sample.
    fn exposition(series: &[(Vec<(&str, &str)>, &MetricsSnapshot)]) -> String {
        Exposition::render(|out| MetricsSnapshot::write_metrics(out, series))
    }

    /// The unlabeled exposition of one snapshot.
    fn text_of(snapshot: &MetricsSnapshot) -> String {
        exposition(&[(vec![], snapshot)])
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0, 16), 0);
        assert_eq!(bucket_of(1, 16), 0);
        assert_eq!(bucket_of(2, 16), 1);
        assert_eq!(bucket_of(3, 16), 1);
        assert_eq!(bucket_of(4, 16), 2);
        assert_eq!(bucket_of(1023, 16), 9);
        assert_eq!(bucket_of(u64::MAX, 16), 15, "clamped to the last bucket");
    }

    #[test]
    fn snapshot_aggregates_counts() {
        let m = ServingMetrics::new();
        m.record_submits(10);
        m.record_batch(4);
        m.record_batch(6);
        for i in 0..10u64 {
            m.record_responses(1, Duration::from_micros(100 + i));
        }
        m.record_errors(1);
        let s = m.snapshot();
        assert_eq!(s.requests, 10);
        assert_eq!(s.responses, 10);
        assert_eq!(s.errors, 1);
        assert_eq!(s.expired, 0);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch_size - 5.0).abs() < 1e-9);
        assert!(s.mean_latency_us >= 100.0 && s.mean_latency_us < 110.0);
        // 100 µs lands in bucket 6 (64..128): midpoint ~90.5.
        assert!(s.p50_latency_us > 64.0 && s.p50_latency_us < 128.0);
        assert_eq!(s.batch_size_hist[2], 2, "4 and 6 both land in bucket 2");
    }

    #[test]
    fn percentiles_split_a_bimodal_distribution() {
        let m = ServingMetrics::new();
        // 98 fast responses (~8 µs), 2 slow (~8192 µs).
        for _ in 0..98 {
            m.record_responses(1, Duration::from_micros(8));
        }
        for _ in 0..2 {
            m.record_responses(1, Duration::from_micros(8192));
        }
        let s = m.snapshot();
        assert!(s.p50_latency_us < 32.0, "p50 {}", s.p50_latency_us);
        assert!(s.p99_latency_us > 4000.0, "p99 {}", s.p99_latency_us);
    }

    #[test]
    fn empty_metrics_have_zero_estimates() {
        let s = ServingMetrics::new().snapshot();
        assert_eq!(s.p50_latency_us, 0.0);
        assert_eq!(s.mean_batch_size, 0.0);
        assert_eq!(s.mean_latency_us, 0.0);
    }

    #[test]
    fn queue_depth_tracks_unterminated_requests() {
        let m = ServingMetrics::new();
        assert_eq!(m.queue_depth(), 0);
        m.record_submits(5);
        assert_eq!(m.queue_depth(), 5);
        m.record_responses(1, Duration::from_micros(10));
        m.record_errors(1);
        m.record_expiries(1);
        assert_eq!(m.queue_depth(), 2);
        assert_eq!(m.snapshot().pending, 2);
        // Aggregation sums pending across shards.
        let merged = MetricsSnapshot::aggregate([&m.snapshot(), &m.snapshot()]);
        assert_eq!(merged.pending, 4);
        let text = text_of(&m.snapshot());
        assert!(text.contains("bcpnn_serve_queue_depth 2"));
    }

    #[test]
    fn expired_requests_count_as_errors_too() {
        let m = ServingMetrics::new();
        m.record_expiries(1);
        m.record_expiries(1);
        m.record_errors(1);
        let s = m.snapshot();
        assert_eq!(s.expired, 2);
        assert_eq!(s.errors, 3);
    }

    #[test]
    fn abstained_requests_count_as_errors_and_export() {
        let m = ServingMetrics::new();
        m.record_submits(1);
        m.record_abstentions(1);
        let s = m.snapshot();
        assert_eq!(s.abstained, 1);
        assert_eq!(s.errors, 1, "abstention is a terminal error outcome");
        assert_eq!(s.pending, 0, "abstention settles the request");
        let text = text_of(&s);
        assert_valid_prometheus(&text);
        assert!(text.contains("bcpnn_serve_abstained_total 1"));
        let merged = MetricsSnapshot::aggregate([&s, &s]);
        assert_eq!(merged.abstained, 2);
    }

    #[test]
    fn aggregate_matches_a_single_combined_recorder() {
        let a = ServingMetrics::new();
        let b = ServingMetrics::new();
        let combined = ServingMetrics::new();
        for i in 0..6u64 {
            let (shard, latency) = if i % 2 == 0 {
                (&a, Duration::from_micros(10 + i))
            } else {
                (&b, Duration::from_micros(5000 + i))
            };
            shard.record_submits(1);
            shard.record_responses(1, latency);
            combined.record_submits(1);
            combined.record_responses(1, latency);
        }
        a.record_batch(4);
        b.record_batch(2);
        combined.record_batch(4);
        combined.record_batch(2);
        b.record_expiries(1);
        combined.record_expiries(1);

        let merged = MetricsSnapshot::aggregate([&a.snapshot(), &b.snapshot()]);
        let reference = combined.snapshot();
        assert_eq!(merged, reference);
    }

    #[test]
    fn aggregate_of_nothing_is_empty() {
        let s = MetricsSnapshot::aggregate([]);
        assert_eq!(s.requests, 0);
        assert_eq!(s.mean_latency_us, 0.0);
        assert_eq!(s.p99_latency_us, 0.0);
    }

    /// Assert the exposition passes the public validity parser (see
    /// [`validate_prometheus`] for the rules it enforces).
    fn assert_valid_prometheus(text: &str) {
        if let Err(problem) = validate_prometheus(text) {
            panic!("invalid Prometheus exposition: {problem}");
        }
    }

    #[test]
    fn validator_accepts_commas_and_escapes_inside_quoted_labels() {
        // Third-party expositions this validator may be pointed at can
        // carry commas or escaped quotes inside label values.
        let text = "# TYPE m counter\nm{path=\"a,b\",k=\"x\\\"y\"} 1\n";
        assert_eq!(validate_prometheus(text), Ok(1));
        assert!(validate_prometheus("m{k=\"unterminated} 1\n").is_err());
    }

    #[test]
    fn validator_rejects_broken_expositions() {
        for (text, why) in [
            ("", "no samples"),
            ("# NOTE x y\n", "unknown comment kind"),
            ("# TYPE m sideways\nm 1\n", "bad type"),
            (
                "# TYPE m counter\n# TYPE m counter\nm 1\n",
                "duplicate declaration",
            ),
            ("m 1\nn 1\nm 2\n", "family re-opened"),
            (
                "# TYPE m counter\nm 1\n# HELP m late\n",
                "declared after samples",
            ),
            ("m not_a_number\n", "unparseable value"),
            ("m{k=unquoted} 1\n", "unquoted label value"),
            ("m{k=\"v\" 1\n", "unbalanced braces"),
            ("1metric 1\n", "bad sample name"),
        ] {
            assert!(validate_prometheus(text).is_err(), "must reject: {why}");
        }
    }

    #[test]
    fn prometheus_export_is_valid_and_complete() {
        let m = ServingMetrics::new();
        m.record_submits(5);
        m.record_batch(3);
        m.record_batch(2);
        for _ in 0..5 {
            m.record_responses(1, Duration::from_micros(120));
        }
        m.record_expiries(1);
        let s = m.snapshot();
        let text = text_of(&s);
        assert_valid_prometheus(&text);
        assert!(text.contains("bcpnn_serve_requests_total 5"));
        assert!(text.contains("bcpnn_serve_responses_total 5"));
        assert!(text.contains("bcpnn_serve_deadline_expired_total 1"));
        assert!(text.contains("bcpnn_serve_batch_size_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("bcpnn_serve_batch_size_sum 5"));
        assert!(text.contains("bcpnn_serve_batch_size_count 2"));
        assert!(text.contains("bcpnn_serve_latency_microseconds_count 5"));
        assert!(text.contains("bcpnn_serve_latency_p99_microseconds"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let m = ServingMetrics::new();
        m.record_batch(1); // bucket 0 (le="1")
        m.record_batch(2); // bucket 1 (le="3")
        m.record_batch(2);
        let text = text_of(&m.snapshot());
        assert!(text.contains("bcpnn_serve_batch_size_bucket{le=\"1\"} 1"));
        assert!(text.contains("bcpnn_serve_batch_size_bucket{le=\"3\"} 3"));
        assert!(text.contains("bcpnn_serve_batch_size_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn prometheus_labels_are_attached_to_every_sample() {
        let m = ServingMetrics::new();
        m.record_submits(1);
        m.record_batch(1);
        m.record_responses(1, Duration::from_micros(10));
        let text = exposition(&[(vec![("shard", "2")], &m.snapshot())]);
        assert_valid_prometheus(&text);
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.contains("shard=\"2\""),
                "sample missing shard label: {line:?}"
            );
        }
        assert!(text.contains("bcpnn_serve_batch_size_bucket{shard=\"2\",le=\"1\"} 1"));
    }

    #[test]
    fn multi_series_render_declares_each_metric_once() {
        let a = ServingMetrics::new();
        a.record_submits(1);
        a.record_batch(1);
        a.record_responses(1, Duration::from_micros(50));
        let b = ServingMetrics::new();
        b.record_submits(1);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let text = exposition(&[
            (
                vec![("shard", "all")],
                &MetricsSnapshot::aggregate([&sa, &sb]),
            ),
            (vec![("shard", "0")], &sa),
            (vec![("shard", "1")], &sb),
        ]);
        // The uniqueness assertion inside the parser is the real check: a
        // scraper rejects a second HELP/TYPE for the same metric name.
        assert_valid_prometheus(&text);
        assert!(text.contains("bcpnn_serve_requests_total{shard=\"all\"} 2"));
        assert!(text.contains("bcpnn_serve_requests_total{shard=\"0\"} 1"));
        assert!(text.contains("bcpnn_serve_requests_total{shard=\"1\"} 1"));
    }

    #[test]
    fn snapshot_carries_exact_sums() {
        let m = ServingMetrics::new();
        m.record_batch(3);
        m.record_batch(4);
        m.record_responses(1, Duration::from_micros(100));
        m.record_responses(1, Duration::from_micros(250));
        let s = m.snapshot();
        assert_eq!(s.batched_requests, 7);
        assert_eq!(s.latency_sum_us, 350);
        let merged = MetricsSnapshot::aggregate([&s, &s]);
        assert_eq!(merged.batched_requests, 14);
        assert_eq!(merged.latency_sum_us, 700);
    }

    #[test]
    fn counting_a_block_once_equals_counting_its_rows_one_by_one() {
        let (block, rows) = (ServingMetrics::new(), ServingMetrics::new());
        let latency = Duration::from_micros(1500);
        block.record_submits(64);
        block.record_responses(40, latency);
        block.record_errors(3);
        block.record_expiries(5);
        block.record_abstentions(7);
        for _ in 0..64 {
            rows.record_submits(1);
        }
        for _ in 0..40 {
            rows.record_responses(1, latency);
        }
        for _ in 0..3 {
            rows.record_errors(1);
        }
        for _ in 0..5 {
            rows.record_expiries(1);
        }
        for _ in 0..7 {
            rows.record_abstentions(1);
        }
        assert_eq!(block.snapshot(), rows.snapshot());
        assert_eq!(block.snapshot().latency_sum_us, 40 * 1500);
        assert_eq!(block.queue_depth(), 9);
    }

    #[test]
    fn display_mentions_the_headline_numbers() {
        let m = ServingMetrics::new();
        m.record_submits(1);
        m.record_batch(1);
        m.record_responses(1, Duration::from_micros(500));
        let text = m.snapshot().to_string();
        assert!(text.contains("requests 1"));
        assert!(text.contains("p50"));
    }
}
