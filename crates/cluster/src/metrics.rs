//! Router-tier metrics: the `bcpnn_cluster_*` family.
//!
//! These describe the *fan-out layer* — per-backend health, interior-hop
//! latency, failovers, retries — while each backend's own families
//! (fetched over the wire, then grouped by family and node-labeled by the
//! router's scrape) describe the scheduling behind it. All names live
//! under `bcpnn_cluster_`, disjoint from the backends', and everything is
//! written through the one `bcpnn_serve::Exposition` writer.
//!
//! Like the serve and gateway layers, everything is relaxed atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bcpnn_serve::{Exposition, MetricKind};

/// Upper bounds (seconds) of the fan-out latency histogram buckets; a
/// `+Inf` bucket is implicit.
pub const LATENCY_BUCKETS: [f64; 8] = [0.001, 0.005, 0.01, 0.025, 0.1, 0.5, 1.0, 5.0];

/// Lock-free cluster counters, shared by router workers and the health
/// checker.
#[derive(Debug)]
pub struct ClusterMetrics {
    /// Interior predict calls attempted (one per backend tried).
    fanouts: AtomicU64,
    /// Calls answered successfully.
    fanout_ok: AtomicU64,
    /// Requests that failed over to another replica at least once.
    failovers: AtomicU64,
    /// Individual extra attempts beyond the first (≥ failovers).
    retries: AtomicU64,
    /// Cluster-wide publish broadcasts.
    publishes: AtomicU64,
    /// Per-backend health: 1 up, 0 down (index = backend index).
    backend_up: Vec<AtomicU64>,
    /// Fan-out latency histogram: non-cumulative per-bucket hit counts
    /// (written cumulatively; their total is the `_count`), plus the sum
    /// in microseconds.
    latency_hits: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    latency_sum_us: AtomicU64,
}

impl ClusterMetrics {
    /// Zeroed metrics for a router over `n_backends` backends.
    pub fn new(n_backends: usize) -> Self {
        Self {
            fanouts: AtomicU64::new(0),
            fanout_ok: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            backend_up: (0..n_backends).map(|_| AtomicU64::new(0)).collect(),
            latency_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_sum_us: AtomicU64::new(0),
        }
    }

    /// Count one interior call attempt.
    pub fn record_fanout(&self) {
        self.fanouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful interior call and its round-trip latency.
    pub fn record_fanout_ok(&self, latency: Duration) {
        self.fanout_ok.fetch_add(1, Ordering::Relaxed);
        let secs = latency.as_secs_f64();
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&le| secs <= le)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_hits[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us
            .fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
    }

    /// Count a request that had to leave its first-choice replica.
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one extra attempt beyond a request's first.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one cluster-wide publish broadcast.
    pub fn record_publish(&self) {
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Set backend `i`'s health gauge.
    pub fn set_backend_up(&self, i: usize, up: bool) {
        if let Some(gauge) = self.backend_up.get(i) {
            gauge.store(u64::from(up), Ordering::Relaxed);
        }
    }

    /// Current health gauge of backend `i`.
    pub fn backend_up(&self, i: usize) -> bool {
        self.backend_up
            .get(i)
            .is_some_and(|g| g.load(Ordering::Relaxed) == 1)
    }

    /// Number of backends currently marked up.
    pub fn backends_up(&self) -> usize {
        self.backend_up
            .iter()
            .filter(|g| g.load(Ordering::Relaxed) == 1)
            .count()
    }

    /// Requests that failed over at least once (for tests/ops assertions).
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Write the `bcpnn_cluster_*` families into `out`.
    pub fn write_metrics(&self, out: &mut Exposition) {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let counters = [
            (
                "fanouts",
                "Interior predict calls attempted (one per backend tried).",
                &self.fanouts,
            ),
            (
                "fanout_ok",
                "Interior predict calls answered successfully.",
                &self.fanout_ok,
            ),
            (
                "failovers",
                "Requests that failed over to another replica.",
                &self.failovers,
            ),
            (
                "retries",
                "Extra interior attempts beyond each request's first.",
                &self.retries,
            ),
            (
                "publishes",
                "Cluster-wide hot-swap broadcasts.",
                &self.publishes,
            ),
        ];
        for (name, help, counter) in counters {
            let name = format!("bcpnn_cluster_{name}_total");
            out.family(&name, MetricKind::Counter, help)
                .sample(&[], load(counter));
        }

        let help = "Backend health from the router's prober (1 up, 0 down).";
        let mut up = out.family("bcpnn_cluster_backend_up", MetricKind::Gauge, help);
        for (i, gauge) in self.backend_up.iter().enumerate() {
            up.sample(&[("backend", &i.to_string())], load(gauge));
        }

        let counts: Vec<u64> = self.latency_hits.iter().map(load).collect();
        let sum = load(&self.latency_sum_us) as f64 / 1e6;
        let help = "Interior predict round-trip latency.";
        out.family(
            "bcpnn_cluster_fanout_latency_seconds",
            MetricKind::Histogram,
            help,
        )
        .histogram(&[], LATENCY_BUCKETS, &counts, sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_valid_and_namespaced() {
        let m = ClusterMetrics::new(2);
        m.record_fanout();
        m.record_fanout_ok(Duration::from_millis(3));
        m.record_fanout();
        m.record_retry();
        m.record_failover();
        m.record_publish();
        m.set_backend_up(0, true);
        let text = Exposition::render(|out| m.write_metrics(out));
        bcpnn_serve::validate_prometheus(&text).expect("cluster exposition is valid");
        assert!(text.contains("bcpnn_cluster_backend_up{backend=\"0\"} 1"));
        assert!(text.contains("bcpnn_cluster_backend_up{backend=\"1\"} 0"));
        assert!(text.contains("bcpnn_cluster_failovers_total 1"));
        assert!(text.contains("bcpnn_cluster_fanout_latency_seconds_count 1"));
        // Histogram buckets are cumulative: a 3 ms sample is in every
        // bucket from le=0.005 up through +Inf.
        assert!(text.contains("bucket{le=\"0.001\"} 0"));
        assert!(text.contains("bucket{le=\"0.005\"} 1"));
        assert!(text.contains("bucket{le=\"+Inf\"} 1"));
        for line in text.lines().filter(|l| !l.is_empty()) {
            let name = line
                .trim_start_matches("# HELP ")
                .trim_start_matches("# TYPE ");
            assert!(
                name.starts_with("bcpnn_cluster_"),
                "metric outside the cluster namespace: {line:?}"
            );
        }
    }

    #[test]
    fn health_gauges_track_transitions() {
        let m = ClusterMetrics::new(3);
        assert_eq!(m.backends_up(), 0);
        m.set_backend_up(0, true);
        m.set_backend_up(2, true);
        assert_eq!(m.backends_up(), 2);
        assert!(m.backend_up(0) && !m.backend_up(1) && m.backend_up(2));
        m.set_backend_up(0, false);
        assert_eq!(m.backends_up(), 1);
        // Out-of-range index is ignored, not a panic.
        m.set_backend_up(9, true);
        assert!(!m.backend_up(9));
    }
}
