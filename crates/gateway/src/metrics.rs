//! Gateway-level metrics: HTTP requests, bytes, and status classes.
//!
//! These describe the *network boundary* — what crossed the wire — while
//! `bcpnn_serve`'s metrics describe the scheduler behind it. Both are
//! written through the one `bcpnn_serve::Exposition` writer into one
//! `/metrics` scrape, under disjoint name prefixes (`bcpnn_gateway_*` vs
//! `bcpnn_serve_*`), so every family is declared once and grouped, and
//! nothing is ever double-counted between layers: a
//! predict request increments `bcpnn_gateway_requests_total` exactly once
//! and `bcpnn_serve_requests_total` once *per row* it carries.
//!
//! Like [`bcpnn_serve::ServingMetrics`], everything is relaxed atomics:
//! one `fetch_add` per event on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

use bcpnn_serve::{Exposition, MetricKind};

/// Lock-free gateway counters, shared by the connection workers.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// Connections the gateway answered: served requests (parseable or
    /// not) *plus* connections shed with 503 by the accept thread, which
    /// never produced a request line. Always equals the sum over
    /// `responses_total` classes.
    requests: AtomicU64,
    /// Responses with a 2xx status.
    status_2xx: AtomicU64,
    /// Responses with a 4xx status.
    status_4xx: AtomicU64,
    /// Responses with a 5xx status.
    status_5xx: AtomicU64,
    /// Request body bytes read.
    bytes_in: AtomicU64,
    /// Response bytes written (head + body).
    bytes_out: AtomicU64,
    /// Feature rows submitted to the serving stack via predict requests.
    predict_rows: AtomicU64,
    /// Connections rejected with 503 because the accept queue was full.
    rejected_busy: AtomicU64,
}

impl GatewayMetrics {
    /// Create zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one served connection/request.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a response by its status code's class.
    pub fn record_status(&self, status: u16) {
        let counter = match status / 100 {
            2 => &self.status_2xx,
            4 => &self.status_4xx,
            _ => &self.status_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count request body bytes read off the wire.
    pub fn record_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Count response bytes written to the wire.
    pub fn record_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Count feature rows handed to the serving stack.
    pub fn record_predict_rows(&self, n: u64) {
        self.predict_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Count a connection turned away because the accept queue was full.
    pub fn record_rejected_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> GatewaySnapshot {
        GatewaySnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            status_2xx: self.status_2xx.load(Ordering::Relaxed),
            status_4xx: self.status_4xx.load(Ordering::Relaxed),
            status_5xx: self.status_5xx.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            predict_rows: self.predict_rows.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the gateway counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewaySnapshot {
    /// Connections answered (served requests + load-shed 503s).
    pub requests: u64,
    /// 2xx responses.
    pub status_2xx: u64,
    /// 4xx responses.
    pub status_4xx: u64,
    /// 5xx responses.
    pub status_5xx: u64,
    /// Request body bytes read.
    pub bytes_in: u64,
    /// Response bytes written.
    pub bytes_out: u64,
    /// Feature rows submitted through predict requests.
    pub predict_rows: u64,
    /// Connections rejected because the accept queue was full.
    pub rejected_busy: u64,
}

impl GatewaySnapshot {
    /// Write the gateway counters into `out`. Status classes share one
    /// family with a `class` label; every name lives under
    /// `bcpnn_gateway_`, disjoint from the backend families written into
    /// the same scrape.
    pub fn write_metrics(&self, out: &mut Exposition) {
        let simple: [(&str, &str, u64); 5] = [
            (
                "requests",
                "Connections answered by the gateway (incl. load-shed 503s).",
                self.requests,
            ),
            (
                "request_bytes",
                "Request body bytes read off the wire.",
                self.bytes_in,
            ),
            (
                "response_bytes",
                "Response bytes (head + body) written to the wire.",
                self.bytes_out,
            ),
            (
                "predict_rows",
                "Feature rows submitted to the serving stack.",
                self.predict_rows,
            ),
            (
                "rejected_busy",
                "Connections rejected because the accept queue was full.",
                self.rejected_busy,
            ),
        ];
        for (name, help, value) in simple {
            let name = format!("bcpnn_gateway_{name}_total");
            out.family(&name, MetricKind::Counter, help)
                .sample(&[], value);
        }
        let help = "Responses by status class.";
        let mut responses = out.family("bcpnn_gateway_responses_total", MetricKind::Counter, help);
        let classes = [self.status_2xx, self.status_4xx, self.status_5xx];
        for (class, value) in ["2xx", "4xx", "5xx"].into_iter().zip(classes) {
            responses.sample(&[("class", class)], value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = GatewayMetrics::new();
        m.record_request();
        m.record_request();
        m.record_status(200);
        m.record_status(404);
        m.record_status(503);
        m.record_bytes_in(100);
        m.record_bytes_out(250);
        m.record_predict_rows(32);
        m.record_rejected_busy();
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.status_2xx, 1);
        assert_eq!(s.status_4xx, 1);
        assert_eq!(s.status_5xx, 1);
        assert_eq!(s.bytes_in, 100);
        assert_eq!(s.bytes_out, 250);
        assert_eq!(s.predict_rows, 32);
        assert_eq!(s.rejected_busy, 1);
    }

    #[test]
    fn prometheus_export_is_valid_and_disjoint_from_serve_names() {
        let m = GatewayMetrics::new();
        m.record_request();
        m.record_status(200);
        m.record_bytes_out(10);
        let text = Exposition::render(|out| m.snapshot().write_metrics(out));
        // The gateway families must stay valid beside the serve-side ones
        // in one scrape: every metric name disjoint (no duplicate
        // HELP/TYPE) and prefixed bcpnn_gateway_.
        bcpnn_serve::validate_prometheus(&text).expect("gateway exposition is valid");
        for line in text.lines().filter(|l| !l.is_empty()) {
            let name = line
                .trim_start_matches("# HELP ")
                .trim_start_matches("# TYPE ");
            assert!(
                name.starts_with("bcpnn_gateway_"),
                "metric outside the gateway namespace: {line:?}"
            );
        }
        assert!(text.contains("bcpnn_gateway_requests_total 1"));
        assert!(text.contains("bcpnn_gateway_responses_total{class=\"2xx\"} 1"));
        // Written beside the serve-side families the declarations stay
        // unique — this is the no-double-declaration audit for /metrics.
        let serve = bcpnn_serve::ServingMetrics::new().snapshot();
        let combined = Exposition::render(|out| {
            bcpnn_serve::MetricsSnapshot::write_metrics(out, &[(vec![], &serve)]);
            m.snapshot().write_metrics(out);
        });
        bcpnn_serve::validate_prometheus(&combined).expect("combined exposition is valid");
    }
}
