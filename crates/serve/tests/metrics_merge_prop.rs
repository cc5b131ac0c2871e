//! Property tests for [`MetricsSnapshot::aggregate`]: shard merging must
//! behave like a commutative monoid over event histories, so the
//! `shard="all"` series in the Prometheus export is *exactly* what a
//! single combined recorder would have reported — however the shards are
//! grouped — and per-shard `pending` gauges sum without double counting.

use std::time::Duration;

use bcpnn_serve::{MetricsSnapshot, ServingMetrics};
use proptest::prelude::*;

/// One shard's event history, replayable onto a recorder.
#[derive(Debug, Clone)]
struct History {
    latencies_us: Vec<u64>,
    batch_sizes: Vec<usize>,
    /// Requests submitted beyond the responded ones (stay pending).
    extra_requests: usize,
    errors: usize,
    expired: usize,
}

impl History {
    fn replay(&self, metrics: &ServingMetrics) {
        // Every terminal outcome (response, error, expiry) belongs to a
        // submitted request; `extra_requests` stay pending.
        let submissions =
            self.latencies_us.len() + self.errors + self.expired + self.extra_requests;
        metrics.record_submits(submissions);
        for &size in &self.batch_sizes {
            metrics.record_batch(size);
        }
        for &us in &self.latencies_us {
            metrics.record_responses(1, Duration::from_micros(us));
        }
        metrics.record_errors(self.errors);
        metrics.record_expiries(self.expired);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let metrics = ServingMetrics::new();
        self.replay(&metrics);
        metrics.snapshot()
    }
}

/// Strategy: an arbitrary shard history with latencies spanning the whole
/// log-bucket range and batch sizes crossing bucket boundaries.
fn history() -> impl Strategy<Value = History> {
    (
        prop::collection::vec(0u64..5_000_000, 0..40),
        prop::collection::vec(1usize..200, 0..20),
        0usize..30,
        0usize..10,
        0usize..10,
    )
        .prop_map(
            |(latencies_us, batch_sizes, extra_requests, errors, expired)| History {
                latencies_us,
                batch_sizes,
                extra_requests,
                errors,
                expired,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn aggregate_is_associative_and_commutative((a, b, c) in (history(), history(), history())) {
        let (sa, sb, sc) = (a.snapshot(), b.snapshot(), c.snapshot());
        let flat = MetricsSnapshot::aggregate([&sa, &sb, &sc]);
        let left = MetricsSnapshot::aggregate([&MetricsSnapshot::aggregate([&sa, &sb]), &sc]);
        let right = MetricsSnapshot::aggregate([&sa, &MetricsSnapshot::aggregate([&sb, &sc])]);
        // Exact equality, f64 fields included: the derived statistics are
        // recomputed from the merged integer sums, never averaged.
        prop_assert_eq!(&flat, &left);
        prop_assert_eq!(&flat, &right);
        prop_assert_eq!(
            MetricsSnapshot::aggregate([&sa, &sb]),
            MetricsSnapshot::aggregate([&sb, &sa])
        );
    }

    #[test]
    fn aggregate_matches_one_combined_recorder((a, b, c) in (history(), history(), history())) {
        // Replaying every shard's history onto one recorder must produce
        // exactly the aggregate of the per-shard snapshots: nothing is
        // lost, nothing is double-counted in shard="all".
        let combined = ServingMetrics::new();
        for history in [&a, &b, &c] {
            history.replay(&combined);
        }
        let merged = MetricsSnapshot::aggregate([&a.snapshot(), &b.snapshot(), &c.snapshot()]);
        prop_assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn empty_is_the_identity_and_singleton_is_id(h in history()) {
        let s = h.snapshot();
        let empty = ServingMetrics::new().snapshot();
        prop_assert_eq!(MetricsSnapshot::aggregate([&s]), s.clone());
        prop_assert_eq!(MetricsSnapshot::aggregate([&s, &empty]), s.clone());
        prop_assert_eq!(MetricsSnapshot::aggregate([&empty, &s]), s);
    }

    #[test]
    fn pending_sums_exactly_across_shards((a, b) in (history(), history())) {
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let merged = MetricsSnapshot::aggregate([&sa, &sb]);
        prop_assert_eq!(merged.pending, sa.pending + sb.pending);
        prop_assert_eq!(merged.pending, (a.extra_requests + b.extra_requests) as u64);
        // The queue-depth gauge in the rendered exposition is this same
        // number: requests minus terminal outcomes.
        prop_assert_eq!(
            merged.pending,
            merged.requests - merged.responses - merged.errors
        );
    }
}
