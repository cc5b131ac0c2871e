//! The benchmark's contract. `/BENCHMARK.json` is the one copy of the
//! workloads with their reasons, the end-to-end metrics with unit,
//! direction and bound, and the per-layer metric names: it is compiled in
//! and parsed once at start-up. What the file has no key for is here, keyed
//! by name: how each workload runs, and which end-to-end metric each layer
//! metric should move.

use std::sync::OnceLock;

use bcpnn_gateway::json::{self, Json};

use crate::report::{Rep, Run};
use crate::trace::Tracer;
use crate::workloads::http::Front;
use crate::workloads::{http, learn, score, train};

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2021;
/// Set-up and measurement are repeated this many times in an untraced run;
/// scalar metrics report the median repetition.
pub const REPETITIONS: usize = 3;
/// Client threads of the load generator: `nproc` of the sizing machine.
pub const CLIENTS: usize = 2;
/// Every n-th reply is compared bit for bit, and every n-th request is
/// traced.
pub const SAMPLE_EVERY: usize = 16;

/// One repetition of a workload: fresh set-up, then measuring.
type RunFn = fn(&Run, &mut Tracer) -> Rep;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: RunFn,
    /// Percentile `latency_tail_ms` reports over the run's pooled samples.
    /// Fixed per workload, so it cannot flip between runs: the steadier of
    /// p95 and p99 in the sizing runs, both of which leave more than ten
    /// samples beyond them. (`score_offline` has a second mode near 5 ms
    /// that holds ~5 % of batches: its p95 sits on the step, its p99 on
    /// the plateau.)
    pub tail: f64,
    /// `rows_per_s` is the mean, not the median, of the repetitions. True
    /// where each repetition's work differs by design: every `train_higgs`
    /// repetition fits another model seed, and fit time follows that seed
    /// by +-15 %. Elsewhere repetitions differ by noise and the median
    /// sheds an outlier.
    pub mean_of_repetitions: bool,
}

/// (name, run, tail, mean_of_repetitions); `train_higgs` has one latency
/// sample per fit, too few for any percentile, so its tail is never read.
const RUNNERS: [(&str, RunFn, f64, bool); 6] = [
    ("train_higgs", train::repetition, 0.95, true),
    ("score_offline", score::repetition, 0.99, false),
    (
        "gateway_single",
        |run, tracer| http::repetition(Front::Gateway, 1, run, tracer),
        0.95,
        false,
    ),
    (
        "gateway_batch64",
        |run, tracer| http::repetition(Front::Gateway, 64, run, tracer),
        0.95,
        false,
    ),
    (
        "cluster_batch64",
        |run, tracer| http::repetition(Front::Cluster, 64, run, tracer),
        0.95,
        false,
    ),
    ("learn_beside_predict", learn::repetition, 0.95, false),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload this layer metric should move.
    pub moves: &'static str,
}

/// A layer metric reads 0 on a workload whose path does not enter the
/// layer (`serve.*` on `train_higgs`, `learn.*` on `gateway_single`).
const MOVES: [(&str, &str); 64] = [
    ("data.encode_fit_s", "rows_per_s @ train_higgs"),
    ("data.encode_us_per_row", "rows_per_s @ score_offline; small share of gateway_batch64"),
    ("data.encoded_nonzero_share", "explains backend.linear_forward_us_per_row"),
    ("backend.linear_forward_us_per_row", "rows_per_s @ score_offline, latency_p50_ms @ gateway_batch64; no change @ gateway_single"),
    ("backend.linear_forward_bytes_per_row", "computed from shapes; explains backend.linear_forward_us_per_row"),
    ("backend.update_traces_us_per_row", "rows_per_s @ train_higgs"),
    ("backend.recompute_weights_ms", "rows_per_s @ train_higgs"),
    ("tensor.grouped_softmax_us_per_row", "rows_per_s @ score_offline"),
    ("core.fit_unsupervised_s", "rows_per_s @ train_higgs"),
    ("core.fit_supervised_s", "rows_per_s @ train_higgs"),
    ("core.evaluate_s", "train_higgs wall outside rows_per_s"),
    ("core.test_accuracy", "held-out accuracy of the workload's model; test_auc is its bounded twin"),
    ("core.readout_us_per_row", "rows_per_s @ score_offline"),
    ("core.predict_us_per_row", "rows_per_s @ score_offline; latency_p50_ms @ gateway_* (tiny, which is the point)"),
    ("core.predict_b1_us", "latency_p50_ms @ gateway_single"),
    ("core.stage_sum_over_oneshot", "about 1; the gap is time the stages do not explain"),
    ("core.hidden_subnormal_share", "share of hidden activations that are subnormal floats; core.fit_supervised_s, core.readout_us_per_row follow it"),
    ("core.learn_batch_us_per_row", "learn.rows_per_s, rows_per_s @ learn_beside_predict"),
    ("core.save_ms", "learn.rows_per_s (every publish checkpoints), setup_s"),
    ("core.load_ms", "learn.rows_per_s, setup_s"),
    ("lowprec.int8_rows_per_s", "end-to-end on score_offline; reported here because it exists on one workload only"),
    ("lowprec.int8_predict_us_per_row", "lowprec.int8_rows_per_s @ score_offline"),
    ("lowprec.int8_accuracy_delta_pp", "int8 minus f32 accuracy; checked within 1.0"),
    ("serve.cascade_rows_per_s", "end-to-end on score_offline; reported here because it exists on one workload only"),
    ("serve.cascade_us_per_row", "serve.cascade_rows_per_s @ score_offline"),
    ("serve.cascade_cheap_share", "serve.cascade_rows_per_s @ score_offline"),
    ("serve.cascade_accuracy_delta_pp", "cascade minus f32 accuracy; checked above -0.5"),
    ("serve.direct_roundtrip_p50_us", "latency_p50_ms @ gateway_single"),
    ("serve.direct_burst64_p50_ms", "latency_p50_ms, rows_per_s @ gateway_batch64, cluster_batch64"),
    ("serve.batcher_wait_est_us", "latency_p50_ms @ gateway_single and gateway_batch64"),
    ("serve.mean_batch_size", "rows_per_s up, latency_p50_ms up @ gateway_*, cluster_batch64"),
    ("serve.batches", "rows_per_s @ gateway_*, cluster_batch64"),
    ("serve.requests", "rows_per_s @ gateway_*, cluster_batch64"),
    ("serve.expired", "failed operations"),
    ("serve.hot_swaps", "learn.publishes @ learn_beside_predict"),
    ("gateway.healthz_p50_ms", "floor of latency_p50_ms @ gateway_single; keep-alive work moves this"),
    ("gateway.json_parse_us_per_row", "rows_per_s, latency_p50_ms @ gateway_batch64; no change @ score_offline"),
    ("gateway.json_render_us_per_row", "rows_per_s, latency_p50_ms @ gateway_batch64; no change @ score_offline"),
    ("gateway.http_read_request_us", "rows_per_s, latency_p50_ms @ gateway_batch64"),
    ("gateway.request_bytes", "explains gateway.json_parse_us_per_row"),
    ("gateway.response_bytes", "explains gateway.json_render_us_per_row"),
    ("gateway.unattributed_ms", "what in-program spans (ROADMAP B) must later explain @ gateway_*"),
    ("gateway.shed_503", "failed operations"),
    ("cluster.wire_encode_us_per_row", "rows_per_s @ cluster_batch64; no change @ gateway_*"),
    ("cluster.wire_decode_us_per_row", "rows_per_s @ cluster_batch64; no change @ gateway_*"),
    ("cluster.backend_call_p50_ms", "latency_p50_ms @ cluster_batch64"),
    ("cluster.router_predict_rows_p50_ms", "latency_p50_ms @ cluster_batch64"),
    ("cluster.front_overhead_ms", "prices httpfront.rs against gateway/server.rs @ cluster_batch64"),
    ("cluster.failovers", "failed operations; must be 0"),
    ("cluster.backend_request_share", "largest node's share of answered rows; rows_per_s @ cluster_batch64"),
    ("learn.rows_per_s", "end-to-end on learn_beside_predict; reported here because it exists on one workload only"),
    ("learn.replay_append_sync_ms", "learn.rows_per_s"),
    ("learn.post_ack_p50_ms", "learn.rows_per_s"),
    ("learn.apply_p50_ms", "learn.rows_per_s"),
    ("learn.folds", "repeats exactly; a change means behaviour changed, not speed"),
    ("learn.publishes", "repeats exactly; serve.hot_swaps"),
    ("learn.publishes_rejected", "repeats exactly"),
    ("learn.rows_heldout", "repeats exactly"),
    ("learn.reader_p95_ms", "latency_tail_ms @ learn_beside_predict"),
    ("bench.traced_rows_per_s", "rows_per_s of the traced pass; the gap to the untraced run is the tracing overhead"),
    ("bench.traced_spans", "spans written to out/trace-<workload>.jsonl"),
    ("self.root_ms", "median self time of the traced operation's root span (unexplained by its children)"),
    ("self.serve_direct_ms", "serve.direct self time: batcher wait and hand-offs around the compute stages"),
    ("self.router_predict_rows_ms", "router self time around wire codec and backend call @ cluster_batch64"),
];

pub struct Spec {
    /// Seconds measured when `--seconds` is not given.
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<Layer>,
}

impl Spec {
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

/// Metric and workload names: `[A-Za-z0-9_.-]+`, at most 64 characters,
/// starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The compiled-in contract joined with the tables above. Panics, naming
/// the entry, when the two disagree: that is a bug in this package.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        // The document lives as long as the process, so names borrow from it.
        let doc: &'static Json = Box::leak(Box::new(
            json::parse(CONTRACT).expect("BENCHMARK.json parses"),
        ));
        let entries = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key}"))
        };
        let field = |entry: &'static Json, key: &str| -> &'static str {
            entry
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry has no {key}"))
        };
        let name = |entry: &'static Json| {
            let name = field(entry, "name");
            assert!(valid_name(name), "BENCHMARK.json: bad name {name:?}");
            name
        };

        let workloads: Vec<Workload> = entries("workloads")
            .iter()
            .map(|entry| {
                let name = name(entry);
                let &(_, run, tail, mean_of_repetitions) = RUNNERS
                    .iter()
                    .find(|r| r.0 == name)
                    .unwrap_or_else(|| panic!("no runner for workload {name}"));
                Workload {
                    name,
                    why: field(entry, "why"),
                    run,
                    tail,
                    mean_of_repetitions,
                }
            })
            .collect();
        assert_eq!(workloads.len(), RUNNERS.len(), "a runner has no workload");

        let end_to_end = entries("end_to_end")
            .iter()
            .map(|entry| EndToEnd {
                name: name(entry),
                unit: field(entry, "unit"),
                better: field(entry, "better"),
                bound: match entry.get("bound") {
                    Some(Json::Num(bound)) => bound.as_f64().expect("a bound is a number"),
                    _ => panic!("BENCHMARK.json: {} has no bound", field(entry, "name")),
                },
            })
            .collect();

        let per_layer: Vec<Layer> = entries("per_layer")
            .iter()
            .map(|entry| {
                let name = name(entry);
                Layer {
                    name,
                    unit: field(entry, "unit"),
                    better: field(entry, "better"),
                    moves: MOVES
                        .iter()
                        .find(|m| m.0 == name)
                        .unwrap_or_else(|| panic!("layer metric {name} says not what it moves"))
                        .1,
                }
            })
            .collect();
        assert_eq!(
            per_layer.len(),
            MOVES.len(),
            "MOVES names a metric twice or one unknown"
        );

        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json has run_seconds"),
            workloads,
            end_to_end,
            per_layer,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("serve.direct_burst64_p50_ms"));
        assert!(valid_name("7-bit"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
