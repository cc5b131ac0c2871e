//! `gateway_single`, `gateway_batch64` and `cluster_batch64`: two
//! closed-loop clients post predict requests at a freshly started stack
//! and check every reply. The traced pass then replays sampled requests
//! through the layers' public calls, one by one.

use std::io::Cursor;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use bcpnn_cluster::{BackendPool, ClusterConfig, Frame, RowBlock};
use bcpnn_core::model::Predictor;
use bcpnn_core::uncertainty::{entropy, margin};
use bcpnn_core::{Pipeline, Workspace};
use bcpnn_gateway::client;
use bcpnn_gateway::http::{read_request, Limits};
use bcpnn_gateway::json::{self, Json};
use bcpnn_serve::{ShardedServer, SubmitOptions};
use bcpnn_tensor::Matrix;

use crate::fixture::{fit_served, higgs_data, MODEL};
use crate::loadgen::{
    closed_loop, matrix_of, predict_path, predict_requests, Check, LoadResult, PredictRequest,
};
use crate::report::{ensure, Rep, Run, ScratchDir, MAX_ERRORS, NS_PER_MS, NS_PER_US};
use crate::spec::CLIENTS;
use crate::stack::{load_model, Stack};
use crate::stages::{stage_layers, staged_predict, StageBufs};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Discarded closed-loop traffic before measuring; every reply is
/// compared bit for bit. Part of set-up.
pub const WARM_UP: Duration = Duration::from_millis(300);
/// Sampled requests replayed through the layers in the traced pass.
const MAX_REPLAYS: usize = 48;

#[derive(Clone, Copy)]
pub enum Front {
    Gateway,
    Cluster,
}

pub fn repetition(front: Front, rows_per_request: usize, run: &Run, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let never = AtomicBool::new(false);

    let setup = Instant::now();
    let data = higgs_data(run.data_seed);
    let model_dir = ScratchDir::new(run.out, "model");
    fit_served(&data.train, run.model_seed)
        .save(model_dir.path())
        .expect("saving the served model succeeds");
    // The in-process reference: the same artifact every server loads.
    let reference = load_model(model_dir.path());
    let stack = match front {
        Front::Gateway => Stack::gateway(model_dir.path()),
        Front::Cluster => Stack::cluster(model_dir.path()),
    };
    let requests = predict_requests(&data.test, rows_per_request, run.data_seed, &reference);
    let eval = reference
        .evaluate(&data.test.features, &data.test.labels)
        .expect("evaluating the served model succeeds");
    rep.quality(&eval);
    let warm = closed_loop(
        stack.addr(),
        &requests,
        CLIENTS,
        Check::BitExact { all: true },
        WARM_UP,
        &never,
    );
    count(&mut rep, &warm);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let before = Counters::read(&stack);
    let load = closed_loop(
        stack.addr(),
        &requests,
        CLIENTS,
        Check::BitExact { all: false },
        run.budget,
        &never,
    );
    let after = Counters::read(&stack);
    count(&mut rep, &load);
    rep.rows_per_s = load.rows_per_s();
    if let Stack::Cluster { .. } = &stack {
        rep.check(ensure(after.failovers == 0, || {
            "the cluster router failed over with every backend up".into()
        }));
    }

    if tracer.on() {
        after.layers_since(&before, &mut rep);
        let ok = (load.attempted - load.failed).max(1);
        rep.layer("gateway.request_bytes", requests[0].body.len() as f64);
        rep.layer(
            "gateway.response_bytes",
            load.response_bytes as f64 / ok as f64,
        );
        let mut replay = Replay {
            stack: &stack,
            reference: &reference,
            tracer,
            rows_per_request,
        };
        replay.run(&requests, &load);
        replay.layers(&mut rep);
    }
    rep.latencies_ms = load.latencies_ms;
    rep
}

/// Fold a closed-loop phase's operation counts into the repetition.
pub fn count(rep: &mut Rep, load: &LoadResult) {
    rep.attempted += load.attempted;
    rep.failed += load.failed;
    rep.errors.extend(load.errors.iter().cloned());
    rep.errors.truncate(MAX_ERRORS);
}

/// The public snapshots, read before and after the measured phase.
pub struct Counters {
    serve: bcpnn_serve::MetricsSnapshot,
    hot_swaps: u64,
    shed_503: u64,
    failovers: u64,
    node_responses: Vec<u64>,
}

impl Counters {
    pub fn read(stack: &Stack) -> Counters {
        Counters {
            serve: stack.serve_metrics(),
            hot_swaps: stack.hot_swaps(),
            shed_503: stack.shed_503(),
            failovers: match stack {
                Stack::Cluster { router, .. } => router.cluster_metrics().failovers(),
                Stack::Gateway { .. } => 0,
            },
            node_responses: stack
                .servers()
                .iter()
                .map(|s| s.metrics().responses)
                .collect(),
        }
    }

    /// The serve, gateway and cluster counters as deltas since `before`.
    pub fn layers_since(&self, before: &Counters, rep: &mut Rep) {
        let batches = self.serve.batches - before.serve.batches;
        let batched = self.serve.batched_requests - before.serve.batched_requests;
        rep.layer(
            "serve.mean_batch_size",
            batched as f64 / batches.max(1) as f64,
        );
        rep.layer("serve.batches", batches as f64);
        rep.layer(
            "serve.requests",
            (self.serve.requests - before.serve.requests) as f64,
        );
        rep.layer(
            "serve.expired",
            (self.serve.expired - before.serve.expired) as f64,
        );
        rep.layer(
            "serve.hot_swaps",
            (self.hot_swaps - before.hot_swaps) as f64,
        );
        rep.layer("gateway.shed_503", (self.shed_503 - before.shed_503) as f64);
        rep.layer(
            "cluster.failovers",
            (self.failovers - before.failovers) as f64,
        );
        if self.node_responses.len() > 1 {
            let answered: Vec<u64> = self
                .node_responses
                .iter()
                .zip(&before.node_responses)
                .map(|(a, b)| a - b)
                .collect();
            let total: u64 = answered.iter().sum();
            let largest = answered.iter().copied().max().unwrap_or(0);
            rep.layer(
                "cluster.backend_request_share",
                largest as f64 / total.max(1) as f64,
            );
        }
    }
}

/// The bytes a client writes for one predict request.
fn raw_request(body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {} HTTP/1.1\r\nhost: benchmark\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        predict_path(),
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// The reply body both fronts render for answered rows.
fn render_reply(probabilities: &[Vec<f32>]) -> String {
    let per_row = |f: &dyn Fn(&Vec<f32>) -> Json| Json::Arr(probabilities.iter().map(f).collect());
    Json::Obj(vec![
        ("model".into(), Json::str(MODEL)),
        ("version".into(), Json::u64(1)),
        (
            "predictions".into(),
            per_row(&|p| Json::Arr(p.iter().copied().map(Json::f32).collect())),
        ),
        (
            "uncertainty".into(),
            per_row(&|p| {
                Json::Obj(vec![
                    ("entropy".into(), Json::f32(entropy(p))),
                    ("margin".into(), Json::f32(margin(p))),
                ])
            }),
        ),
        ("abstained".into(), per_row(&|_| Json::Bool(false))),
    ])
    .render()
}

/// `rows` x `submit`, then `wait` on all: what a front does with one
/// request's rows.
fn submit_and_wait(server: &ShardedServer, rows: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    let handles: Vec<_> = rows
        .into_iter()
        .map(|row| {
            server
                .submit(MODEL, row)
                .expect("the server accepts a well-formed row")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.wait().expect("the server answers a well-formed row"))
        .collect()
}

/// Outside-in replay of sampled requests: the root span is the real socket
/// round trip; its children push the same body through each layer's public
/// call in order.
struct Replay<'a> {
    stack: &'a Stack,
    reference: &'a Pipeline,
    tracer: &'a mut Tracer,
    rows_per_request: usize,
}

impl Replay<'_> {
    fn run(&mut self, requests: &[PredictRequest], load: &LoadResult) {
        let mut bufs = StageBufs::new();
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        let root_name = match self.stack {
            Stack::Gateway { .. } => "gateway.request",
            Stack::Cluster { .. } => "cluster.request",
        };
        let addr = self.stack.addr();
        // Straight at the model's primary backend node, as the router's own
        // pool does; dialled once, so the timed calls reuse the connection.
        let primary = match self.stack {
            Stack::Cluster { router, nodes, .. } => {
                let node = router.replicas_for(MODEL)[0];
                let config = ClusterConfig::default();
                let pool = BackendPool::new(
                    nodes[node].local_addr(),
                    config.connect_timeout,
                    config.max_idle_conns,
                    config.max_payload,
                );
                pool.ping(0, config.probe_timeout);
                Some((node, pool))
            }
            Stack::Gateway { .. } => None,
        };
        for &(index, sent, parsed) in load.sampled.iter().take(MAX_REPLAYS) {
            let request = &requests[index];
            let body = std::str::from_utf8(&request.body).expect("bodies are rendered JSON");
            let root = self.tracer.record(None, root_name, sent, parsed);

            // The connection floor: connect, accept, queue, parse, write —
            // no model.
            self.tracer.replay(root, "gateway.healthz", || {
                client::request(addr, "GET", "/healthz", &[], b"").expect("healthz answers")
            });
            let mut stream = Cursor::new(raw_request(&request.body));
            self.tracer.replay(root, "gateway.http_read_request", || {
                read_request(&mut stream, Limits::default()).expect("the rendered request parses")
            });
            let (rows, _) = self.tracer.replay(root, "gateway.json_parse", || {
                json::parse_f32_rows(body).expect("the rendered rows parse")
            });

            let probabilities = match (self.stack, &primary) {
                (Stack::Cluster { .. }, Some((node, pool))) => {
                    self.router_predict_rows(root, *node, pool, rows, request, &mut bufs)
                }
                (Stack::Gateway { server, .. }, _) => {
                    self.serve_direct(root, server, rows, request, &mut bufs)
                }
                (Stack::Cluster { .. }, None) => {
                    unreachable!("the cluster stack has a primary node")
                }
            };
            self.tracer
                .replay(root, "gateway.json_render", || render_reply(&probabilities));

            // The same rows in one in-process call: what the batcher's
            // wait is measured against.
            let x = matrix_of(&request.rows);
            self.tracer.time(None, "core.predict", || {
                self.reference
                    .predict_proba_into(&x, &mut ws, &mut out)
                    .expect("prediction succeeds");
            });
        }
    }

    /// `serve.direct`: the rows through the in-process server, with the
    /// four compute stages replayed on the assembled batch beneath it.
    fn serve_direct(
        &mut self,
        parent: SpanId,
        server: &ShardedServer,
        rows: Vec<Vec<f32>>,
        request: &PredictRequest,
        bufs: &mut StageBufs,
    ) -> Vec<Vec<f32>> {
        let (probabilities, direct) = self
            .tracer
            .replay(parent, "serve.direct", || submit_and_wait(server, rows));
        // One pass untimed first, so the stages and the one-shot call in
        // `run` are all timed on warm caches and compare.
        let x = matrix_of(&request.rows);
        staged_predict(self.reference, &x, bufs, |_, _| {});
        staged_predict(self.reference, &x, bufs, |name, ns| {
            self.tracer.lay_out(direct, name, ns);
        });
        probabilities
    }

    /// `cluster.router_predict_rows`: the rows through the in-process
    /// router, with the wire codec and one backend call beneath it.
    fn router_predict_rows(
        &mut self,
        parent: SpanId,
        primary: usize,
        pool: &BackendPool,
        rows: Vec<Vec<f32>>,
        request: &PredictRequest,
        bufs: &mut StageBufs,
    ) -> Vec<Vec<f32>> {
        let Stack::Cluster {
            router, servers, ..
        } = self.stack
        else {
            unreachable!("only the cluster stack has a router");
        };
        let block = RowBlock::from_rows(&rows);
        let ((_, answer, _), routed) =
            self.tracer
                .replay(parent, "cluster.router_predict_rows", || {
                    router
                        .predict_rows(MODEL, block.clone(), &SubmitOptions::default())
                        .expect("the router answers with every backend up")
                });

        let frame = Frame::Predict {
            model: MODEL.to_string(),
            priority: 0,
            deadline_ms: 0,
            abstain: None,
            rows: block,
        };
        self.tracer
            .replay(routed, "cluster.wire_encode", || frame.encode());
        let (reply, call) = self.tracer.replay(routed, "cluster.backend_call", || {
            pool.call(&frame, ClusterConfig::default().request_timeout)
                .expect("the backend answers")
        });
        self.serve_direct(call, &servers[primary], rows, request, bufs);
        let encoded = reply.encode();
        self.tracer.replay(routed, "cluster.wire_decode", || {
            Frame::decode_payload(encoded[5], &encoded[10..]).expect("the reply decodes")
        });
        (0..answer.n_rows())
            .map(|r| answer.row(r).to_vec())
            .collect()
    }

    /// Per-layer timings from the spans above.
    fn layers(&self, rep: &mut Rep) {
        let t = &*self.tracer;
        let rows = self.rows_per_request as f64;
        let cluster = matches!(self.stack, Stack::Cluster { .. });
        stage_layers(rep, t, rows);

        // (metric, span, nanoseconds per unit, operations per span)
        let mut timed = vec![
            (
                "gateway.json_parse_us_per_row",
                "gateway.json_parse",
                NS_PER_US,
                rows,
            ),
            (
                "gateway.json_render_us_per_row",
                "gateway.json_render",
                NS_PER_US,
                rows,
            ),
            ("gateway.healthz_p50_ms", "gateway.healthz", NS_PER_MS, 1.0),
            (
                "gateway.http_read_request_us",
                "gateway.http_read_request",
                NS_PER_US,
                1.0,
            ),
        ];
        if self.rows_per_request == 1 {
            timed.push(("core.predict_b1_us", "core.predict", NS_PER_US, 1.0));
            timed.push((
                "serve.direct_roundtrip_p50_us",
                "serve.direct",
                NS_PER_US,
                1.0,
            ));
        } else {
            timed.push((
                "serve.direct_burst64_p50_ms",
                "serve.direct",
                NS_PER_MS,
                1.0,
            ));
        }
        if cluster {
            timed.extend([
                (
                    "cluster.wire_encode_us_per_row",
                    "cluster.wire_encode",
                    NS_PER_US,
                    rows,
                ),
                (
                    "cluster.wire_decode_us_per_row",
                    "cluster.wire_decode",
                    NS_PER_US,
                    rows,
                ),
                (
                    "cluster.backend_call_p50_ms",
                    "cluster.backend_call",
                    NS_PER_MS,
                    1.0,
                ),
                (
                    "cluster.router_predict_rows_p50_ms",
                    "cluster.router_predict_rows",
                    NS_PER_MS,
                    1.0,
                ),
            ]);
        }
        for (metric, span, unit_ns, per) in timed {
            rep.layer_from_spans(t, metric, span, unit_ns, per);
        }

        let p50 = |span: &str| median(&t.durations_ns(span));
        let wait = p50("serve.direct") - p50("core.predict");
        rep.layer("serve.batcher_wait_est_us", wait / NS_PER_US);
        rep.layer_from_self_times(t, "self.serve_direct_ms", "serve.direct");
        if cluster {
            let front = p50("cluster.request") - p50("cluster.router_predict_rows");
            rep.layer("cluster.front_overhead_ms", front / NS_PER_MS);
            rep.layer_from_self_times(
                t,
                "self.router_predict_rows_ms",
                "cluster.router_predict_rows",
            );
            rep.layer_from_self_times(t, "self.root_ms", "cluster.request");
        } else {
            // From medians, so it can read below 0: a lone replayed caller
            // waits out the batcher's whole max_wait, while under load a
            // request often joins a batch the other client opened.
            let children = [
                "gateway.healthz",
                "gateway.json_parse",
                "serve.direct",
                "gateway.json_render",
            ];
            let explained: f64 = children.into_iter().map(p50).sum();
            let unattributed = p50("gateway.request") - explained;
            rep.layer("gateway.unattributed_ms", unattributed / NS_PER_MS);
            rep.layer_from_self_times(t, "self.root_ms", "gateway.request");
        }
    }
}
