//! The backend node: today's in-process serving stack behind the interior
//! binary protocol.
//!
//! A [`BackendNode`] wraps any [`ServeTarget`] (in practice a
//! [`ShardedServer`](bcpnn_serve::ShardedServer)) behind a
//! `std::net::TcpListener` speaking [`crate::wire::Frame`]
//! request/reply, one handler thread per connection. The operations
//! behind the frames are the single-node gateway's own
//! ([`bcpnn_gateway::LocalNode`]); this module decodes requests and
//! encodes the typed results. A `Predict` frame's row block is submitted
//! as it was decoded and the answer's probability block is encoded as it
//! came back, so the node's micro-batcher coalesces blocks *across router
//! connections* exactly as the gateway does across HTTP connections.
//!
//! Dropping the node is a **hard kill**, not a graceful drain: the
//! listener closes and every live connection is shut down mid-flight.
//! That is deliberate — it is what the failover integration test (and a
//! real crashed process) looks like from the router's side.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_gateway::api::{ApiBackend, PublishRequest};
use bcpnn_gateway::front::wake_and_join;
use bcpnn_gateway::{ApiError, LocalNode};
use bcpnn_learn::OnlineLearner;
use bcpnn_serve::{Exposition, ServeTarget};

use crate::wire::{decode_options, Frame, ModelInfo, WireError, DEFAULT_MAX_PAYLOAD};

/// Backend node configuration.
#[derive(Debug, Clone)]
pub struct BackendConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Ceiling on incoming frame payloads.
    pub max_payload: usize,
    /// Per-connection socket read/write timeout. A connection idle past
    /// this is closed; the router's pool redials transparently.
    pub io_timeout: Duration,
    /// Allowlisted root for `Publish` artifact paths; `None` allows any
    /// path (trusted interior networks only).
    pub artifact_root: Option<PathBuf>,
}

impl Default for BackendConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_payload: DEFAULT_MAX_PAYLOAD,
            io_timeout: Duration::from_secs(60),
            artifact_root: None,
        }
    }
}

struct NodeShared {
    /// The serving stack, its learners (`Learn` frames for models without
    /// one are refused) and the publish allowlist.
    local: LocalNode,
    max_payload: usize,
    io_timeout: Duration,
    shutdown: AtomicBool,
}

/// One live connection: its handler thread, and a clone of its stream so a
/// kill can sever it while the handler is blocked on it.
type Conn = (JoinHandle<()>, Option<TcpStream>);

/// A running backend node. Dropping it hard-kills the listener and every
/// live connection.
pub struct BackendNode {
    local_addr: SocketAddr,
    shared: Arc<NodeShared>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl BackendNode {
    /// Bind `config.addr` and serve `target` over the interior protocol.
    pub fn start(
        target: Arc<dyn ServeTarget>,
        config: BackendConfig,
    ) -> std::io::Result<BackendNode> {
        Self::start_with_learners(target, config, Vec::new())
    }

    /// [`BackendNode::start`] plus online learners: `Learn` frames for a
    /// learner's model feed its ingest queue, and learner metrics join
    /// the node's `MetricsReq` exposition.
    pub fn start_with_learners(
        target: Arc<dyn ServeTarget>,
        config: BackendConfig,
        learners: Vec<Arc<OnlineLearner>>,
    ) -> std::io::Result<BackendNode> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(NodeShared {
            local: LocalNode {
                target,
                learners,
                artifact_root: config.artifact_root,
            },
            max_payload: config.max_payload,
            io_timeout: config.io_timeout,
            shutdown: AtomicBool::new(false),
        });
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name(format!("bcpnn-backend-accept-{local_addr}"))
                .spawn(move || run_accept(&listener, &shared, &conns))
                .expect("failed to spawn backend accept thread")
        };
        Ok(BackendNode {
            local_addr,
            shared,
            accept: Some(accept),
            conns,
        })
    }

    /// The address the node actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The serving stack behind this node.
    pub fn target(&self) -> &Arc<dyn ServeTarget> {
        &self.shared.local.target
    }
}

impl Drop for BackendNode {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            wake_and_join(self.local_addr, accept);
        }
        // Sever every live connection mid-whatever-it-was-doing: in-flight
        // requests fail on the router side, which is the point.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for stream in conns.iter().filter_map(|(_, stream)| stream.as_ref()) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (handler, _) in conns {
            let _ = handler.join();
        }
    }
}

impl std::fmt::Debug for BackendNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendNode")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

fn run_accept(listener: &TcpListener, shared: &Arc<NodeShared>, conns: &Arc<Mutex<Vec<Conn>>>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let severable = stream.try_clone().ok();
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("bcpnn-backend-conn".into())
            .spawn(move || handle_connection(&shared, stream))
            .expect("failed to spawn backend connection thread");
        // Reap before tracking: a finished handler keeps its stack mapped,
        // and its stream clone open, until the entry is dropped.
        let mut conns = conns.lock().unwrap();
        conns.retain(|(handler, _)| !handler.is_finished());
        conns.push((handle, severable));
    }
}

/// Serve frames on one connection until it closes, errors, or goes idle
/// past the I/O timeout.
fn handle_connection(shared: &NodeShared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let request = match Frame::read_from(&mut stream, shared.max_payload) {
            Ok(frame) => frame,
            // Framing violations get one typed error frame back (best
            // effort) and the connection is closed: after a bad header
            // the stream position cannot be trusted.
            Err(WireError::Io(_)) => return,
            Err(err) => {
                let _ = bad_request(err.to_string()).write_to(&mut stream);
                return;
            }
        };
        let reply = handle_frame(shared, request);
        if reply.write_to(&mut stream).is_err() {
            return;
        }
    }
}

/// One request frame → one reply frame: decode, run the node-local
/// operation, encode its typed result.
fn handle_frame(shared: &NodeShared, request: Frame) -> Frame {
    let local = &shared.local;
    match request {
        Frame::Ping { nonce } => Frame::Pong { nonce },
        Frame::Predict {
            model,
            priority,
            deadline_ms,
            abstain,
            rows,
        } => {
            let options = decode_options(priority, deadline_ms, abstain);
            match local.predict(&model, rows, options) {
                Ok(prediction) => Frame::PredictOk {
                    version: prediction.version,
                    rows: prediction.proba,
                    abstained: prediction.abstained,
                },
                Err(failure) => failure.error.into(),
            }
        }
        Frame::Publish {
            model,
            path,
            version,
            backend,
        } => {
            let backend = match backend {
                0 => BackendKind::Naive,
                1 => BackendKind::Parallel,
                other => return bad_request(format!("unknown compute backend byte {other}")),
            };
            let request = PublishRequest {
                path,
                version,
                backend,
            };
            local
                .publish(&model, &request)
                .map_or_else(Frame::from, |p| Frame::PublishOk {
                    version: p.version,
                    displaced: p.displaced,
                })
        }
        Frame::Learn {
            model,
            rows,
            labels,
        } => local
            .learn(&model, rows, &labels)
            .map_or_else(Frame::from, |l| Frame::LearnOk {
                accepted: l.accepted,
                queue_depth: l.queue_depth,
            }),
        Frame::MetricsReq => Frame::MetricsOk {
            text: Exposition::render(|out| local.scrape(out)),
        },
        Frame::ModelsReq => Frame::ModelsOk {
            models: local
                .models()
                .into_iter()
                .map(|m| ModelInfo {
                    name: m.name,
                    version: m.version,
                    n_inputs: m.n_inputs as u32,
                    n_classes: m.n_classes as u32,
                })
                .collect(),
        },
        // Reply opcodes arriving as requests are protocol misuse.
        other => bad_request(format!("frame {other:?} is not a request")),
    }
}

fn bad_request(message: String) -> Frame {
    ApiError::bad_request(message).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BackendPool;
    use crate::wire::{ErrorCode, RowBlock};
    use bcpnn_core::model::Predictor;
    use bcpnn_core::{Network, ReadoutKind, TrainingParams};
    use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
    use bcpnn_serve::{ModelRegistry, Pipeline, ServedModel, ShardConfig, ShardedServer};

    fn tiny_pipeline(seed: u64) -> (Pipeline, bcpnn_data::Dataset) {
        let data = generate(&SyntheticHiggsConfig {
            n_samples: 200,
            seed,
            ..Default::default()
        });
        let (pipeline, _) = Pipeline::fit(
            &data,
            8,
            Network::builder()
                .hidden(2, 4, 0.3)
                .classes(2)
                .readout(ReadoutKind::Hybrid)
                .backend(bcpnn_backend::BackendKind::Naive)
                .seed(seed),
            TrainingParams {
                unsupervised_epochs: 1,
                supervised_epochs: 1,
                batch_size: 50,
                ..Default::default()
            },
        )
        .unwrap();
        (pipeline, data)
    }

    fn node_with_model(seed: u64) -> (BackendNode, Pipeline, bcpnn_data::Dataset) {
        let (pipeline, data) = tiny_pipeline(seed);
        let (reference, _) = tiny_pipeline(seed);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(ServedModel::new("higgs", 1, pipeline));
        let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(2)));
        let node = BackendNode::start(server as Arc<dyn ServeTarget>, BackendConfig::default())
            .expect("backend binds an ephemeral port");
        (node, reference, data)
    }

    fn pool_for(node: &BackendNode) -> BackendPool {
        BackendPool::new(
            node.local_addr(),
            Duration::from_secs(1),
            2,
            DEFAULT_MAX_PAYLOAD,
        )
    }

    #[test]
    fn closed_connections_are_reaped_not_kept_until_shutdown() {
        let (node, _reference, _data) = node_with_model(10);
        // 300 connections, one after the other, each closed when its pool
        // drops.
        for nonce in 0..300 {
            assert!(pool_for(&node).ping(nonce, Duration::from_secs(2)));
        }
        // A handler may still be on its way out when the next connection
        // is accepted, so a few are tracked — not all 300.
        let tracked = node.conns.lock().unwrap().len();
        assert!(tracked < 50, "{tracked} of 300 connections still tracked");
    }

    #[test]
    fn ping_models_and_metrics_answer_over_the_wire() {
        let (node, _reference, _data) = node_with_model(11);
        let pool = pool_for(&node);
        assert!(pool.ping(42, Duration::from_secs(2)));
        let Ok(Frame::ModelsOk { models }) = pool.call(&Frame::ModelsReq, Duration::from_secs(2))
        else {
            panic!("models listing failed");
        };
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].name, "higgs");
        assert_eq!(models[0].n_inputs, 28);
        assert_eq!(models[0].n_classes, 2);
        let Ok(Frame::MetricsOk { text }) = pool.call(&Frame::MetricsReq, Duration::from_secs(2))
        else {
            panic!("metrics failed");
        };
        assert!(text.contains("bcpnn_serve_requests_total"));
    }

    #[test]
    fn predict_over_the_wire_is_bit_exact_against_the_pipeline() {
        let (node, reference, data) = node_with_model(12);
        let pool = pool_for(&node);
        let rows = RowBlock::from_rows(&[
            data.features.row(0).to_vec(),
            data.features.row(1).to_vec(),
            data.features.row(2).to_vec(),
        ]);
        let Ok(Frame::PredictOk {
            version, rows: got, ..
        }) = pool.call(
            &Frame::Predict {
                model: "higgs".into(),
                priority: 0,
                deadline_ms: 0,
                abstain: None,
                rows,
            },
            Duration::from_secs(5),
        )
        else {
            panic!("predict failed");
        };
        assert_eq!(version, Some(1));
        assert_eq!((got.n_rows(), got.n_cols), (3, 2));
        let direct = reference.predict_proba(&data.features).unwrap();
        for i in 0..3 {
            for c in 0..2 {
                assert_eq!(
                    got.row(i)[c].to_bits(),
                    direct.get(i, c).to_bits(),
                    "row {i} col {c} drifted across the wire"
                );
            }
        }
    }

    #[test]
    fn impossible_abstain_threshold_zero_fills_every_row() {
        let (node, _reference, data) = node_with_model(16);
        let pool = pool_for(&node);
        // Margins live in [0, 1], so a threshold above 1 abstains on
        // every row: the reply must still be rectangular (zero-filled)
        // with every index listed, not a whole-frame error.
        let reply = pool
            .call(
                &Frame::Predict {
                    model: "higgs".into(),
                    priority: 0,
                    deadline_ms: 0,
                    abstain: Some(1.5),
                    rows: RowBlock::from_rows(&[
                        data.features.row(0).to_vec(),
                        data.features.row(1).to_vec(),
                    ]),
                },
                Duration::from_secs(5),
            )
            .unwrap();
        let Frame::PredictOk {
            rows, abstained, ..
        } = reply
        else {
            panic!("expected PredictOk, got {reply:?}");
        };
        assert_eq!(abstained, vec![0, 1]);
        assert_eq!((rows.n_rows(), rows.n_cols), (2, 2));
        assert!(rows.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn application_errors_come_back_as_typed_error_frames() {
        let (node, _reference, data) = node_with_model(13);
        let pool = pool_for(&node);
        // Unknown model.
        let reply = pool
            .call(
                &Frame::Predict {
                    model: "ghost".into(),
                    priority: 0,
                    deadline_ms: 0,
                    abstain: None,
                    rows: RowBlock::from_rows(&[data.features.row(0).to_vec()]),
                },
                Duration::from_secs(2),
            )
            .unwrap();
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::UnknownModel,
                    ..
                }
            ),
            "{reply:?}"
        );
        // Wrong feature width.
        let reply = pool
            .call(
                &Frame::Predict {
                    model: "higgs".into(),
                    priority: 0,
                    deadline_ms: 0,
                    abstain: None,
                    rows: RowBlock::from_rows(&[vec![1.0, 2.0]]),
                },
                Duration::from_secs(2),
            )
            .unwrap();
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::ShapeMismatch,
                    ..
                }
            ),
            "{reply:?}"
        );
        // A reply opcode as a request.
        let reply = pool
            .call(&Frame::Pong { nonce: 1 }, Duration::from_secs(2))
            .unwrap();
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "{reply:?}"
        );
    }

    #[test]
    fn publish_respects_the_artifact_allowlist() {
        let (pipeline, _) = tiny_pipeline(14);
        let root = std::env::temp_dir().join(format!("bcpnn-node-allow-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let artifact = root.join("higgs-v2");
        pipeline.save(&artifact).unwrap();

        let registry = Arc::new(ModelRegistry::new());
        let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(1)));
        let node = BackendNode::start(
            server as Arc<dyn ServeTarget>,
            BackendConfig {
                artifact_root: Some(root.clone()),
                ..BackendConfig::default()
            },
        )
        .unwrap();
        let pool = pool_for(&node);

        // Outside the root: Forbidden, nothing published.
        let reply = pool
            .call(
                &Frame::Publish {
                    model: "higgs".into(),
                    path: "/definitely/not/a/model".into(),
                    version: 2,
                    backend: 0,
                },
                Duration::from_secs(2),
            )
            .unwrap();
        assert!(
            matches!(
                reply,
                Frame::Error {
                    code: ErrorCode::Forbidden,
                    ..
                }
            ),
            "{reply:?}"
        );
        // Inside the root: loads and publishes.
        let reply = pool
            .call(
                &Frame::Publish {
                    model: "higgs".into(),
                    path: artifact.to_str().unwrap().into(),
                    version: 2,
                    backend: 0,
                },
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(
            reply,
            Frame::PublishOk {
                version: 2,
                displaced: None
            }
        );
    }

    #[test]
    fn dropping_the_node_severs_live_connections() {
        let (node, _reference, _data) = node_with_model(15);
        let addr = node.local_addr();
        let pool = BackendPool::new(addr, Duration::from_secs(1), 2, DEFAULT_MAX_PAYLOAD);
        assert!(pool.ping(1, Duration::from_secs(2)));
        drop(node);
        // Both the pooled connection and fresh dials now fail.
        assert!(!pool.ping(2, Duration::from_millis(500)));
    }
}
