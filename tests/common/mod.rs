//! Shared fixtures for the `*_roundtrip` and `front_*` suites: a tiny
//! trained pipeline, the JSON a client would send and read, and
//! [`Front`] — the same serving stack started behind either HTTP front.

#![allow(dead_code)] // each suite uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_cluster::{BackendConfig, BackendNode, ClusterConfig, ClusterRouter, RouterHttp};
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::Dataset;
use bcpnn_gateway::{json, FrontConfig, Gateway, GatewayConfig, GatewaySnapshot};
use bcpnn_serve::{ModelRegistry, ServeTarget, ShardConfig, ShardedServer};
use bcpnn_tensor::Matrix;

/// Train a tiny synthetic-Higgs pipeline on the given backend.
pub fn tiny_pipeline(seed: u64, backend: BackendKind) -> (Pipeline, Dataset) {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 400,
        seed,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(2, 4, 0.3)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(backend)
            .seed(seed),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 50,
            ..Default::default()
        },
    )
    .expect("tiny pipeline trains");
    (pipeline, data)
}

/// Serialize feature rows the way a JSON client would: `f32` shortest
/// round-trip decimals in an array of arrays.
pub fn rows_body(data: &Dataset, rows: std::ops::Range<usize>) -> String {
    let rows: Vec<String> = rows
        .map(|r| {
            let cells: Vec<String> = data.features.row(r).iter().map(|v| v.to_string()).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Pull `predictions` out of a predict response as exact `f32`s.
pub fn predictions_of(body: &str) -> Vec<Vec<f32>> {
    let doc = json::parse(body).expect("response body is valid JSON");
    doc.get("predictions")
        .and_then(json::Json::as_array)
        .expect("response carries predictions")
        .iter()
        .map(|row| {
            row.as_array()
                .expect("prediction row is an array")
                .iter()
                .map(|cell| match cell {
                    json::Json::Num(n) => n.as_f32().expect("finite probability"),
                    other => panic!("non-numeric probability {other:?}"),
                })
                .collect()
        })
        .collect()
}

/// The `version` a predict response names.
pub fn version_of(body: &str) -> Option<u64> {
    let doc = json::parse(body).expect("response body is valid JSON");
    doc.get("version").and_then(json::Json::as_u64)
}

/// Check one predict reply sent while version 1 of a model was being
/// hot-swapped for version 2: every row of it must equal, bit for bit,
/// what **one** of the two answers in process for feature rows `rows` —
/// the one the reply's `version` names. Returns that version.
pub fn assert_answered_by_one_version(
    body: &str,
    rows: std::ops::Range<usize>,
    direct_v1: &Matrix<f32>,
    direct_v2: &Matrix<f32>,
) -> u64 {
    let version = version_of(body).expect("the reply names the version that answered");
    let direct = match version {
        1 => direct_v1,
        2 => direct_v2,
        other => panic!("the reply names version {other}, which was never published"),
    };
    let got = predictions_of(body);
    assert_eq!(got.len(), rows.len());
    for (answer, r) in got.iter().zip(rows) {
        let bits = |row: &[f32]| row.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(answer),
            bits(direct.row(r)),
            "row {r} of a reply that names version {version} is not version {version}'s"
        );
    }
    version
}

/// Connect and write one request without reading the reply, so the
/// caller decides when (and whether) to wait for it.
pub fn send_raw(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("the front accepts the connection");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream
}

/// Read a `Connection: close` reply to the end: `(status, body)`.
pub fn read_raw(mut stream: TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("the reply arrives whole");
    let (head, body) = raw.split_once("\r\n\r\n").expect("the reply has a head");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("the status line carries a code");
    (status, body.to_string())
}

/// Which HTTP front a [`Stack`] is started behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `Gateway` over one `ShardedServer`.
    Gateway,
    /// `RouterHttp` over `ClusterRouter` over one `BackendNode` over one
    /// `ShardedServer`.
    Cluster,
}

impl Front {
    pub const BOTH: [Front; 2] = [Front::Gateway, Front::Cluster];

    /// Start a stack whose registry `populate` fills, with `front` as the
    /// HTTP front's settings and `artifact_root` as the publish allowlist
    /// of whichever layer loads artifacts.
    pub fn start(
        self,
        front: FrontConfig,
        artifact_root: Option<PathBuf>,
        populate: &dyn Fn(&ModelRegistry),
    ) -> Stack {
        let registry = Arc::new(ModelRegistry::new());
        populate(&registry);
        let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(2)));
        let target = Arc::clone(&server) as Arc<dyn ServeTarget>;
        let running = match self {
            Front::Gateway => Running::Gateway(
                Gateway::start(
                    target,
                    GatewayConfig {
                        front,
                        artifact_root,
                    },
                )
                .expect("gateway binds"),
            ),
            Front::Cluster => {
                let node = BackendNode::start(
                    target,
                    BackendConfig {
                        artifact_root,
                        ..BackendConfig::default()
                    },
                )
                .expect("backend node binds");
                let router = Arc::new(ClusterRouter::start(ClusterConfig {
                    backends: vec![node.local_addr()],
                    ..ClusterConfig::default()
                }));
                Running::Cluster(
                    RouterHttp::start(router, front).expect("router front binds"),
                    node,
                )
            }
        };
        Stack { running, server }
    }
}

/// Fields drop in declaration order: the front before the node before the
/// server.
enum Running {
    Gateway(Gateway),
    Cluster(RouterHttp, BackendNode),
}

/// A running front with everything behind it.
pub struct Stack {
    running: Running,
    /// The serving stack every request ends up on.
    pub server: Arc<ShardedServer>,
}

impl Stack {
    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        match &self.running {
            Running::Gateway(gateway) => gateway.local_addr(),
            Running::Cluster(front, _) => front.local_addr(),
        }
    }

    /// The front's own counters.
    pub fn front_metrics(&self) -> GatewaySnapshot {
        match &self.running {
            Running::Gateway(gateway) => gateway.metrics(),
            Running::Cluster(front, _) => front.metrics(),
        }
    }
}
