//! The HTTP front's contract, run against both fronts: everything a
//! client can get wrong is answered with the right 4xx before the serving
//! stack sees a row; a full accept queue sheds with 503; and a listener
//! bound to a wildcard address still shuts down; a model that emits a
//! non-finite probability is a 500, never a 200. One front serves both
//! [`Front::Gateway`] and [`Front::Cluster`], so the two columns of every
//! table here can only differ in the backend call.

mod common;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcpnn_backend::BackendKind;
use bcpnn_cluster::{BackendConfig, BackendNode, ClusterConfig, ClusterRouter, RouterHttp};
use bcpnn_gateway::http::Limits;
use bcpnn_gateway::{client, FrontConfig, Gateway, GatewayConfig};
use bcpnn_serve::testutil::{GatePredictor, NonFinitePredictor};
use bcpnn_serve::{ModelRegistry, ServeTarget, ServedModel, ShardConfig, ShardedServer};

use common::{predictions_of, read_raw, rows_body, send_raw, tiny_pipeline, Front};

/// One request the front must refuse.
struct Case {
    method: &'static str,
    path: &'static str,
    headers: Vec<(&'static str, &'static str)>,
    body: Vec<u8>,
    status: u16,
    /// The error body names this.
    mentions: &'static str,
    /// A 405's exact `Allow` header.
    allow: &'static str,
}

impl Case {
    fn new(method: &'static str, path: &'static str, body: &[u8], status: u16) -> Case {
        Case {
            method,
            path,
            headers: Vec::new(),
            body: body.to_vec(),
            status,
            mentions: "",
            allow: "",
        }
    }

    fn predict(body: &[u8]) -> Case {
        Case::new("POST", "/v1/models/higgs/predict", body, 400)
    }

    fn header(name: &'static str, value: &'static str) -> Case {
        Case {
            headers: vec![(name, value)],
            mentions: name,
            ..Case::predict(b"[[1]]")
        }
    }

    fn mentions(self, mentions: &'static str) -> Case {
        Case { mentions, ..self }
    }

    fn allow(self, allow: &'static str) -> Case {
        Case { allow, ..self }
    }
}

/// Every refusal the front owns. `inside` is a directory under the
/// artifact root that holds no model; everything else is outside it.
fn refusals(inside: &str) -> Vec<Case> {
    const PUBLISH: &str = "/v1/models/higgs";
    const LEARN: &str = "/v1/models/higgs/learn";
    let mut cases = vec![
        // Routing: decided before any body parsing.
        Case::new("GET", "/nope", b"", 404),
        Case::new("GET", "/v2/predict", b"", 404),
        Case::new("POST", "/healthz", b"", 405).allow("GET"),
        Case::new("GET", "/v1/models/higgs/predict", b"", 405).allow("POST"),
        Case::new("POST", "/v1/models/bad%20name/predict", b"[[1]]", 400).mentions("model name"),
        // Predict bodies.
        Case::predict(b"\xff\xfe[[1]]").mentions("UTF-8"),
        Case::predict(b"{not json"),
        Case::predict(b"not json"),
        Case::predict(b"[[1,2],[3]]"),
        Case::predict(b"[]"),
        Case::predict(b"[[]]"),
        Case::predict(b"\"rows\""),
        Case::predict(b"[[1,null]]"),
        Case::predict(b"{\"rows\":1}"),
        Case::new(
            "POST",
            "/v1/models/higgs/predict",
            &vec![b'9'; 8 * 1024],
            413,
        ),
        // Scheduling headers.
        Case::header("X-Priority", "urgent"),
        Case::header("X-Priority", ""),
        Case::header("X-Deadline-Ms", "soon"),
        Case::header("X-Deadline-Ms", "-5"),
        Case::header("X-Deadline-Ms", "1.5"),
        // Publish bodies, then the allowlist, then the loader.
        Case::new("PUT", PUBLISH, b"\xff", 400),
        Case::new("PUT", PUBLISH, b"{}", 400).mentions("path"),
        Case::new("PUT", PUBLISH, b"{\"path\":\"x\"}", 400).mentions("version"),
        Case::new("PUT", PUBLISH, b"{\"path\":\"x\",\"version\":\"v2\"}", 400),
        // The message lists what the one parser accepts, aliases included.
        Case::new(
            "PUT",
            PUBLISH,
            b"{\"path\":\"x\",\"version\":2,\"backend\":3}",
            400,
        )
        .mentions("naive, parallel, reference"),
        Case::new(
            "PUT",
            PUBLISH,
            b"{\"path\":\"x\",\"version\":2,\"backend\":\"cuda\"}",
            400,
        )
        .mentions("openmp"),
        Case::new(
            "PUT",
            PUBLISH,
            b"{\"path\":\"/definitely/not/a/model\",\"version\":2}",
            403,
        )
        .mentions("outside the allowed root"),
        Case::new(
            "PUT",
            PUBLISH,
            format!("{{\"path\":{inside:?},\"version\":2}}").as_bytes(),
            422,
        )
        .mentions("cannot load artifact"),
        // Learn bodies are checked before any learner is looked up...
        Case::new("POST", LEARN, b"{\"labels\":[0]}", 400).mentions("rows"),
        Case::new("POST", LEARN, b"{\"rows\":[[1,2]]}", 400).mentions("labels"),
        Case::new("POST", LEARN, b"{\"rows\":[],\"labels\":[]}", 400),
        Case::new("POST", LEARN, b"{\"rows\":[[]],\"labels\":[0]}", 400),
        Case::new(
            "POST",
            LEARN,
            b"{\"rows\":[[1,2],[3]],\"labels\":[0,1]}",
            400,
        )
        .mentions("row 1 has 1 features"),
        Case::new("POST", LEARN, b"{\"rows\":[[1,2]],\"labels\":[0,1]}", 400)
            .mentions("counts must match"),
        Case::new("POST", LEARN, b"{\"rows\":[[1,2]],\"labels\":[-1]}", 400),
        Case::new(
            "POST",
            LEARN,
            b"{\"rows\":[[1,2]],\"labels\":[4294967296]}",
            400,
        ),
        // ...and a well-formed one finds none attached.
        Case::new("POST", LEARN, b"{\"rows\":[[1,2]],\"labels\":[0]}", 404)
            .mentions("no online learner"),
    ];
    // Junk, non-finite and out-of-range abstention thresholds.
    for bad in ["abc", "NaN", "inf", "-inf", "1.5", "-0.1", "", "0.2.3"] {
        cases.push(Case::header("X-Abstain-Below", bad));
    }
    // A bad header is refused before the model is looked up: 400, not 404.
    cases.push(Case {
        path: "/v1/models/ghost/predict",
        ..Case::header("X-Abstain-Below", "abc")
    });
    cases
}

fn refusals_never_reach_the_serving_stack(front: Front) {
    let root = std::env::temp_dir().join(format!(
        "bcpnn-front-contract-{front:?}-{}",
        std::process::id()
    ));
    let inside = root.join("empty");
    std::fs::create_dir_all(&inside).unwrap();
    let (pipeline, _) = tiny_pipeline(90, BackendKind::Naive);
    let stack = front.start(
        FrontConfig {
            limits: Limits {
                max_body_bytes: 4096,
                ..Limits::default()
            },
            ..FrontConfig::default()
        },
        Some(root.clone()),
        &|registry| {
            registry.publish(ServedModel::new("higgs", 1, pipeline.clone()));
        },
    );

    let cases = refusals(inside.to_str().unwrap());
    for case in &cases {
        let what = format!(
            "{front:?}: {} {} {:?} {:?}",
            case.method,
            case.path,
            case.headers,
            String::from_utf8_lossy(&case.body[..case.body.len().min(60)])
        );
        let reply = client::request(
            stack.addr(),
            case.method,
            case.path,
            &case.headers,
            &case.body,
        )
        .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(reply.status, case.status, "{what} -> {}", reply.body_str());
        assert!(
            reply.body_str().contains(case.mentions),
            "{what}: the error must mention {:?}, got {}",
            case.mentions,
            reply.body_str()
        );
        if case.status == 405 {
            let allow = reply.header("allow").expect("405 carries Allow");
            assert_eq!(allow, case.allow, "{what}");
            assert!(reply.body_str().contains(allow), "{what}");
        }
    }

    let served = stack.server.metrics();
    assert_eq!(served.requests, 0, "{front:?}: a refusal reached the stack");
    assert_eq!(served.responses, 0);
    assert_eq!(stack.server.registry().hot_swaps(), 0);
    // Both fronts count what they answered.
    let counted = stack.front_metrics();
    assert_eq!(counted.requests, cases.len() as u64);
    assert_eq!(counted.status_4xx, cases.len() as u64);
    assert_eq!(counted.predict_rows, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn gateway_refusals_never_reach_the_serving_stack() {
    refusals_never_reach_the_serving_stack(Front::Gateway);
}

#[test]
fn cluster_refusals_never_reach_the_serving_stack() {
    refusals_never_reach_the_serving_stack(Front::Cluster);
}

#[test]
fn the_serving_stack_refuses_alike_on_both_fronts() {
    const PREDICT: &str = "/v1/models/higgs/predict";
    let (pipeline, data) = tiny_pipeline(92, BackendKind::Naive);
    let row = rows_body(&data, 0..1);
    let no_deadline: &[(&str, &str)] = &[];
    let cases = [
        ("/v1/models/nope/predict", no_deadline, row.as_bytes(), 404),
        (PREDICT, no_deadline, b"[[1,2]]".as_slice(), 400),
        (PREDICT, &[("X-Deadline-Ms", "0")], row.as_bytes(), 504),
    ];
    let answers = Front::BOTH.map(|front| {
        let stack = front.start(FrontConfig::default(), None, &|registry| {
            registry.publish(ServedModel::new("higgs", 1, pipeline.clone()));
        });
        cases.map(|(path, headers, body, status)| {
            let reply = client::request(stack.addr(), "POST", path, headers, body).unwrap();
            assert_eq!(
                reply.status,
                status,
                "{front:?} {path}: {}",
                reply.body_str()
            );
            let body = String::from_utf8(reply.body).expect("a JSON error body");
            (reply.status, body)
        })
    });
    for (gateway, cluster) in answers[0].iter().zip(&answers[1]) {
        assert_eq!(
            gateway, cluster,
            "a cluster must answer as one gateway does"
        );
    }
}

#[test]
fn both_fronts_accept_the_same_backend_names() {
    let root = std::env::temp_dir().join(format!("bcpnn-front-kinds-{}", std::process::id()));
    let (pipeline, _) = tiny_pipeline(91, BackendKind::Naive);
    let artifact = root.join("higgs-v2");
    pipeline.save(&artifact).unwrap();
    // An alias of `parallel` is published; a SIMD tier is not a backend.
    for (name, status) in [("openmp", 200), ("simd", 400)] {
        let body = format!(
            "{{\"path\":{:?},\"version\":2,\"backend\":{name:?}}}",
            artifact.to_str().unwrap()
        );
        for front in Front::BOTH {
            let stack = front.start(FrontConfig::default(), Some(root.clone()), &|_| {});
            let reply = client::request(
                stack.addr(),
                "PUT",
                "/v1/models/higgs",
                &[],
                body.as_bytes(),
            )
            .unwrap();
            assert_eq!(
                reply.status,
                status,
                "{front:?} {name}: {}",
                reply.body_str()
            );
            let published = stack.server.registry().lookup("higgs").is_some();
            assert_eq!(published, status == 200, "{front:?} {name}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_full_accept_queue_sheds_with_503_and_the_queued_requests_still_answer() {
    for front in Front::BOTH {
        let gate = GatePredictor::new(1);
        let stack = front.start(
            FrontConfig {
                workers: 1,
                max_pending: 1,
                ..FrontConfig::default()
            },
            None,
            &|registry| {
                registry.publish(ServedModel::new("gated", 1, gate.clone()));
            },
        );
        let addr = stack.addr();
        const PREDICT: &str = "/v1/models/gated/predict";

        // Request 1 occupies the only worker: blocked in the forward pass.
        let first = send_raw(addr, "POST", PREDICT, b"[[1]]");
        gate.wait_entered(1);
        // Request 2 fills the queue. Its connect has completed, so the
        // accept thread takes it before the next connection.
        let second = send_raw(addr, "POST", PREDICT, b"[[2]]");
        // Request 3 is turned away by the accept thread, unread: nothing
        // was written on this connection.
        let third = TcpStream::connect(addr).unwrap();
        let (status, body) = read_raw(third);
        assert_eq!(status, 503, "{front:?}: {body}");
        assert!(body.contains("accept queue is full"), "{front:?}: {body}");
        assert_eq!(stack.front_metrics().rejected_busy, 1, "{front:?}");
        assert_eq!(gate.batches(), vec![vec![1.0]], "{front:?}: only row 1 ran");

        gate.open();
        for (request, stream) in [first, second].into_iter().enumerate() {
            let (status, body) = read_raw(stream);
            assert_eq!(status, 200, "{front:?} request {}: {body}", request + 1);
            let got = predictions_of(&body);
            assert_eq!(got.len(), 1);
            for p in &got[0] {
                assert_eq!(p.to_bits(), 0.5f32.to_bits(), "{front:?}");
            }
        }
        let counted = stack.front_metrics();
        assert_eq!(
            (counted.requests, counted.status_2xx, counted.status_5xx),
            (3, 2, 1)
        );
        assert_eq!(counted.predict_rows, 2, "{front:?}");
    }
}

#[test]
fn a_non_finite_probability_is_a_500_on_both_fronts() {
    const PREDICT: &str = "/v1/models/broken/predict";
    for front in Front::BOTH {
        let stack = front.start(FrontConfig::default(), None, &|registry| {
            registry.publish(ServedModel::new("broken", 1, NonFinitePredictor));
        });
        // NaN, then ±inf, then a healthy row.
        for (body, status) in [("[[-1]]", 500), ("[[0]]", 500), ("[[1]]", 200)] {
            let reply =
                client::request(stack.addr(), "POST", PREDICT, &[], body.as_bytes()).unwrap();
            assert_eq!(
                reply.status,
                status,
                "{front:?} {body}: {}",
                reply.body_str()
            );
        }
        assert_eq!(stack.server.queue_depths(), vec![0, 0], "{front:?}");
        let served = stack.server.metrics();
        assert_eq!((served.errors, served.responses), (2, 1), "{front:?}");
        assert_eq!(stack.front_metrics().status_5xx, 2, "{front:?}");
    }
}

/// Drop `listener` (bound to `0.0.0.0:0`) and check it let go.
fn assert_drops_promptly<T>(what: &str, addr: SocketAddr, listener: T) {
    assert!(addr.ip().is_unspecified(), "{what} bound {addr}");
    let started = Instant::now();
    drop(listener);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "{what}: drop took {took:?}");
    TcpListener::bind(addr).unwrap_or_else(|e| panic!("{what}: port not released: {e}"));
}

#[test]
fn listeners_bound_to_a_wildcard_address_shut_down_and_release_the_port() {
    const ANY: &str = "0.0.0.0:0";
    let server = || {
        let registry = Arc::new(ModelRegistry::new());
        Arc::new(ShardedServer::start(registry, ShardConfig::new(1))) as Arc<dyn ServeTarget>
    };
    let front = || FrontConfig {
        addr: ANY.into(),
        ..FrontConfig::default()
    };

    let gateway = Gateway::start(
        server(),
        GatewayConfig {
            front: front(),
            artifact_root: None,
        },
    )
    .unwrap();
    assert_drops_promptly("Gateway", gateway.local_addr(), gateway);

    let node = BackendNode::start(
        server(),
        BackendConfig {
            addr: ANY.into(),
            ..BackendConfig::default()
        },
    )
    .unwrap();
    assert_drops_promptly("BackendNode", node.local_addr(), node);

    let router = Arc::new(ClusterRouter::start(ClusterConfig::default()));
    let http = RouterHttp::start(router, front()).unwrap();
    assert_drops_promptly("RouterHttp", http.local_addr(), http);
}
