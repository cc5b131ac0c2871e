//! The operator binary end to end, across process boundaries: `bcpnn fit`
//! writes two model directories, `bcpnn serve` loads one of them in a
//! process of its own, and the bundled HTTP client drives every endpoint
//! behind the gateway and behind the cluster router. What `fit` saved must
//! predict over HTTP bit for bit as it does in process. Bad invocations
//! exit 2 with one line on stderr; a directory that holds no pipeline
//! exits 1 with the load error.

mod common;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use bcpnn_backend::BackendKind;
use bcpnn_core::{Pipeline, Predictor};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_gateway::client::{self, ClientResponse};
use bcpnn_serve::validate_prometheus;

use common::{predictions_of, rows_body, version_of};

fn bcpnn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bcpnn"))
        .args(args)
        .output()
        .expect("the bcpnn binary runs")
}

/// A fresh directory for one test's artifacts.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcpnn-operator-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `bcpnn fit DIR --seed SEED`, asserting success.
fn fit(dir: &Path, seed: u64) {
    let out = bcpnn(&["fit", dir.to_str().unwrap(), "--seed", &seed.to_string()]);
    assert!(
        out.status.success(),
        "fit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A running `bcpnn serve`: killed, and its learner state removed, on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    state: PathBuf,
}

impl Server {
    fn start(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bcpnn"))
            .arg("serve")
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("bcpnn serve starts");
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let mut line = |prefix: &str| {
            let line = lines
                .next()
                .expect("serve prints its start-up lines")
                .unwrap();
            line.strip_prefix(prefix)
                .unwrap_or_else(|| panic!("expected {prefix:?}, got {line:?}"))
                .to_string()
        };
        let addr = line("listening on http://").parse().unwrap();
        let state = PathBuf::from(line("learner state in "));
        Server { child, addr, state }
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> ClientResponse {
        client::request(self.addr, method, path, headers, body).expect("the server answers")
    }

    fn scrape(&self) -> String {
        let metrics = self.request("GET", "/metrics", &[], b"");
        assert_eq!(metrics.status, 200);
        let text = metrics.body_str();
        validate_prometheus(&text).expect("the scrape is a valid exposition");
        text
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.state);
    }
}

/// The value of one sample line `series value` of a scrape.
fn sample(scrape: &str, series: &str) -> Option<f64> {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// Fit `higgs` (seed 1) and its sibling `higgs-v2` (seed 2), serve
/// `higgs` with `extra` flags, and walk every endpoint. `nodes` is the
/// label set a learn family carries per backend node: `[""]` for the
/// gateway, one `node="i",` per backend behind the router.
fn walkthrough(tag: &str, extra: &[&str], nodes: &[&str]) {
    let root = scratch(tag);
    let (v1_dir, v2_dir) = (root.join("higgs"), root.join("higgs-v2"));
    fit(&v1_dir, 1);
    fit(&v2_dir, 2);
    let cluster = !extra.is_empty();
    let mut args = vec![v1_dir.to_str().unwrap()];
    args.extend_from_slice(extra);
    let server = Server::start(&args);

    let health = server.request("GET", "/healthz", &[], b"");
    assert_eq!(health.status, 200);
    assert!(health.body_str().contains("ok"));
    if cluster {
        let up = format!("\"backends_up\":{}", nodes.len());
        assert!(health.body_str().contains(&up), "{}", health.body_str());
    }

    // What fit saved answers over HTTP exactly as it does in process.
    let rows = generate(&SyntheticHiggsConfig {
        n_samples: 64,
        seed: 42,
        ..Default::default()
    });
    let direct = Pipeline::load(&v1_dir, BackendKind::Parallel)
        .unwrap()
        .predict_proba(&rows.features)
        .unwrap();
    let headers = [("X-Priority", "high"), ("X-Deadline-Ms", "2000")];
    let predict = server.request(
        "POST",
        "/v1/models/higgs/predict",
        &headers,
        rows_body(&rows, 0..64).as_bytes(),
    );
    assert_eq!(predict.status, 200, "{}", predict.body_str());
    assert_eq!(version_of(&predict.body_str()), Some(1));
    for (r, got) in predictions_of(&predict.body_str()).iter().enumerate() {
        let bits = |row: &[f32]| row.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got),
            bits(direct.row(r)),
            "row {r} differs across the process boundary"
        );
    }

    // The sibling of a served directory lies inside the artifact root.
    let swap_body = format!(
        "{{\"path\":\"{}\",\"version\":2,\"backend\":\"parallel\"}}",
        v2_dir.display()
    );
    let swap = server.request("PUT", "/v1/models/higgs", &[], swap_body.as_bytes());
    assert_eq!(swap.status, 200, "{}", swap.body_str());
    assert!(swap.body_str().contains("\"displaced_version\":1"));
    assert!(
        !swap.body_str().contains("\"ok\":false"),
        "{}",
        swap.body_str()
    );

    let models = server.request("GET", "/v1/models", &[], b"").body_str();
    assert!(models.contains("\"version\":2"), "{models}");
    assert_eq!(models.contains("\"replicas\""), cluster, "{models}");

    let forbidden = br#"{"path":"/etc/passwd","version":3,"backend":"parallel"}"#;
    let forbidden = server.request("PUT", "/v1/models/higgs", &[], forbidden);
    assert_eq!(forbidden.status, 403, "{}", forbidden.body_str());

    let scrape = server.scrape();
    assert!(scrape.contains("bcpnn_serve_queue_depth"));
    assert!(scrape.contains("bcpnn_gateway_requests_total"));
    if cluster {
        assert!(scrape.contains("bcpnn_cluster_backend_up"));
        assert!(scrape.contains("node=\"0\""));
    }

    let missing = server.request("POST", "/v1/models/ghost/predict", &[], b"[[1]]");
    assert_eq!(missing.status, 404);

    // learn -> publish -> predict. Each 600-row round crosses the
    // learner's 500-trained-row publish threshold once; a round whose
    // gated publish is rejected feeds the next one.
    let published = |scrape: &str| {
        nodes.iter().all(|node| {
            let series = format!("bcpnn_learn_publishes_total{{{node}model=\"higgs\"}}");
            sample(scrape, &series).is_some_and(|n| n >= 1.0)
        })
    };
    let mut streamed = 0;
    for round in 0..5 {
        let data = generate(&SyntheticHiggsConfig {
            n_samples: 600,
            seed: 7 + round,
            ..Default::default()
        });
        for start in (0..600).step_by(100) {
            let labels: Vec<String> = data.labels[start..start + 100]
                .iter()
                .map(ToString::to_string)
                .collect();
            let body = format!(
                "{{\"rows\":{},\"labels\":[{}]}}",
                rows_body(&data, start..start + 100),
                labels.join(",")
            );
            let learn = server.request("POST", "/v1/models/higgs/learn", &[], body.as_bytes());
            assert_eq!(learn.status, 200, "{}", learn.body_str());
            assert!(learn.body_str().contains("\"accepted\":100"));
            assert!(
                !learn.body_str().contains("\"ok\":false"),
                "{}",
                learn.body_str()
            );
            streamed += 100;
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        while !published(&server.scrape()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
        if published(&server.scrape()) {
            break;
        }
    }
    let scrape = server.scrape();
    assert!(published(&scrape), "no learner published:\n{scrape}");
    for node in nodes {
        let series = format!("bcpnn_learn_rows_total{{{node}model=\"higgs\"}}");
        assert_eq!(
            sample(&scrape, &series),
            Some(f64::from(streamed)),
            "{series}"
        );
    }
    // The learner publishes past the PUT's version 2.
    let post_swap = server.request(
        "POST",
        "/v1/models/higgs/predict",
        &[],
        rows_body(&rows, 0..1).as_bytes(),
    );
    assert_eq!(post_swap.status, 200);
    assert!(
        version_of(&post_swap.body_str()).unwrap() >= 3,
        "{}",
        post_swap.body_str()
    );

    drop(server);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn gateway_serves_what_fit_saved() {
    walkthrough("gateway", &[], &[""]);
}

#[test]
fn cluster_serves_what_fit_saved() {
    walkthrough(
        "cluster",
        &["--backends", "2"],
        &["node=\"0\",", "node=\"1\","],
    );
}

#[test]
fn bad_invocations_exit_2_and_unloadable_models_exit_1() {
    let root = scratch("usage");
    let (a, b) = (root.join("a").join("higgs"), root.join("b").join("higgs"));
    fit(&a, 1);
    fit(&b, 1);
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let empty = root.join("empty");
    std::fs::create_dir(&empty).unwrap();
    // A directory name no route can address (and no metrics label can
    // hold unescaped).
    let unroutable = root.join("a\"b");
    std::fs::create_dir(&unroutable).unwrap();

    let one_line_and_exit = |args: &[&str], code: i32| {
        let out = bcpnn(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    };
    one_line_and_exit(&[], 2);
    one_line_and_exit(&["train"], 2);
    one_line_and_exit(&["fit"], 2);
    one_line_and_exit(&["fit", a, b], 2);
    one_line_and_exit(&["fit", a, "--seed", "one"], 2);
    one_line_and_exit(&["fit", a, "--rows", "10"], 2);
    one_line_and_exit(&["serve"], 2);
    one_line_and_exit(&["serve", a, "--addr"], 2);
    one_line_and_exit(&["serve", a, "--backends", "0"], 2);
    one_line_and_exit(&["serve", a, "--replication", "2"], 2);
    one_line_and_exit(&["serve", a, b], 2);
    one_line_and_exit(&["serve", unroutable.to_str().unwrap()], 2);
    one_line_and_exit(&["serve", empty.to_str().unwrap()], 1);
    one_line_and_exit(
        &["fit", a, "--csv", empty.join("HIGGS.csv").to_str().unwrap()],
        1,
    );

    std::fs::remove_dir_all(&root).unwrap();
}
