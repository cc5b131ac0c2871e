//! The HTTP front: a bounded accept/worker thread pool over
//! `std::net::TcpListener`, serving the gateway protocol over any
//! [`ApiBackend`].
//!
//! One *accept* thread pulls connections off the listener into a bounded
//! queue; when the queue is full the connection is answered `503`
//! immediately (load shedding at the edge, before any parsing). `workers`
//! *connection* threads take one each, parse one HTTP request
//! ([`crate::http`]), route it ([`crate::router`]), validate headers and
//! body, call the backend, and render its typed reply. Everything a
//! client can observe except the backend call is this module, so it is
//! the same on [`crate::Gateway`] and on the cluster's router front.

use std::fmt::Write as _;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bcpnn_backend::BackendKind;
use bcpnn_serve::{Exposition, Priority, RowBlock, SubmitOptions};

use crate::api::{ApiBackend, Learned, Outcome, Prediction, PublishRequest, Published};
use crate::error::{ApiError, ErrorCode};
use crate::http::{read_request, Limits, Request, Response};
use crate::json::{self, Json};
use crate::metrics::{GatewayMetrics, GatewaySnapshot};
use crate::router::{route, Route};

/// HTTP front configuration, shared by the gateway and the cluster's
/// router front.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port; read the
    /// result from [`HttpFront::local_addr`]).
    pub addr: String,
    /// Connection worker threads (each serves one request at a time).
    pub workers: usize,
    /// Bounded queue of accepted, not-yet-served connections; connections
    /// beyond it are answered `503` immediately.
    pub max_pending: usize,
    /// Request head/body byte ceilings.
    pub limits: Limits,
    /// Socket read and write timeout per connection.
    pub read_timeout: Duration,
}

impl Default for FrontConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_pending: 64,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// State shared by the accept thread and the connection workers.
struct Shared {
    backend: Arc<dyn ApiBackend>,
    metrics: GatewayMetrics,
    config: FrontConfig,
    shutdown: AtomicBool,
}

/// Take the next queued connection; `None` once the accept thread (the
/// queue's sending half) is gone *and* the queue is drained, so queued
/// connections are still served through shutdown. The lock is held only
/// while waiting, never while serving.
fn next_connection(queue: &Mutex<Receiver<TcpStream>>) -> Option<TcpStream> {
    queue.lock().unwrap().recv().ok()
}

/// A running HTTP front. Dropping it shuts the listener down gracefully:
/// queued connections are served, then the threads join.
pub struct HttpFront {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpFront {
    /// Bind `config.addr` and start the accept + worker threads over
    /// `backend`.
    pub fn start(backend: Arc<dyn ApiBackend>, config: FrontConfig) -> std::io::Result<HttpFront> {
        assert!(config.workers > 0, "need at least one connection worker");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // The bounded queue of accepted, not-yet-served connections.
        let (queue, accepted) = sync_channel(config.max_pending.max(1));
        let accepted = Arc::new(Mutex::new(accepted));
        let n_workers = config.workers;
        let shared = Arc::new(Shared {
            backend,
            metrics: GatewayMetrics::new(),
            config,
            shutdown: AtomicBool::new(false),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bcpnn-gateway-accept".into())
                .spawn(move || run_accept(&listener, &queue, &shared))
                .expect("failed to spawn gateway accept thread")
        };
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let accepted = Arc::clone(&accepted);
                std::thread::Builder::new()
                    .name(format!("bcpnn-gateway-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = next_connection(&accepted) {
                            handle_connection(&shared, stream);
                        }
                    })
                    .expect("failed to spawn gateway worker thread")
            })
            .collect();

        Ok(HttpFront {
            local_addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The address the front actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time copy of the front's counters (the backend's own
    /// metrics are in its scrape).
    #[must_use]
    pub fn metrics(&self) -> GatewaySnapshot {
        self.shared.metrics.snapshot()
    }
}

impl Drop for HttpFront {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let accept = self.accept.take().expect("dropped once");
        // The accept thread owns the queue's sending half: once it is
        // gone the workers drain what is queued and stop. If it could not
        // be woken they are detached with it.
        if wake_and_join(self.local_addr, accept) {
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

impl std::fmt::Debug for HttpFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpFront")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Stop an accept loop blocked in `accept()` on `local_addr` whose
/// shutdown flag the caller has already set: unblock it with a throwaway
/// connection, then join it. The loop checks the flag after every accept
/// (and accept *error*), so this connection is the last it sees.
///
/// A listener bound to a wildcard address is woken over loopback —
/// connecting to `0.0.0.0` is not universally routable to self. If the
/// wake-up cannot connect (fd exhaustion, odd platform) the thread is
/// detached rather than hanging the dropping thread, and `false` comes
/// back: it exits at its next accept/error cycle.
pub fn wake_and_join(local_addr: SocketAddr, accept: JoinHandle<()>) -> bool {
    let mut wake_addr = local_addr;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match wake_addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let woke = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1)).is_ok();
    woke && accept.join().is_ok()
}

fn run_accept(listener: &TcpListener, queue: &SyncSender<TcpStream>, shared: &Shared) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Listener-level errors (EMFILE and friends): back off briefly
            // instead of spinning a core exactly when the process is
            // already resource-starved, then retry unless shutting down.
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Err(TrySendError::Full(mut rejected) | TrySendError::Disconnected(mut rejected)) =
            queue.try_send(stream)
        {
            // Shed load at the edge: a full queue answers 503 from the
            // accept thread without reading the request. The short write
            // timeout keeps a non-reading client from stalling accepts.
            let _ = rejected.set_write_timeout(Some(Duration::from_secs(1)));
            let response = ApiError::new(
                ErrorCode::Disconnected,
                "gateway accept queue is full; retry later",
            )
            .into_response();
            shared.metrics.record_request();
            shared.metrics.record_rejected_busy();
            shared.metrics.record_status(response.status);
            if let Ok(n) = response.write_to(&mut rejected) {
                shared.metrics.record_bytes_out(n);
            }
        }
    }
}

/// Serve exactly one request on `stream` and close it.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    // A write timeout too: a client that never reads its response must
    // not wedge this worker in write_all forever.
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    shared.metrics.record_request();
    let response = read_request(&mut stream, shared.config.limits)
        .and_then(|request| {
            shared.metrics.record_bytes_in(request.body.len() as u64);
            dispatch(shared, &request)
        })
        .unwrap_or_else(ApiError::into_response);
    shared.metrics.record_status(response.status);
    if let Ok(n) = response.write_to(&mut stream) {
        shared.metrics.record_bytes_out(n);
    }
}

/// Route and run one parsed request.
fn dispatch(shared: &Shared, request: &Request) -> Result<Response, ApiError> {
    let endpoint = route(&request.method, &request.path)?;
    let backend = &*shared.backend;
    match endpoint {
        Route::Healthz => Ok(handle_healthz(backend)),
        Route::Metrics => {
            let text = Exposition::render(|out| {
                backend.scrape(out);
                shared.metrics.snapshot().write_metrics(out);
            });
            Ok(Response::text_with_type(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                text,
            ))
        }
        Route::ListModels => Ok(handle_list_models(backend)),
        Route::Predict(name) => handle_predict(shared, &name, request),
        Route::Publish(name) => {
            let publish = parse_publish_body(body_text(request)?)?;
            let outcome = backend.publish(&name, &publish)?;
            Ok(render_outcome(
                ("name", &name),
                ("version", publish.version),
                outcome,
                published_fields,
            ))
        }
        Route::Learn(name) => {
            let (rows, labels) = parse_learn_body(body_text(request)?)?;
            let n_rows = rows.n_rows() as u64;
            let outcome = backend.learn(&name, rows, labels)?;
            Ok(render_outcome(
                ("model", &name),
                ("rows", n_rows),
                outcome,
                learned_fields,
            ))
        }
    }
}

fn body_text(request: &Request) -> Result<&str, ApiError> {
    std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("request body is not valid UTF-8"))
}

/// `GET /healthz`: liveness, plus the live replica picture when the
/// backend is a cluster (`503` once no node is in rotation).
fn handle_healthz(backend: &dyn ApiBackend) -> Response {
    let backends = backend.health();
    let ok = backends.is_none_or(|(up, _)| up > 0);
    let mut body = vec![(
        "status".into(),
        Json::str(if ok { "ok" } else { "degraded" }),
    )];
    if let Some((up, total)) = backends {
        body.push(("backends_up".into(), Json::u64(up as u64)));
        body.push(("backends".into(), Json::u64(total as u64)));
    }
    Response::json(if ok { 200 } else { 503 }, Json::Obj(body).render())
}

/// `GET /v1/models`: listing with versions and shapes, each model
/// annotated with its replica group when the backend is a cluster.
fn handle_list_models(backend: &dyn ApiBackend) -> Response {
    let models = backend
        .models()
        .into_iter()
        .map(|m| {
            let mut entry = vec![
                ("name".into(), Json::str(m.name)),
                ("version".into(), Json::u64(m.version)),
                ("n_inputs".into(), Json::u64(m.n_inputs)),
                ("n_classes".into(), Json::u64(m.n_classes)),
            ];
            if let Some(replicas) = m.replicas {
                let replicas = replicas.into_iter().map(|b| Json::u64(b as u64)).collect();
                entry.push(("replicas".into(), Json::Arr(replicas)));
            }
            Json::Obj(entry)
        })
        .collect();
    Response::json(
        200,
        Json::Obj(vec![("models".into(), Json::Arr(models))]).render(),
    )
}

/// Parse `X-Priority` / `X-Deadline-Ms` / `X-Abstain-Below` into
/// [`SubmitOptions`]. Malformed headers are rejected with `400` here,
/// before the backend is called — a bad threshold never costs a forward
/// pass.
fn options_from_headers(request: &Request) -> Result<SubmitOptions, ApiError> {
    let mut options = SubmitOptions::new();
    if let Some(priority) = request.header("x-priority") {
        options = options.priority(match priority.to_ascii_lowercase().as_str() {
            "high" => Priority::High,
            "normal" => Priority::Normal,
            "low" => Priority::Low,
            other => {
                return Err(ApiError::bad_request(format!(
                    "invalid X-Priority {other:?} (use high, normal, or low)"
                )))
            }
        });
    }
    if let Some(deadline) = request.header("x-deadline-ms") {
        let millis: u64 = deadline.parse().map_err(|_| {
            ApiError::bad_request(format!(
                "invalid X-Deadline-Ms {deadline:?} (use integer milliseconds)"
            ))
        })?;
        options = options.deadline(Duration::from_millis(millis));
    }
    if let Some(threshold) = request.header("x-abstain-below") {
        let parsed: f32 = threshold.trim().parse().map_err(|_| {
            ApiError::bad_request(format!(
                "invalid X-Abstain-Below {threshold:?} (use a number in [0, 1])"
            ))
        })?;
        if !parsed.is_finite() || !(0.0..=1.0).contains(&parsed) {
            return Err(ApiError::bad_request(format!(
                "invalid X-Abstain-Below {threshold:?} (must be finite and in [0, 1])"
            )));
        }
        options = options.abstain_below(parsed);
    }
    Ok(options)
}

/// `POST /v1/models/{name}/predict`: JSON rows in, probabilities out.
fn handle_predict(shared: &Shared, name: &str, request: &Request) -> Result<Response, ApiError> {
    let options = options_from_headers(request)?;
    let rows = json::parse_f32_block(body_text(request)?)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;

    // Count exactly what reached the stack, so
    // bcpnn_gateway_predict_rows_total reconciles with the serve-side
    // per-row requests counter.
    let result = shared.backend.predict(name, rows, options);
    let submitted = match &result {
        Ok(prediction) => prediction.proba.n_rows(),
        Err(failure) => failure.submitted,
    };
    shared.metrics.record_predict_rows(submitted as u64);
    let prediction = result.map_err(|failure| failure.error)?;
    Ok(Response::json(200, render_prediction(name, &prediction)))
}

/// The predict reply body, appended to one `String`:
/// `{"model", "version", "predictions", "uncertainty", "abstained"}`, the
/// three arrays one entry per request row.
///
/// Abstention is reported in-band: an abstained row gets a `null`
/// prediction, `null` uncertainty and `"abstained": true`, so one
/// low-confidence row does not turn its siblings' answers into an error
/// response. Uncertainty (entropy and top-2 margin) is recomputed here
/// from the returned probabilities with the same
/// `bcpnn_core::uncertainty` kernels every layer uses, so the JSON numbers
/// are bit-identical to a direct in-process call whichever backend
/// answered. `version` is the model version that answered every row.
fn render_prediction(name: &str, prediction: &Prediction) -> String {
    let Prediction {
        version,
        proba,
        abstained,
    } = prediction;
    let n_rows = proba.n_rows();
    let mut is_abstained = vec![false; n_rows];
    for &row in abstained {
        if let Some(flag) = is_abstained.get_mut(row as usize) {
            *flag = true;
        }
    }

    let mut out = String::with_capacity(64 + n_rows * (16 * proba.n_cols as usize + 64));
    out.push_str("{\"model\":");
    json::write_escaped(&mut out, name);
    out.push_str(",\"version\":");
    match version {
        Some(version) => {
            let _ = write!(out, "{version}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"predictions\":");
    write_answered_rows(&mut out, proba, &is_abstained, |out, proba| {
        write_array(out, proba, |out, &p| json::write_f32(out, p));
    });
    out.push_str(",\"uncertainty\":");
    write_answered_rows(&mut out, proba, &is_abstained, |out, proba| {
        out.push_str("{\"entropy\":");
        json::write_f32(out, bcpnn_core::uncertainty::entropy(proba));
        out.push_str(",\"margin\":");
        json::write_f32(out, bcpnn_core::uncertainty::margin(proba));
        out.push('}');
    });
    out.push_str(",\"abstained\":");
    write_array(&mut out, &is_abstained, |out, &abstained| {
        out.push_str(if abstained { "true" } else { "false" });
    });
    out.push('}');
    out
}

/// Append `[item,item,...]`.
fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    item: impl Fn(&mut String, T),
) {
    out.push('[');
    for (i, value) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, value);
    }
    out.push(']');
}

/// Append one array entry per row of `proba`: `null` for an abstained row,
/// what `answered` writes from the row's probabilities otherwise.
fn write_answered_rows(
    out: &mut String,
    proba: &RowBlock,
    is_abstained: &[bool],
    answered: impl Fn(&mut String, &[f32]),
) {
    write_array(
        out,
        is_abstained.iter().enumerate(),
        |out, (r, &abstained)| {
            if abstained {
                out.push_str("null");
            } else {
                answered(out, proba.row(r));
            }
        },
    );
}

/// The `PUT /v1/models/{name}` body:
/// `{"path": "...", "version": N, "backend": "<name>"}` — `backend` is
/// optional (default parallel) and takes every name
/// [`BackendKind::parse`] does.
fn parse_publish_body(body: &str) -> Result<PublishRequest, ApiError> {
    let doc = json::parse(body).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let path = doc
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("missing string field \"path\""))?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| ApiError::bad_request("missing integer field \"version\""))?;
    let backend = match doc.get("backend") {
        None | Some(Json::Null) => BackendKind::Parallel,
        Some(value) => value.as_str().and_then(BackendKind::parse).ok_or_else(|| {
            ApiError::bad_request(format!(
                "field \"backend\" must be one of the strings {}",
                BackendKind::accepted_names().collect::<Vec<_>>().join(", ")
            ))
        })?,
    };
    Ok(PublishRequest {
        path: path.to_string(),
        version,
        backend,
    })
}

/// The `POST /v1/models/{name}/learn` body:
/// `{"rows": [[...], ...], "labels": [0, 1, ...]}` — the predict
/// endpoint's rows (same checks, same bit-exact f32 parsing) plus one
/// integer class label per row, each fitting a `u32`; all checked here,
/// before any learner or backend node is touched.
fn parse_learn_body(body: &str) -> Result<(RowBlock, Vec<u32>), ApiError> {
    let doc = json::parse(body).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let rows = doc
        .get("rows")
        .ok_or_else(|| ApiError::bad_request("missing array field \"rows\""))?;
    let rows = json::f32_block(rows).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let labels = doc
        .get("labels")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::bad_request("missing array field \"labels\""))?;
    if labels.len() != rows.n_rows() {
        let counts = format!("{} labels for {} rows", labels.len(), rows.n_rows());
        return Err(ApiError::bad_request(format!(
            "{counts}; counts must match"
        )));
    }
    let labels = labels
        .iter()
        .map(|label| label.as_u64().and_then(|v| u32::try_from(v).ok()))
        .collect::<Option<Vec<u32>>>()
        .ok_or_else(|| {
            ApiError::bad_request("\"labels\" must be an array of non-negative integers")
        })?;
    Ok((rows, labels))
}

fn published_fields(published: &Published) -> Vec<(String, Json)> {
    vec![
        ("version".into(), Json::u64(published.version)),
        (
            "displaced_version".into(),
            published.displaced.map_or(Json::Null, Json::u64),
        ),
    ]
}

fn learned_fields(learned: &Learned) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("accepted".into(), Json::u64(learned.accepted)),
        ("queue_depth".into(), Json::u64(learned.queue_depth)),
    ];
    if let Some(publishes) = learned.publishes {
        fields.push(("publishes".into(), Json::u64(publishes)));
    }
    fields
}

/// Render a publish or learn reply. A single-node result is
/// `{<subject>, <fields>}`; a cluster's is
/// `{<subject>, <request_field>, "results": [...]}` with one entry per
/// replica — `200` only when every replica succeeded, otherwise the first
/// failure's status.
fn render_outcome<T>(
    subject: (&str, &str),
    request_field: (&str, u64),
    outcome: Outcome<T>,
    fields: fn(&T) -> Vec<(String, Json)>,
) -> Response {
    let mut status = 200;
    let mut body = vec![(subject.0.to_string(), Json::str(subject.1))];
    match outcome {
        Outcome::Local(value) => body.extend(fields(&value)),
        Outcome::PerNode(nodes) => {
            let results = nodes
                .into_iter()
                .map(|node| {
                    let mut entry = vec![
                        ("backend".into(), Json::u64(node.backend as u64)),
                        ("addr".into(), Json::str(node.addr.to_string())),
                        ("ok".into(), Json::Bool(node.result.is_ok())),
                    ];
                    match node.result {
                        Ok(value) => entry.extend(fields(&value)),
                        Err(err) => {
                            if status == 200 {
                                status = err.status();
                            }
                            entry.push(("status".into(), Json::u64(u64::from(err.status()))));
                            entry.push(("error".into(), Json::str(err.message)));
                        }
                    }
                    Json::Obj(entry)
                })
                .collect();
            body.push((request_field.0.to_string(), Json::u64(request_field.1)));
            body.push(("results".into(), Json::Arr(results)));
        }
    }
    Response::json(status, Json::Obj(body).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The predict reply as a `Json` tree, rendered: the form
    /// [`render_prediction`] replaced and must keep producing, byte for
    /// byte.
    fn render_through_the_tree(name: &str, prediction: &Prediction) -> String {
        let mut predictions = Vec::new();
        let mut uncertainty = Vec::new();
        let mut abstained = Vec::new();
        for r in 0..prediction.proba.n_rows() {
            let row =
                (!prediction.abstained.contains(&(r as u32))).then(|| prediction.proba.row(r));
            abstained.push(Json::Bool(row.is_none()));
            match row {
                Some(proba) => {
                    uncertainty.push(Json::Obj(vec![
                        (
                            "entropy".into(),
                            Json::f32(bcpnn_core::uncertainty::entropy(proba)),
                        ),
                        (
                            "margin".into(),
                            Json::f32(bcpnn_core::uncertainty::margin(proba)),
                        ),
                    ]));
                    predictions.push(Json::Arr(proba.iter().copied().map(Json::f32).collect()));
                }
                None => {
                    predictions.push(Json::Null);
                    uncertainty.push(Json::Null);
                }
            }
        }
        Json::Obj(vec![
            ("model".into(), Json::str(name)),
            (
                "version".into(),
                prediction.version.map_or(Json::Null, Json::u64),
            ),
            ("predictions".into(), Json::Arr(predictions)),
            ("uncertainty".into(), Json::Arr(uncertainty)),
            ("abstained".into(), Json::Arr(abstained)),
        ])
        .render()
    }

    #[test]
    fn predict_reply_shape_is_pinned() {
        let prediction = Prediction {
            version: Some(3),
            proba: RowBlock::from_rows(&[vec![0.25, 0.75], vec![0.0, 0.0], vec![f32::NAN, 1.0]]),
            abstained: vec![1],
        };
        let reply = render_prediction("hi\"ggs\n", &prediction);
        assert_eq!(
            reply,
            "{\"model\":\"hi\\\"ggs\\n\",\"version\":3,\
             \"predictions\":[[0.25,0.75],null,[null,1]],\
             \"uncertainty\":[{\"entropy\":0.56233513,\"margin\":0.5},null,\
             {\"entropy\":0,\"margin\":1}],\
             \"abstained\":[false,true,false]}"
        );
        assert_eq!(reply, render_through_the_tree("hi\"ggs\n", &prediction));
        let unnamed = Prediction {
            version: None,
            ..prediction
        };
        assert!(render_prediction("m", &unnamed).starts_with("{\"model\":\"m\",\"version\":null,"));
    }

    /// Model names with everything `write_escaped` has a case for.
    fn name_strategy() -> impl Strategy<Value = String> {
        const CHARS: [char; 12] = [
            'a', 'Z', '7', '-', '"', '\\', '\n', '\r', '\t', '\u{1}', 'é', '😀',
        ];
        prop::collection::vec(0..CHARS.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
    }

    /// Replies of 0–20 rows by 1–5 classes over every `f32` bit pattern
    /// (NaN and the infinities render `null`), any subset abstained.
    fn prediction_strategy() -> impl Strategy<Value = Prediction> {
        (0usize..=20, 1u32..=5).prop_flat_map(|(n_rows, n_cols)| {
            (
                prop::collection::vec(prop::num::f32::ANY, n_rows * n_cols as usize),
                prop::collection::vec(prop::bool::ANY, n_rows),
                (prop::bool::ANY, 0..=u64::MAX),
            )
                .prop_map(move |(data, abstains, (named, version))| Prediction {
                    version: named.then_some(version),
                    proba: RowBlock { n_cols, data },
                    abstained: (0..n_rows as u32)
                        .filter(|&r| abstains[r as usize])
                        .collect(),
                })
        })
    }

    proptest! {
        #[test]
        fn flat_reply_writer_equals_the_rendered_tree(
            name in name_strategy(),
            prediction in prediction_strategy(),
        ) {
            prop_assert_eq!(
                render_prediction(&name, &prediction),
                render_through_the_tree(&name, &prediction)
            );
        }
    }
}
