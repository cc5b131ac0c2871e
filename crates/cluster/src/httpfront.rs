//! The router's exterior HTTP/1.1 surface: the gateway protocol, served
//! by the cluster.
//!
//! Clients keep speaking exactly what the single-node `bcpnn-gateway`
//! speaks — same routes, same JSON shapes, same error mapping — so
//! pointing a load balancer (or an existing client) at a router instead
//! of a gateway is a config change, not a code change. The parser,
//! router, JSON codec, and error model are literally the gateway's
//! ([`bcpnn_gateway::http`], [`bcpnn_gateway::router`],
//! [`bcpnn_gateway::json`], [`bcpnn_gateway::error`]); only the handlers
//! differ:
//!
//! * `POST /v1/models/{name}/predict` sends the **whole row batch in one
//!   interior `Predict` frame** — batching on the wire is the interior
//!   protocol's point — and fails over per [`crate::router`].
//! * `PUT /v1/models/{name}` broadcasts the hot-swap to every replica
//!   and reports each node's outcome.
//! * `POST /v1/models/{name}/learn` broadcasts the labeled rows to every
//!   replica's online learner and reports each node's outcome (replicas
//!   must all fold the same rows to stay bit-identical).
//! * `GET /metrics` returns the merged cluster scrape.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bcpnn_gateway::error::ApiError;
use bcpnn_gateway::http::{read_request, Limits, Request, Response};
use bcpnn_gateway::json::{self, Json};
use bcpnn_gateway::router::{route, Route, RouteError};
use bcpnn_serve::{Priority, SubmitOptions};

use crate::router::ClusterRouter;
use crate::wire::{ErrorCode, RowBlock};

/// HTTP front configuration.
#[derive(Debug, Clone)]
pub struct RouterHttpConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Request head/body byte ceilings.
    pub limits: Limits,
    /// Socket read/write timeout per connection.
    pub read_timeout: Duration,
}

impl Default for RouterHttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(10),
        }
    }
}

struct FrontShared {
    router: Arc<ClusterRouter>,
    limits: Limits,
    read_timeout: Duration,
    shutdown: AtomicBool,
}

/// The running HTTP front over a [`ClusterRouter`]. One handler thread
/// per connection, one request per connection (`Connection: close`),
/// exactly like the gateway's wire contract.
pub struct RouterHttp {
    local_addr: SocketAddr,
    shared: Arc<FrontShared>,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl RouterHttp {
    /// Bind `config.addr` and serve the cluster.
    pub fn start(
        router: Arc<ClusterRouter>,
        config: RouterHttpConfig,
    ) -> std::io::Result<RouterHttp> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(FrontShared {
            router,
            limits: config.limits,
            read_timeout: config.read_timeout,
            shutdown: AtomicBool::new(false),
        });
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("bcpnn-cluster-http-accept".into())
                .spawn(move || run_accept(&listener, &shared, &handlers))
                .expect("failed to spawn cluster HTTP accept thread")
        };
        Ok(RouterHttp {
            local_addr,
            shared,
            accept: Some(accept),
            handlers,
        })
    }

    /// The address the front actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The cluster behind this front.
    pub fn router(&self) -> &Arc<ClusterRouter> {
        &self.shared.router
    }
}

impl Drop for RouterHttp {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for handler in self.handlers.lock().unwrap().drain(..) {
            let _ = handler.join();
        }
    }
}

impl std::fmt::Debug for RouterHttp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHttp")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

fn run_accept(
    listener: &TcpListener,
    shared: &Arc<FrontShared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
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
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("bcpnn-cluster-http-conn".into())
            .spawn(move || handle_connection(&shared, stream))
            .expect("failed to spawn cluster HTTP connection thread");
        // Reap before tracking: a finished handler's stack stays mapped
        // until its handle is dropped, so the list must not grow with the
        // number of connections ever served.
        let mut handlers = handlers.lock().unwrap();
        handlers.retain(|h| !h.is_finished());
        handlers.push(handle);
    }
}

/// Serve exactly one request on `stream` and close it.
fn handle_connection(shared: &FrontShared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.read_timeout));
    let _ = stream.set_nodelay(true);
    let response = match read_request(&mut stream, shared.limits) {
        Ok(request) => dispatch(shared, &request),
        Err(err) => ApiError::new(err.status(), err.message()).into_response(),
    };
    let _ = response.write_to(&mut stream);
}

fn dispatch(shared: &FrontShared, request: &Request) -> Response {
    let endpoint = match route(&request.method, &request.path) {
        Ok(endpoint) => endpoint,
        Err(RouteError::NotFound) => {
            return ApiError::new(404, format!("no endpoint at {:?}", request.path)).into_response()
        }
        Err(RouteError::MethodNotAllowed(allow)) => {
            let mut err = ApiError::new(
                405,
                format!("{} is not allowed here (allow: {allow})", request.method),
            );
            err.allow = Some(allow);
            return err.into_response();
        }
        Err(RouteError::BadModelName(name)) => {
            return ApiError::new(400, format!("invalid model name {name:?}")).into_response()
        }
    };
    let router = &shared.router;
    match endpoint {
        Route::Healthz => handle_healthz(router),
        Route::Metrics => Response::text_with_type(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            router.merged_prometheus(),
        ),
        Route::ListModels => handle_list_models(router),
        Route::Predict(name) => {
            handle_predict(router, &name, request).unwrap_or_else(ApiError::into_response)
        }
        Route::Publish(name) => {
            handle_publish(router, &name, request).unwrap_or_else(ApiError::into_response)
        }
        Route::Learn(name) => {
            handle_learn(router, &name, request).unwrap_or_else(ApiError::into_response)
        }
    }
}

/// `GET /healthz`: ok while at least one backend is in rotation, plus
/// the live replica picture for operators.
fn handle_healthz(router: &ClusterRouter) -> Response {
    let up = router.cluster_metrics().backends_up();
    let total = router.backends().len();
    let status = if up > 0 { "ok" } else { "degraded" };
    let body = Json::Obj(vec![
        ("status".into(), Json::str(status)),
        ("backends_up".into(), Json::u64(up as u64)),
        ("backends".into(), Json::u64(total as u64)),
    ]);
    Response::json(if up > 0 { 200 } else { 503 }, body.render())
}

/// `GET /v1/models`: the merged cluster listing, each model annotated
/// with its replica group.
fn handle_list_models(router: &ClusterRouter) -> Response {
    let models: Vec<Json> = router
        .models()
        .into_iter()
        .map(|m| {
            let replicas = router
                .replicas_for(&m.name)
                .into_iter()
                .map(|b| Json::u64(b as u64))
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::str(m.name)),
                ("version".into(), Json::u64(m.version)),
                ("n_inputs".into(), Json::u64(u64::from(m.n_inputs))),
                ("n_classes".into(), Json::u64(u64::from(m.n_classes))),
                ("replicas".into(), Json::Arr(replicas)),
            ])
        })
        .collect();
    Response::json(
        200,
        Json::Obj(vec![("models".into(), Json::Arr(models))]).render(),
    )
}

/// Parse `X-Priority` / `X-Deadline-Ms` / `X-Abstain-Below` (the
/// gateway's header contract).
fn options_from_headers(request: &Request) -> Result<SubmitOptions, ApiError> {
    let mut options = SubmitOptions::new();
    if let Some(priority) = request.header("x-priority") {
        options = options.priority(match priority.to_ascii_lowercase().as_str() {
            "high" => Priority::High,
            "normal" => Priority::Normal,
            "low" => Priority::Low,
            other => {
                return Err(ApiError::new(
                    400,
                    format!("invalid X-Priority {other:?} (use high, normal, or low)"),
                ))
            }
        });
    }
    if let Some(deadline) = request.header("x-deadline-ms") {
        let millis: u64 = deadline.parse().map_err(|_| {
            ApiError::new(
                400,
                format!("invalid X-Deadline-Ms {deadline:?} (use integer milliseconds)"),
            )
        })?;
        options = options.deadline(Duration::from_millis(millis));
    }
    if let Some(threshold) = request.header("x-abstain-below") {
        let parsed: f32 = threshold.trim().parse().map_err(|_| {
            ApiError::new(
                400,
                format!("invalid X-Abstain-Below {threshold:?} (use a number in [0, 1])"),
            )
        })?;
        if !parsed.is_finite() || !(0.0..=1.0).contains(&parsed) {
            return Err(ApiError::new(
                400,
                format!("invalid X-Abstain-Below {threshold:?} (must be finite and in [0, 1])"),
            ));
        }
        options = options.abstain_below(parsed);
    }
    Ok(options)
}

/// `POST /v1/models/{name}/predict`: JSON rows in, probabilities out —
/// one interior frame per request, failover per the router's rules.
fn handle_predict(
    router: &ClusterRouter,
    name: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let options = options_from_headers(request)?;
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::new(400, "request body is not valid UTF-8"))?;
    let rows = json::parse_f32_rows(body).map_err(|e| ApiError::new(400, e.to_string()))?;
    let block = RowBlock::from_rows(&rows);

    let (version, proba, abstained_rows) = router
        .predict_rows(name, block, &options)
        .map_err(ApiError::from)?;
    // Same in-band abstention and uncertainty contract as the single-node
    // gateway: abstained rows carry `null` prediction/uncertainty, and
    // entropy/margin are recomputed here from the wire's raw `f32` rows
    // with the shared `bcpnn_core::uncertainty` kernels — bit-identical
    // to what a gateway colocated with the model would report.
    let mut predictions = Vec::with_capacity(proba.n_rows());
    let mut uncertainty = Vec::with_capacity(proba.n_rows());
    let mut abstained = Vec::with_capacity(proba.n_rows());
    for i in 0..proba.n_rows() {
        if abstained_rows.contains(&(i as u32)) {
            predictions.push(Json::Null);
            uncertainty.push(Json::Null);
            abstained.push(Json::Bool(true));
        } else {
            let row = proba.row(i);
            uncertainty.push(Json::Obj(vec![
                (
                    "entropy".into(),
                    Json::f32(bcpnn_core::uncertainty::entropy(row)),
                ),
                (
                    "margin".into(),
                    Json::f32(bcpnn_core::uncertainty::margin(row)),
                ),
            ]));
            predictions.push(Json::Arr(row.iter().copied().map(Json::f32).collect()));
            abstained.push(Json::Bool(false));
        }
    }
    let body = Json::Obj(vec![
        ("model".into(), Json::str(name)),
        ("version".into(), version.map_or(Json::Null, Json::u64)),
        ("predictions".into(), Json::Arr(predictions)),
        ("uncertainty".into(), Json::Arr(uncertainty)),
        ("abstained".into(), Json::Arr(abstained)),
    ]);
    Ok(Response::json(200, body.render()))
}

/// The HTTP status a per-node publish refusal maps to.
fn publish_failure_status(code: ErrorCode) -> u16 {
    match code {
        ErrorCode::Forbidden => 403,
        // The node could not load the artifact: unprocessable content,
        // the same answer the single-node gateway gives.
        ErrorCode::Io => 422,
        ErrorCode::BadRequest => 400,
        ErrorCode::Disconnected => 502,
        _ => 500,
    }
}

/// `PUT /v1/models/{name}`: broadcast the hot-swap to every replica and
/// report per-node outcomes. `200` only when every replica swapped; any
/// refusal sets the overall status to the first failure's mapping.
fn handle_publish(
    router: &ClusterRouter,
    name: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::new(400, "request body is not valid UTF-8"))?;
    let doc = json::parse(body).map_err(|e| ApiError::new(400, e.to_string()))?;
    let path = doc
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new(400, "missing string field \"path\""))?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| ApiError::new(400, "missing integer field \"version\""))?;
    let backend_byte = match doc.get("backend").and_then(Json::as_str) {
        None => 1,
        Some("naive") => 0,
        Some("parallel") => 1,
        Some(_) => {
            return Err(ApiError::new(
                400,
                "field \"backend\" must be \"naive\" or \"parallel\"",
            ))
        }
    };

    let outcomes = router.publish(name, path, version, backend_byte);
    let mut status = 200u16;
    let results: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![
                ("backend".into(), Json::u64(o.backend as u64)),
                ("addr".into(), Json::str(o.addr.to_string())),
            ];
            match &o.result {
                Ok((version, displaced)) => {
                    fields.push(("ok".into(), Json::Bool(true)));
                    fields.push(("version".into(), Json::u64(*version)));
                    fields.push((
                        "displaced_version".into(),
                        displaced.map_or(Json::Null, Json::u64),
                    ));
                }
                Err((code, message)) => {
                    if status == 200 {
                        status = publish_failure_status(*code);
                    }
                    fields.push(("ok".into(), Json::Bool(false)));
                    fields.push((
                        "status".into(),
                        Json::u64(u64::from(publish_failure_status(*code))),
                    ));
                    fields.push(("error".into(), Json::str(message.clone())));
                }
            }
            Json::Obj(fields)
        })
        .collect();
    let body = Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("version".into(), Json::u64(version)),
        ("results".into(), Json::Arr(results)),
    ]);
    Ok(Response::json(status, body.render()))
}

/// The HTTP status a per-node learn refusal maps to.
fn learn_failure_status(code: ErrorCode) -> u16 {
    match code {
        ErrorCode::UnknownModel => 404,
        ErrorCode::Overloaded => 429,
        ErrorCode::Disconnected => 502,
        ErrorCode::BadRequest | ErrorCode::ShapeMismatch => 400,
        _ => 500,
    }
}

/// `POST /v1/models/{name}/learn`: same JSON contract as the single-node
/// gateway (`{"rows": [[...]], "labels": [...]}`), broadcast to every
/// replica's learner. `200` only when every replica accepted; any
/// refusal sets the overall status to the first failure's mapping.
fn handle_learn(
    router: &ClusterRouter,
    name: &str,
    request: &Request,
) -> Result<Response, ApiError> {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::new(400, "request body is not valid UTF-8"))?;
    let doc = json::parse(body).map_err(|e| ApiError::new(400, e.to_string()))?;
    let rows_json = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::new(400, "missing array field \"rows\""))?;
    let mut rows = Vec::with_capacity(rows_json.len());
    for row in rows_json {
        let cells = row
            .as_array()
            .ok_or_else(|| ApiError::new(400, "\"rows\" must be an array of arrays"))?;
        let mut features = Vec::with_capacity(cells.len());
        for cell in cells {
            let value = match cell {
                Json::Num(n) => n.as_f32(),
                _ => None,
            };
            features
                .push(value.ok_or_else(|| ApiError::new(400, "rows must contain finite numbers"))?);
        }
        rows.push(features);
    }
    if rows.is_empty() {
        return Err(ApiError::new(400, "\"rows\" must not be empty"));
    }
    let width = rows[0].len();
    if width == 0 || rows.iter().any(|r| r.len() != width) {
        return Err(ApiError::new(
            400,
            "\"rows\" must be non-empty and rectangular",
        ));
    }
    let labels_json = doc
        .get("labels")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::new(400, "missing array field \"labels\""))?;
    if labels_json.len() != rows.len() {
        return Err(ApiError::new(
            400,
            format!(
                "{} labels for {} rows; counts must match",
                labels_json.len(),
                rows.len()
            ),
        ));
    }
    let mut labels = Vec::with_capacity(labels_json.len());
    for label in labels_json {
        let value = label
            .as_u64()
            .filter(|&v| v <= u64::from(u32::MAX))
            .ok_or_else(|| {
                ApiError::new(400, "\"labels\" must be an array of non-negative integers")
            })?;
        labels.push(value as u32);
    }

    let outcomes = router.learn(name, RowBlock::from_rows(&rows), labels);
    if outcomes.is_empty() {
        return Err(ApiError::new(502, "no backend nodes are configured"));
    }
    let mut status = 200u16;
    let results: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![
                ("backend".into(), Json::u64(o.backend as u64)),
                ("addr".into(), Json::str(o.addr.to_string())),
            ];
            match &o.result {
                Ok((accepted, queue_depth)) => {
                    fields.push(("ok".into(), Json::Bool(true)));
                    fields.push(("accepted".into(), Json::u64(*accepted)));
                    fields.push(("queue_depth".into(), Json::u64(*queue_depth)));
                }
                Err((code, message)) => {
                    if status == 200 {
                        status = learn_failure_status(*code);
                    }
                    fields.push(("ok".into(), Json::Bool(false)));
                    fields.push((
                        "status".into(),
                        Json::u64(u64::from(learn_failure_status(*code))),
                    ));
                    fields.push(("error".into(), Json::str(message.clone())));
                }
            }
            Json::Obj(fields)
        })
        .collect();
    let body = Json::Obj(vec![
        ("model".into(), Json::str(name)),
        ("rows".into(), Json::u64(rows.len() as u64)),
        ("results".into(), Json::Arr(results)),
    ]);
    Ok(Response::json(status, body.render()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ClusterConfig;
    use bcpnn_gateway::client;

    #[test]
    fn finished_handlers_are_reaped_not_kept_until_shutdown() {
        // No backends: `/healthz` answers 503 "degraded", which is still a
        // served request on a connection of its own.
        let router = Arc::new(ClusterRouter::start(ClusterConfig {
            health_interval: Duration::from_secs(3600),
            ..ClusterConfig::default()
        }));
        let front = RouterHttp::start(router, RouterHttpConfig::default()).unwrap();
        for _ in 0..300 {
            let reply = client::request(front.local_addr(), "GET", "/healthz", &[], b"").unwrap();
            assert_eq!(reply.status, 503);
        }
        // A handler may still be on its way out when the next connection
        // is accepted, so a few are tracked — not all 300.
        let tracked = front.handlers.lock().unwrap().len();
        assert!(
            tracked < 50,
            "{tracked} of 300 handler threads still tracked"
        );
    }
}
