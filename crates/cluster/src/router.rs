//! The router tier: consistent-hash placement, health-checked connection
//! pools, replica failover, and cluster-wide publish/metrics fan-out.
//!
//! A [`ClusterRouter`] owns one [`BackendPool`] per backend node and a
//! [`Ring`] that maps each model name to its replica group. Predict
//! traffic goes to the group's first healthy member and **fails over**
//! to the next replica on transport-level failures; application-level
//! errors (unknown model, shape mismatch, deadline) never fail over —
//! the next replica would answer the same thing, or the client's time
//! budget is already spent.
//!
//! ## Timeout semantics
//!
//! * Request carries a client deadline → the deadline is also the wire
//!   timeout, and expiry is [`ErrorCode::DeadlineExceeded`], with **no**
//!   failover: a replica retry cannot un-spend the client's budget.
//! * No deadline → the configured
//!   [`request_timeout`](ClusterConfig::request_timeout) applies; expiry
//!   is treated as a backend failure: mark it out of rotation, fail over,
//!   and only after every replica is exhausted report
//!   [`ErrorCode::BadGateway`].
//!
//! A node's own refusal reaches the client as the node sent it: the
//! router builds the [`ApiError`] from the error frame's code and message
//! unchanged, so a cluster answers as a single gateway does.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bcpnn_gateway::api::NodeResult;
use bcpnn_gateway::ApiError;
use bcpnn_serve::{Exposition, MetricKind, ServeError, SubmitOptions};

use crate::metrics::ClusterMetrics;
use crate::placement::Ring;
use crate::pool::BackendPool;
use crate::wire::{encode_options, ErrorCode, Frame, ModelInfo, RowBlock, DEFAULT_MAX_PAYLOAD};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Backend node addresses, in placement order. Index = backend id in
    /// metrics labels and publish reports.
    pub backends: Vec<SocketAddr>,
    /// Replica-group size for models without an override (capped at the
    /// backend count).
    pub default_replication: usize,
    /// Per-model replication overrides.
    pub replication_overrides: Vec<(String, usize)>,
    /// Virtual nodes per backend on the placement ring.
    pub vnodes: usize,
    /// TCP connect timeout for interior dials. Default 1 s.
    pub connect_timeout: Duration,
    /// Wire timeout for requests that carry no client deadline.
    /// Default 10 s.
    pub request_timeout: Duration,
    /// Wire timeout for health probes. Default 500 ms.
    pub probe_timeout: Duration,
    /// Period of the background health checker. Default 250 ms.
    pub health_interval: Duration,
    /// Grace added to a client deadline to form the socket timeout on a
    /// deadlined predict. A live backend answers an expired deadline with
    /// its own typed `DeadlineExceeded` (authoritative, no failover); the
    /// grace lets that reply arrive, so only a *hung* backend trips the
    /// socket timeout. It also keeps the timeout nonzero — a zero read
    /// timeout is an invalid socket option, not "fail immediately".
    /// Default 50 ms.
    pub deadline_grace: Duration,
    /// Slice width for the health checker's interruptible sleep between
    /// probe rounds; bounds how long shutdown can block on the health
    /// thread. Default 10 ms.
    pub shutdown_poll: Duration,
    /// Idle interior connections kept per backend.
    pub max_idle_conns: usize,
    /// Ceiling on interior frame payloads.
    pub max_payload: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            backends: Vec::new(),
            default_replication: 2,
            replication_overrides: Vec::new(),
            vnodes: 64,
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            probe_timeout: Duration::from_millis(500),
            health_interval: Duration::from_millis(250),
            deadline_grace: Duration::from_millis(50),
            shutdown_poll: Duration::from_millis(10),
            max_idle_conns: 8,
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// The running router tier (no HTTP listener of its own — see
/// [`crate::httpfront::RouterHttp`] for the exterior surface, which
/// drives it through [`bcpnn_gateway::ApiBackend`]).
pub struct ClusterRouter {
    config: ClusterConfig,
    ring: Ring,
    pools: Vec<Arc<BackendPool>>,
    metrics: Arc<ClusterMetrics>,
    nonce: AtomicU64,
    shutdown: Arc<AtomicBool>,
    health: Option<JoinHandle<()>>,
}

impl ClusterRouter {
    /// Build pools and the placement ring, probe every backend once
    /// synchronously (so health gauges are meaningful immediately), and
    /// start the background health checker.
    pub fn start(config: ClusterConfig) -> ClusterRouter {
        let ring = Ring::new(config.backends.len(), config.vnodes);
        let pools: Vec<Arc<BackendPool>> = config
            .backends
            .iter()
            .map(|&addr| {
                Arc::new(BackendPool::new(
                    addr,
                    config.connect_timeout,
                    config.max_idle_conns,
                    config.max_payload,
                ))
            })
            .collect();
        let metrics = Arc::new(ClusterMetrics::new(pools.len()));
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut router = ClusterRouter {
            config,
            ring,
            pools,
            metrics,
            nonce: AtomicU64::new(1),
            shutdown,
            health: None,
        };
        router.probe_all();
        router.health = Some({
            let pools = router.pools.clone();
            let metrics = Arc::clone(&router.metrics);
            let shutdown = Arc::clone(&router.shutdown);
            let interval = router.config.health_interval;
            let probe_timeout = router.config.probe_timeout;
            let poll = router.config.shutdown_poll.max(Duration::from_millis(1));
            let nonce = AtomicU64::new(1 << 32);
            std::thread::Builder::new()
                .name("bcpnn-cluster-health".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        for (i, pool) in pools.iter().enumerate() {
                            let n = nonce.fetch_add(1, Ordering::Relaxed);
                            probe(pool, i, n, probe_timeout, &metrics);
                        }
                        // Sleep in slices so shutdown stays prompt.
                        let deadline = Instant::now() + interval;
                        while Instant::now() < deadline && !shutdown.load(Ordering::SeqCst) {
                            std::thread::sleep(poll);
                        }
                    }
                })
                .expect("failed to spawn cluster health thread")
        });
        router
    }

    /// Probe every backend once, updating pools and gauges.
    fn probe_all(&self) {
        for (i, pool) in self.pools.iter().enumerate() {
            let n = self.nonce.fetch_add(1, Ordering::Relaxed);
            probe(pool, i, n, self.config.probe_timeout, &self.metrics);
        }
    }

    /// The router's cluster metrics.
    pub fn cluster_metrics(&self) -> &Arc<ClusterMetrics> {
        &self.metrics
    }

    /// The configured backend addresses.
    pub fn backends(&self) -> &[SocketAddr] {
        self.config.backends.as_slice()
    }

    /// Replica-group size for `model`.
    pub fn replication_of(&self, model: &str) -> usize {
        let requested = self
            .config
            .replication_overrides
            .iter()
            .find(|(name, _)| name == model)
            .map_or(self.config.default_replication, |&(_, rf)| rf);
        requested.clamp(1, self.pools.len().max(1))
    }

    /// Backend indices holding `model`, primary first (ring order).
    pub fn replicas_for(&self, model: &str) -> Vec<usize> {
        self.ring.replicas(model, self.replication_of(model))
    }

    /// Fan one batch of rows out to `model`'s replica group with
    /// failover. Returns the version of the model that answered every
    /// row, the probability rows, and the indices of rows the backend
    /// abstained on (empty unless [`SubmitOptions::abstain_below`] is
    /// set; abstained rows are zero-filled in the block).
    pub fn predict_rows(
        &self,
        model: &str,
        rows: RowBlock,
        options: &SubmitOptions,
    ) -> Result<(Option<u64>, RowBlock, Vec<u32>), ApiError> {
        let replicas = self.replicas_for(model);
        if replicas.is_empty() {
            return Err(no_backends());
        }
        // A budget that is already spent is answered here: on the wire 0
        // means "no deadline", so `encode_options` would send it as 1 ms
        // and a backend with an idle worker would beat that.
        if options.deadline == Some(Duration::ZERO) {
            return Err(ServeError::DeadlineExceeded.into());
        }
        // Healthy members first, ring order preserved; unhealthy ones
        // still get a shot afterwards in case the prober is stale.
        let ordered: Vec<usize> = replicas
            .iter()
            .copied()
            .filter(|&b| self.pools[b].healthy())
            .chain(
                replicas
                    .iter()
                    .copied()
                    .filter(|&b| !self.pools[b].healthy()),
            )
            .collect();

        let (priority, deadline_ms, abstain) = encode_options(options);
        // Deadlined requests use deadline + configured grace as the
        // socket timeout (see [`ClusterConfig::deadline_grace`]);
        // deadline-free requests use the configured request timeout.
        let timeout = match options.deadline {
            Some(d) => d.saturating_add(self.config.deadline_grace),
            None => self.config.request_timeout,
        };
        let request = Frame::Predict {
            model: model.to_string(),
            priority,
            deadline_ms,
            abstain,
            rows,
        };

        let mut failed_over = false;
        for (attempt, &b) in ordered.iter().enumerate() {
            self.metrics.record_fanout();
            if attempt > 0 {
                self.metrics.record_retry();
            }
            let started = Instant::now();
            match self.pools[b].call(&request, timeout) {
                Ok(Frame::PredictOk {
                    version,
                    rows,
                    abstained,
                }) => {
                    self.metrics.record_fanout_ok(started.elapsed());
                    if attempt > 0 && !failed_over {
                        self.metrics.record_failover();
                    }
                    return Ok((version, rows, abstained));
                }
                // The backend is draining: its replica peers still serve.
                Ok(Frame::Error {
                    code: ErrorCode::Disconnected,
                    ..
                }) => {
                    self.mark_down(b);
                    failed_over = self.note_failover(failed_over);
                }
                // Any other application error is authoritative: every
                // replica holds the same model bits, so retrying cannot
                // change the answer.
                Ok(Frame::Error { code, message }) => return Err(ApiError::new(code, message)),
                Ok(_) => {
                    // Protocol violation; treat the node as broken.
                    self.mark_down(b);
                    failed_over = self.note_failover(failed_over);
                }
                Err(err) if err.is_timeout() && options.deadline.is_some() => {
                    // The client's budget is spent; a retry cannot help.
                    return Err(ServeError::DeadlineExceeded.into());
                }
                Err(_) => {
                    self.mark_down(b);
                    failed_over = self.note_failover(failed_over);
                }
            }
        }
        let message = format!("all {} replica(s) of {model:?} failed", ordered.len());
        Err(ApiError::new(ErrorCode::BadGateway, message))
    }

    fn note_failover(&self, already: bool) -> bool {
        if !already {
            self.metrics.record_failover();
        }
        true
    }

    fn mark_down(&self, backend: usize) {
        self.pools[backend].set_healthy(false);
        self.pools[backend].drain();
        self.metrics.set_backend_up(backend, false);
    }

    /// Send `request` to every backend holding a replica of `model` and
    /// report each node's outcome: `decode` picks the expected reply frame
    /// apart, and a refusal is the node's code and message unchanged. A
    /// broadcast never fails over — every replica must swap to, or fold,
    /// the same thing to stay bit-identical — so a node that cannot be
    /// reached, or answers with the wrong frame, is marked down and
    /// reported as [`ErrorCode::BadGateway`]. Nothing
    /// moves state between nodes, so a node that missed a learn diverges
    /// from its peers until per-model sequence numbers detect the gap.
    pub(crate) fn broadcast<T>(
        &self,
        model: &str,
        request: &Frame,
        decode: fn(Frame) -> Result<T, Frame>,
    ) -> Vec<NodeResult<T>> {
        let node_down = |b: usize, message: String| {
            self.mark_down(b);
            ApiError::new(ErrorCode::BadGateway, message)
        };
        self.replicas_for(model)
            .into_iter()
            .map(|b| NodeResult {
                backend: b,
                addr: self.pools[b].addr(),
                result: match self.pools[b].call(request, self.config.request_timeout) {
                    Ok(Frame::Error { code, message }) => Err(ApiError::new(code, message)),
                    // Protocol violation: the node is broken, as in
                    // `predict_rows`, and the client is not to blame.
                    Ok(reply) => decode(reply)
                        .map_err(|other| node_down(b, format!("unexpected reply frame {other:?}"))),
                    Err(err) => Err(node_down(b, err.to_string())),
                },
            })
            .collect()
    }

    /// Union of every healthy backend's model listing (highest version
    /// wins when nodes disagree mid-swap), sorted by name.
    pub fn models(&self) -> Vec<ModelInfo> {
        let mut merged: HashMap<String, ModelInfo> = HashMap::new();
        for pool in self.pools.iter().filter(|p| p.healthy()) {
            if let Ok(Frame::ModelsOk { models }) =
                pool.call(&Frame::ModelsReq, self.config.request_timeout)
            {
                for info in models {
                    match merged.get(&info.name) {
                        Some(existing) if existing.version >= info.version => {}
                        _ => {
                            merged.insert(info.name.clone(), info);
                        }
                    }
                }
            }
        }
        let mut list: Vec<ModelInfo> = merged.into_values().collect();
        list.sort_by(|a, b| a.name.cmp(&b.name));
        list
    }

    /// The whole cluster's families: the router's `bcpnn_cluster_*`
    /// counters, then every healthy backend's exposition, parsed back into
    /// families, grouped by family and node-labeled (`node="i"`).
    pub fn write_metrics(&self, out: &mut Exposition) {
        let mut nodes = Vec::new();
        for (i, pool) in self.pools.iter().enumerate() {
            if !pool.healthy() {
                continue;
            }
            if let Ok(Frame::MetricsOk { text }) =
                pool.call(&Frame::MetricsReq, self.config.request_timeout)
            {
                nodes.push((i.to_string(), text));
            }
        }
        self.metrics.write_metrics(out);
        write_nodes(out, &nodes);
    }
}

impl Drop for ClusterRouter {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
    }
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("backends", &self.config.backends)
            .field("default_replication", &self.config.default_replication)
            .finish()
    }
}

/// The router's answer when it has no node to ask.
pub(crate) fn no_backends() -> ApiError {
    ApiError::new(ErrorCode::BadGateway, "no backend nodes are configured")
}

fn probe(
    pool: &BackendPool,
    index: usize,
    nonce: u64,
    timeout: Duration,
    metrics: &ClusterMetrics,
) {
    let was = pool.healthy();
    let up = pool.ping(nonce, timeout);
    pool.set_healthy(up);
    metrics.set_backend_up(index, up);
    if was && !up {
        // Pooled connections to a node that just failed a probe are
        // corpses; recovery should start from fresh dials.
        pool.drain();
    }
}

/// Write per-node expositions (`(node label, text)`) into `out` as one
/// group per family: the family's HELP and TYPE once, as the first node
/// to declare it wrote them, then every node's samples in node order,
/// each gaining a leading `node="<label>"` label so same-named series from
/// different backends stay distinct. A sample no node declared becomes an
/// untyped family of its own.
fn write_nodes(out: &mut Exposition, nodes: &[(String, String)]) {
    #[derive(Default)]
    struct Family<'t> {
        name: &'t str,
        kind: MetricKind,
        help: &'t str,
        /// `(node, name suffix, label body as written, value)`.
        samples: Vec<(&'t str, &'t str, &'t str, &'t str)>,
    }
    fn find<'f, 't>(families: &'f mut Vec<Family<'t>>, name: &'t str) -> &'f mut Family<'t> {
        let i = families.iter().position(|f| f.name == name);
        let i = i.unwrap_or_else(|| {
            families.push(Family {
                name,
                ..Family::default()
            });
            families.len() - 1
        });
        &mut families[i]
    }
    let mut families = Vec::new();
    for (node, text) in nodes {
        for line in text.lines() {
            if let Some(comment) = line.strip_prefix('#') {
                let mut words = comment.trim_start().splitn(3, ' ');
                match (words.next(), words.next(), words.next().unwrap_or("")) {
                    (Some("HELP"), Some(name), help) => find(&mut families, name).help = help,
                    (Some("TYPE"), Some(name), kind) => {
                        find(&mut families, name).kind = MetricKind::parse(kind);
                    }
                    _ => {}
                }
            } else if let Some((series, value)) = line.rsplit_once(' ') {
                let (series, labels) = match series.split_once('{') {
                    Some((name, labels)) => (name, labels.strip_suffix('}').unwrap_or(labels)),
                    None => (series, ""),
                };
                // `_bucket`/`_sum`/`_count` join their declared histogram.
                let histogram = families.iter().position(|f| {
                    let suffix = series.strip_prefix(f.name).unwrap_or("");
                    f.kind == MetricKind::Histogram
                        && ["_bucket", "_sum", "_count"].contains(&suffix)
                });
                let family = match histogram {
                    Some(i) => &mut families[i],
                    None => find(&mut families, series),
                };
                let suffix = &series[family.name.len()..];
                family.samples.push((node.as_str(), suffix, labels, value));
            }
        }
    }
    for family in &families {
        let mut writer = out.family(family.name, family.kind, family.help);
        for &(node, suffix, labels, value) in &family.samples {
            writer.series(suffix, &[("node", node)], labels, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcpnn_serve::{MetricsSnapshot, ServingMetrics};
    use std::sync::atomic::AtomicU8;

    /// One source's exposition on its own: what a node ships, and what
    /// the router writes before the nodes.
    trait ToPrometheus {
        fn to_prometheus(&self) -> String;
    }

    impl ToPrometheus for MetricsSnapshot {
        fn to_prometheus(&self) -> String {
            Exposition::render(|out| MetricsSnapshot::write_metrics(out, &[(vec![], self)]))
        }
    }

    impl ToPrometheus for ClusterMetrics {
        fn to_prometheus(&self) -> String {
            Exposition::render(|out| self.write_metrics(out))
        }
    }

    /// The node-labeled, family-grouped merge of `nodes` on its own.
    fn merge_expositions(nodes: &[(String, String)]) -> String {
        Exposition::render(|out| write_nodes(out, nodes))
    }

    #[test]
    fn merged_expositions_dedupe_declarations_and_label_nodes() {
        let section = "\
# HELP bcpnn_serve_requests_total Requests accepted.
# TYPE bcpnn_serve_requests_total counter
bcpnn_serve_requests_total{shard=\"all\"} 5
bcpnn_serve_queue_depth 0
";
        let merged = merge_expositions(&[
            ("0".to_string(), section.to_string()),
            ("1".to_string(), section.replace(" 5", " 9")),
        ]);
        // One declaration pair, four node-labeled samples... except
        // queue_depth has no HELP/TYPE here, so: 2 declaration lines.
        assert_eq!(
            merged.matches("# HELP bcpnn_serve_requests_total").count(),
            1
        );
        assert_eq!(
            merged.matches("# TYPE bcpnn_serve_requests_total").count(),
            1
        );
        assert!(merged.contains("bcpnn_serve_requests_total{node=\"0\",shard=\"all\"} 5"));
        assert!(merged.contains("bcpnn_serve_requests_total{node=\"1\",shard=\"all\"} 9"));
        assert!(merged.contains("bcpnn_serve_queue_depth{node=\"0\"} 0"));
        assert!(merged.contains("bcpnn_serve_queue_depth{node=\"1\"} 0"));
    }

    #[test]
    fn merged_real_expositions_stay_valid() {
        let m = ServingMetrics::default();
        let text = m.snapshot().to_prometheus();
        let merged_backends =
            merge_expositions(&[("0".to_string(), text.clone()), ("1".to_string(), text)]);
        let cluster = ClusterMetrics::new(2);
        cluster.set_backend_up(0, true);
        let mut full = cluster.to_prometheus();
        full.push_str(&merged_backends);
        bcpnn_serve::validate_prometheus(&full)
            .expect("merged two-node scrape passes the validator");
    }

    #[test]
    fn replication_overrides_and_caps_apply() {
        let router = ClusterRouter::start(ClusterConfig {
            backends: vec![
                "127.0.0.1:1".parse().unwrap(),
                "127.0.0.1:2".parse().unwrap(),
                "127.0.0.1:3".parse().unwrap(),
            ],
            default_replication: 2,
            replication_overrides: vec![("wide".into(), 9), ("solo".into(), 1)],
            probe_timeout: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(50),
            health_interval: Duration::from_secs(3600),
            ..ClusterConfig::default()
        });
        assert_eq!(router.replication_of("anything"), 2);
        assert_eq!(router.replication_of("solo"), 1);
        // Requested 9, capped at the 3 backends that exist.
        assert_eq!(router.replication_of("wide"), 3);
        assert_eq!(router.replicas_for("wide").len(), 3);
        // Nothing is listening on those ports: everything probes down.
        assert_eq!(router.cluster_metrics().backends_up(), 0);
    }

    #[test]
    fn an_elapsed_deadline_is_answered_before_the_hop() {
        // Nothing listens on the backend address: any attempt to make the
        // hop would come back as an I/O error instead.
        let router = ClusterRouter::start(ClusterConfig {
            backends: vec!["127.0.0.1:1".parse().unwrap()],
            probe_timeout: Duration::from_millis(50),
            connect_timeout: Duration::from_millis(50),
            health_interval: Duration::from_secs(3600),
            ..ClusterConfig::default()
        });
        let rows = RowBlock {
            n_cols: 2,
            data: vec![0.0, 1.0],
        };
        let options = SubmitOptions::new().deadline(Duration::ZERO);
        let err = router.predict_rows("higgs", rows, &options).unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    }

    /// A node that answers a ping with its `Pong` (so it probes healthy)
    /// and every other frame with `reply`, counting the pings it has
    /// answered.
    fn fake_node(
        reply: fn(&AtomicU8) -> Frame,
        state: Arc<AtomicU8>,
    ) -> (SocketAddr, Arc<AtomicU64>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pings = Arc::new(AtomicU64::new(0));
        let answered = Arc::clone(&pings);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let answered = Arc::clone(&answered);
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    while let Ok(frame) = Frame::read_from(&mut stream, DEFAULT_MAX_PAYLOAD) {
                        let (answer, ping) = match frame {
                            Frame::Ping { nonce } => (Frame::Pong { nonce }, true),
                            _ => (reply(&state), false),
                        };
                        if answer.write_to(&mut stream).is_err() {
                            return;
                        }
                        if ping {
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        (addr, pings)
    }

    /// A node that answers every request with a `Pong`: the wrong reply.
    fn pong_node() -> (SocketAddr, Arc<AtomicU64>) {
        fake_node(|_| Frame::Pong { nonce: 0 }, Arc::default())
    }

    #[test]
    fn a_wrong_reply_to_a_broadcast_is_a_502_and_marks_the_node_down() {
        use bcpnn_backend::BackendKind;
        use bcpnn_gateway::api::{ApiBackend, Outcome, PublishRequest};

        let (addr, pings) = pong_node();
        let router = ClusterRouter::start(ClusterConfig {
            backends: vec![addr],
            default_replication: 1,
            health_interval: Duration::from_secs(3600),
            ..ClusterConfig::default()
        });
        // The start-up probe and the health thread's first round have both
        // found the node up; no further probe comes within the test.
        while pings.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(router.pools[0].healthy());

        let request = PublishRequest {
            path: "models/higgs".into(),
            version: 2,
            backend: BackendKind::Naive,
        };
        let Ok(Outcome::PerNode(nodes)) = router.publish("higgs", &request) else {
            panic!("a cluster publish reports per node");
        };
        assert_eq!(nodes[0].result.as_ref().unwrap_err().status(), 502);
        assert!(!router.pools[0].healthy());
        assert_eq!(router.cluster_metrics().backends_up(), 0);

        router.pools[0].set_healthy(true);
        let rows = RowBlock {
            n_cols: 2,
            data: vec![0.0, 1.0],
        };
        let Ok(Outcome::PerNode(nodes)) = router.learn("higgs", rows, vec![1]) else {
            panic!("a cluster learn reports per node");
        };
        assert_eq!(nodes[0].result.as_ref().unwrap_err().status(), 502);
        assert!(!router.pools[0].healthy());
    }

    #[test]
    fn a_node_refusal_reaches_the_client_unchanged() {
        use bcpnn_backend::BackendKind;
        use bcpnn_gateway::api::{ApiBackend, Outcome, PublishRequest};

        /// What the node says: quotes and all, so a second wrapping shows.
        fn message(code: ErrorCode) -> String {
            format!("refused {code:?}: no model named \"nope\" is registered")
        }
        // The node refuses every publish and learn with the code in `sends`.
        let sends = Arc::new(AtomicU8::new(0));
        let (addr, _) = fake_node(
            |sends| {
                let code = ErrorCode::from_u8(sends.load(Ordering::SeqCst)).unwrap();
                let message = message(code);
                Frame::Error { code, message }
            },
            Arc::clone(&sends),
        );
        let router = ClusterRouter::start(ClusterConfig {
            backends: vec![addr],
            default_replication: 1,
            health_interval: Duration::from_secs(3600),
            ..ClusterConfig::default()
        });
        let request = PublishRequest {
            path: "models/higgs".into(),
            version: 2,
            backend: BackendKind::Naive,
        };
        for code in ErrorCode::ALL {
            sends.store(code as u8, Ordering::SeqCst);
            let expected = ApiError::new(code, message(code));
            let Ok(Outcome::PerNode(published)) = router.publish("higgs", &request) else {
                panic!("a cluster publish reports per node");
            };
            let rows = RowBlock {
                n_cols: 2,
                data: vec![0.0, 1.0],
            };
            let Ok(Outcome::PerNode(learned)) = router.learn("higgs", rows, vec![1]) else {
                panic!("a cluster learn reports per node");
            };
            let refusals = [
                ("publish", published[0].result.as_ref().unwrap_err()),
                ("learn", learned[0].result.as_ref().unwrap_err()),
            ];
            for (op, err) in refusals {
                assert_eq!(err.status(), code.status(), "{op} refused with {code:?}");
                assert_eq!(err, &expected, "{op} refused with {code:?}");
            }
        }
    }

    #[test]
    fn predict_with_no_backends_is_a_typed_io_error() {
        let router = ClusterRouter::start(ClusterConfig {
            health_interval: Duration::from_secs(3600),
            ..ClusterConfig::default()
        });
        let err = router
            .predict_rows(
                "higgs",
                RowBlock {
                    n_cols: 2,
                    data: vec![0.0, 1.0],
                },
                &SubmitOptions::default(),
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadGateway, "{err:?}");
    }

    /// With no node to write to, a publish has published nothing: it is
    /// the same 502 as a learn, never a 200 with an empty result list.
    #[test]
    fn publish_and_learn_with_no_backends_are_502() {
        use bcpnn_backend::BackendKind;
        use bcpnn_gateway::api::{ApiBackend, PublishRequest};

        let router = ClusterRouter::start(ClusterConfig {
            health_interval: Duration::from_secs(3600),
            ..ClusterConfig::default()
        });
        let request = PublishRequest {
            path: "models/higgs".into(),
            version: 2,
            backend: BackendKind::Naive,
        };
        let rows = RowBlock {
            n_cols: 2,
            data: vec![0.0, 1.0],
        };
        let published = router.publish("higgs", &request).map(|_| ());
        let learned = router.learn("higgs", rows, vec![1]).map(|_| ());
        for (op, result) in [("publish", published), ("learn", learned)] {
            assert_eq!(result, Err(no_backends()), "{op}");
            assert_eq!(no_backends().status(), 502);
        }
    }
}
