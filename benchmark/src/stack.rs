//! The serving stacks under test, started in process on ephemeral ports
//! with library defaults: a `Gateway` over a 2-shard `ShardedServer`, and
//! a `RouterHttp` → `ClusterRouter` → 2 `BackendNode`s. Every server loads
//! the same saved artifact, so replicas hold identical bytes. Dropping a
//! stack stops and joins its threads.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_cluster::{
    BackendConfig, BackendNode, ClusterConfig, ClusterRouter, RouterHttp, RouterHttpConfig,
};
use bcpnn_core::Pipeline;
use bcpnn_gateway::{Gateway, GatewayConfig};
use bcpnn_learn::{LearnerConfig, OnlineLearner};
use bcpnn_serve::{
    MetricsSnapshot, ModelRegistry, ServeTarget, ServedModel, ShardConfig, ShardedServer,
};

use crate::fixture::MODEL;

/// Shards per `ShardedServer`.
const SHARDS: usize = 2;
/// Backend nodes behind the cluster router (replication 2: both hold the
/// model).
const NODES: usize = 2;

pub fn load_model(dir: &Path) -> Pipeline {
    Pipeline::load(dir, BackendKind::Parallel)
        .expect("loading the artifact saved in set-up succeeds")
}

fn sharded_server(model_dir: &Path) -> Arc<ShardedServer> {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new(MODEL, 1, load_model(model_dir)));
    Arc::new(ShardedServer::start(registry, ShardConfig::new(SHARDS)))
}

/// Fields drop in declaration order: fronts before the servers they feed.
pub enum Stack {
    Gateway {
        gateway: Gateway,
        learner: Option<Arc<OnlineLearner>>,
        server: Arc<ShardedServer>,
    },
    Cluster {
        front: RouterHttp,
        router: Arc<ClusterRouter>,
        nodes: Vec<BackendNode>,
        servers: Vec<Arc<ShardedServer>>,
    },
}

impl Stack {
    pub fn gateway(model_dir: &Path) -> Stack {
        let server = sharded_server(model_dir);
        let gateway = Gateway::start(
            Arc::clone(&server) as Arc<dyn ServeTarget>,
            GatewayConfig::default(),
        )
        .expect("the gateway binds an ephemeral port");
        Stack::Gateway {
            gateway,
            learner: None,
            server,
        }
    }

    /// A gateway with one `OnlineLearner` for the served model, its state
    /// under `state_dir`.
    pub fn gateway_with_learner(model_dir: &Path, state_dir: &Path) -> Stack {
        let server = sharded_server(model_dir);
        let learner = Arc::new(
            OnlineLearner::start(
                Arc::clone(server.registry()),
                MODEL,
                &load_model(model_dir),
                LearnerConfig {
                    state_dir: state_dir.to_path_buf(),
                    ..LearnerConfig::default()
                },
            )
            .expect("the online learner starts on a fresh state directory"),
        );
        let gateway = Gateway::start_with_learners(
            Arc::clone(&server) as Arc<dyn ServeTarget>,
            GatewayConfig::default(),
            vec![Arc::clone(&learner)],
        )
        .expect("the gateway binds an ephemeral port");
        Stack::Gateway {
            gateway,
            learner: Some(learner),
            server,
        }
    }

    pub fn cluster(model_dir: &Path) -> Stack {
        let servers: Vec<_> = (0..NODES).map(|_| sharded_server(model_dir)).collect();
        let nodes: Vec<_> = servers
            .iter()
            .map(|server| {
                BackendNode::start(
                    Arc::clone(server) as Arc<dyn ServeTarget>,
                    BackendConfig::default(),
                )
                .expect("a backend node binds an ephemeral port")
            })
            .collect();
        let router = Arc::new(ClusterRouter::start(ClusterConfig {
            backends: nodes.iter().map(BackendNode::local_addr).collect(),
            ..ClusterConfig::default()
        }));
        let front = RouterHttp::start(Arc::clone(&router), RouterHttpConfig::default())
            .expect("the router front binds an ephemeral port");
        Stack::Cluster {
            front,
            router,
            nodes,
            servers,
        }
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Stack::Gateway { gateway, .. } => gateway.local_addr(),
            Stack::Cluster { front, .. } => front.local_addr(),
        }
    }

    pub fn servers(&self) -> Vec<&Arc<ShardedServer>> {
        match self {
            Stack::Gateway { server, .. } => vec![server],
            Stack::Cluster { servers, .. } => servers.iter().collect(),
        }
    }

    /// Serve-side counters summed over every server of the stack.
    pub fn serve_metrics(&self) -> MetricsSnapshot {
        let snapshots: Vec<_> = self.servers().iter().map(|s| s.metrics()).collect();
        MetricsSnapshot::aggregate(&snapshots)
    }

    pub fn hot_swaps(&self) -> u64 {
        self.servers()
            .iter()
            .map(|s| s.registry().hot_swaps())
            .sum()
    }

    /// Connections the gateway answered 503 because its queue was full.
    pub fn shed_503(&self) -> u64 {
        match self {
            Stack::Gateway { gateway, .. } => gateway.metrics().rejected_busy,
            Stack::Cluster { .. } => 0,
        }
    }
}
