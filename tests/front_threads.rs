//! The HTTP front's thread count is fixed at start: `workers` connection
//! threads and one accept thread, however many connections it has served.
//! Alone in its binary, so the process-wide count is this test's own.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use bcpnn_cluster::{ClusterConfig, ClusterRouter, RouterHttp};
use bcpnn_gateway::{client, FrontConfig, Gateway, GatewayConfig};
use bcpnn_serve::{ModelRegistry, ServeTarget, ShardConfig, ShardedServer};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn three_hundred_sequential_requests_leave_the_thread_count_at_workers_plus_one() {
    const WORKERS: usize = 3;
    let front = || FrontConfig {
        workers: WORKERS,
        ..FrontConfig::default()
    };
    let hammer = |what: &str, addr, status| {
        let before = threads();
        for _ in 0..300 {
            let reply = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
            assert_eq!(reply.status, status, "{what}");
        }
        assert_eq!(
            threads(),
            before,
            "{what}: serving changed the thread count"
        );
    };

    let registry = Arc::new(ModelRegistry::new());
    let server = Arc::new(ShardedServer::start(registry, ShardConfig::new(1)));
    let idle = threads();
    let gateway = Gateway::start(
        server as Arc<dyn ServeTarget>,
        GatewayConfig {
            front: front(),
            artifact_root: None,
        },
    )
    .unwrap();
    assert_eq!(threads(), idle + WORKERS + 1);
    hammer("gateway", gateway.local_addr(), 200);
    drop(gateway);

    // No backends: `/healthz` answers 503 "degraded", which is still a
    // served request on a connection of its own, and the router's health
    // thread has nothing to dial.
    let router = Arc::new(ClusterRouter::start(ClusterConfig::default()));
    let idle = threads();
    let http = RouterHttp::start(router, front()).unwrap();
    assert_eq!(threads(), idle + WORKERS + 1);
    hammer("router front", http.local_addr(), 503);
}
