//! Loopback latency regression: back-to-back requests on one TCP
//! connection must not wait on delayed ACKs.
//!
//! When a frame went out as two writes (length, then payload) with Nagle's
//! algorithm on, the payload waited for the peer's delayed ACK, about
//! 40 ms on Linux, so 40 sequential `health` requests took about 3.5 s.
//! With one write per frame and `TCP_NODELAY` on both ends they take a few
//! milliseconds. The 1 s budget per batch sits more than 3× from both, so
//! the test tolerates a loaded host and still fails on a stall.

use std::time::{Duration, Instant};

use wp_experiments::{
    simulate_workload, MachineConfig, MatrixCache, PointService, RunOptions, SimPoint,
};
use wp_serve::protocol;
use wp_serve::server::{self, Listen, ServerConfig};
use wp_serve::Client;
use wp_workloads::Benchmark;

/// Sequential requests per batch.
const REQUESTS: u64 = 40;
/// Wall-clock budget for one batch.
const BUDGET: Duration = Duration::from_secs(1);

#[test]
fn sequential_requests_on_one_tcp_connection_do_not_wait_on_delayed_acks() {
    let dir = std::env::temp_dir().join(format!("wpsdm-serve-latency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::new(
        Listen::Tcp("127.0.0.1:0".to_string()),
        PointService::with_cache(MatrixCache::new(&dir)),
    );
    config.workers = 2;
    let server = server::start(config).expect("daemon starts on an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("client connects");
    client
        .set_timeout(Duration::from_secs(60))
        .expect("timeout set");

    let started = Instant::now();
    for id in 1..=REQUESTS {
        let response = client
            .request(&format!("{{\"v\":1,\"id\":{id},\"type\":\"health\"}}"))
            .expect("health responds");
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let health = started.elapsed();

    // One cold simulate fills the matrix cache; the timed batch then
    // measures the warm path: a cache load, a render and two frames.
    let point = SimPoint::new(
        Benchmark::Gcc,
        MachineConfig::baseline(),
        RunOptions::default().with_ops(4_000),
    );
    let expected = simulate_workload(&point.workload, &point.machine, &point.options);
    client
        .request(&protocol::simulate_request(0, &point, None))
        .expect("cold simulate");
    let started = Instant::now();
    for id in 1..=REQUESTS {
        let response = client
            .request(&protocol::simulate_request(id, &point, None))
            .expect("warm simulate");
        assert_eq!(response, protocol::ok_response(id, &expected));
    }
    let simulate = started.elapsed();

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        health < BUDGET,
        "{REQUESTS} sequential health requests took {health:?} (budget {BUDGET:?})"
    );
    assert!(
        simulate < BUDGET,
        "{REQUESTS} sequential warm simulate requests took {simulate:?} (budget {BUDGET:?})"
    );
}
