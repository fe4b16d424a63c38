//! Fault injection through the *server* path (the `fault-inject`
//! feature): an engine-level panic surfaces to the HTTP client as a
//! structured `500` JSON body, and the server keeps serving afterwards.
#![cfg(feature = "fault-inject")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use swact::faults::{arm, FaultAction, FaultPlan};
use swact_serve::{admission::ClientTable, Server, ServerConfig};

fn exchange(addr: std::net::SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let request = format!(
        "POST /v1/estimate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn injected_job_panic_becomes_a_structured_500_and_the_server_survives() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        handlers: 2,
        clients: ClientTable::default(),
        drain: Duration::from_secs(5),
        cache_dir: None,
    })
    .expect("bind");
    let addr = server.local_addr();
    let body = r#"{"circuit":"c17","p1":[0.5,0.5,0.5,0.5,0.5]}"#;

    // One one-shot panic at the job point; the engine does not retry,
    // so the scenario fails for good.
    let _guard = arm(FaultPlan::new().fault_at("engine:job", 0, FaultAction::Panic));

    let (status, response) = exchange(addr, body);
    assert_eq!(status, 500, "body: {response}");
    assert!(response.contains("\"error\":{\"code\":\"panicked\""));
    assert!(response.contains("injected fault"));

    // The panic was contained at the job boundary: the very next request
    // on the same server succeeds (the fault plan is spent).
    let (status, response) = exchange(addr, body);
    assert_eq!(status, 200, "body: {response}");
    assert!(response.starts_with("{\"circuit\":\"c17\""));

    // And the panic is visible on the metrics endpoint.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let mut metrics = String::new();
    stream.read_to_string(&mut metrics).expect("read");
    assert!(metrics.contains("swact_engine_jobs_panicked 1\n"));
    assert!(
        metrics.contains("swact_server_responses_total{endpoint=\"estimate\",class=\"5xx\"} 1\n")
    );
    assert!(
        metrics.contains("swact_server_responses_total{endpoint=\"estimate\",class=\"2xx\"} 1\n")
    );

    server.handle().shutdown();
    server.wait();
}
