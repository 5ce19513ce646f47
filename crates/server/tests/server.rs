//! End-to-end tests for the SYRK-as-a-service server: every endpoint
//! round-trips through the crate's own strict JSON parser, malformed
//! input degrades to 4xx without killing the server, `/run` admission
//! control rejects deterministically when the queue is full without
//! starving `/plan`, and `/shutdown` drains in-flight work.
//!
//! Each test binds its own ephemeral-port server; telemetry counters
//! are process-global, so assertions on them are deltas or lower
//! bounds only.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use syrk_server::json::{self, Json};
use syrk_server::{Server, ServerConfig, SharedState};

include!("support/run_table.rs");

// ---------------------------------------------------------------------------
// Harness

struct TestServer {
    addr: SocketAddr,
    state: Arc<SharedState>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(config: ServerConfig) -> TestServer {
        let server = Server::bind_with("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let state = server.state();
        let handle = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            state,
            handle: Some(handle),
        }
    }

    fn start_default() -> TestServer {
        Self::start(ServerConfig::default())
    }

    /// POST /shutdown and assert the accept loop exits cleanly.
    fn shutdown(mut self) {
        let (status, _) = post(self.addr, "/shutdown");
        assert_eq!(status, 200);
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            h.join()
                .expect("server thread panicked")
                .expect("accept loop failed");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.state.shutdown();
            self.join();
        }
    }
}

/// One raw HTTP exchange; returns `(status, body)`.
fn raw(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    raw(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str) -> (u16, String) {
    raw(
        addr,
        &format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"),
    )
}

/// POST with a JSON body; returns `(status, headers, body)`.
fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {response:?}"));
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, body)
}

fn parse_ok(status: u16, body: &str) -> Json {
    assert_eq!(status, 200, "unexpected status, body: {body}");
    json::parse(body).unwrap_or_else(|e| panic!("body is not strict JSON ({e}): {body}"))
}

/// The current value of a counter as scraped from `/metrics` (0 when
/// not yet registered — counters appear on first use).
fn scrape_counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    body.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Endpoint round-trips

#[test]
fn plan_round_trips_through_strict_json() {
    let srv = TestServer::start_default();
    let (status, body) = get(srv.addr, "/plan?n1=100&n2=50&p=12");
    let doc = parse_ok(status, &body);
    let best = doc.get("best").expect("best plan");
    assert!(best.get("plan").and_then(|p| p.get("algorithm")).is_some());
    let predicted = best
        .get("predicted_cost")
        .and_then(Json::as_f64)
        .expect("predicted cost");
    assert!(predicted > 0.0);
    let candidates = doc
        .get("candidates")
        .and_then(Json::as_arr)
        .expect("candidates");
    assert!(!candidates.is_empty());
    // Candidates arrive sorted by predicted cost; the best is first.
    let first = candidates[0].get("predicted_cost").and_then(Json::as_f64);
    assert_eq!(first, Some(predicted));
    let terms = doc.get("terms").and_then(Json::as_arr).expect("terms");
    assert!(!terms.is_empty());
    for t in terms {
        assert!(t.get("phase").and_then(Json::as_str).is_some());
        assert!(t.get("bound_term").and_then(Json::as_f64).is_some());
    }
    srv.shutdown();
}

#[test]
fn a_repeated_query_key_reads_its_last_value() {
    let srv = TestServer::start_default();
    let (status, once) = get(srv.addr, "/plan?n1=100&n2=50&p=12");
    assert_eq!(status, 200);
    assert_eq!(get(srv.addr, "/plan?n1=100&n2=50&p=0&p=12"), (200, once));
    let (status, body) = get(srv.addr, "/plan?n1=100&n2=50&p=12&p=0");
    assert_eq!(status, 400, "{body}");
    srv.shutdown();
}

#[test]
fn bounds_reports_syrk_vs_gemm_attribution() {
    let srv = TestServer::start_default();
    let (status, body) = get(srv.addr, "/bounds?n1=64&n2=64&p=12");
    let doc = parse_ok(status, &body);
    let syrk = doc
        .get("syrk")
        .and_then(|b| b.get("communicated"))
        .and_then(Json::as_f64)
        .expect("syrk bound");
    let gemm = doc
        .get("gemm")
        .and_then(|b| b.get("communicated"))
        .and_then(Json::as_f64)
        .expect("gemm bound");
    assert!(syrk > 0.0 && gemm > syrk, "gemm {gemm} vs syrk {syrk}");
    let tables = doc
        .get("attribution")
        .and_then(Json::as_arr)
        .expect("attribution tables");
    assert!(!tables.is_empty());
    for t in tables {
        assert!(t.get("plan").is_some() && t.get("terms").is_some());
    }
    srv.shutdown();
}

#[test]
fn run_executes_and_reports_measured_cost() {
    let srv = TestServer::start_default();
    let (status, body) = post(srv.addr, "/run?alg=2d&n1=36&n2=8&c=3&seed=7");
    let doc = parse_ok(status, &body);
    let words = doc
        .get("cost")
        .and_then(|c| c.get("max_words_sent"))
        .and_then(Json::as_f64)
        .expect("measured words");
    assert!(words > 0.0);
    let ratio = doc
        .get("measured_over_bound")
        .and_then(Json::as_f64)
        .expect("ratio");
    assert!(ratio > 0.0 && ratio < 10.0, "ratio {ratio}");
    // Determinism: same seed, same checksum.
    let checksum = doc.get("c_checksum").and_then(Json::as_f64).unwrap();
    let (status2, body2) = post(srv.addr, "/run?alg=2d&n1=36&n2=8&c=3&seed=7");
    let again = parse_ok(status2, &body2)
        .get("c_checksum")
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(checksum, again);
    srv.shutdown();
}

#[test]
fn metrics_and_status_expose_live_telemetry() {
    let srv = TestServer::start_default();
    let plans_before = scrape_counter(srv.addr, "syrk_server_plan_requests");
    let key = "/plan?n1=321&n2=123&p=20";
    let (s1, _) = get(srv.addr, key);
    let (s2, _) = get(srv.addr, key);
    assert_eq!((s1, s2), (200, 200));
    let (status, text) = get(srv.addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains("# TYPE syrk_server_plan_requests counter"),
        "{text}"
    );
    assert!(text.contains("syrk_server_requests"), "{text}");
    let plans_after = scrape_counter(srv.addr, "syrk_server_plan_requests");
    assert!(
        plans_after >= plans_before + 2,
        "plan requests did not move: {plans_before} -> {plans_after}"
    );
    let (status, html) = get(srv.addr, "/status");
    assert_eq!(status, 200);
    for field in [
        "uptime_seconds",
        "requests_total",
        "run_queue_depth",
        "runs_active",
        ">running<",
    ] {
        assert!(
            html.contains(field),
            "missing {field} in status page:\n{html}"
        );
    }
    srv.shutdown();
}

#[test]
fn run_with_injected_crash_recovers_and_reports() {
    let srv = TestServer::start_default();
    let attempts_before = scrape_counter(srv.addr, "syrk_recovery_attempts");
    let (status, _head, body) = post_json(
        srv.addr,
        "/run?alg=2d&n1=36&n2=8&c=3&seed=7",
        r#"{"recovery": {"max_attempts": 3}, "faults": {"seed": 5, "crash_rank": 1, "crash_op": 1}}"#,
    );
    let doc = parse_ok(status, &body);
    let recovery = doc.get("recovery").expect("recovery report in response");
    assert_eq!(recovery.get("recovered"), Some(&Json::Bool(true)), "{body}");
    let lost = recovery
        .get("ranks_lost")
        .and_then(Json::as_arr)
        .expect("ranks_lost");
    assert_eq!(lost.len(), 1);
    assert_eq!(lost[0].as_f64(), Some(1.0));
    let attempts = recovery
        .get("attempts")
        .and_then(Json::as_arr)
        .expect("attempts");
    assert_eq!(attempts.len(), 2, "{body}");
    assert!(attempts[0]
        .get("outcome")
        .and_then(|o| o.get("kind"))
        .and_then(Json::as_str)
        .is_some_and(|k| k == "crashed"));
    assert!(attempts
        .iter()
        .all(|a| a.get("bound_case").and_then(Json::as_str).is_some()));
    // The replanned grid shrank below the original 12 ranks.
    let final_ranks = recovery
        .get("final_plan")
        .and_then(|p| p.get("ranks"))
        .and_then(Json::as_f64)
        .expect("final plan ranks");
    assert!(final_ranks <= 11.0, "{body}");
    let words = recovery
        .get("recovery_words")
        .and_then(Json::as_f64)
        .expect("recovery words");
    assert!(words > 0.0, "{body}");
    // The recovery counters are live on /metrics.
    let attempts_after = scrape_counter(srv.addr, "syrk_recovery_attempts");
    assert!(attempts_after > attempts_before);
    // Determinism survives recovery: same request, same checksum.
    let checksum = doc.get("c_checksum").and_then(Json::as_f64).unwrap();
    let (status2, _, body2) = post_json(
        srv.addr,
        "/run?alg=2d&n1=36&n2=8&c=3&seed=7",
        r#"{"recovery": {"max_attempts": 3}, "faults": {"seed": 5, "crash_rank": 1, "crash_op": 1}}"#,
    );
    let again = parse_ok(status2, &body2);
    assert_eq!(
        again.get("c_checksum").and_then(Json::as_f64),
        Some(checksum)
    );
    srv.shutdown();
}

#[test]
fn run_crash_without_recovery_budget_survives_as_422() {
    // A crash with max_attempts=1 must surface as a typed 422, never a
    // 500, and the server keeps serving afterwards.
    let srv = TestServer::start_default();
    let (status, _head, body) = post_json(
        srv.addr,
        "/run?alg=1d&n1=16&n2=8&p=4",
        r#"{"recovery": {"max_attempts": 1}, "faults": {"crash_rank": 2, "crash_op": 1}}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("crash"), "{body}");
    assert!(json::parse(&body).is_ok(), "{body}");
    let (status, _) = get(srv.addr, "/plan?n1=30&n2=10&p=6");
    assert_eq!(status, 200);
    srv.shutdown();
}

#[test]
fn failing_runs_dump_to_their_own_file_under_dump_dir() {
    let dir = std::env::temp_dir().join(format!("syrk_server_dump_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let srv = TestServer::start(ServerConfig {
        dump_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let path = "/run?alg=2d&n1=36&n2=8&c=3";
    let crashing = r#"{"recovery": {"max_attempts": 1}, "faults": {"seed": 5, "crash_rank": 1, "crash_op": 1}}"#;
    for (body, want) in [(crashing, 422), ("", 200), (crashing, 422)] {
        let (status, _head, reply) = post_json(srv.addr, path, body);
        assert_eq!(status, want, "{reply}");
    }
    // The sequence counts every run; only the failing ones write.
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("dump dir created by the first dump")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["run_0.json", "run_2.json"]);
    for name in files {
        let doc = std::fs::read_to_string(dir.join(&name)).unwrap();
        let doc = json::parse(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("rank_crashed"),
            "{name}"
        );
    }
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_run_times_out_with_retry_after() {
    let srv = TestServer::start(ServerConfig {
        max_concurrent_runs: 1,
        max_queued_runs: 2,
        queue_wait: std::time::Duration::from_millis(80),
        workers: 8,
        ..ServerConfig::default()
    });
    let timeouts_before = scrape_counter(srv.addr, "syrk_server_run_queue_timeouts");
    // Occupy the only slot; the next run queues, waits out the 80 ms
    // deadline, and bounces with 503 + Retry-After.
    let permit = srv.state.gate.admit(&srv.state.running).expect("free slot");
    let (status, head, body) = post_json(srv.addr, "/run?alg=1d&n1=16&n2=8&p=2", "");
    assert_eq!(status, 503, "{body}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after:"),
        "missing Retry-After in {head}"
    );
    assert!(json::parse(&body).is_ok(), "{body}");
    let timeouts_after = scrape_counter(srv.addr, "syrk_server_run_queue_timeouts");
    assert!(timeouts_after > timeouts_before);
    drop(permit);
    // The slot is free again: the same run now succeeds.
    let (status, body) = post(srv.addr, "/run?alg=1d&n1=16&n2=8&p=2");
    assert_eq!(status, 200, "{body}");
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Malformed input

#[test]
fn malformed_requests_get_4xx_and_the_server_keeps_serving() {
    let srv = TestServer::start_default();
    let cases: Vec<(u16, (u16, String))> = vec![
        // Missing / non-numeric / non-positive parameters.
        (400, get(srv.addr, "/plan")),
        (400, get(srv.addr, "/plan?n1=10&n2=5")),
        (400, get(srv.addr, "/plan?n1=abc&n2=5&p=4")),
        (400, get(srv.addr, "/plan?n1=0&n2=5&p=4")),
        (400, get(srv.addr, "/plan?n1=10&n2=5&p=-3")),
        // Broken percent-encoding.
        (400, get(srv.addr, "/plan?n1=%zz&n2=5&p=4")),
        // Semantically invalid domain.
        (422, get(srv.addr, "/plan?n1=1&n2=5&p=4")),
        // Over the planning cap.
        (413, get(srv.addr, "/plan?n1=10&n2=5&p=999999999")),
        // Unknown endpoint and wrong methods.
        (404, get(srv.addr, "/nope")),
        (405, get(srv.addr, "/run?alg=1d&n1=4&n2=4&p=2")),
        (405, post(srv.addr, "/plan?n1=10&n2=5&p=4")),
        // Bad run parameters.
        (400, post(srv.addr, "/run?alg=warp&n1=10&n2=5")),
        (413, post(srv.addr, "/run?alg=1d&n1=4000&n2=4000&p=2")),
        // Grids whose rank count overflows: c = 2⁶⁴ − 59 is prime and
        // c(c+1) wraps to 3422; 12·(2⁶² + 1) wraps to 12.
        (
            413,
            post(srv.addr, "/run?alg=2d&n1=36&n2=8&c=18446744073709551557"),
        ),
        (
            413,
            post(
                srv.addr,
                "/run?alg=3d&n1=36&n2=8&c=3&p2=4611686018427387905",
            ),
        ),
        (422, post(srv.addr, "/run?alg=2d&n1=36&n2=8&c=10")),
        // Unparseable request line and oversized head.
        (400, raw(srv.addr, "BOGUS\r\n\r\n")),
        (
            413,
            raw(
                srv.addr,
                &format!(
                    "GET /plan HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                    "a".repeat(20_000)
                ),
            ),
        ),
    ];
    for (i, (want, (got, body))) in cases.iter().enumerate() {
        assert_eq!(got, want, "case {i}: body {body}");
        // Every error body is itself strict JSON.
        assert!(json::parse(body).is_ok(), "case {i}: non-JSON error {body}");
    }
    // Malformed and mistyped JSON bodies are 400s, not 500s.
    for bad in [
        "{not json",
        r#"{"recovery": {"max_attempts": 0}}"#,
        r#"{"recovery": {"max_attempts": "three"}}"#,
        r#"{"recovery": 7}"#,
        r#"{"faults": {"crash_rank": -1}}"#,
    ] {
        let (status, _h, body) = post_json(srv.addr, "/run?alg=1d&n1=16&n2=8&p=2", bad);
        assert_eq!(status, 400, "body {bad:?} -> {body}");
        assert!(json::parse(&body).is_ok(), "non-JSON error {body}");
    }
    // The server survived the whole battery.
    let (status, _) = get(srv.addr, "/plan?n1=30&n2=10&p=6");
    assert_eq!(status, 200);
    srv.shutdown();
}

#[test]
fn run_requests_answer_as_tabled() {
    let srv = TestServer::start_default();
    let mut moved = Vec::new();
    for (query, body, want_status, want_message) in RUN_TABLE {
        let (status, _head, reply) = post_json(srv.addr, &format!("/run?{query}"), body);
        let doc = json::parse(&reply).unwrap_or_else(|e| panic!("{query}: {e} in {reply}"));
        let message = doc.get("error").and_then(Json::as_str).unwrap_or("");
        if (status, message) != (want_status, want_message) {
            moved.push(format!("({query:?}, {body:?}, {status}, {message:?}),"));
        }
    }
    assert!(moved.is_empty(), "answers moved:\n{}", moved.join("\n"));
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Concurrency: /plan load and /run admission control

#[test]
fn sustains_64_concurrent_plan_queries_with_identical_bodies() {
    let srv = TestServer::start_default();
    let path = "/plan?n1=4321&n2=1234&p=24";
    let (status, warm) = get(srv.addr, path);
    assert_eq!(status, 200);
    assert!(json::parse(&warm).is_ok(), "non-JSON body {warm}");
    let plans_before = scrape_counter(srv.addr, "syrk_server_plan_requests");
    let clients = 64;
    let barrier = Barrier::new(clients);
    let failures = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                barrier.wait();
                let (status, body) = get(srv.addr, path);
                if status != 200 || body != warm {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(failures.load(Ordering::Relaxed), 0);
    let plans_after = scrape_counter(srv.addr, "syrk_server_plan_requests");
    assert!(
        plans_after >= plans_before + clients as u64,
        "plan requests did not move: {plans_before} -> {plans_after}"
    );
    srv.shutdown();
}

#[test]
fn run_admission_rejects_when_full_without_starving_plan() {
    let srv = TestServer::start(ServerConfig {
        max_concurrent_runs: 1,
        max_queued_runs: 0,
        workers: 8,
        ..ServerConfig::default()
    });

    // Deterministic single rejection: occupy the only run slot directly
    // through the gate, then a POST /run must bounce with 429 while
    // /plan still answers.
    let permit = srv.state.gate.admit(&srv.state.running).expect("free slot");
    let rejected_before = scrape_counter(srv.addr, "syrk_server_run_rejected");
    let (status, body) = post(srv.addr, "/run?alg=1d&n1=16&n2=8&p=2");
    assert_eq!(status, 429, "expected queue-full rejection, got {body}");
    assert!(json::parse(&body).is_ok());
    let (status, _) = get(srv.addr, "/plan?n1=50&n2=25&p=6");
    assert_eq!(status, 200, "/plan starved while run queue was full");
    let rejected_after = scrape_counter(srv.addr, "syrk_server_run_rejected");
    assert!(rejected_after > rejected_before);
    drop(permit);

    // With the slot free again the same run goes through.
    let (status, body) = post(srv.addr, "/run?alg=1d&n1=16&n2=8&p=2");
    assert_eq!(status, 200, "{body}");

    // Concurrent hammer: 12 simultaneous runs against 1 slot / 0 queue
    // must produce only 200s and 429s, at least one of each.
    let clients = 12;
    let barrier = Barrier::new(clients);
    let ok = AtomicUsize::new(0);
    let busy = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                barrier.wait();
                let (status, body) = post(srv.addr, "/run?alg=1d&n1=64&n2=48&p=4");
                match status {
                    200 => drop(ok.fetch_add(1, Ordering::Relaxed)),
                    429 => drop(busy.fetch_add(1, Ordering::Relaxed)),
                    other => panic!("unexpected status {other}: {body}"),
                }
            });
        }
    });
    let (ok, busy) = (ok.load(Ordering::Relaxed), busy.load(Ordering::Relaxed));
    assert_eq!(ok + busy, clients);
    assert!(ok >= 1, "no run ever got the slot");
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful shutdown

#[test]
fn shutdown_drains_in_flight_runs_then_exits_cleanly() {
    let mut srv = TestServer::start_default();
    let addr = srv.addr;
    // Racing an in-flight /run against /shutdown: whichever order the
    // sockets land in, the in-flight request must complete with a real
    // (non-torn) response and run() must return Ok.
    let worker = std::thread::spawn(move || {
        let (status, body) = post(addr, "/run?alg=2d&n1=60&n2=30&c=3");
        assert!(
            status == 200 || status == 503,
            "in-flight run got torn response {status}: {body}"
        );
        assert!(json::parse(&body).is_ok(), "torn body: {body}");
    });
    // Give the run a moment to be accepted before draining.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (status, body) = post(addr, "/shutdown");
    assert_eq!(status, 200, "{body}");
    assert!(json::parse(&body).is_ok());
    srv.join(); // run() returned Ok(()) — clean drain
    worker.join().expect("in-flight client panicked");
    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly in the backlog; a request on it
            // must then fail.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n").ok();
            let mut out = String::new();
            s.read_to_string(&mut out).map(|n| n == 0).unwrap_or(true)
        }
    );
}

// ---------------------------------------------------------------------------
// Response bytes

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn response_bodies_are_pinned_byte_for_byte() {
    // (request, status, body length, FNV-1a of the body), recorded from
    // the server before its bodies were appended into one buffer. Any
    // change to a field, its order or a float's rendering moves a pin.
    const RECOVERY: &str = r#"{"recovery": {"max_attempts": 3}, "faults": {"seed": 5, "crash_rank": 1, "crash_op": 1}}"#;
    let pins: [(&str, u16, usize, u64); 8] = [
        (
            "GET /plan?n1=1000&n2=250&p=48",
            200,
            2363,
            0x8698_2ad5_5e26_8f11,
        ),
        (
            "GET /plan?n1=10000&n2=250&p=1200",
            200,
            62215,
            0x9a06_be36_73bd_b4d4,
        ),
        (
            "GET /bounds?n1=1000&n2=250&p=48",
            200,
            1041,
            0x1a86_7def_c48d_a598,
        ),
        (
            "POST /run?alg=2d&n1=36&n2=8&c=3",
            200,
            460,
            0x940b_a124_9792_0a4b,
        ),
        (
            "POST /run?alg=2d&n1=36&n2=8&c=3&seed=7",
            200,
            853,
            0x45ea_95d0_83cb_9f93,
        ),
        (
            "GET /plan?n1=abc&n2=250&p=48",
            400,
            76,
            0x8a0f_3339_a37e_620d,
        ),
        ("GET /nope", 404, 36, 0x0a11_4fbf_6374_74c7),
        (
            "GET /plan?n1=1000&n2=250&p=1000001",
            413,
            71,
            0xdce2_2394_b288_d133,
        ),
    ];
    let srv = TestServer::start_default();
    let mut moved = Vec::new();
    for (request, want_status, want_len, want_digest) in pins {
        let (method, path) = request.split_once(' ').unwrap();
        let (status, body) = match (method, path.contains("seed=7")) {
            ("GET", _) => get(srv.addr, path),
            (_, false) => post(srv.addr, path),
            (_, true) => {
                let (status, _, body) = post_json(srv.addr, path, RECOVERY);
                (status, body)
            }
        };
        let got = (status, body.len(), fnv1a(body.as_bytes()));
        if got != (want_status, want_len, want_digest) {
            moved.push(format!(
                "(\"{request}\", {}, {}, {:#018x}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "pinned bodies moved:\n{}",
        moved.join("\n")
    );
    srv.shutdown();
}
