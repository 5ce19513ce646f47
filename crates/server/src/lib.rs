//! # syrk-server — SYRK planning and execution as a persistent service
//!
//! The rest of the workspace is batch-shaped: a binary plans or runs one
//! instance and exits. This crate keeps the planner, the Theorem 1 bound
//! calculators, and the simulated machine resident behind a tiny HTTP/1.1
//! API, so repeated queries skip process start-up and a dashboard can
//! watch live telemetry:
//!
//! | endpoint | method | body |
//! |---|---|---|
//! | `/plan?n1=&n2=&p=` | GET | ranked plans + per-term predicted bounds (JSON) |
//! | `/bounds?n1=&n2=&p=` | GET | Theorem 1 SYRK vs. GEMM bound attribution (JSON) |
//! | `/run?alg=&n1=&n2=&…` | POST | size-capped simulated 1D/2D/3D SYRK run (JSON) |
//! | `/metrics` | GET | Prometheus text exposition of the telemetry registry |
//! | `/status` | GET | live HTML status page |
//! | `/shutdown` | POST | graceful drain: stop accepting, finish in-flight |
//!
//! Everything is `std`-only (the workspace builds on a bare toolchain):
//! a blocking accept loop feeds a bounded connection queue drained by a
//! fixed worker pool, and `/run` passes through [`state::RunGate`]
//! admission control so a burst of large simulated runs queues (bounded,
//! then 429) instead of occupying every worker and starving `/plan`.
//!
//! ```no_run
//! let server = syrk_server::Server::bind("127.0.0.1:8080").unwrap();
//! println!("listening on http://{}", server.local_addr());
//! server.run().unwrap(); // returns after POST /shutdown drains
//! ```

#![warn(missing_docs)]

mod handlers;
pub mod http;
pub mod json;
pub mod state;

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

pub use state::{AdmitError, RunGate, RunPermit, ServerConfig, SharedState};

/// Per-connection socket-read timeout: a stalled or half-open client
/// frees its worker after this long instead of pinning it forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Accepted connections waiting for a worker, bounded so a connect flood
/// degrades to fast 503s instead of unbounded memory.
struct ConnQueue {
    inner: Mutex<ConnQueueInner>,
    cv: Condvar,
    cap: usize,
}

struct ConnQueueInner {
    pending: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(ConnQueueInner {
                pending: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue for a worker; hands the stream back if the queue is full
    /// or closed, so the caller can shed load on it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed || inner.pending.len() >= self.cap {
            return Err(stream);
        }
        inner.pending.push_back(stream);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Next connection to serve; `None` once the queue is closed *and*
    /// drained — workers finish queued work before exiting.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(stream) = inner.pending.pop_front() {
                return Some(stream);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.cv.notify_all();
    }
}

/// A bound, not-yet-running server. [`Server::run`] consumes it and
/// blocks until graceful shutdown completes.
pub struct Server {
    listener: TcpListener,
    state: Arc<SharedState>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:8080"`, port 0 for ephemeral) with
    /// the default [`ServerConfig`].
    pub fn bind(addr: &str) -> io::Result<Server> {
        Self::bind_with(addr, ServerConfig::default())
    }

    /// Bind `addr` with explicit tunables.
    pub fn bind_with(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Server {
            listener,
            state: Arc::new(SharedState::new(config, local)),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The shared state — lets an embedding test trigger
    /// [`SharedState::shutdown`] without going through the socket.
    pub fn state(&self) -> Arc<SharedState> {
        Arc::clone(&self.state)
    }

    /// Serve until `/shutdown`: accept connections onto the bounded
    /// queue, let the worker pool drain it, then join every worker once
    /// the running flag clears. In-flight and already-queued requests
    /// complete before this returns.
    pub fn run(self) -> io::Result<()> {
        let queue = Arc::new(ConnQueue::new(state::MAX_PENDING_CONNECTIONS));
        let workers: Vec<_> = (0..self.state.config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("syrk-server-worker-{i}"))
                    .spawn(move || {
                        while let Some(mut stream) = queue.pop() {
                            serve_connection(&state, &mut stream);
                        }
                    })
                    .expect("spawn server worker")
            })
            .collect();

        for stream in self.listener.incoming() {
            if !self.state.running.load(Ordering::Acquire) {
                // The shutdown self-connect (or whoever raced it) wakes
                // the acceptor; the connection itself is discarded.
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                // Transient per-connection failures (reset before
                // accept) don't take the server down.
                Err(_) => continue,
            };
            if let Err(mut shed) = queue.push(stream) {
                state::CONN_REJECTED.inc();
                let _ =
                    http::Response::json_error(503, "connection queue is full").write_to(&mut shed);
            }
        }

        queue.close();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// Serve exactly one request on `stream` (`Connection: close`).
fn serve_connection(state: &Arc<SharedState>, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    state::INFLIGHT.add(1);
    match http::read_request(stream) {
        Ok(req) => {
            let resp = handlers::handle(state, &req);
            let _ = resp.write_to(stream);
        }
        Err(err) => {
            // Parse failures still count as served requests; I/O
            // failures get no response (the peer is gone).
            if let Some(resp) = err.to_response() {
                state::REQUESTS.inc();
                state::RESPONSES_4XX.inc();
                let _ = resp.write_to(stream);
                drain_unread(stream);
            }
        }
    }
    state::INFLIGHT.sub(1);
}

/// Consume whatever the client is still sending (bounded, short
/// timeout) before closing an errored connection. Closing with unread
/// bytes in the receive buffer makes the kernel send RST, which can
/// destroy the 4xx response before the client reads it.
fn drain_unread(stream: &mut TcpStream) {
    use std::io::Read as _;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    // 1 MiB bound: enough for any over-cap request the tests or curl
    // produce, without letting a hostile client pin the worker.
    while drained < 1 << 20 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}
