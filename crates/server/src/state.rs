//! Shared server state: the running flag that gates the accept loop,
//! admission control for simulated runs, size caps, and the server's
//! telemetry metrics.
//!
//! The shape follows the chain-net `SharedState` pattern: one `Arc`'d
//! struct owning an `AtomicBool` running flag plus the coordination
//! primitives, threaded through the accept loop, every worker, and the
//! handlers.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use syrk_telemetry::{Counter, Gauge, Histogram};

/// Total requests served (any endpoint, any status).
pub static REQUESTS: Counter = Counter::new("syrk_server_requests");
/// `/plan` requests.
pub(crate) static PLAN_REQUESTS: Counter = Counter::new("syrk_server_plan_requests");
/// `/bounds` requests.
pub(crate) static BOUNDS_REQUESTS: Counter = Counter::new("syrk_server_bounds_requests");
/// `/run` requests (admitted or not).
pub(crate) static RUN_REQUESTS: Counter = Counter::new("syrk_server_run_requests");
/// `/metrics` requests.
pub(crate) static METRICS_REQUESTS: Counter = Counter::new("syrk_server_metrics_requests");
/// `/status` requests.
pub(crate) static STATUS_REQUESTS: Counter = Counter::new("syrk_server_status_requests");
/// Responses with a 4xx status.
pub(crate) static RESPONSES_4XX: Counter = Counter::new("syrk_server_responses_4xx");
/// Responses with a 5xx status.
pub(crate) static RESPONSES_5XX: Counter = Counter::new("syrk_server_responses_5xx");
/// `/run` requests rejected by admission control (queue full/draining).
pub(crate) static RUN_REJECTED: Counter = Counter::new("syrk_server_run_rejected");
/// Connections dropped because the pending-connection queue was full.
pub(crate) static CONN_REJECTED: Counter = Counter::new("syrk_server_conn_rejected");
/// End-to-end request service time (parse → response written), nanoseconds.
pub(crate) static REQUEST_NANOS: Histogram = Histogram::new("syrk_server_request_nanos");
/// Requests currently being served by workers.
pub(crate) static INFLIGHT: Gauge = Gauge::new("syrk_server_inflight");
/// Simulated runs currently executing.
pub(crate) static RUNS_ACTIVE: Gauge = Gauge::new("syrk_server_runs_active");
/// Simulated runs waiting in the admission queue.
pub(crate) static RUN_QUEUE_DEPTH: Gauge = Gauge::new("syrk_server_run_queue_depth");
/// Queued runs that hit the queue-wait deadline and were bounced (503).
pub(crate) static RUN_QUEUE_TIMEOUTS: Counter = Counter::new("syrk_server_run_queue_timeouts");

/// Accepted connections allowed to queue for a worker before the accept
/// loop sheds load with an immediate 503.
pub(crate) const MAX_PENDING_CONNECTIONS: usize = 1024;
/// Cap on `n1 * n2` for a `/run` request (413 above).
pub(crate) const MAX_RUN_CELLS: usize = 1 << 20;
/// Cap on simulated ranks for a `/run` request (413 above).
pub(crate) const MAX_RUN_RANKS: usize = 4096;
/// Cap on the rank budget `p` for `/plan` and `/bounds` queries —
/// candidate enumeration is O(p), so unbounded p is a CPU DoS.
pub(crate) const MAX_PLAN_RANKS: usize = 1_000_000;

/// Tunables for one server instance. `Default` is sized so that plan
/// queries can never be starved: `workers` strictly exceeds
/// `max_concurrent_runs + max_queued_runs`, so even with every run slot
/// busy and the run queue full there are free workers for `/plan`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// HTTP worker threads draining the accepted-connection queue.
    pub workers: usize,
    /// Simulated runs allowed to execute at once.
    pub max_concurrent_runs: usize,
    /// Runs allowed to wait for a slot before admission rejects (429).
    pub max_queued_runs: usize,
    /// How long a queued run may wait for a slot before it is bounced
    /// with a 503 + `Retry-After` instead of pinning its HTTP worker.
    pub queue_wait: Duration,
    /// When set, each `/run` carries a per-run failure-dump path
    /// `run_<seq>.json` under this directory in its `RunSpec::dump`; the
    /// sequence counts every admitted run, and only a failing machine
    /// writes its file.
    pub dump_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 16,
            max_concurrent_runs: 2,
            max_queued_runs: 4,
            queue_wait: Duration::from_secs(3),
            dump_dir: None,
        }
    }
}

/// Why a `/run` was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Active slots and the wait queue are both full → 429.
    QueueFull,
    /// The server is shutting down; queued runs are bounced → 503.
    Draining,
    /// A queued run waited out the configured deadline without getting a
    /// slot → 503 with `Retry-After`.
    QueueTimeout,
}

#[derive(Debug)]
struct GateState {
    active: usize,
    queued: usize,
}

/// Admission control for simulated runs: a bounded set of concurrent
/// execution slots plus a bounded wait queue. Large traced runs queue
/// behind each other here instead of occupying every HTTP worker, so
/// small `/plan` queries always find a free worker.
#[derive(Debug)]
pub struct RunGate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_active: usize,
    max_queued: usize,
    max_wait: Duration,
}

impl RunGate {
    fn new(max_active: usize, max_queued: usize, max_wait: Duration) -> Self {
        RunGate {
            state: Mutex::new(GateState {
                active: 0,
                queued: 0,
            }),
            cv: Condvar::new(),
            max_active: max_active.max(1),
            max_queued,
            max_wait,
        }
    }

    /// Acquire an execution slot, waiting in the bounded queue (up to
    /// the configured deadline) if all slots are busy. Returns the RAII
    /// permit, or why admission failed.
    pub fn admit(&self, running: &AtomicBool) -> Result<RunPermit<'_>, AdmitError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !running.load(Ordering::Acquire) {
            return Err(AdmitError::Draining);
        }
        if state.active >= self.max_active {
            if state.queued >= self.max_queued {
                return Err(AdmitError::QueueFull);
            }
            state.queued += 1;
            RUN_QUEUE_DEPTH.add(1);
            let deadline = Instant::now() + self.max_wait;
            let mut timed_out = false;
            while state.active >= self.max_active && running.load(Ordering::Acquire) {
                let Some(left) = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                else {
                    timed_out = true;
                    break;
                };
                let (s, _t) = self
                    .cv
                    .wait_timeout(state, left)
                    .unwrap_or_else(|e| e.into_inner());
                state = s;
            }
            state.queued -= 1;
            RUN_QUEUE_DEPTH.sub(1);
            if timed_out {
                RUN_QUEUE_TIMEOUTS.inc();
                return Err(AdmitError::QueueTimeout);
            }
            if !running.load(Ordering::Acquire) {
                // Shutdown won the race: bounce the queued run (it has
                // not started; in-flight actives drain normally).
                self.cv.notify_all();
                return Err(AdmitError::Draining);
            }
        }
        state.active += 1;
        RUNS_ACTIVE.add(1);
        Ok(RunPermit { gate: self })
    }

    /// Wake queued waiters (used on shutdown so they observe the
    /// cleared running flag and bounce instead of hanging).
    pub(crate) fn wake_all(&self) {
        let _guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    /// `(active, queued)` — for the status page.
    pub(crate) fn depth(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.active, state.queued)
    }
}

/// RAII execution slot from [`RunGate::admit`]; releases the slot and
/// wakes one queued waiter on drop.
#[derive(Debug)]
pub struct RunPermit<'a> {
    gate: &'a RunGate,
}

impl Drop for RunPermit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active -= 1;
        RUNS_ACTIVE.sub(1);
        drop(state);
        self.gate.cv.notify_one();
    }
}

/// State shared by the accept loop, the workers, and every handler.
pub struct SharedState {
    /// Server tunables.
    pub config: ServerConfig,
    /// Cleared by `/shutdown`; the accept loop exits and queued runs
    /// bounce once this is false.
    pub running: AtomicBool,
    /// Admission control for `/run`.
    pub gate: RunGate,
    /// The bound listen address (used by shutdown to wake the acceptor).
    pub addr: SocketAddr,
    /// Server start time, for the status page's uptime.
    pub started: Instant,
    /// Monotonic per-run sequence for scoped dump file names.
    pub run_seq: AtomicU64,
}

impl SharedState {
    /// Fresh state for a server bound at `addr`.
    pub fn new(config: ServerConfig, addr: SocketAddr) -> Self {
        let gate = RunGate::new(
            config.max_concurrent_runs,
            config.max_queued_runs,
            config.queue_wait,
        );
        SharedState {
            config,
            running: AtomicBool::new(true),
            gate,
            addr,
            started: Instant::now(),
            run_seq: AtomicU64::new(0),
        }
    }

    /// Begin graceful shutdown: clear the running flag, bounce queued
    /// runs, and poke the accept loop awake with a throwaway connection.
    pub fn shutdown(&self) {
        self.running.store(false, Ordering::Release);
        self.gate.wake_all();
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        }
        let _ = std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generous wait for tests that must not hit the deadline.
    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn gate_admits_up_to_capacity_then_queue_fills() {
        let running = AtomicBool::new(true);
        let gate = RunGate::new(2, 0, LONG);
        let a = gate.admit(&running).expect("slot 1");
        let b = gate.admit(&running).expect("slot 2");
        assert_eq!(gate.admit(&running).unwrap_err(), AdmitError::QueueFull);
        assert_eq!(gate.depth(), (2, 0));
        drop(a);
        let c = gate.admit(&running).expect("freed slot");
        drop(b);
        drop(c);
        assert_eq!(gate.depth(), (0, 0));
    }

    #[test]
    fn gate_queued_waiter_gets_freed_slot() {
        let running = AtomicBool::new(true);
        let gate = RunGate::new(1, 2, LONG);
        let held = gate.admit(&running).expect("slot");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.admit(&running).map(drop));
            // Give the waiter time to enqueue, then free the slot.
            while gate.depth().1 == 0 {
                std::thread::yield_now();
            }
            drop(held);
            waiter.join().unwrap().expect("queued waiter admitted");
        });
        assert_eq!(gate.depth(), (0, 0));
    }

    #[test]
    fn gate_bounces_on_shutdown() {
        let running = AtomicBool::new(false);
        let gate = RunGate::new(1, 2, LONG);
        assert_eq!(gate.admit(&running).unwrap_err(), AdmitError::Draining);
    }

    #[test]
    fn gate_queued_waiter_times_out_when_slot_never_frees() {
        let running = AtomicBool::new(true);
        let gate = RunGate::new(1, 2, Duration::from_millis(30));
        let held = gate.admit(&running).expect("slot");
        let start = Instant::now();
        assert_eq!(gate.admit(&running).unwrap_err(), AdmitError::QueueTimeout);
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "bounced before the deadline"
        );
        // The timed-out waiter left the queue; the slot is still held.
        assert_eq!(gate.depth(), (1, 0));
        drop(held);
        // A later run is unaffected by the earlier timeout.
        drop(gate.admit(&running).expect("slot after timeout"));
        assert_eq!(gate.depth(), (0, 0));
    }

    #[test]
    fn config_default_cannot_starve_plan_queries() {
        let c = ServerConfig::default();
        assert!(c.workers > c.max_concurrent_runs + c.max_queued_runs);
    }
}
