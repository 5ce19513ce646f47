//! What the two server workloads share: an in-process `syrk-server` on an
//! ephemeral port with the default `ServerConfig`, and the response
//! checks.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use syrk_server::json::{self, Json};
use syrk_server::{Server, SharedState};

use crate::client::{self, Reply};
use crate::span::Tracer;

/// A running server and the thread its accept loop lives on.
pub struct Harness {
    pub addr: SocketAddr,
    pub state: Arc<SharedState>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Harness {
    /// Bind, start the accept loop and the 16 default workers, and wait
    /// for the first response (a 404 — the cheapest full round trip).
    pub fn start() -> Result<Harness, String> {
        let server = Server::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let state = server.state();
        let thread = std::thread::Builder::new()
            .name("syrkbench-server".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn server thread: {e}"))?;
        let harness = Harness {
            addr,
            state,
            thread,
        };
        let mut quiet = Tracer::new(false, Instant::now(), 0);
        match client::roundtrip(addr, &client::get("/nope"), &mut quiet) {
            Ok((reply, _)) if reply.status == 404 => Ok(harness),
            Ok((reply, _)) => {
                let _ = harness.stop();
                Err(format!("readiness probe got status {}", reply.status))
            }
            Err(e) => {
                let _ = harness.stop();
                Err(format!("readiness probe: {e}"))
            }
        }
    }

    /// Drain and join: the accept loop must return `Ok` after shutdown.
    pub fn stop(self) -> Result<(), String> {
        self.state.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server accept loop failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Start a server `reps` times, running `extra` against each (the
/// workload's own part of the set-up); keep the last one running and
/// return the wall time of every repetition. Stopping the earlier ones
/// is not part of the set-up and is not timed.
pub fn repeat_start<T>(
    reps: usize,
    mut extra: impl FnMut(&Harness) -> T,
) -> Result<(Harness, T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<(Harness, T)> = None;
    for _ in 0..reps {
        if let Some((old, _)) = kept.take() {
            old.stop()?;
        }
        let t = Instant::now();
        let harness = Harness::start()?;
        let extra = extra(&harness);
        times.push(t.elapsed().as_secs_f64());
        kept = Some((harness, extra));
    }
    let (harness, extra) = kept.ok_or("no set-up repetition ran")?;
    Ok((harness, extra, times))
}

/// `reply` must be a 200 whose body is one strict-JSON document.
pub fn parse_ok(reply: &Reply) -> Result<Json, String> {
    if reply.status != 200 {
        return Err(format!(
            "status {} ({})",
            reply.status,
            reply.body.trim().chars().take(120).collect::<String>()
        ));
    }
    json::parse(&reply.body).map_err(|e| format!("body is not strict JSON: {e}"))
}

/// Walk `path` through nested objects.
pub fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |d, k| d.get(k))
}
