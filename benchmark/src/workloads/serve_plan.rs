//! `serve_plan`: planning traffic only.
//!
//! Two closed-loop clients (callers of the planner are sweep scripts that
//! wait for each reply), one connection per request because the server
//! closes after every response. Each request is drawn from the seed:
//!
//! * 80 % `GET /plan` over 64 *hot* keys (`n1 = 1000..1063, n2 = 250,
//!   p = 48`) — plan-cache hits;
//! * 12 % `GET /plan` on keys never seen before (`p = 1200`) — a planner
//!   miss each, and since the cache is filled to `PLAN_CACHE_CAP` before
//!   the window opens, FIFO eviction runs throughout and takes hot keys
//!   with it;
//! * 6 % `GET /bounds`, 2 % `GET /metrics`.
//!
//! Socket, parse, planner and render do all the work; the simulated
//! machine and the dense kernels do none, so a gain in either must not
//! show here.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use syrk_core::{plan, Plan, PLAN_CACHE_CAP};
use syrk_dense::DetRng;
use syrk_server::json::Json;
use syrk_telemetry::registry;

use super::serve::{self, field};
use super::{measure_window, Checks, Ctx, Report, Window};
use crate::client::{self, Timing};
use crate::span::Tracer;

const CLIENTS: usize = 2;
const HOT_KEYS: usize = 64;
pub const HOT_P: usize = 48;
pub const COLD_P: usize = 1200;
const N2: usize = 250;
const SETUP_REPS: usize = 31;
const WARMUP_SECONDS: f64 = 1.5;
/// Every request is checked for status and shape; one in this many is
/// also parsed as strict JSON and, for hot keys, compared with the plan
/// a direct call gives. Parsing every 20 KB cold-key body would make the
/// client the bottleneck of a two-thread host.
const PARSE_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Cold,
    Bounds,
    Metrics,
}

/// Latencies one client collected, nanoseconds.
#[derive(Default)]
pub struct Samples {
    pub hot: Vec<u64>,
    pub cold: Vec<u64>,
    pub bounds: Vec<u64>,
    pub metrics: Vec<u64>,
    pub connect: Vec<u64>,
    pub ttfb: Vec<u64>,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.hot.extend(other.hot);
        self.cold.extend(other.cold);
        self.bounds.extend(other.bounds);
        self.metrics.extend(other.metrics);
        self.connect.extend(other.connect);
        self.ttfb.extend(other.ttfb);
    }

    fn push(&mut self, class: Class, t: Timing) {
        match class {
            Class::Hot => self.hot.push(t.total_ns),
            Class::Cold => self.cold.push(t.total_ns),
            Class::Bounds => self.bounds.push(t.total_ns),
            Class::Metrics => self.metrics.push(t.total_ns),
        }
        self.connect.push(t.connect_ns);
        self.ttfb.push(t.ttfb_ns);
    }

    pub fn requests(&self) -> u64 {
        self.connect.len() as u64
    }
}

/// One closed-loop client: its own random stream and its own supply of
/// never-repeated cold keys (client `id` uses `n1 ≡ id (mod CLIENTS)`).
struct Client {
    id: usize,
    rng: DetRng,
    next_cold: usize,
    sent: u64,
    /// `(algorithm, ranks)` of the best plan per hot key, from a direct
    /// `plan()` call.
    expected_hot: Vec<(&'static str, usize)>,
}

impl Client {
    fn next_request(&mut self) -> (Class, usize, String) {
        let hot = 1000 + self.rng.gen_range(0, HOT_KEYS);
        match self.rng.gen_range(0, 100) {
            0..=79 => (Class::Hot, hot, format!("/plan?n1={hot}&n2={N2}&p={HOT_P}")),
            80..=91 => {
                let n1 = 10_000 + self.id + CLIENTS * self.next_cold;
                self.next_cold += 1;
                (Class::Cold, n1, format!("/plan?n1={n1}&n2={N2}&p={COLD_P}"))
            }
            92..=97 => (
                Class::Bounds,
                hot,
                format!("/bounds?n1={hot}&n2={N2}&p={HOT_P}"),
            ),
            _ => (Class::Metrics, 0, "/metrics".to_string()),
        }
    }

    fn check(&self, class: Class, n1: usize, body: &str, deep: bool) -> Option<String> {
        if class == Class::Metrics {
            return (!body.contains("syrk_server_requests"))
                .then(|| "/metrics lacks syrk_server_requests".to_string());
        }
        if !body.starts_with(&format!("{{\"n1\": {n1}, ")) || !body.ends_with("}\n") {
            return Some(format!(
                "{class:?} n1={n1}: body is not the expected object"
            ));
        }
        if !deep {
            return None;
        }
        let doc = match syrk_server::json::parse(body) {
            Ok(d) => d,
            Err(e) => return Some(format!("{class:?} n1={n1}: not strict JSON: {e}")),
        };
        match class {
            Class::Hot => {
                let got = (
                    field(&doc, &["best", "plan", "algorithm"]).and_then(Json::as_str),
                    field(&doc, &["best", "plan", "ranks"]).and_then(Json::as_usize),
                );
                let want = self.expected_hot[n1 - 1000];
                (got != (Some(want.0), Some(want.1)))
                    .then(|| format!("hot n1={n1}: best plan {got:?}, direct call gives {want:?}"))
            }
            Class::Bounds => field(&doc, &["gemm_over_syrk"])
                .and_then(Json::as_f64)
                .is_none()
                .then(|| format!("bounds n1={n1}: no gemm_over_syrk")),
            _ => None,
        }
    }

    /// Send requests back to back until `deadline`.
    fn run_until(
        &mut self,
        addr: SocketAddr,
        deadline: Instant,
        tracer: &mut Tracer,
    ) -> (Samples, Checks) {
        let mut samples = Samples::default();
        let mut checks = Checks::default();
        while Instant::now() < deadline {
            let (class, n1, path) = self.next_request();
            self.sent += 1;
            let deep = self.sent.is_multiple_of(PARSE_EVERY);
            match client::roundtrip(addr, &client::get(&path), tracer) {
                Ok((reply, timing)) => {
                    let problem = if reply.status != 200 {
                        Some(format!("{path}: status {}", reply.status))
                    } else {
                        self.check(class, n1, &reply.body, deep)
                    };
                    if problem.is_none() {
                        samples.push(class, timing);
                    }
                    checks.record(problem);
                }
                Err(e) => checks.record(Some(format!("{path}: {e}"))),
            }
        }
        (samples, checks)
    }
}

/// Run every client for `seconds`; returns merged samples and wall time.
fn run_clients(
    clients: &mut [Client],
    addr: SocketAddr,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Samples, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut all = Samples::default();
    let results: Vec<(Samples, Checks, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let mut t = tracer.for_thread(1 + c.id as u32);
                s.spawn(move || {
                    let (samples, checks) = c.run_until(addr, deadline, &mut t);
                    (samples, checks, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    for (samples, c, t) in results {
        all.absorb(samples);
        checks.absorb(c);
        tracer.absorb(t);
    }
    (all, wall)
}

fn plan_name(p: Plan) -> (&'static str, usize) {
    (super::sim::family(p), p.ranks())
}

fn to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e6).collect()
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    // Set-up: a server that has been up for a while. Fill the plan cache
    // to its cap with keys that are cheap to plan (p = 2) — fresh ones on
    // every repetition, so each repetition does the same inserts and
    // evictions — and every cold insert of the window evicts from the
    // first one on.
    let mut fills = 0;
    let fill_cache = |_: &serve::Harness| {
        for i in 0..PLAN_CACHE_CAP {
            plan(100_000 + fills * PLAN_CACHE_CAP + i, N2, 2);
        }
        fills += 1;
    };
    let (harness, (), setup_s) = match serve::repeat_start(SETUP_REPS, fill_cache) {
        Ok(v) => v,
        Err(e) => {
            report.checks.record(Some(e));
            return report;
        }
    };
    report.setup_s = setup_s;

    // Warm-up: learn what the hot keys should answer, which also puts
    // them in the cache, then run the mix for a while.
    let warm = Instant::now();
    let expected_hot: Vec<_> = (0..HOT_KEYS)
        .map(|h| plan_name(plan(1000 + h, N2, HOT_P).plan))
        .collect();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client {
            id,
            rng: DetRng::seed_from_u64(ctx.seed.wrapping_mul(CLIENTS as u64) + id as u64),
            next_cold: 0,
            sent: 0,
            expected_hot: expected_hot.clone(),
        })
        .collect();
    run_clients(
        &mut clients,
        harness.addr,
        WARMUP_SECONDS,
        tracer,
        &mut report.checks,
    );
    report.warmup_s = warm.elapsed().as_secs_f64();

    let before = registry::snapshot();
    let addr = harness.addr;
    let checks = &mut report.checks;
    let ((samples, wall), traced) = measure_window(ctx, tracer, |tracer, seconds| {
        run_clients(&mut clients, addr, seconds, tracer, checks)
    });
    let after = registry::snapshot();

    let window = |samples: &Samples, wall| Window {
        op_ms: to_ms(&samples.hot),
        ops: samples.requests(),
        seconds: wall,
    };
    report.untraced = window(&samples, wall);
    if let Some((traced_samples, traced_wall)) = traced {
        let windows = (
            report.untraced.clone(),
            window(&traced_samples, traced_wall),
        );
        let mut both = samples;
        both.absorb(traced_samples);
        crate::replay::serve_plan_layers(
            &harness,
            &both,
            (&before, &after),
            (&windows.0, &windows.1),
            tracer,
            &mut report,
        );
    }
    if let Err(e) = harness.stop() {
        report.checks.record(Some(e));
    }
    report
}
