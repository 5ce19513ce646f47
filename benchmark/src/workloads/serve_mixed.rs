//! `serve_mixed`: the whole stack, used two ways at once.
//!
//! Client A (closed loop) posts rounds of five `/run` classes in a
//! seeded order:
//!
//! | class | request | what it exercises |
//! |---|---|---|
//! | `r1d` | `alg=1d&n1=256&n2=2048&p=8` | big local SYRK, one reduce-scatter |
//! | `r2d` | `alg=2d&n1=338&n2=64&c=13` | 182 ranks, sparse all-to-all |
//! | `r3d` | `alg=3d&n1=240&n2=240&c=3&p2=2` | grid split, both collectives |
//! | `rauto` | `alg=auto&n1=480&n2=480&p=30` | planner picks the grid |
//! | `rcrash` | `r2d` + body `{"faults": {"crash_rank": 3, "crash_op": 2}}` | crash, shrink, replan, ABFT |
//!
//! Client B (open loop, 500 requests/s, every request timed from when it
//! was due) sends a hot-key `GET /plan` until A finishes — independent
//! users of the planner do not wait for somebody else's simulation, and a
//! gain for `/run` that costs `/plan` (or the reverse) has to show. The
//! timed operation is the whole round: the median over single requests
//! would sit inside one class (`rauto`, whose kernels run in one of two
//! modes on this host) and flip with it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use syrk_core::{
    plan, run_with_recovery, Plan, RecoveryPolicy, RecoveryReport, SyrkError, SyrkRunResult,
};
use syrk_dense::{seeded_matrix, DetRng, Matrix};
use syrk_machine::{CostModel, FaultPlan};
use syrk_server::json::Json;
use syrk_telemetry::registry::{self, MetricsSnapshot};

use super::serve::{self, field, parse_ok, Harness};
use super::{measure_window, Checks, Ctx, Report, Window};
use crate::client::{self, OpenLoop};
use crate::span::Tracer;

pub const CLASSES: [&str; 5] = ["r1d", "r2d", "r3d", "rauto", "rcrash"];
const PACED_RATE_PER_S: u32 = 500;
const PACED_PATH: &str = "/plan?n1=1000&n2=250&p=48";
pub const CRASH_BODY: &str = "{\"faults\": {\"crash_rank\": 3, \"crash_op\": 2}}";
const SETUP_REPS: usize = 7;
/// The `/run` path speeds up for the first seconds of a process (see
/// `server.warmup_drift` and the README); the window opens after it.
const WARMUP_ROUNDS: usize = 20;

/// One `/run` class: the request, and the same work as a direct call.
pub struct RunClass {
    pub name: &'static str,
    pub request: String,
    pub a: Matrix<f64>,
    pub plan: Plan,
    crash: bool,
    /// From the direct call made during set-up.
    pub expected_checksum: f64,
    pub recovery: Option<RecoveryReport>,
}

impl RunClass {
    /// What the `/run` handler does for this request, without the server.
    pub fn direct(&self) -> Result<(SyrkRunResult, Option<RecoveryReport>), SyrkError> {
        if self.crash {
            let faults = FaultPlan::seeded(0).crash_rank(3, 2);
            let (run, report) = run_with_recovery(
                &self.a,
                self.plan,
                CostModel::bandwidth_only(),
                Some(&faults),
                &RecoveryPolicy::default(),
            )?;
            Ok((run, Some(report)))
        } else {
            super::sim::run_plan(&self.a, self.plan).map(|run| (run, None))
        }
    }
}

/// Build the five classes for matrix seed `seed` and run each directly
/// once, so that every served `c_checksum` has something to equal.
pub fn classes(seed: u64) -> (Vec<RunClass>, Checks) {
    let mut checks = Checks::default();
    let spec: [(&'static str, String, usize, usize, Plan, bool); 5] = [
        (
            "r1d",
            "alg=1d&n1=256&n2=2048&p=8".into(),
            256,
            2048,
            Plan::OneD { p: 8 },
            false,
        ),
        (
            "r2d",
            "alg=2d&n1=338&n2=64&c=13".into(),
            338,
            64,
            Plan::TwoD { c: 13 },
            false,
        ),
        (
            "r3d",
            "alg=3d&n1=240&n2=240&c=3&p2=2".into(),
            240,
            240,
            Plan::ThreeD { c: 3, p2: 2 },
            false,
        ),
        (
            "rauto",
            "alg=auto&n1=480&n2=480&p=30".into(),
            480,
            480,
            plan(480, 480, 30).plan,
            false,
        ),
        (
            "rcrash",
            "alg=2d&n1=338&n2=64&c=13".into(),
            338,
            64,
            Plan::TwoD { c: 13 },
            true,
        ),
    ];
    let classes = spec
        .into_iter()
        .map(|(name, query, n1, n2, plan, crash)| {
            let path = format!("/run?{query}&seed={seed}");
            let request = if crash {
                format!(
                    "POST {path} HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{CRASH_BODY}",
                    CRASH_BODY.len()
                )
            } else {
                client::post(&path)
            };
            let mut class = RunClass {
                name,
                request,
                a: seeded_matrix::<f64>(n1, n2, seed),
                plan,
                crash,
                expected_checksum: f64::NAN,
                recovery: None,
            };
            match class.direct() {
                Ok((run, recovery)) => {
                    class.expected_checksum = run.c.as_slice().iter().sum();
                    class.recovery = recovery;
                    checks.record(None);
                }
                Err(e) => checks.record(Some(format!("{name}: direct call failed: {e}"))),
            }
            class
        })
        .collect();
    (classes, checks)
}

/// The gate on one `/run` response.
fn check_run(class: &RunClass, reply: &client::Reply) -> Option<String> {
    let doc = match parse_ok(reply) {
        Ok(d) => d,
        Err(e) => return Some(format!("{}: {e}", class.name)),
    };
    let checksum = field(&doc, &["c_checksum"]).and_then(Json::as_f64);
    if checksum.map(f64::to_bits) != Some(class.expected_checksum.to_bits()) {
        return Some(format!(
            "{}: c_checksum {checksum:?}, the direct call gives {}",
            class.name, class.expected_checksum
        ));
    }
    let ratio = field(&doc, &["measured_over_bound"]).and_then(Json::as_f64);
    if !ratio.is_some_and(|r| r >= 1.0) {
        return Some(format!(
            "{}: measured words over the Theorem 1 bound is {ratio:?}",
            class.name
        ));
    }
    if class.crash && field(&doc, &["recovery", "recovered"]).and_then(Json::as_bool) != Some(true)
    {
        return Some(format!("{}: recovery.recovered is not true", class.name));
    }
    None
}

/// Per-class `/run` latencies in the order they were measured, ms.
#[derive(Default, Clone)]
pub struct RunSamples {
    pub by_class: [Vec<f64>; 5],
}

/// What client B measured, nanoseconds.
#[derive(Default)]
pub struct PacedSamples {
    pub latency: Vec<u64>,
    pub late: Vec<u64>,
}

/// Client A: rounds of the five classes in a seeded order.
struct Runner<'a> {
    classes: &'a [RunClass],
    rng: DetRng,
    addr: SocketAddr,
}

impl Runner<'_> {
    /// One round; returns the summed request time in seconds.
    fn round(&mut self, tracer: &mut Tracer, samples: &mut RunSamples, checks: &mut Checks) -> f64 {
        let mut order = [0usize, 1, 2, 3, 4];
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.gen_range(0, i + 1));
        }
        let mut seconds = 0.0;
        tracer.begin("bench.unit");
        for idx in order {
            let class = &self.classes[idx];
            match client::roundtrip(self.addr, &class.request, tracer) {
                Ok((reply, timing)) => {
                    let problem = check_run(class, &reply);
                    if problem.is_none() {
                        samples.by_class[idx].push(timing.total_ns as f64 / 1e6);
                    }
                    seconds += timing.total_ns as f64 / 1e9;
                    checks.record(problem);
                }
                Err(e) => checks.record(Some(format!("{}: {e}", class.name))),
            }
        }
        tracer.end();
        seconds
    }
}

/// Client B: hot-key `/plan` on the open-loop schedule until `stop`.
fn paced_plan(addr: SocketAddr, stop: &AtomicBool, tracer: &mut Tracer) -> (PacedSamples, Checks) {
    let mut samples = PacedSamples::default();
    let mut checks = Checks::default();
    let request = client::get(PACED_PATH);
    let mut schedule = OpenLoop::new(Instant::now(), PACED_RATE_PER_S);
    while !stop.load(Ordering::Acquire) {
        let due = schedule.next_due();
        OpenLoop::wait_until(due);
        let sent = Instant::now();
        match client::roundtrip(addr, &request, tracer) {
            Ok((reply, _)) => {
                let s = OpenLoop::sample(due, sent, Instant::now());
                let ok = reply.status == 200 && reply.body.starts_with("{\"n1\": 1000, ");
                if ok {
                    samples.latency.push(s.latency_ns);
                    samples.late.push(s.late_ns);
                }
                checks.record((!ok).then(|| format!("paced /plan: status {}", reply.status)));
            }
            Err(e) => checks.record(Some(format!("paced /plan: {e}"))),
        }
    }
    (samples, checks)
}

/// What one stretch of A-beside-B produced.
pub struct Stretch {
    pub runs: RunSamples,
    pub paced: PacedSamples,
    pub window: Window,
    /// Registry snapshots around the stretch's first round.
    pub round_registry: (MetricsSnapshot, MetricsSnapshot),
}

/// Run A for at least `min_rounds` rounds and until `seconds` of request
/// time have been measured, with B beside it throughout.
fn stretch(
    runner: &mut Runner<'_>,
    min_rounds: usize,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Stretch {
    let stop = AtomicBool::new(false);
    let addr = runner.addr;
    let mut runs = RunSamples::default();
    let mut window = Window::default();
    let mut round_registry = None;
    let mut paced_tracer = tracer.for_thread(2);
    let (paced, paced_checks) = std::thread::scope(|s| {
        let b = s.spawn(|| paced_plan(addr, &stop, &mut paced_tracer));
        let mut rounds = 0;
        while rounds < min_rounds || window.seconds < seconds {
            let before = round_registry.is_none().then(registry::snapshot);
            let round_s = runner.round(tracer, &mut runs, checks);
            window.op_ms.push(round_s * 1e3);
            window.ops += 1;
            window.seconds += round_s;
            if let Some(before) = before {
                round_registry = Some((before, registry::snapshot()));
            }
            rounds += 1;
        }
        stop.store(true, Ordering::Release);
        b.join().expect("paced client panicked")
    });
    tracer.absorb(paced_tracer);
    checks.absorb(paced_checks);
    Stretch {
        runs,
        paced,
        window,
        round_registry: round_registry.expect("at least one round"),
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let started = serve::repeat_start(SETUP_REPS, |_: &Harness| classes(ctx.seed));
    let (harness, (classes, setup_checks), setup_s) = match started {
        Ok(v) => v,
        Err(e) => {
            report.checks.record(Some(e));
            return report;
        }
    };
    report.setup_s = setup_s;
    report.checks.absorb(setup_checks);

    let mut runner = Runner {
        classes: &classes,
        rng: DetRng::seed_from_u64(ctx.seed),
        addr: harness.addr,
    };
    let warm = Instant::now();
    let warmup = stretch(&mut runner, WARMUP_ROUNDS, 0.0, tracer, &mut report.checks);
    report.warmup_s = warm.elapsed().as_secs_f64();

    let checks = &mut report.checks;
    let (untraced, traced) = measure_window(ctx, tracer, |tracer, seconds| {
        stretch(&mut runner, 1, seconds, tracer, checks)
    });
    report.untraced = untraced.window.clone();
    if let Some(traced) = traced {
        crate::replay::serve_mixed_layers(
            &harness,
            &classes,
            &warmup,
            &untraced,
            &traced,
            tracer,
            &mut report,
        );
    }
    if let Err(e) = harness.stop() {
        report.checks.record(Some(e));
    }
    report
}
