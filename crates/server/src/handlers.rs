//! Endpoint handlers: route a parsed [`Request`] to a [`Response`].
//!
//! Every endpoint renders JSON by hand (the workspace is
//! dependency-free); the output is strict JSON — the integration tests
//! round-trip every body through [`crate::json`]'s strict parser.
//! Handlers never panic on client input: bad parameters become 4xx
//! documents, and algorithm errors (unsupported grid orders, empty
//! matrices) become 422s with the error text.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use syrk_core::{
    attribute_bounds, candidate_plans, gemm_lower_bound, plan, predicted_cost, run,
    syrk_lower_bound, AttemptOutcome, Plan, RankedPlan, RecoveryPolicy, RecoveryReport, RunSpec,
    SyrkBound, SyrkRunResult,
};
use syrk_dense::seeded_matrix;
use syrk_machine::{CostModel, CostReport, FaultPlan};
use syrk_telemetry::{escape_json, registry};

use crate::http::{Request, Response};
use crate::json::{self, Json};
use crate::state::{self, AdmitError, SharedState};

/// Dispatch one request. Also the place where per-endpoint counters and
/// the latency histogram are recorded.
pub fn handle(state: &Arc<SharedState>, req: &Request) -> Response {
    let started = Instant::now();
    state::REQUESTS.inc();
    let resp = route(state, req);
    if (400..500).contains(&resp.status) {
        state::RESPONSES_4XX.inc();
    } else if resp.status >= 500 {
        state::RESPONSES_5XX.inc();
    }
    state::REQUEST_NANOS.observe(started.elapsed().as_nanos() as u64);
    resp
}

fn route(state: &Arc<SharedState>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/plan") => {
            state::PLAN_REQUESTS.inc();
            handle_plan(state, req)
        }
        ("GET", "/bounds") => {
            state::BOUNDS_REQUESTS.inc();
            handle_bounds(state, req)
        }
        ("POST", "/run") => {
            state::RUN_REQUESTS.inc();
            handle_run(state, req)
        }
        ("GET", "/metrics") => {
            state::METRICS_REQUESTS.inc();
            Response::text(200, syrk_telemetry::prometheus_text(&registry::snapshot()))
        }
        ("GET", "/status") => {
            state::STATUS_REQUESTS.inc();
            handle_status(state)
        }
        ("POST", "/shutdown") => {
            state.shutdown();
            Response::json(200, "{\"ok\": true, \"draining\": true}\n".to_string())
        }
        (_, "/plan" | "/bounds" | "/metrics" | "/status") => {
            Response::json_error(405, "use GET for this endpoint")
        }
        (_, "/run" | "/shutdown") => Response::json_error(405, "use POST for this endpoint"),
        _ => Response::json_error(404, &format!("no such endpoint {}", req.path)),
    }
}

// ---------------------------------------------------------------------------
// Parameter parsing

/// A required positive-integer query parameter; `Err` is the 400
/// response the client is owed.
fn required_usize(req: &Request, name: &str) -> Result<usize, Response> {
    let raw = req
        .query_param(name)
        .ok_or_else(|| Response::json_error(400, &format!("missing query parameter {name:?}")))?;
    raw.parse::<usize>()
        .ok()
        .filter(|&v| v >= 1)
        .ok_or_else(|| {
            Response::json_error(
                400,
                &format!("query parameter {name:?} must be a positive integer, got {raw:?}"),
            )
        })
}

fn optional_u64(req: &Request, name: &str, default: u64) -> Result<u64, Response> {
    match req.query_param(name) {
        None => Ok(default),
        Some(raw) => raw.parse::<u64>().map_err(|_| {
            Response::json_error(
                400,
                &format!("query parameter {name:?} must be an integer, got {raw:?}"),
            )
        }),
    }
}

/// Parse the optional JSON request body. An empty (or all-whitespace)
/// body is `None`; a malformed one is the 400 the client is owed.
fn parse_body(req: &Request) -> Result<Option<Json>, Response> {
    if req.body.is_empty() {
        return Ok(None);
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::json_error(400, "request body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    json::parse(text)
        .map(Some)
        .map_err(|e| Response::json_error(400, &format!("malformed JSON body: {e}")))
}

/// An optional non-negative integer for `/run`, read from the body
/// member `section.key` when present, else the query parameter `qname`.
fn body_or_query_u64(
    body: Option<&Json>,
    section: &str,
    key: &str,
    req: &Request,
    qname: &str,
) -> Result<Option<u64>, Response> {
    if let Some(v) = body.and_then(|b| b.get(section)).and_then(|s| s.get(key)) {
        return v.as_u64().map(Some).ok_or_else(|| {
            Response::json_error(
                400,
                &format!("body field {section}.{key} must be a non-negative integer"),
            )
        });
    }
    match req.query_param(qname) {
        None => Ok(None),
        Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| {
            Response::json_error(
                400,
                &format!("query parameter {qname:?} must be a non-negative integer, got {raw:?}"),
            )
        }),
    }
}

/// Parse the common `(n1, n2, p)` triple and enforce the planner's
/// domain (`n1 ≥ 2` for Theorem 1) and the CPU cap on `p`.
fn problem_params(state: &SharedState, req: &Request) -> Result<(usize, usize, usize), Response> {
    let n1 = required_usize(req, "n1")?;
    let n2 = required_usize(req, "n2")?;
    let p = required_usize(req, "p")?;
    if n1 < 2 {
        return Err(Response::json_error(
            422,
            "n1 must be at least 2 (Theorem 1 needs a nontrivial symmetric output)",
        ));
    }
    if p > state.config.max_plan_ranks {
        return Err(Response::json_error(
            413,
            &format!(
                "p = {p} exceeds this server's planning cap of {}",
                state.config.max_plan_ranks
            ),
        ));
    }
    Ok((n1, n2, p))
}

// ---------------------------------------------------------------------------
// JSON rendering helpers

fn json_plan(plan: Plan) -> String {
    match plan {
        Plan::OneD { p } => format!("{{\"algorithm\": \"1d\", \"p\": {p}, \"ranks\": {p}}}"),
        Plan::TwoD { c } => format!(
            "{{\"algorithm\": \"2d\", \"c\": {c}, \"ranks\": {}}}",
            plan.ranks()
        ),
        Plan::ThreeD { c, p2 } => format!(
            "{{\"algorithm\": \"3d\", \"c\": {c}, \"p2\": {p2}, \"ranks\": {}}}",
            plan.ranks()
        ),
    }
}

fn json_ranked(r: &RankedPlan) -> String {
    format!(
        "{{\"plan\": {}, \"predicted_cost\": {}, \"bound\": {}}}",
        json_plan(r.plan),
        json_f64(r.predicted_cost),
        json_f64(r.bound)
    )
}

fn json_bound(b: &SyrkBound) -> String {
    format!(
        "{{\"case\": \"{:?}\", \"w\": {}, \"resident\": {}, \"communicated\": {}}}",
        b.case,
        json_f64(b.w),
        json_f64(b.resident),
        json_f64(b.communicated())
    )
}

/// Finite floats in plain notation (strict JSON has no NaN/inf tokens).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The analytic per-term table for `plan`: the (phase, term, bound,
/// prediction) rows of `syrk_core::attribute_bounds`, rendered without a
/// run (an empty report leaves every `measured` at 0).
fn json_terms(n1: usize, n2: usize, plan: Plan) -> String {
    let no_run = CostReport::untagged(CostModel::default(), Vec::new());
    let body: Vec<String> = (attribute_bounds(n1, n2, plan, &no_run).rows.iter())
        .map(|r| {
            format!(
                "{{\"phase\": \"{}\", \"term\": \"{}\", \"bound_term\": {}, \
                 \"predicted\": {}}}",
                r.phase,
                r.term,
                json_f64(r.bound_term),
                json_f64(r.predicted)
            )
        })
        .collect();
    format!("[{}]", body.join(", "))
}

// ---------------------------------------------------------------------------
// GET /plan

fn handle_plan(state: &Arc<SharedState>, req: &Request) -> Response {
    let (n1, n2, p) = match problem_params(state, req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let best = plan(n1, n2, p);
    let bound = syrk_lower_bound(n1, n2, p);
    let mut ranked: Vec<RankedPlan> = candidate_plans(p)
        .into_iter()
        .map(|pl| RankedPlan {
            plan: pl,
            predicted_cost: predicted_cost(n1, n2, pl),
            bound: syrk_lower_bound(n1, n2, pl.ranks()).communicated(),
        })
        .collect();
    ranked.sort_by(|a, b| a.predicted_cost.total_cmp(&b.predicted_cost));
    let candidates: Vec<String> = ranked.iter().map(json_ranked).collect();
    let body = format!(
        "{{\"n1\": {n1}, \"n2\": {n2}, \"p\": {p}, \"best\": {}, \"terms\": {}, \
         \"bound\": {}, \"candidates\": [{}]}}\n",
        json_ranked(&best),
        json_terms(n1, n2, best.plan),
        json_bound(&bound),
        candidates.join(", ")
    );
    Response::json(200, body)
}

// ---------------------------------------------------------------------------
// GET /bounds

fn handle_bounds(state: &Arc<SharedState>, req: &Request) -> Response {
    let (n1, n2, p) = match problem_params(state, req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let syrk = syrk_lower_bound(n1, n2, p);
    let gemm = gemm_lower_bound(n1, n2, p);
    let ratio = if syrk.communicated() > 0.0 {
        gemm.communicated() / syrk.communicated()
    } else {
        f64::NAN
    };
    // One attribution table per algorithm family at this rank budget —
    // the cheapest feasible grid of each family keeps the table short.
    let mut best_of: [Option<(f64, Plan)>; 3] = [None, None, None];
    for pl in candidate_plans(p) {
        let family = match pl {
            Plan::OneD { .. } => 0,
            Plan::TwoD { .. } => 1,
            Plan::ThreeD { .. } => 2,
        };
        let cost = predicted_cost(n1, n2, pl);
        if best_of[family].is_none_or(|(c, _)| cost < c) {
            best_of[family] = Some((cost, pl));
        }
    }
    let tables: Vec<String> = best_of
        .iter()
        .flatten()
        .map(|&(cost, pl)| {
            format!(
                "{{\"plan\": {}, \"predicted_cost\": {}, \"terms\": {}}}",
                json_plan(pl),
                json_f64(cost),
                json_terms(n1, n2, pl)
            )
        })
        .collect();
    let body = format!(
        "{{\"n1\": {n1}, \"n2\": {n2}, \"p\": {p}, \"syrk\": {}, \"gemm\": {}, \
         \"gemm_over_syrk\": {}, \"attribution\": [{}]}}\n",
        json_bound(&syrk),
        json_bound(&gemm),
        json_f64(ratio),
        tables.join(", ")
    );
    Response::json(200, body)
}

// ---------------------------------------------------------------------------
// POST /run

fn handle_run(state: &Arc<SharedState>, req: &Request) -> Response {
    // Validate everything before asking admission for a slot, so
    // malformed requests never occupy run capacity.
    let n1 = match required_usize(req, "n1") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let n2 = match required_usize(req, "n2") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if n1 < 2 {
        return Response::json_error(422, "n1 must be at least 2");
    }
    let seed = match optional_u64(req, "seed", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    for section in ["recovery", "faults"] {
        if let Some(v) = body.as_ref().and_then(|b| b.get(section)) {
            if !matches!(v, Json::Obj(_)) {
                return Response::json_error(
                    400,
                    &format!("body field {section:?} must be an object"),
                );
            }
        }
    }
    // Fault injection: a deterministic crash of one rank, from the body
    // (`"faults": {"seed": S, "crash_rank": R, "crash_op": OP}`) or the
    // equivalent query parameters.
    let crash_rank =
        match body_or_query_u64(body.as_ref(), "faults", "crash_rank", req, "crash_rank") {
            Ok(v) => v,
            Err(resp) => return resp,
        };
    let crash_op = match body_or_query_u64(body.as_ref(), "faults", "crash_op", req, "crash_op") {
        Ok(v) => v.unwrap_or(1),
        Err(resp) => return resp,
    };
    let fault_seed = match body_or_query_u64(body.as_ref(), "faults", "seed", req, "fault_seed") {
        Ok(v) => v.unwrap_or(0),
        Err(resp) => return resp,
    };
    let faults: Option<FaultPlan> =
        crash_rank.map(|r| FaultPlan::seeded(fault_seed).crash_rank(r as usize, crash_op));
    // Recovery: `"recovery": {"max_attempts": N}` (or ?max_attempts=N)
    // routes the run through the shrink-and-replan driver; an injected
    // crash without it gets the driver's default budget, so faulted runs
    // recover instead of 500ing.
    let max_attempts = match body_or_query_u64(
        body.as_ref(),
        "recovery",
        "max_attempts",
        req,
        "max_attempts",
    ) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    if max_attempts == Some(0) {
        return Response::json_error(400, "recovery.max_attempts must be at least 1");
    }
    let policy = max_attempts
        .map(|n| RecoveryPolicy {
            max_attempts: n as usize,
            ..RecoveryPolicy::default()
        })
        .or_else(|| faults.is_some().then(RecoveryPolicy::default));
    let alg = req.query_param("alg").unwrap_or("auto");
    let chosen: Plan = match alg {
        "1d" => match required_usize(req, "p") {
            Ok(p) => Plan::OneD { p },
            Err(resp) => return resp,
        },
        "2d" => match required_usize(req, "c") {
            Ok(c) => Plan::TwoD { c },
            Err(resp) => return resp,
        },
        "3d" => match (required_usize(req, "c"), required_usize(req, "p2")) {
            (Ok(c), Ok(p2)) => Plan::ThreeD { c, p2 },
            (Err(resp), _) | (_, Err(resp)) => return resp,
        },
        "auto" => match problem_params(state, req) {
            Ok((_, _, p)) => plan(n1, n2, p).plan,
            Err(resp) => return resp,
        },
        other => {
            return Response::json_error(
                400,
                &format!("alg must be one of 1d, 2d, 3d, auto; got {other:?}"),
            )
        }
    };
    let cells = n1.saturating_mul(n2);
    if cells > state.config.max_run_cells {
        return Response::json_error(
            413,
            &format!(
                "n1*n2 = {cells} exceeds this server's run cap of {} cells",
                state.config.max_run_cells
            ),
        );
    }
    if chosen.ranks() > state.config.max_run_ranks {
        return Response::json_error(
            413,
            &format!(
                "plan needs {} ranks, over this server's run cap of {}",
                chosen.ranks(),
                state.config.max_run_ranks
            ),
        );
    }

    // Admission: bounded concurrency, bounded queue, reject beyond.
    let permit = match state.gate.admit(&state.running) {
        Ok(p) => p,
        Err(AdmitError::QueueFull) => {
            state::RUN_REJECTED.inc();
            return Response::json_error(429, "run queue is full; retry later");
        }
        Err(AdmitError::Draining) => {
            state::RUN_REJECTED.inc();
            return Response::json_error(503, "server is draining; not accepting new runs");
        }
        Err(AdmitError::QueueTimeout) => {
            state::RUN_REJECTED.inc();
            let retry = state.config.queue_wait.as_secs().max(1);
            return Response::json_error(
                503,
                "timed out waiting for a run slot; retry after the indicated delay",
            )
            .with_header("Retry-After", retry.to_string());
        }
    };

    // One spec per request; its failure dumps, if the server was
    // configured with a dump directory, go to a per-run file.
    let spec = RunSpec {
        faults,
        recovery: policy,
        dump: state.config.dump_dir.as_ref().map(|dir| {
            let seq = state.run_seq.fetch_add(1, Ordering::Relaxed);
            dir.join(format!("run_{seq}.json"))
        }),
        ..RunSpec::new(chosen, CostModel::bandwidth_only())
    };
    let a = seeded_matrix::<f64>(n1, n2, seed);
    let result = run(&a, &spec);
    drop(permit);

    match (result, &spec.recovery) {
        (Ok(out), _) => {
            let report = out.recovery.as_ref();
            let ran = report.map_or(chosen, |r| r.final_plan);
            Response::json(200, render_run(n1, n2, seed, ran, &out.result, report))
        }
        (Err(e), Some(policy)) => Response::json_error(
            422,
            &format!("run failed after {} attempt(s): {e}", policy.max_attempts),
        ),
        (Err(e), None) => Response::json_error(422, &format!("run failed: {e}")),
    }
}

fn json_outcome(outcome: &AttemptOutcome) -> String {
    match outcome {
        AttemptOutcome::Completed => "{\"kind\": \"completed\"}".to_string(),
        AttemptOutcome::Crashed { rank } => {
            format!("{{\"kind\": \"crashed\", \"rank\": {rank}}}")
        }
        AttemptOutcome::Corrupted { detail } => {
            format!(
                "{{\"kind\": \"corrupted\", \"detail\": \"{}\"}}",
                escape_json(detail)
            )
        }
    }
}

fn json_recovery(report: &RecoveryReport) -> String {
    let attempts: Vec<String> = report
        .attempts
        .iter()
        .map(|a| {
            format!(
                "{{\"plan\": {}, \"bound_case\": \"{:?}\", \"outcome\": {}}}",
                json_plan(a.plan),
                a.bound_case,
                json_outcome(&a.outcome)
            )
        })
        .collect();
    let lost: Vec<String> = report.ranks_lost.iter().map(|r| r.to_string()).collect();
    format!(
        "{{\"recovered\": {}, \"attempts\": [{}], \"ranks_lost\": [{}], \
         \"final_plan\": {}, \"recovery_words\": {}, \"backoff_clock\": {}}}",
        report.recovered,
        attempts.join(", "),
        lost.join(", "),
        json_plan(report.final_plan),
        report.recovery_words,
        json_f64(report.backoff_clock)
    )
}

fn render_run(
    n1: usize,
    n2: usize,
    seed: u64,
    plan: Plan,
    run: &SyrkRunResult,
    recovery: Option<&RecoveryReport>,
) -> String {
    let bound = syrk_lower_bound(n1, n2, plan.ranks());
    let measured = run.cost.max_words_sent();
    let ratio = if bound.communicated() > 0.0 {
        measured as f64 / bound.communicated()
    } else {
        f64::NAN
    };
    // A small output fingerprint so clients can check determinism
    // without shipping the n1×n1 matrix over the wire.
    let checksum: f64 = run.c.as_slice().iter().sum();
    let recovery_frag = recovery
        .map(|r| format!(", \"recovery\": {}", json_recovery(r)))
        .unwrap_or_default();
    let mut body = String::with_capacity(512);
    let _ = writeln!(
        body,
        "{{\"n1\": {n1}, \"n2\": {n2}, \"seed\": {seed}, \"plan\": {}, \
         \"cost\": {{\"max_words_sent\": {measured}, \"total_words\": {}, \
         \"max_flops\": {}, \"elapsed\": {}}}, \
         \"bound\": {}, \"measured_over_bound\": {}, \"terms\": {}, \
         \"c_checksum\": {}{recovery_frag}}}",
        json_plan(plan),
        run.cost.total_words(),
        run.cost.max_flops(),
        json_f64(run.cost.elapsed()),
        json_bound(&bound),
        json_f64(ratio),
        json_terms(n1, n2, plan),
        json_f64(checksum)
    );
    body
}

// ---------------------------------------------------------------------------
// GET /status

fn handle_status(state: &Arc<SharedState>) -> Response {
    let snap = registry::snapshot();
    let hits = snap.counter("syrk_plan_cache_hits").unwrap_or(0);
    let misses = snap.counter("syrk_plan_cache_misses").unwrap_or(0);
    let evictions = snap.counter("syrk_plan_cache_evictions").unwrap_or(0);
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let (active, queued) = state.gate.depth();
    let inflight = snap.gauge("syrk_server_inflight").unwrap_or(0);
    let requests = snap.counter("syrk_server_requests").unwrap_or(0);
    let rejected = snap.counter("syrk_server_run_rejected").unwrap_or(0);
    let uptime = state.started.elapsed().as_secs();
    let running = state.running.load(Ordering::Acquire);
    fn row(html: &mut String, k: &str, v: String) {
        let _ = writeln!(html, "<tr><td>{k}</td><td>{v}</td></tr>");
    }
    let mut html = String::with_capacity(1024);
    html.push_str("<!DOCTYPE html>\n<html><head><title>syrk-server status</title></head><body>\n");
    html.push_str("<h1>syrk-server</h1>\n<table>\n");
    row(
        &mut html,
        "state",
        if running { "running" } else { "draining" }.into(),
    );
    row(&mut html, "uptime_seconds", format!("{uptime}"));
    row(&mut html, "requests_total", format!("{requests}"));
    row(&mut html, "inflight_requests", format!("{inflight}"));
    row(&mut html, "runs_active", format!("{active}"));
    row(&mut html, "run_queue_depth", format!("{queued}"));
    row(&mut html, "runs_rejected", format!("{rejected}"));
    row(&mut html, "plan_cache_hits", format!("{hits}"));
    row(&mut html, "plan_cache_misses", format!("{misses}"));
    row(&mut html, "plan_cache_hit_rate", format!("{hit_rate:.4}"));
    row(&mut html, "plan_cache_evictions", format!("{evictions}"));
    row(
        &mut html,
        "plan_cache_len",
        format!("{}", syrk_core::plan_cache_len()),
    );
    html.push_str("</table>\n</body></html>\n");
    Response::html(200, html)
}
