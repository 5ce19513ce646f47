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
    attribute_bounds, candidate_plans, gemm_lower_bound, plan, predicted_cost, ranked_plans, run,
    syrk_lower_bound, AttemptOutcome, Plan, RankedPlan, RecoveryPolicy, RecoveryReport, RunSpec,
    SyrkBound, SyrkRunResult,
};
use syrk_dense::seeded_matrix;
use syrk_machine::{CostModel, CostReport, FaultPlan};
use syrk_telemetry::{escape_json_into, registry};

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
            handle_plan(req).unwrap_or_else(|err| err)
        }
        ("GET", "/bounds") => {
            state::BOUNDS_REQUESTS.inc();
            handle_bounds(req).unwrap_or_else(|err| err)
        }
        ("POST", "/run") => {
            state::RUN_REQUESTS.inc();
            handle_run(state, req).unwrap_or_else(|err| err)
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
fn problem_params(req: &Request) -> Result<(usize, usize, usize), Response> {
    let n1 = required_usize(req, "n1")?;
    let n2 = required_usize(req, "n2")?;
    let p = required_usize(req, "p")?;
    if n1 < 2 {
        return Err(Response::json_error(
            422,
            "n1 must be at least 2 (Theorem 1 needs a nontrivial symmetric output)",
        ));
    }
    if p > state::MAX_PLAN_RANKS {
        return Err(Response::json_error(
            413,
            &format!(
                "p = {p} exceeds this server's planning cap of {}",
                state::MAX_PLAN_RANKS
            ),
        ));
    }
    Ok((n1, n2, p))
}

// ---------------------------------------------------------------------------
// JSON writers: every body is appended into one `String`.

fn write_plan(out: &mut String, plan: Plan) {
    let ranks = plan.ranks();
    let _ = match plan {
        Plan::OneD { p } => write!(out, "{{\"algorithm\": \"1d\", \"p\": {p}, \"ranks\": {p}}}"),
        Plan::TwoD { c } => write!(
            out,
            "{{\"algorithm\": \"2d\", \"c\": {c}, \"ranks\": {ranks}}}"
        ),
        Plan::ThreeD { c, p2 } => write!(
            out,
            "{{\"algorithm\": \"3d\", \"c\": {c}, \"p2\": {p2}, \"ranks\": {ranks}}}"
        ),
    };
}

fn write_ranked(out: &mut String, r: &RankedPlan) {
    out.push_str("{\"plan\": ");
    write_plan(out, r.plan);
    out.push_str(", \"predicted_cost\": ");
    write_f64(out, r.predicted_cost);
    out.push_str(", \"bound\": ");
    write_f64(out, r.bound);
    out.push('}');
}

fn write_bound(out: &mut String, b: &SyrkBound) {
    let _ = write!(out, "{{\"case\": \"{:?}\", \"w\": ", b.case);
    write_f64(out, b.w);
    out.push_str(", \"resident\": ");
    write_f64(out, b.resident);
    out.push_str(", \"communicated\": ");
    write_f64(out, b.communicated());
    out.push('}');
}

/// Finite floats in plain notation (strict JSON has no NaN/inf tokens).
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A JSON array of `items`, each appended by `write_item`.
fn write_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_item(out, item);
    }
    out.push(']');
}

/// The analytic per-term table for `plan`: the (phase, term, bound,
/// prediction) rows of `syrk_core::attribute_bounds`, rendered without a
/// run (an empty report leaves every `measured` at 0).
fn write_terms(out: &mut String, n1: usize, n2: usize, plan: Plan) {
    let no_run = CostReport::untagged(CostModel::default(), Vec::new());
    let table = attribute_bounds(n1, n2, plan, &no_run);
    write_list(out, &table.rows, |out, r| {
        let _ = write!(
            out,
            "{{\"phase\": \"{}\", \"term\": \"{}\", \"bound_term\": ",
            r.phase, r.term
        );
        write_f64(out, r.bound_term);
        out.push_str(", \"predicted\": ");
        write_f64(out, r.predicted);
        out.push('}');
    });
}

// ---------------------------------------------------------------------------
// GET /plan

fn handle_plan(req: &Request) -> Result<Response, Response> {
    let (n1, n2, p) = problem_params(req)?;
    let ranked = ranked_plans(n1, n2, p);
    let best = &ranked[0];
    // A candidate renders to ~130 bytes.
    let mut body = String::with_capacity(1024 + 136 * ranked.len());
    let _ = write!(body, "{{\"n1\": {n1}, \"n2\": {n2}, \"p\": {p}, \"best\": ");
    write_ranked(&mut body, best);
    body.push_str(", \"terms\": ");
    write_terms(&mut body, n1, n2, best.plan);
    body.push_str(", \"bound\": ");
    write_bound(&mut body, &syrk_lower_bound(n1, n2, p));
    body.push_str(", \"candidates\": ");
    write_list(&mut body, &ranked, write_ranked);
    body.push_str("}\n");
    Ok(Response::json(200, body))
}

// ---------------------------------------------------------------------------
// GET /bounds

fn handle_bounds(req: &Request) -> Result<Response, Response> {
    let (n1, n2, p) = problem_params(req)?;
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
    let mut body = String::with_capacity(2048);
    let _ = write!(body, "{{\"n1\": {n1}, \"n2\": {n2}, \"p\": {p}, \"syrk\": ");
    write_bound(&mut body, &syrk);
    body.push_str(", \"gemm\": ");
    write_bound(&mut body, &gemm);
    body.push_str(", \"gemm_over_syrk\": ");
    write_f64(&mut body, ratio);
    body.push_str(", \"attribution\": ");
    write_list(&mut body, best_of.iter().flatten(), |out, &(cost, pl)| {
        out.push_str("{\"plan\": ");
        write_plan(out, pl);
        out.push_str(", \"predicted_cost\": ");
        write_f64(out, cost);
        out.push_str(", \"terms\": ");
        write_terms(out, n1, n2, pl);
        out.push('}');
    });
    body.push_str("}\n");
    Ok(Response::json(200, body))
}

// ---------------------------------------------------------------------------
// POST /run

fn handle_run(state: &Arc<SharedState>, req: &Request) -> Result<Response, Response> {
    // Validate everything before asking admission for a slot, so
    // malformed requests never occupy run capacity.
    let n1 = required_usize(req, "n1")?;
    let n2 = required_usize(req, "n2")?;
    if n1 < 2 {
        return Err(Response::json_error(422, "n1 must be at least 2"));
    }
    let seed = optional_u64(req, "seed", 0)?;
    let body = parse_body(req)?;
    for section in ["recovery", "faults"] {
        if let Some(v) = body.as_ref().and_then(|b| b.get(section)) {
            if !matches!(v, Json::Obj(_)) {
                return Err(Response::json_error(
                    400,
                    &format!("body field {section:?} must be an object"),
                ));
            }
        }
    }
    // Fault injection: a deterministic crash of one rank, from the body
    // (`"faults": {"seed": S, "crash_rank": R, "crash_op": OP}`) or the
    // equivalent query parameters.
    let crash_rank = body_or_query_u64(body.as_ref(), "faults", "crash_rank", req, "crash_rank")?;
    let crash_op =
        body_or_query_u64(body.as_ref(), "faults", "crash_op", req, "crash_op")?.unwrap_or(1);
    let fault_seed =
        body_or_query_u64(body.as_ref(), "faults", "seed", req, "fault_seed")?.unwrap_or(0);
    let faults: Option<FaultPlan> =
        crash_rank.map(|r| FaultPlan::seeded(fault_seed).crash_rank(r as usize, crash_op));
    // Recovery: `"recovery": {"max_attempts": N}` (or ?max_attempts=N)
    // routes the run through the shrink-and-replan driver; an injected
    // crash without it gets the driver's default budget, so faulted runs
    // recover instead of 500ing.
    let max_attempts = body_or_query_u64(
        body.as_ref(),
        "recovery",
        "max_attempts",
        req,
        "max_attempts",
    )?;
    if max_attempts == Some(0) {
        return Err(Response::json_error(
            400,
            "recovery.max_attempts must be at least 1",
        ));
    }
    let policy = max_attempts
        .map(|n| RecoveryPolicy {
            max_attempts: n as usize,
        })
        .or_else(|| faults.is_some().then(RecoveryPolicy::default));
    let chosen: Plan = match req.query_param("alg").unwrap_or("auto") {
        "1d" => Plan::OneD {
            p: required_usize(req, "p")?,
        },
        "2d" => Plan::TwoD {
            c: required_usize(req, "c")?,
        },
        "3d" => Plan::ThreeD {
            c: required_usize(req, "c")?,
            p2: required_usize(req, "p2")?,
        },
        "auto" => {
            let p = problem_params(req)?.2;
            check_run_cells(n1, n2)?;
            plan(n1, n2, p).plan
        }
        other => {
            return Err(Response::json_error(
                400,
                &format!("alg must be one of 1d, 2d, 3d, auto; got {other:?}"),
            ))
        }
    };
    check_run_cells(n1, n2)?;
    if chosen.ranks() > state::MAX_RUN_RANKS {
        return Err(Response::json_error(
            413,
            &format!(
                "plan needs {} ranks, over this server's run cap of {}",
                chosen.ranks(),
                state::MAX_RUN_RANKS
            ),
        ));
    }

    // Admission: bounded concurrency, bounded queue, reject beyond.
    let permit = state.gate.admit(&state.running).map_err(|err| {
        state::RUN_REJECTED.inc();
        match err {
            AdmitError::QueueFull => Response::json_error(429, "run queue is full; retry later"),
            AdmitError::Draining => {
                Response::json_error(503, "server is draining; not accepting new runs")
            }
            AdmitError::QueueTimeout => Response::json_error(
                503,
                "timed out waiting for a run slot; retry after the indicated delay",
            )
            .with_header(
                "Retry-After",
                state.config.queue_wait.as_secs().max(1).to_string(),
            ),
        }
    })?;

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
            let mut body = String::with_capacity(1024);
            write_run(&mut body, n1, n2, seed, ran, &out.result, report);
            Ok(Response::json(200, body))
        }
        (Err(e), Some(policy)) => Err(Response::json_error(
            422,
            &format!("run failed after {} attempt(s): {e}", policy.max_attempts),
        )),
        (Err(e), None) => Err(Response::json_error(422, &format!("run failed: {e}"))),
    }
}

fn write_outcome(out: &mut String, outcome: &AttemptOutcome) {
    match outcome {
        AttemptOutcome::Completed => out.push_str("{\"kind\": \"completed\"}"),
        AttemptOutcome::Crashed { rank } => {
            let _ = write!(out, "{{\"kind\": \"crashed\", \"rank\": {rank}}}");
        }
        AttemptOutcome::Corrupted { detail } => {
            out.push_str("{\"kind\": \"corrupted\", \"detail\": \"");
            escape_json_into(out, detail);
            out.push_str("\"}");
        }
    }
}

fn write_recovery(out: &mut String, report: &RecoveryReport) {
    let _ = write!(out, "{{\"recovered\": {}, \"attempts\": ", report.recovered);
    write_list(out, &report.attempts, |out, a| {
        out.push_str("{\"plan\": ");
        write_plan(out, a.plan);
        let _ = write!(
            out,
            ", \"bound_case\": \"{:?}\", \"outcome\": ",
            a.bound_case
        );
        write_outcome(out, &a.outcome);
        out.push('}');
    });
    out.push_str(", \"ranks_lost\": ");
    write_list(out, &report.ranks_lost, |out, r| {
        let _ = write!(out, "{r}");
    });
    out.push_str(", \"final_plan\": ");
    write_plan(out, report.final_plan);
    let _ = write!(
        out,
        ", \"recovery_words\": {}, \"backoff_clock\": ",
        report.recovery_words
    );
    write_f64(out, report.backoff_clock);
    out.push('}');
}

fn write_run(
    out: &mut String,
    n1: usize,
    n2: usize,
    seed: u64,
    plan: Plan,
    run: &SyrkRunResult,
    recovery: Option<&RecoveryReport>,
) {
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
    let _ = write!(
        out,
        "{{\"n1\": {n1}, \"n2\": {n2}, \"seed\": {seed}, \"plan\": "
    );
    write_plan(out, plan);
    let _ = write!(
        out,
        ", \"cost\": {{\"max_words_sent\": {measured}, \"total_words\": {}, \
         \"max_flops\": {}, \"elapsed\": ",
        run.cost.total_words(),
        run.cost.max_flops(),
    );
    write_f64(out, run.cost.elapsed());
    out.push_str("}, \"bound\": ");
    write_bound(out, &bound);
    out.push_str(", \"measured_over_bound\": ");
    write_f64(out, ratio);
    out.push_str(", \"terms\": ");
    write_terms(out, n1, n2, plan);
    out.push_str(", \"c_checksum\": ");
    write_f64(out, checksum);
    if let Some(r) = recovery {
        out.push_str(", \"recovery\": ");
        write_recovery(out, r);
    }
    out.push_str("}\n");
}

/// The 413 owed to a `/run` whose `n1·n2` input is over the cell cap.
fn check_run_cells(n1: usize, n2: usize) -> Result<(), Response> {
    let cells = n1.saturating_mul(n2);
    if cells > state::MAX_RUN_CELLS {
        return Err(Response::json_error(
            413,
            &format!(
                "n1*n2 = {cells} exceeds this server's run cap of {} cells",
                state::MAX_RUN_CELLS
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// GET /status

fn handle_status(state: &Arc<SharedState>) -> Response {
    let snap = registry::snapshot();
    let (active, queued) = state.gate.depth();
    let inflight = snap.gauge("syrk_server_inflight").unwrap_or(0);
    let requests = snap.counter("syrk_server_requests").unwrap_or(0);
    let rejected = snap.counter("syrk_server_run_rejected").unwrap_or(0);
    let uptime = state.started.elapsed().as_secs();
    let running = state.running.load(Ordering::Acquire);
    fn row(html: &mut String, k: &str, v: impl std::fmt::Display) {
        let _ = writeln!(html, "<tr><td>{k}</td><td>{v}</td></tr>");
    }
    let mut html = String::with_capacity(1024);
    html.push_str("<!DOCTYPE html>\n<html><head><title>syrk-server status</title></head><body>\n");
    html.push_str("<h1>syrk-server</h1>\n<table>\n");
    row(
        &mut html,
        "state",
        if running { "running" } else { "draining" },
    );
    row(&mut html, "uptime_seconds", uptime);
    row(&mut html, "requests_total", requests);
    row(&mut html, "inflight_requests", inflight);
    row(&mut html, "runs_active", active);
    row(&mut html, "run_queue_depth", queued);
    row(&mut html, "runs_rejected", rejected);
    html.push_str("</table>\n</body></html>\n");
    Response::html(200, html)
}
