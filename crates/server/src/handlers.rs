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
    attribute_bounds, candidate_plans, gemm_lower_bound, parse_run_spec, predicted_cost,
    ranked_plans, run, syrk_lower_bound, AttemptOutcome, Plan, RankedPlan, RecoveryReport,
    SpecError, SyrkBound, SyrkRunResult,
};
use syrk_dense::seeded_matrix;
use syrk_machine::{CostModel, CostReport};
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
    let (cells, cap) = (n1.saturating_mul(n2), state::MAX_RUN_CELLS);
    if cells > cap {
        let msg = format!("n1*n2 = {cells} exceeds this server's run cap of {cap} cells");
        return Err(Response::json_error(413, &msg));
    }
    let pairs = run_pairs(req)?;
    let mut spec = parse_run_spec(n1, n2, state::MAX_PLAN_RANKS, &pairs).map_err(|e| match e {
        SpecError::OverBudget(..) => Response::json_error(413, &e.to_string()),
        _ => Response::json_error(400, &e.to_string()),
    })?;
    let chosen = spec.plan;
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

    // A run's failure dumps, if the server was configured with a dump
    // directory, go to a file of its own.
    spec.dump = state.config.dump_dir.as_ref().map(|dir| {
        let seq = state.run_seq.fetch_add(1, Ordering::Relaxed);
        dir.join(format!("run_{seq}.json"))
    });
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

/// A `/run` as the text form of a run: every query pair but the
/// request fields `n1`, `n2` and `seed`, then every `section.key` leaf of
/// the JSON body (`faults.seed` is `fault_seed`), so the body beats the
/// query.
fn run_pairs(req: &Request) -> Result<Vec<(String, String)>, Response> {
    let mut pairs = req.query.clone();
    pairs.retain(|(k, _)| !["n1", "n2", "seed"].contains(&k.as_str()));
    let sections = match parse_body(req)? {
        None => Vec::new(),
        Some(Json::Obj(sections)) => sections,
        Some(_) => return Err(Response::json_error(400, "body must be a JSON object")),
    };
    for (section, members) in sections {
        let Json::Obj(members) = members else {
            let msg = format!("body field {section:?} must be an object");
            return Err(Response::json_error(400, &msg));
        };
        for (key, value) in members {
            let key = match (section.as_str(), key.as_str()) {
                ("faults", "seed") => "fault_seed".to_string(),
                ("faults", "crash_rank" | "crash_op") | ("recovery", "max_attempts") => key,
                _ => format!("{section}.{key}"),
            };
            let value = match value {
                Json::Num(n) => n.to_string(),
                Json::Str(s) => format!("{s:?}"),
                other => format!("{other:?}"),
            };
            pairs.push((key, value));
        }
    }
    Ok(pairs)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::split_target;
    use syrk_bench::trace::trace_pairs;
    use syrk_dense::DetRng;

    include!("../tests/support/run_table.rs");

    /// The argument lines CI traces, but the 10⁴-rank smokes.
    const TRACE_LINES: [&str; 6] = [
        "1d",
        "2d",
        "3d",
        "plan",
        "2d 36 8 3 --faults seed=7,drop=0.2,dup=0.1,delay=0.2,skew=2.0,corrupt=0.05",
        "2d 36 8 3 crash_rank=1 crash_op=2 max_attempts=3",
    ];

    /// A `POST /run?{query}` with `body`; `None` when the target is
    /// malformed, which the HTTP layer answers before any handler.
    fn request(query: &str, body: &str) -> Option<Request> {
        let (path, query) = split_target(&format!("/run?{query}")).ok()?;
        let (method, body) = ("POST".to_string(), body.as_bytes().to_vec());
        Some(Request {
            method,
            path,
            query,
            body,
        })
    }

    type Pairs = Vec<(String, String)>;

    /// A `/run`'s input shape and run pairs, as `handle_run` reads them.
    fn read(req: &Request) -> Option<(usize, usize, Pairs)> {
        let n1 = required_usize(req, "n1").ok()?;
        Some((n1, required_usize(req, "n2").ok()?, run_pairs(req).ok()?))
    }

    #[test]
    fn a_run_and_its_trace_line_read_one_spec() {
        // `serve_mixed`'s five classes: each request's pairs, passed to
        // `trace` after the matching mode and shape, with and without the
        // plan keys the mode and shape already give.
        let crash = r#"{"faults": {"crash_rank": 3, "crash_op": 2}}"#;
        for (query, body, line) in [
            ("alg=1d&n1=256&n2=2048&p=8", "", "1d 256 2048 8"),
            ("alg=2d&n1=338&n2=64&c=13", "", "2d 338 64 13"),
            ("alg=3d&n1=240&n2=240&c=3&p2=2", "", "3d 240 240 3 2"),
            ("alg=auto&n1=480&n2=480&p=30", "", "plan 480 480 30"),
            ("alg=2d&n1=338&n2=64&c=13", crash, "2d 338 64 13"),
        ] {
            let req = request(&format!("{query}&seed=5"), body).expect("well-formed target");
            let (n1, n2, pairs) = read(&req).expect("a valid request");
            let served = parse_run_spec(n1, n2, state::MAX_PLAN_RANKS, &pairs).expect("parses");
            assert_eq!(served.recovery.is_some(), !body.is_empty(), "{query}");
            for with_plan in [true, false] {
                let plan_key = |k: &str| ["alg", "p", "c", "p2"].contains(&k);
                let given = pairs.iter().filter(|(k, _)| with_plan || !plan_key(k));
                let mut args: Vec<String> = line.split(' ').map(String::from).collect();
                args.extend(given.map(|(k, v)| format!("{k}={v}")));
                let (_, t1, t2, traced) = trace_pairs(args).expect("a valid line");
                assert_eq!((t1, t2), (n1, n2), "{line}");
                let traced = parse_run_spec(t1, t2, usize::MAX, &traced);
                assert_eq!(traced.as_ref(), Ok(&served), "{line}");
            }
        }
    }

    /// `text` with one to three printable-ASCII bytes replaced, inserted
    /// or deleted.
    fn mutate(rng: &mut DetRng, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..=rng.gen_below(3) {
            let at = rng.gen_range(0, bytes.len() + 1);
            let byte = b' ' + rng.gen_below(95) as u8;
            match rng.gen_below(3) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.insert(at, byte),
            }
        }
        String::from_utf8(bytes).expect("printable ASCII")
    }

    /// A spec parses, or its error names a key of `pairs` with its raw
    /// value (a missing key: one `pairs` lacks); an accepted spec's
    /// probabilities are in [0, 1] and its retries at most 64.
    fn check(n1: usize, n2: usize, pairs: &[(String, String)]) {
        let given = |key: &str, value: &str| pairs.iter().any(|(k, v)| k == key && v == value);
        match parse_run_spec(n1, n2, state::MAX_RUN_RANKS, pairs) {
            Ok(spec) => {
                let Some(faults) = spec.faults else { return };
                // `FaultPlan`'s fields are private; its `Debug` form shows them.
                let debug = format!("{faults:?}");
                let field = |name: &str| -> f64 {
                    let rest =
                        &debug[debug.find(&format!("{name}: ")).expect(name) + name.len() + 2..];
                    rest[..rest.find([',', ' ']).expect("more fields")]
                        .parse()
                        .expect(name)
                };
                for name in ["drop_p", "dup_p", "delay_p", "corrupt_p"] {
                    assert!((0.0..=1.0).contains(&field(name)), "{pairs:?}");
                }
                assert!(field("max_retries") <= 64.0, "{pairs:?}");
            }
            Err(SpecError::Invalid(key, Some(value), _)) => {
                assert!(given(&key, &value), "{key}={value} not in {pairs:?}");
            }
            Err(SpecError::Invalid(key, None, _)) => {
                assert!(pairs.iter().all(|(k, _)| *k != key), "{key} in {pairs:?}")
            }
            Err(SpecError::OverBudget(value, _)) => assert!(given("p", &value)),
        }
    }

    #[test]
    fn mutated_runs_parse_or_name_their_key() {
        // 10³ mutants of each input, over 4·10⁴ in all, keep the test
        // well under a second in a debug build.
        const MUTANTS: usize = 1_000;
        let mut rng = DetRng::seed_from_u64(49);
        let mut queries: Vec<&str> = RUN_TABLE.iter().map(|row| row.0).collect();
        let mut bodies: Vec<&str> = RUN_TABLE.iter().map(|row| row.1).collect();
        for inputs in [&mut queries, &mut bodies] {
            inputs.sort_unstable();
            inputs.dedup();
        }
        for query in queries {
            for _ in 0..MUTANTS {
                let Some(req) = request(&mutate(&mut rng, query), "") else {
                    continue;
                };
                if let Some((n1, n2, pairs)) = read(&req) {
                    check(n1, n2, &pairs);
                }
            }
        }
        for body in bodies {
            for _ in 0..MUTANTS {
                let req = request("alg=2d&n1=36&n2=8&c=3", &mutate(&mut rng, body)).unwrap();
                if let Some((n1, n2, pairs)) = read(&req) {
                    check(n1, n2, &pairs);
                }
            }
        }
        for line in TRACE_LINES {
            for _ in 0..MUTANTS {
                let args = mutate(&mut rng, line)
                    .split_whitespace()
                    .map(String::from)
                    .collect();
                if let Ok((_, n1, n2, pairs)) = trace_pairs(args) {
                    check(n1, n2, &pairs);
                }
            }
        }
    }
}
