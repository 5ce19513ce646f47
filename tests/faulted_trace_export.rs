//! Export-format tests for faulted traced runs: the Chrome trace JSON
//! written for a run under fault injection must round-trip through the
//! strict JSON parser in `syrk_server::json` and carry the retry traffic
//! as named `retry:*` slices, so a Perfetto user can see exactly which
//! messages were retransmitted and why.

use syrk_core::{run, Plan, RunSpec};
use syrk_machine::telemetry::{FlightEvent, FlightKind, FlightRecording};
use syrk_machine::{
    chrome_trace_json, chrome_trace_json_with_wall, CostModel, FaultPlan, Timeline,
};
use syrk_server::json::{parse, Json};

/// Timelines of the traced 36 × 8, c = 3 run under `drop(0.4).corrupt(0.4)`.
fn faulted_traces(seed: u64) -> Vec<Timeline> {
    let a = syrk_dense::seeded_matrix::<f64>(36, 8, 1);
    let spec = RunSpec {
        faults: Some(FaultPlan::seeded(seed).drop(0.4).corrupt(0.4)),
        trace: true,
        ..RunSpec::new(Plan::TwoD { c: 3 }, CostModel::bandwidth_only())
    };
    let out = run(&a, &spec).expect("faulted 2D run must complete under bounded retries");
    out.traces.expect("the spec asks for tracing")
}

/// Names of all complete (`"ph": "X"`) slices in a parsed trace document.
fn slice_names(doc: &Json) -> Vec<String> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn faulted_chrome_trace_names_retry_slices_and_round_trips() {
    let traces = faulted_traces(7);
    let json = chrome_trace_json(&traces);
    let doc = parse(&json).expect("chrome trace JSON must be strict JSON");
    let names = slice_names(&doc);
    assert!(
        names.iter().any(|n| n == "retry:drop"),
        "no retry:drop slice in {} slices",
        names.len()
    );
    assert!(
        names.iter().any(|n| n == "retry:corrupt"),
        "no retry:corrupt slice in {} slices",
        names.len()
    );
    // Every slice is complete and well-formed: non-negative duration,
    // a pid/tid pair, and the retry slices also carry the phase in args.
    for e in doc.get("traceEvents").and_then(Json::as_arr).unwrap() {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        assert!(e.get("ts").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
        let name = e.get("name").and_then(Json::as_str).unwrap();
        if name.starts_with("retry:") {
            assert_eq!(
                e.get("args")
                    .and_then(|a| a.get("phase"))
                    .and_then(Json::as_str),
                Some(name),
                "retry slice must carry its phase in args"
            );
        }
    }
}

#[test]
fn faulted_runs_have_deterministic_retry_counts_per_seed() {
    // The per-message fault decisions are a pure function of
    // (seed, link, sequence number), so the *number* of retry slices of
    // each kind is reproducible run to run. (Byte-identical exports are
    // not guaranteed: receive-side screening charges at envelope-arrival
    // order, which the OS scheduler controls.)
    let retry_counts = |seed: u64| {
        let doc = parse(&chrome_trace_json(&faulted_traces(seed))).expect("strict JSON");
        let names = slice_names(&doc);
        let count = |n: &str| names.iter().filter(|x| *x == n).count();
        (count("retry:drop"), count("retry:corrupt"))
    };
    let first = retry_counts(7);
    assert!(first.0 > 0 && first.1 > 0, "seed 7 must fault something");
    assert_eq!(first, retry_counts(7));
}

#[test]
fn merged_wall_trace_round_trips_with_faulted_timelines() {
    let traces = faulted_traces(7);
    let rec = FlightRecording {
        events: vec![
            FlightEvent {
                tid: 0,
                kind: FlightKind::Task,
                start_ns: 500,
                end_ns: 2_500,
                arg: 0,
            },
            FlightEvent {
                tid: 1,
                kind: FlightKind::RecvBlock,
                start_ns: 700,
                end_ns: 700,
                arg: 2,
            },
        ],
        dropped: 1,
    };
    let json = chrome_trace_json_with_wall(&traces, &rec);
    let doc = parse(&json).expect("merged trace must be strict JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    // Both processes present: the simulated rows and the wall-clock rows.
    let pid_of = |e: &Json| e.get("pid").and_then(Json::as_f64).unwrap();
    assert!(events.iter().any(|e| pid_of(e) == 0.0));
    assert!(events.iter().any(|e| pid_of(e) == 1.0));
    // The retry slices survive the merge.
    assert!(slice_names(&doc).iter().any(|n| n == "retry:drop"));
    // The wall-clock process is named for the viewer.
    assert!(events.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("process_name")
            && e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                == Some("wall-clock")
    }));
}
