//! Integration: the Chrome trace-event exporter produces well-formed
//! JSON for every algorithm's traced run, validated with the in-repo
//! strict parser (`syrk_server::json`).

use std::collections::BTreeMap;

use syrk_core::{run, Plan, RunSpec};
use syrk_dense::seeded_matrix;
use syrk_machine::{chrome_trace_json, timelines_csv, CostModel, Timeline};
use syrk_server::json::{parse as parse_json, Json};

fn all_traces() -> Vec<(&'static str, Vec<Timeline>)> {
    let a = seeded_matrix::<f64>(36, 8, 2);
    let traced = |plan| {
        let spec = RunSpec {
            trace: true,
            ..RunSpec::new(plan, CostModel::default())
        };
        run(&a, &spec).unwrap().traces.unwrap()
    };
    vec![
        ("1d", traced(Plan::OneD { p: 4 })),
        ("2d", traced(Plan::TwoD { c: 3 })),
        ("3d", traced(Plan::ThreeD { c: 2, p2: 2 })),
    ]
}

#[test]
fn chrome_trace_json_is_valid_for_all_algorithms() {
    for (name, traces) in all_traces() {
        let doc = parse_json(&chrome_trace_json(&traces))
            .unwrap_or_else(|e| panic!("{name}: exporter emitted invalid JSON: {e}"));
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms"),
            "{name}"
        );
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{name}: no traceEvents array"));
        assert!(!events.is_empty(), "{name}: empty trace");

        let mut slices = 0usize;
        let mut named_ranks = 0usize;
        let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{name}: event {i} has no ph"));
            match ph {
                "M" => {
                    assert_eq!(e.get("name").and_then(Json::as_str), Some("thread_name"));
                    named_ranks += 1;
                }
                "X" => {
                    // Required keys of a complete event.
                    for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                        assert!(e.get(key).is_some(), "{name}: event {i} lacks {key:?}");
                    }
                    let tid = e.get("tid").and_then(Json::as_f64).unwrap() as u64;
                    let ts = e.get("ts").and_then(Json::as_f64).unwrap();
                    let dur = e.get("dur").and_then(Json::as_f64).unwrap();
                    assert!(dur >= 0.0, "{name}: event {i} has negative dur");
                    // Per-rank timestamps are monotone non-decreasing.
                    if let Some(&prev) = last_ts.get(&tid) {
                        assert!(
                            ts >= prev,
                            "{name}: rank {tid} ts went backwards ({prev} -> {ts})"
                        );
                    }
                    last_ts.insert(tid, ts);
                    // args carry the attribution payload.
                    let args = e.get("args").unwrap_or_else(|| {
                        panic!("{name}: event {i} lacks args");
                    });
                    assert!(args.get("amount").and_then(Json::as_f64).is_some());
                    assert!(args.get("phase").is_some());
                    slices += 1;
                }
                other => panic!("{name}: unexpected ph {other:?}"),
            }
        }
        assert_eq!(
            named_ranks,
            traces.len(),
            "{name}: one metadata row per rank"
        );
        let total_events: usize = traces.iter().map(Vec::len).sum();
        assert_eq!(slices, total_events, "{name}: one slice per traced event");
    }
}

#[test]
fn csv_export_row_count_matches_events() {
    for (name, traces) in all_traces() {
        let csv = timelines_csv(&traces);
        let total_events: usize = traces.iter().map(Vec::len).sum();
        assert_eq!(csv.lines().count(), total_events + 1, "{name}");
        assert!(
            csv.starts_with("rank,kind,peer,amount,clock,phase\n"),
            "{name}"
        );
    }
}
