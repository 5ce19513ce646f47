//! The trace and metrics documents, pinned byte for byte: the Chrome
//! trace of a fixed two-rank timeline merged with a two-event wall-clock
//! recording, and the JSON of a fixed metrics snapshot.

use syrk_machine::telemetry::{snapshot_json, FlightEvent, FlightKind, FlightRecording};
use syrk_machine::telemetry::{MetricValue, MetricsSnapshot};
use syrk_machine::{chrome_trace_json_with_wall, Event, EventKind, Timeline};

fn timelines() -> Vec<Timeline> {
    let ev = |kind, peer, amount, clock, phase| Event {
        kind,
        peer,
        amount,
        clock,
        phase,
    };
    vec![
        vec![
            ev(EventKind::Send, 1, 8, 8.0, Some("allgather-A")),
            ev(EventKind::Flops, usize::MAX, 40, 10.5, None),
        ],
        vec![
            ev(EventKind::Recv, 0, 8, 8.0, Some("allgather-A")),
            ev(EventKind::Exchange, 0, 3, 11.25, Some("say \"hi\"")),
        ],
    ]
}

fn recording() -> FlightRecording {
    FlightRecording {
        events: vec![
            FlightEvent {
                tid: 0,
                kind: FlightKind::Task,
                start_ns: 10_000,
                end_ns: 31_500,
                arg: 2,
            },
            FlightEvent {
                tid: 3,
                kind: FlightKind::PackWait,
                start_ns: 15_250,
                end_ns: 15_250,
                arg: 1,
            },
        ],
        dropped: 0,
    }
}

fn snapshot() -> MetricsSnapshot {
    let mut buckets = vec![0; 33];
    buckets[0] = 1;
    buckets[7] = 2;
    MetricsSnapshot {
        entries: vec![
            ("a_calls", MetricValue::Counter(3)),
            ("b_depth", MetricValue::Gauge(-4)),
            (
                "c_nanos",
                MetricValue::Histogram {
                    count: 3,
                    sum: 201,
                    buckets,
                },
            ),
            ("d_\"quoted\"", MetricValue::Counter(0)),
        ],
    }
}

#[test]
fn merged_trace_is_pinned() {
    let doc = chrome_trace_json_with_wall(&timelines(), &recording());
    assert_eq!(doc, MERGED);
}

#[test]
fn snapshot_json_is_pinned() {
    let doc = snapshot_json(&snapshot());
    assert_eq!(doc, SNAPSHOT);
}

const MERGED: &str = concat!(
    r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},"#,
    r#"{"name":"allgather-A","cat":"send","ph":"X","ts":0.000,"dur":8000000.000,"pid":0,"tid":0,"args":{"amount":8,"peer":1,"phase":"allgather-A"}},"#,
    r#"{"name":"flops","cat":"flops","ph":"X","ts":8000000.000,"dur":2500000.000,"pid":0,"tid":0,"args":{"amount":40,"peer":null,"phase":null}},"#,
    r#"{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"rank 1"}},"#,
    r#"{"name":"allgather-A","cat":"recv","ph":"X","ts":0.000,"dur":8000000.000,"pid":0,"tid":1,"args":{"amount":8,"peer":0,"phase":"allgather-A"}},"#,
    r#"{"name":"say \"hi\"","cat":"exchange","ph":"X","ts":8000000.000,"dur":3250000.000,"pid":0,"tid":1,"args":{"amount":3,"peer":0,"phase":"say \"hi\""}},"#,
    r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"simulated"}},"#,
    r#"{"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "wall-clock"}},"#,
    r#"{"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "wall thread 0"}},"#,
    r#"{"name": "thread_name", "ph": "M", "pid": 1, "tid": 3, "args": {"name": "wall thread 3"}},"#,
    r#"{"name": "task", "ph": "X", "pid": 1, "tid": 0, "ts": 0.000, "dur": 21.500, "args": {"chunk": 2}},"#,
    r#"{"name": "pack:wait", "ph": "i", "s": "t", "pid": 1, "tid": 3, "ts": 5.250, "args": {"block": 1}}]}"#,
);

const SNAPSHOT: &str = concat!(
    r#"{"#,
    "\n",
    r#"  "counters": {"a_calls": 3, "d_\"quoted\"": 0},"#,
    "\n",
    r#"  "gauges": {"b_depth": -4},"#,
    "\n",
    r#"  "histograms": {"c_nanos": {"count": 3, "sum": 201, "buckets": [1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}}"#,
    "\n",
    r#"}"#,
    "\n",
);
