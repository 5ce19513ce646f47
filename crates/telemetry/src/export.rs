//! Exporters: Prometheus text exposition, a JSON snapshot writer matching
//! the repo's hand-rolled JSON style, and Chrome trace-event rendering of
//! a flight recording.
//!
//! Every renderer appends to one `String` with `std::fmt::Write` —
//! callers decide where the bytes go (stdout, a file, an HTTP response).
//! [`wall_trace_events`] writes the event objects into a document the
//! caller owns: `machine`'s trace exporter and failure dump both put a
//! wall-clock process row next to their own rows with it.

use std::fmt::Write as _;

use crate::flight::{FlightEvent, FlightKind, FlightRecording};
use crate::registry::{bucket_bound, MetricValue, MetricsSnapshot, HISTOGRAM_BUCKETS};

/// Append `s` to `out` escaped for embedding inside JSON double quotes:
/// `"`, `\\` and every control character below U+0020, everything else
/// verbatim. The one escaper of the workspace — the machine's trace and
/// dump writers and the server's responses all call it.
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render a snapshot in the Prometheus text exposition format (one
/// `# TYPE` line per metric; histograms expand to cumulative
/// `_bucket{le=…}` series plus `_sum` and `_count`).
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.entries {
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (i, n) in buckets.iter().enumerate() {
                    cumulative += n;
                    if i + 1 == HISTOGRAM_BUCKETS {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    } else {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {cumulative}",
                            bucket_bound(i)
                        );
                    }
                }
                let _ = writeln!(out, "{name}_sum {sum}");
                let _ = writeln!(out, "{name}_count {count}");
            }
        }
    }
    out
}

/// Render a snapshot as a JSON document:
/// `{"counters":{…},"gauges":{…},"histograms":{name:{"count":…,"sum":…,"buckets":[…]}}}`.
/// Histogram buckets are per-bucket (non-cumulative) counts; bucket 0
/// holds zeros and bucket `i ≥ 1` values up to `2^i − 1`.
pub fn snapshot_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n");
    for (section, label) in ["counters", "gauges", "histograms"].into_iter().enumerate() {
        let _ = write!(out, "  \"{label}\": {{");
        let mut sep = "";
        for (name, value) in &snap.entries {
            let at = match value {
                MetricValue::Counter(_) => 0,
                MetricValue::Gauge(_) => 1,
                MetricValue::Histogram { .. } => 2,
            };
            if at != section {
                continue;
            }
            out.push_str(sep);
            sep = ", ";
            out.push('"');
            escape_json_into(&mut out, name);
            out.push_str("\": ");
            let _ = match value {
                MetricValue::Counter(v) => write!(out, "{v}"),
                MetricValue::Gauge(v) => write!(out, "{v}"),
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let _ = write!(out, "{{\"count\": {count}, \"sum\": {sum}, \"buckets\": [");
                    for (i, b) in buckets.iter().enumerate() {
                        let _ = write!(out, "{}{b}", if i == 0 { "" } else { ", " });
                    }
                    write!(out, "]}}")
                }
            };
        }
        out.push_str(if section < 2 { "},\n" } else { "}\n" });
    }
    out.push_str("}\n");
    out
}

/// Append a flight recording to `out` as Chrome trace-event JSON objects
/// under process `pid`, joined by `sep`: process/thread `M` metadata
/// rows, then one `X` slice per span (instant events — `start_ns ==
/// end_ns` — become `i` events). Timestamps are re-based to the
/// recording's earliest event so the wall row starts at ts 0 alongside a
/// simulated timeline. An empty recording appends nothing.
pub fn wall_trace_events(out: &mut String, rec: &FlightRecording, pid: u64, sep: &str) {
    if rec.events.is_empty() {
        return;
    }
    let _ = write!(
        out,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
         \"args\": {{\"name\": \"wall-clock\"}}}}"
    );
    let base = rec.events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let mut tids: Vec<u64> = rec.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        let _ = write!(
            out,
            "{sep}{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"wall thread {tid}\"}}}}"
        );
    }
    for e in &rec.events {
        out.push_str(sep);
        write_wall_event(out, e, pid, base);
    }
}

fn write_wall_event(out: &mut String, e: &FlightEvent, pid: u64, base: u64) {
    // Microseconds, the Chrome-trace `ts` unit, from nanoseconds.
    let us = |ns: u64| ns as f64 / 1000.0;
    out.push_str("{\"name\": \"");
    escape_json_into(out, e.kind.name());
    let arg_key = match e.kind {
        FlightKind::Task => "chunk",
        FlightKind::PackPublish | FlightKind::PackWait => "block",
        FlightKind::RecvBlock => "src",
    };
    let (tid, ts) = (e.tid, us(e.start_ns - base));
    let _ = if e.end_ns == e.start_ns {
        write!(
            out,
            "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts:.3}, \
             \"args\": {{\"{arg_key}\": {}}}}}",
            e.arg
        )
    } else {
        write!(
            out,
            "\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts:.3}, \
             \"dur\": {:.3}, \"args\": {{\"{arg_key}\": {}}}}}",
            us(e.end_ns - e.start_ns),
            e.arg
        )
    };
}

/// Process id used for the wall-clock row when merged next to a
/// simulated timeline (which renders as pid 0).
pub const WALL_PID: u64 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{self, Counter, Gauge, Histogram};

    fn escape_json(s: &str) -> String {
        let mut out = String::new();
        escape_json_into(&mut out, s);
        out
    }

    #[test]
    fn json_escaping_covers_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\r\t\u{1}"), "\\r\\t\\u0001");
        assert_eq!(escape_json("é 😀"), "é 😀");
        let mut out = String::from("\"");
        escape_json_into(&mut out, "a\"b");
        assert_eq!(out, "\"a\\\"b");
    }

    #[test]
    fn prometheus_text_exposes_all_kinds() {
        static CTR: Counter = Counter::new("test_export_ctr");
        static GAUGE: Gauge = Gauge::new("test_export_gauge");
        static HIST: Histogram = Histogram::new("test_export_hist");
        CTR.add(3);
        GAUGE.sub(4);
        HIST.observe(1);
        HIST.observe(100);
        let text = prometheus_text(&registry::snapshot());
        assert!(text.contains("# TYPE test_export_ctr counter"));
        assert!(text.contains("test_export_ctr 3"));
        assert!(text.contains("# TYPE test_export_gauge gauge"));
        assert!(text.contains("test_export_gauge -4"));
        assert!(text.contains("# TYPE test_export_hist histogram"));
        assert!(text.contains("test_export_hist_bucket{le=\"1\"} 1"));
        assert!(text.contains("test_export_hist_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("test_export_hist_sum 101"));
        assert!(text.contains("test_export_hist_count 2"));
    }

    #[test]
    fn snapshot_json_has_three_sections() {
        static CTR: Counter = Counter::new("test_export_json_ctr");
        CTR.inc();
        let json = snapshot_json(&registry::snapshot());
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"test_export_json_ctr\": 1"));
    }

    #[test]
    fn wall_trace_renders_slices_and_metadata() {
        let rec = FlightRecording {
            events: vec![
                FlightEvent {
                    tid: 0,
                    kind: FlightKind::Task,
                    start_ns: 10_000,
                    end_ns: 30_000,
                    arg: 2,
                },
                FlightEvent {
                    tid: 1,
                    kind: FlightKind::PackWait,
                    start_ns: 15_000,
                    end_ns: 15_000,
                    arg: 0,
                },
            ],
            dropped: 0,
        };
        let mut doc = String::new();
        wall_trace_events(&mut doc, &rec, WALL_PID, ",");
        assert!(doc.contains("\"pid\": 1"));
        assert!(doc.contains("\"wall-clock\""));
        assert!(doc.contains("\"thread_name\""));
        // Task: X slice rebased to ts 0, dur 20 µs, chunk arg.
        assert!(doc.contains("\"name\": \"task\", \"ph\": \"X\""));
        assert!(doc.contains("\"ts\": 0.000, \"dur\": 20.000"));
        assert!(doc.contains("\"chunk\": 2"));
        // A zero-length wait: instant event.
        assert!(doc.contains("\"name\": \"pack:wait\", \"ph\": \"i\""));
        // Empty recording renders no events.
        let mut doc = String::new();
        wall_trace_events(&mut doc, &FlightRecording::default(), 1, ",");
        assert!(doc.is_empty());
    }
}
