//! Exporters: Prometheus text exposition, a JSON snapshot writer matching
//! the repo's hand-rolled JSON style, and Chrome trace-event rendering of
//! a flight recording.
//!
//! Everything returns `String`s built with `std::fmt::Write` — callers
//! decide where the bytes go (stdout, a file, an HTTP response). The
//! Chrome-trace renderers come in two shapes: [`wall_trace_events`]
//! yields the individual event objects so `machine`'s exporter can splice
//! a wall-clock process row into its simulated-timeline document, and
//! [`wall_trace_json`] wraps them into a standalone document.

use std::fmt::Write as _;

use crate::flight::{FlightEvent, FlightKind, FlightRecording};
use crate::registry::{bucket_bound, MetricValue, MetricsSnapshot, HISTOGRAM_BUCKETS};

/// Escape a string for embedding inside JSON double quotes: `"`, `\\`
/// and every control character below U+0020, everything else verbatim.
/// [`escape_json_into`] is the appending form.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(&mut out, s);
    out
}

/// Append `s` to `out` escaped as [`escape_json`] escapes it. The one
/// escaper of the workspace — the machine's trace and dump writers and
/// the server's responses all call it.
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
/// Histogram buckets are per-bucket (non-cumulative) counts; bucket `i`'s
/// upper bound is [`bucket_bound`]`(i)`.
pub fn snapshot_json(snap: &MetricsSnapshot) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, value) in &snap.entries {
        let key = escape_json(name);
        match value {
            MetricValue::Counter(v) => counters.push(format!("\"{key}\": {v}")),
            MetricValue::Gauge(v) => gauges.push(format!("\"{key}\": {v}")),
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                let bs: Vec<String> = buckets.iter().map(|b| b.to_string()).collect();
                histograms.push(format!(
                    "\"{key}\": {{\"count\": {count}, \"sum\": {sum}, \"buckets\": [{}]}}",
                    bs.join(", ")
                ));
            }
        }
    }
    format!(
        "{{\n  \"counters\": {{{}}},\n  \"gauges\": {{{}}},\n  \"histograms\": {{{}}}\n}}\n",
        counters.join(", "),
        gauges.join(", "),
        histograms.join(", ")
    )
}

/// Microseconds (Chrome-trace `ts` unit) from a nanosecond offset.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Render a flight recording as individual Chrome trace-event JSON
/// objects under process `pid`: process/thread `M` metadata rows, then
/// one `X` slice per span (instant events — `start_ns == end_ns` —
/// become `i` events). Timestamps are re-based to the recording's
/// earliest event so the wall row starts at ts 0 alongside a simulated
/// timeline. Returns one JSON object per line-item, ready to be joined
/// with `,` inside a `traceEvents` array.
pub fn wall_trace_events(rec: &FlightRecording, pid: u64) -> Vec<String> {
    let mut out = Vec::new();
    if rec.events.is_empty() {
        return out;
    }
    out.push(format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
         \"args\": {{\"name\": \"wall-clock\"}}}}"
    ));
    let base = rec.events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let mut tids: Vec<u64> = rec.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        out.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"wall thread {tid}\"}}}}"
        ));
    }
    for e in &rec.events {
        out.push(wall_event_json(e, pid, base));
    }
    out
}

fn wall_event_json(e: &FlightEvent, pid: u64, base: u64) -> String {
    let name = escape_json(e.kind.name());
    let ts = us(e.start_ns - base);
    let arg_key = match e.kind {
        FlightKind::Task => "chunk",
        FlightKind::Steal => "victim",
        FlightKind::PackPublish | FlightKind::PackWait => "block",
        FlightKind::RecvBlock => "src",
    };
    if e.end_ns == e.start_ns {
        format!(
            "{{\"name\": \"{name}\", \"ph\": \"i\", \"s\": \"t\", \"pid\": {pid}, \
             \"tid\": {tid}, \"ts\": {ts}, \"args\": {{\"{arg_key}\": {arg}}}}}",
            tid = e.tid,
            arg = e.arg
        )
    } else {
        format!(
            "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \
             \"ts\": {ts}, \"dur\": {dur}, \"args\": {{\"{arg_key}\": {arg}}}}}",
            tid = e.tid,
            dur = us(e.end_ns - e.start_ns),
            arg = e.arg
        )
    }
}

/// Process id used for the wall-clock row when merged next to a
/// simulated timeline (which renders as pid 0).
pub const WALL_PID: u64 = 1;

/// Render a flight recording as a standalone Chrome trace-event JSON
/// document (`{"traceEvents": […]}` under [`WALL_PID`]), loadable in
/// Perfetto / `chrome://tracing`.
pub fn wall_trace_json(rec: &FlightRecording) -> String {
    let events = wall_trace_events(rec, WALL_PID);
    let mut out = String::from("{\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "" } else { "," };
        let _ = writeln!(out, "    {e}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{self};

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
        registry::counter("test_export_ctr").add(3);
        registry::gauge("test_export_gauge").set(-4);
        let h = registry::histogram("test_export_hist");
        h.observe(1);
        h.observe(100);
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
        registry::counter("test_export_json_ctr").add(1);
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
                    kind: FlightKind::Steal,
                    start_ns: 15_000,
                    end_ns: 15_000,
                    arg: 0,
                },
            ],
            dropped: 0,
        };
        let doc = wall_trace_json(&rec);
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"wall-clock\""));
        assert!(doc.contains("\"thread_name\""));
        // Task: X slice rebased to ts 0, dur 20 µs, chunk arg.
        assert!(doc.contains("\"name\": \"task\", \"ph\": \"X\""));
        assert!(doc.contains("\"ts\": 0.000, \"dur\": 20.000"));
        assert!(doc.contains("\"chunk\": 2"));
        // Steal: instant event.
        assert!(doc.contains("\"name\": \"steal\", \"ph\": \"i\""));
        // Empty recording renders no events.
        assert!(wall_trace_events(&FlightRecording::default(), 1).is_empty());
    }
}
