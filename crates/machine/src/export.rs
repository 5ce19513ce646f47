//! Timeline exporters: render per-rank [`Timeline`]s for external viewers.
//!
//! [`chrome_trace_json`] emits the Chrome trace-event format (the JSON
//! array-of-events dialect understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev)). Each simulated rank becomes one
//! thread row; each traced event becomes a complete (`"ph": "X"`) slice
//! whose start is the rank's α-β-γ clock *before* the event and whose
//! duration is the clock advance the event caused — so waiting on a
//! slower peer shows up as a wide `Recv`/`Exchange` slice, exactly the
//! critical-path structure the cost model charges. Model time is scaled
//! by 10⁶ (the format's timestamps are in microseconds, so one model
//! time-unit renders as one second).
//!
//! [`timelines_csv`] is the flat CSV dump the `trace` binary has always
//! produced, kept alongside the JSON for grep/spreadsheet workflows.

use crate::trace::{Event, EventKind, Timeline};
use std::fmt::Write as _;
use syrk_telemetry::export::WALL_PID;
use syrk_telemetry::{escape_json_into, wall_trace_events, FlightRecording};

/// Scale from model time to trace-event microseconds.
const TS_SCALE: f64 = 1e6;

fn kind_label(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Send => "send",
        EventKind::Recv => "recv",
        EventKind::Exchange => "exchange",
        EventKind::Flops => "flops",
    }
}

fn push_event(out: &mut String, e: &Event, rank: usize, prev_clock: f64) {
    let ts = prev_clock * TS_SCALE;
    let dur = ((e.clock - prev_clock) * TS_SCALE).max(0.0);
    out.push_str("{\"name\":\"");
    escape_json_into(out, e.phase.unwrap_or_else(|| kind_label(e.kind)));
    let _ = write!(
        out,
        "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":0,\"tid\":{rank},\
         \"args\":{{\"amount\":{},\"peer\":",
        kind_label(e.kind),
        e.amount,
    );
    if e.peer == usize::MAX {
        out.push_str("null");
    } else {
        let _ = write!(out, "{}", e.peer);
    }
    out.push_str(",\"phase\":");
    push_str_or_null(out, e.phase);
    out.push_str("}}");
}

/// Append `s` as a quoted, escaped JSON string, or `null` when absent.
pub(crate) fn push_str_or_null(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push('"');
            escape_json_into(out, s);
            out.push('"');
        }
        None => out.push_str("null"),
    }
}

/// Render per-rank timelines as a Chrome trace-event JSON document
/// (an object with a `traceEvents` array, loadable in Perfetto).
///
/// Per rank the document contains one `thread_name` metadata record plus
/// one complete event per traced [`Event`]; within a rank, `ts` values are
/// non-decreasing because the α-β-γ clock is monotone.
pub fn chrome_trace_json(traces: &[Timeline]) -> String {
    chrome_trace_json_with_wall(traces, &FlightRecording::default())
}

/// Render per-rank timelines *and* a wall-clock flight recording as one
/// Chrome trace-event JSON document.
///
/// The simulated α-β-γ timelines keep `pid 0` (named `simulated`); the
/// flight recorder's wall-clock rows appear as a second process,
/// `pid 1` (named `wall-clock`), one thread row per recorded worker.
/// The two processes use unrelated time bases — model time scaled to
/// seconds vs. real nanoseconds rebased to the first event — so viewers
/// show them as separate, independently-zoomable lanes. An empty
/// recording degrades to exactly [`chrome_trace_json`]'s output.
pub fn chrome_trace_json_with_wall(traces: &[Timeline], rec: &FlightRecording) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (rank, timeline) in traces.iter().enumerate() {
        if rank > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        );
        let mut prev = 0.0f64;
        for e in timeline {
            out.push(',');
            push_event(&mut out, e, rank, prev);
            prev = prev.max(e.clock);
        }
    }
    if !rec.events.is_empty() {
        if !traces.is_empty() {
            out.push(',');
        }
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"simulated\"}},",
        );
        wall_trace_events(&mut out, rec, WALL_PID, ",");
    }
    out.push_str("]}");
    out
}

/// Render per-rank timelines as CSV with a header row
/// (`rank,kind,peer,amount,clock,phase`).
pub fn timelines_csv(traces: &[Timeline]) -> String {
    let mut out = String::from("rank,kind,peer,amount,clock,phase\n");
    for (rank, timeline) in traces.iter().enumerate() {
        for e in timeline {
            let _ = writeln!(out, "{rank},{}", e.to_csv_row());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, clock: f64, phase: Option<&'static str>) -> Event {
        Event {
            kind,
            peer: if kind == EventKind::Flops {
                usize::MAX
            } else {
                1
            },
            amount: 8,
            clock,
            phase,
        }
    }

    #[test]
    fn chrome_trace_has_metadata_and_slices() {
        let traces = vec![
            vec![
                ev(EventKind::Send, 8.0, Some("allgather-A")),
                ev(EventKind::Flops, 10.0, None),
            ],
            vec![ev(EventKind::Recv, 8.0, None)],
        ];
        let json = chrome_trace_json(&traces);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"rank 0\"") && json.contains("\"rank 1\""));
        assert!(json.contains("\"allgather-A\""));
        // Unphased events fall back to the kind label.
        assert!(json.contains("\"name\":\"flops\""));
        // Slice for the second rank-0 event starts at the first's clock.
        assert!(json.contains("\"ts\":8000000.000,\"dur\":2000000.000"));
        // flops events carry a null peer.
        assert!(json.contains("\"peer\":null"));
    }

    #[test]
    fn empty_timelines_are_valid() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
        let json = chrome_trace_json(&[vec![]]);
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn csv_includes_header_and_rank_column() {
        let traces = vec![vec![ev(EventKind::Send, 8.0, Some("p"))], vec![]];
        let csv = timelines_csv(&traces);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("rank,kind,peer,amount,clock,phase"));
        assert_eq!(lines.next(), Some("0,Send,1,8,8.000000e0,p"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn csv_export_quotes_injected_phase() {
        let traces = vec![vec![ev(EventKind::Send, 8.0, Some("x,y\n0,Send,9,9,9,z"))]];
        let csv = timelines_csv(&traces);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("rank,kind,peer,amount,clock,phase"));
        // The hostile phase stays inside one quoted field: the first data
        // line opens the quote and the forged "row" is its continuation,
        // not a parseable record of its own.
        assert_eq!(lines.next(), Some("0,Send,1,8,8.000000e0,\"x,y"));
        assert_eq!(lines.next(), Some("0,Send,9,9,9,z\""));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn wall_merge_adds_second_process_row() {
        use syrk_telemetry::{FlightEvent, FlightKind};
        let traces = vec![vec![ev(EventKind::Send, 8.0, Some("p"))]];
        let rec = FlightRecording {
            events: vec![FlightEvent {
                tid: 0,
                kind: FlightKind::Task,
                start_ns: 1_000,
                end_ns: 3_000,
                arg: 7,
            }],
            dropped: 0,
        };
        let json = chrome_trace_json_with_wall(&traces, &rec);
        assert!(json.starts_with('{') && json.ends_with("]}"));
        assert!(json.contains("\"name\":\"simulated\""));
        assert!(json.contains("\"wall-clock\""));
        assert!(json.contains("\"pid\": 1"));
        assert!(json.contains("\"task\""));
        // No ",]" or "[,": the splice keeps the array well-formed.
        assert!(!json.contains(",]") && !json.contains("[,"));
    }

    #[test]
    fn wall_merge_with_empty_recording_is_identity() {
        let traces = vec![vec![ev(EventKind::Send, 8.0, None)]];
        let rec = FlightRecording {
            events: vec![],
            dropped: 0,
        };
        assert_eq!(
            chrome_trace_json_with_wall(&traces, &rec),
            chrome_trace_json(&traces)
        );
    }

    #[test]
    fn wall_merge_onto_empty_timelines() {
        use syrk_telemetry::{FlightEvent, FlightKind};
        let rec = FlightRecording {
            events: vec![FlightEvent {
                tid: 2,
                kind: FlightKind::PackWait,
                start_ns: 5,
                end_ns: 5,
                arg: 1,
            }],
            dropped: 0,
        };
        let json = chrome_trace_json_with_wall(&[], &rec);
        assert!(json.contains("\"wall-clock\""));
        assert!(!json.contains(",]") && !json.contains("[,"));
    }
}
