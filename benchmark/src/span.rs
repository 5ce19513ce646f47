//! Spans recorded by the harness around the calls it makes into a layer.
//!
//! A span is (id, parent id, root id, name, start, end). The root id is
//! shared by every span of one iteration or request. Spans stay in memory
//! until the workload ends; [`chrome_trace`] then writes them out and
//! [`layer_table`] reduces them to per-name totals and *self* times (a
//! span's duration minus the part of it its children cover).
//!
//! No span is recorded inside any crate of the repository: what happens
//! below a `core.run` or a `server.ttfb` span is taken apart by the layer
//! replays instead (see `replay.rs`).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::jsonout::J;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// The id of the outermost enclosing span (its own id for a root).
    pub root: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Which harness thread recorded it.
    pub tid: u32,
}

/// Per-thread span recorder. Disabled, `begin`/`end` cost one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    next: u32,
    open: Vec<(u32, &'static str, u64)>,
    spans: Vec<Span>,
}

/// Ids of different threads never collide: the top byte is the thread.
const IDS_PER_THREAD: u32 = 1 << 24;

impl Tracer {
    /// A recorder for harness thread `tid` (< 255). All threads of one
    /// run share `epoch` so their spans line up in the trace.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        assert!(tid < 255, "thread index out of range");
        Tracer {
            enabled,
            epoch,
            tid,
            next: 1,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off between iterations (never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// A sibling recorder for another thread, same epoch and state.
    pub fn for_thread(&self, tid: u32) -> Tracer {
        Tracer::new(self.enabled, self.epoch, tid)
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.tid * IDS_PER_THREAD + self.next;
        self.next += 1;
        assert!(self.next < IDS_PER_THREAD, "span ids exhausted");
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.open.push((id, name, now));
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let (id, name, start_ns) = self.open.pop().expect("end without begin");
        let parent = self.open.last().map_or(0, |o| o.0);
        let root = self.open.first().map_or(id, |o| o.0);
        self.spans.push(Span {
            id,
            parent,
            root,
            name,
            start_ns,
            end_ns: now,
            tid: self.tid,
        });
    }

    /// Take over another thread's finished spans.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed a tracer with open spans");
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            sum += e - s;
            reach = e;
        }
    }
    sum
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, so children that overlap each other (or stick
/// out past the parent) are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |k| covered(k, s.start_ns, s.end_ns));
            (s.id, dur - kids)
        })
        .collect()
}

/// The per-layer table of a traced run: count, total and self time per
/// span name (names are `<layer>.<what>`).
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = table.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += selfs[&s.id];
    }
    table
}

/// Events written to a trace file at most; the layer table always covers
/// every span. A `serve_plan` run records ~10⁵ spans and a viewer gains
/// nothing from all of them.
pub const TRACE_FILE_EVENT_CAP: usize = 50_000;

/// A Chrome trace-event document (loadable in `chrome://tracing` and
/// Perfetto) holding the first [`TRACE_FILE_EVENT_CAP`] spans as complete
/// (`"ph": "X"`) events, plus the per-layer table under `"layers"`.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> J {
    let events: Vec<J> = spans
        .iter()
        .take(TRACE_FILE_EVENT_CAP)
        .map(|s| {
            J::obj([
                ("name", J::str(s.name)),
                ("cat", J::str(s.name.split('.').next().unwrap_or(""))),
                ("ph", J::str("X")),
                ("ts", J::Num(s.start_ns as f64 / 1e3)),
                ("dur", J::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", J::Int(1)),
                ("tid", J::Int(s.tid as i64)),
                (
                    "args",
                    J::obj([
                        ("id", J::Int(s.id as i64)),
                        ("parent", J::Int(s.parent as i64)),
                        ("root", J::Int(s.root as i64)),
                    ]),
                ),
            ])
        })
        .collect();
    let layers: Vec<J> = layer_table(spans)
        .into_iter()
        .map(|(name, t)| {
            J::obj([
                ("name", J::str(name)),
                ("count", J::Int(t.count as i64)),
                ("total_ms", J::Num(t.total_ns as f64 / 1e6)),
                ("self_ms", J::Num(t.self_ns as f64 / 1e6)),
            ])
        })
        .collect();
    J::obj([
        ("displayTimeUnit", J::str("ms")),
        ("workload", J::str(workload)),
        ("spans_recorded", J::Int(spans.len() as i64)),
        ("spans_written", J::Int(events.len() as i64)),
        ("traceEvents", J::Arr(events)),
        ("layers", J::Arr(layers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            root: 1,
            name: if parent == 0 { "t.parent" } else { "t.child" },
            start_ns,
            end_ns,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps the first child by 10 ns: union is [10, 60).
            span(3, 1, 30, 60),
            // Sticks out past the parent: only [90, 100) counts.
            span(4, 1, 90, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&4], 40);
        let table = layer_table(&spans);
        assert_eq!(table["t.parent"].self_ns, 40);
        assert_eq!(table["t.child"].count, 3);
        assert_eq!(table["t.child"].total_ns, 30 + 30 + 40);
    }

    #[test]
    fn tracer_links_parents_and_roots_and_is_free_when_off() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        t.begin("a.root");
        t.begin("a.kid");
        t.end();
        t.begin("a.kid");
        t.begin("a.grandkid");
        t.end();
        t.end();
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "a.root").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(root.root, root.id);
        assert_eq!(root.id >> 24, 3);
        for s in spans {
            assert_eq!(s.root, root.id);
            assert!(s.end_ns >= s.start_ns);
        }
        let grandkid = spans.iter().find(|s| s.name == "a.grandkid").unwrap();
        let kid2 = spans.iter().find(|s| s.id == grandkid.parent).unwrap();
        assert_eq!(kid2.parent, root.id);

        let mut off = Tracer::new(false, Instant::now(), 0);
        off.begin("a.root");
        off.end();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_document_is_strict_json_with_the_layer_table() {
        let spans = [span(1, 0, 0, 2000), span(2, 1, 500, 1500)];
        let text = chrome_trace("unit", &spans).to_string();
        let doc = syrk_server::json::parse(&text).expect("strict JSON");
        let events = match doc.get("traceEvents") {
            Some(syrk_server::json::Json::Arr(a)) => a,
            other => panic!("traceEvents: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        assert!(doc.get("layers").is_some());
    }
}
