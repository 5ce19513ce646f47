//! # syrk-telemetry — process-wide metrics and a wall-clock flight recorder
//!
//! Every other layer of the workspace meters *simulated* quantities: the
//! machine's α-β-γ ledger charges model words and flops, the dense
//! engine's counters charge packed words and microkernel tiles. What was
//! missing is the **real** side — live counters a long-running process
//! can expose, wall-clock latency evidence, and an artifact to dump when
//! something goes wrong. This crate provides all three, with no
//! dependencies (the workspace builds on a bare toolchain):
//!
//! * a [`registry`] of atomic [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   log₂ [`Histogram`]s, registered by static name, snapshot-able at any
//!   time, with Prometheus text exposition and JSON exporters
//!   ([`export`]);
//! * a [`flight`] recorder: bounded per-thread ring buffers of
//!   wall-clock-timestamped spans (task execution, pack
//!   publication, blocked receives), cheap enough to leave compiled in
//!   and toggle at runtime; and
//! * a writer that appends a flight recording to a Chrome trace-event
//!   document, so one Perfetto view shows real elapsed time next to the
//!   simulated α-β-γ timeline.
//!
//! The hot-path cost model: a disabled flight recorder is one relaxed
//! atomic load per site; an enabled one is two `Instant` reads and one
//! uncontended mutex push per recorded span. Counters are single relaxed
//! `fetch_add`s. Nothing here takes a lock that a kernel inner loop can
//! reach.
//!
//! ```
//! use syrk_telemetry::{LazyCounter, registry};
//!
//! static REQUESTS: LazyCounter = LazyCounter::new("doc_requests");
//! REQUESTS.inc();
//! let snap = registry::snapshot();
//! assert!(snap.counter("doc_requests").unwrap() >= 1);
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod registry;

pub use export::{escape_json_into, prometheus_text, snapshot_json, wall_trace_events};
pub use flight::{FlightEvent, FlightKind, FlightRecording};
pub use registry::{
    Counter, Gauge, Histogram, LazyCounter, LazyGauge, LazyHistogram, MetricValue, MetricsSnapshot,
};
