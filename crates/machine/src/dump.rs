//! Post-mortem failure dumps: when a machine run fails, the wait-for
//! graph, a metrics snapshot, and the wall-clock flight recording are
//! written to one JSON artifact.
//!
//! The scheduler's [`DeadlockInfo`](crate::DeadlockInfo) already says
//! *who* was blocked on *whom*; the dump adds *what the process was
//! actually doing* — every registered `syrk_*` counter and, when the
//! [flight recorder](syrk_telemetry::flight) was enabled, the wall-clock
//! spans (including the `recv:block` spans of the deadlocked receives
//! themselves, closed on the abort path) rendered as Chrome trace
//! events.
//!
//! A dump destination is set per machine, with
//! [`Machine::with_failure_dump`](crate::Machine::with_failure_dump);
//! callers that build machines internally (the `syrk-core` algorithms,
//! and through them the serving path) carry the path in their run
//! description and hand it to every machine the run builds, so
//! concurrent runs route their dumps independently. A machine without a
//! path writes nothing.
//!
//! Dump writing is best-effort: an unwritable path is reported on stderr
//! and never masks the run's own error. Writes are serialized through a
//! process-wide lock and land via a write-then-rename, so two
//! simultaneous failing runs pointed at the same path can never
//! interleave or truncate each other's JSON — the file always holds one
//! complete document.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::MachineError;
use crate::export::push_str_or_null;
use syrk_telemetry::{escape_json_into, flight, registry, wall_trace_events};

fn error_kind(err: &MachineError) -> &'static str {
    match err {
        MachineError::Deadlock(_) => "deadlock",
        MachineError::RankCrashed { .. } => "rank_crashed",
        MachineError::RankPanicked { .. } => "rank_panicked",
        MachineError::PeerFailed { .. } => "peer_failed",
        MachineError::DataCorruption { .. } => "data_corruption",
        MachineError::TypeMismatch { .. } => "type_mismatch",
    }
}

/// Render the full post-mortem document for `err`: the error, the
/// wait-for graph (for deadlocks), a snapshot of every registered
/// metric, and the flight recording as Chrome trace events.
pub(crate) fn failure_dump_string(err: &MachineError) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"kind\": \"{}\",", error_kind(err));
    out.push_str("  \"error\": \"");
    escape_json_into(&mut out, &err.to_string());
    out.push_str("\",\n");
    if let MachineError::Deadlock(info) = err {
        out.push_str("  \"wait_for\": [");
        for (i, e) in info.edges.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"from\": {}, \"to\": {}, \"op\": \"",
                e.from, e.to
            );
            escape_json_into(&mut out, e.op);
            let _ = write!(out, "\", \"tag\": [{}, {}], \"phase\": ", e.tag.0, e.tag.1);
            push_str_or_null(&mut out, e.phase);
            out.push('}');
        }
        out.push_str("],\n");
        out.push_str("  \"finished\": [");
        for (i, r) in info.finished.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{r}");
        }
        out.push_str("],\n");
    }
    let metrics = syrk_telemetry::snapshot_json(&registry::snapshot());
    let _ = writeln!(out, "  \"metrics\": {},", metrics.trim_end());
    let rec = flight::collect();
    let _ = writeln!(out, "  \"flight\": {{");
    let _ = writeln!(out, "    \"dropped\": {},", rec.dropped);
    out.push_str("    \"traceEvents\": [");
    wall_trace_events(&mut out, &rec, syrk_telemetry::export::WALL_PID, ", ");
    out.push_str("]\n  }\n}\n");
    out
}

/// Serializes dump writes process-wide so concurrent failing runs
/// pointed at the same path cannot interleave their output.
static WRITE_LOCK: Mutex<()> = Mutex::new(());

/// Per-process sequence for unique temporary file names, so two dumps
/// racing toward one destination never share a scratch file either.
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write the post-mortem document for `err` to `path` (see
/// [`failure_dump_string`]).
///
/// The document is rendered to a unique sibling temp file and renamed
/// into place under a process-wide write lock: a reader (or a second
/// concurrent dump) always observes one complete JSON document at
/// `path`, never a torn or truncated one.
pub(crate) fn write_failure_dump(path: &Path, err: &MachineError) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let doc = failure_dump_string(err);
    let _serialized = WRITE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, doc)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Best-effort dump on a failed run to the machine's path, if it has
/// one. IO failures are reported on stderr, never propagated (the run's
/// error is the story; the dump is a diagnostic side channel).
pub(crate) fn dump_on_error(machine_path: Option<&Path>, err: &MachineError) {
    let Some(path) = machine_path else {
        return;
    };
    match write_failure_dump(path, err) {
        Ok(()) => eprintln!("failure dump written to {}", path.display()),
        Err(io) => eprintln!("failed to write failure dump to {}: {io}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{DeadlockInfo, WaitEdge};

    fn deadlock_error() -> MachineError {
        MachineError::Deadlock(DeadlockInfo {
            edges: vec![
                WaitEdge {
                    from: 0,
                    to: 1,
                    op: "recv",
                    tag: (0, 7),
                    phase: Some("ring"),
                },
                WaitEdge {
                    from: 1,
                    to: 0,
                    op: "recv",
                    tag: (0, 7),
                    phase: None,
                },
            ],
            finished: vec![2],
        })
    }

    #[test]
    fn dump_contains_graph_metrics_and_flight() {
        // Put at least one flight event in the rings so the wall row is
        // non-trivial.
        flight::enable();
        let t = flight::now_ns();
        flight::record(flight::FlightKind::PackWait, t, t, 1);
        let doc = failure_dump_string(&deadlock_error());
        flight::disable();
        flight::clear();
        assert!(doc.contains("\"kind\": \"deadlock\""));
        assert!(doc.contains("\"wait_for\": ["));
        assert!(doc.contains("\"from\": 0, \"to\": 1"));
        assert!(doc.contains("\"phase\": \"ring\""));
        assert!(doc.contains("\"finished\": [2]"));
        assert!(doc.contains("\"metrics\": {"));
        assert!(doc.contains("\"counters\""));
        assert!(doc.contains("\"traceEvents\": ["));
        assert!(doc.contains("\"wall-clock\""));
    }

    #[test]
    fn non_deadlock_dump_skips_wait_for() {
        let doc = failure_dump_string(&MachineError::RankCrashed {
            rank: 3,
            after_ops: 9,
        });
        assert!(doc.contains("\"kind\": \"rank_crashed\""));
        assert!(!doc.contains("\"wait_for\""));
        assert!(doc.contains("\"metrics\": {"));
    }

    #[test]
    fn write_failure_dump_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("syrk_dump_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/dump.json");
        write_failure_dump(&path, &deadlock_error()).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"kind\": \"deadlock\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
