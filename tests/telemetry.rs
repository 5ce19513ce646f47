//! Integration: the unified telemetry surface — the metrics registry
//! fed by the kernel runtime, the collectives, and the fault layer; the
//! Prometheus/JSON exporters; and the failure-dump path that captures a
//! deadlock post-mortem with a wall-clock flight recording.
//!
//! The registry and the flight recorder are process-global, so every
//! test here serializes on one mutex: assertions about "what changed
//! across this run" would otherwise race a sibling test's machine runs.

use std::sync::Mutex;

use syrk_core::{run, Plan, RunSpec};
use syrk_dense::seeded_matrix;
use syrk_machine::telemetry::{flight, prometheus_text, registry, snapshot_json};
use syrk_machine::{CostModel, FaultPlan, Machine, MachineError};
use syrk_server::json::{parse as parse_json, Json};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The traced c = 3 run both counter tests drive.
fn traced_2d(faults: Option<FaultPlan>) -> RunSpec {
    RunSpec {
        faults,
        trace: true,
        ..RunSpec::new(Plan::TwoD { c: 3 }, CostModel::bandwidth_only())
    }
}

#[test]
fn kernel_runtime_counters_stay_consistent_across_a_run() {
    let _g = lock();
    let before = registry::snapshot();
    let a = seeded_matrix::<f64>(36, 8, 3);
    let out = run(&a, &traced_2d(None)).unwrap();
    assert!(out.result.cost.elapsed() > 0.0);
    let after = registry::snapshot();

    // Every task the kernel runtime scheduled was run, and the
    // queue-depth gauge drained back to zero.
    let scheduled = after.counter("syrk_tasks_scheduled").unwrap();
    let run_count = after.counter("syrk_tasks_run").unwrap();
    assert_eq!(run_count, scheduled);
    assert!(scheduled > before.counter("syrk_tasks_scheduled").unwrap_or(0));
    assert_eq!(after.gauge("syrk_queue_depth"), Some(0));

    // Counters are monotone: nothing a run does may decrease one.
    for (name, value) in &before.entries {
        if let syrk_machine::telemetry::MetricValue::Counter(b) = value {
            let a = after.counter(name).expect("registered metrics persist");
            assert!(a >= *b, "counter {name} went backwards: {b} -> {a}");
        }
    }
}

#[test]
fn collective_invocations_and_payloads_are_metered() {
    let _g = lock();
    let before = registry::snapshot();
    let p = 4;
    Machine::new(p)
        .try_run(|comm| {
            comm.try_all_gather(vec![comm.rank() as f64; 3])?;
            comm.try_reduce_scatter(vec![vec![1.0, 2.0]; p]).map(drop)
        })
        .unwrap();
    let after = registry::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    // Every rank records its own invocation of each collective.
    assert_eq!(delta("syrk_coll_all_gather_calls"), p as u64);
    assert_eq!(delta("syrk_coll_reduce_scatter_calls"), p as u64);
    // Payload histograms observe each rank's input: 3 words to gather,
    // P segments of 2 words to reduce-scatter.
    let hist_delta = |name: &str| {
        let (cb, sb) = before.histogram(name).unwrap_or((0, 0));
        let (ca, sa) = after.histogram(name).unwrap();
        (ca - cb, sa - sb)
    };
    let p64 = p as u64;
    assert_eq!(
        hist_delta("syrk_coll_all_gather_payload_words"),
        (p64, 3 * p64)
    );
    assert_eq!(
        hist_delta("syrk_coll_reduce_scatter_payload_words"),
        (p64, 2 * p64 * p64)
    );
}

#[test]
fn fault_injection_and_retry_handling_are_metered() {
    let _g = lock();
    let before = registry::snapshot();
    let a = seeded_matrix::<f64>(36, 8, 3);
    let faults = FaultPlan::seeded(7).drop(0.4).corrupt(0.4);
    run(&a, &traced_2d(Some(faults))).unwrap();
    let after = registry::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    // Injection-side counters (what the fault plan did) and
    // handling-side counters (what the transport repaired) both moved.
    assert!(delta("syrk_fault_drops_injected") > 0);
    assert!(delta("syrk_fault_corrupts_injected") > 0);
    assert!(delta("syrk_retry_drop_handled") > 0);
    assert!(delta("syrk_retry_corrupt_handled") > 0);
    // Every dropped attempt was retransmitted exactly once.
    assert_eq!(
        delta("syrk_fault_drops_injected"),
        delta("syrk_retry_drop_handled")
    );
}

#[test]
fn exporters_render_the_live_registry() {
    let _g = lock();
    // Ensure at least one counter, gauge, and histogram exist.
    Machine::new(2)
        .try_run(|comm| comm.try_all_gather(vec![1.0]).map(drop))
        .unwrap();
    let snap = registry::snapshot();
    let text = prometheus_text(&snap);
    assert!(text.contains("# TYPE syrk_coll_all_gather_calls counter"));
    assert!(text.contains("syrk_coll_all_gather_payload_words_bucket{le=\"+Inf\"}"));
    let json = snapshot_json(&snap);
    let doc = parse_json(&json).expect("snapshot JSON must be strict JSON");
    assert!(doc
        .get("counters")
        .and_then(|c| c.get("syrk_coll_all_gather_calls"))
        .and_then(Json::as_f64)
        .is_some_and(|v| v >= 2.0));
    assert!(doc.get("gauges").is_some());
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("syrk_coll_all_gather_payload_words"))
        .expect("payload histogram exported");
    let count = hist.get("count").and_then(Json::as_f64).unwrap();
    let buckets = hist.get("buckets").and_then(Json::as_arr).unwrap();
    let bucket_total: f64 = buckets.iter().filter_map(Json::as_f64).sum();
    assert_eq!(count, bucket_total, "buckets must partition the count");
}

#[test]
fn deadlock_writes_failure_dump_with_graph_and_wall_row() {
    let _g = lock();
    let dir = std::env::temp_dir().join("syrk_telemetry_test");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("dump.json");

    flight::enable();
    let err = Machine::new(2).with_failure_dump(&path).try_run(|comm| {
        let peer = 1 - comm.rank();
        comm.try_recv::<Vec<f64>>(peer, 42).map(|_| ())
    });
    flight::disable();
    flight::clear();
    assert!(matches!(err, Err(MachineError::Deadlock(_))));

    let body = std::fs::read_to_string(&path).expect("failure dump written");
    let doc = parse_json(&body).expect("failure dump must be strict JSON");
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("deadlock"));
    // The wait-for graph: both ranks blocked on each other.
    let edges = doc.get("wait_for").and_then(Json::as_arr).unwrap();
    assert_eq!(edges.len(), 2);
    for e in edges {
        assert!(e.get("from").is_some() && e.get("to").is_some());
        assert_eq!(e.get("op").and_then(Json::as_str), Some("recv"));
    }
    // The metrics snapshot rode along.
    assert!(doc.get("metrics").and_then(|m| m.get("counters")).is_some());
    // The flight recording: a valid wall-clock Chrome-trace row exists —
    // the blocked receives themselves, closed on the abort path.
    let events = doc
        .get("flight")
        .and_then(|f| f.get("traceEvents"))
        .and_then(Json::as_arr)
        .unwrap();
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("recv:block")
                && e.get("pid").and_then(Json::as_f64) == Some(1.0)
        }),
        "expected a recv:block wall-clock slice in {} events",
        events.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
