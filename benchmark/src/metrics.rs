//! Every metric the benchmark prints, by name. `BENCHMARK.json` at the
//! root of the repository lists the same names, units, directions and
//! bounds; a unit test keeps the two in step.

/// A metric a user of the system would see. Every workload reports every
/// one of them, from its untraced window only.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// What the *operation* of `op_*` is per workload: `sim_ranks` one
/// simulated SYRK, `sim_blocks` one round of three, `serve_plan` one
/// hot-key `/plan` request (`ops_per_s` counts every request of the mix),
/// `serve_mixed` one round of the five `/run` classes.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A metric of one layer, reported by the traced run. No bound.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Must repeat exactly from run to run and seed to seed: `compare`
    /// checks it with `==`.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

/// Metric names that carry a `/run` class, indexed like
/// `serve_mixed::CLASSES`.
pub const DIRECT_RUN_MS: [&str; 5] = [
    "core.direct_run_ms.r1d",
    "core.direct_run_ms.r2d",
    "core.direct_run_ms.r3d",
    "core.direct_run_ms.rauto",
    "core.direct_run_ms.rcrash",
];
pub const RUN_P50_MS: [&str; 5] = [
    "server.run_p50_ms.r1d",
    "server.run_p50_ms.r2d",
    "server.run_p50_ms.r3d",
    "server.run_p50_ms.rauto",
    "server.run_p50_ms.rcrash",
];
pub const RUN_OVERHEAD_MS: [&str; 5] = [
    "server.run_overhead_ms.r1d",
    "server.run_overhead_ms.r2d",
    "server.run_overhead_ms.r3d",
    "server.run_overhead_ms.rauto",
    "server.run_overhead_ms.rcrash",
];

/// Metric names that carry an algorithm family.
pub fn words_max(family: &str) -> &'static str {
    match family {
        "1d" => "core.words_max.1d",
        "2d" => "core.words_max.2d",
        _ => "core.words_max.3d",
    }
}

pub fn bound_ratio(family: &str) -> &'static str {
    match family {
        "1d" => "core.bound_ratio.1d",
        "2d" => "core.bound_ratio.2d",
        _ => "core.bound_ratio.3d",
    }
}

/// Every per-layer metric. A workload that makes no call into a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: &[Layer] = &[
    // syrk-dense
    timed("dense.syrk_gflops", "GFLOP/s", "higher"),
    timed("dense.gemm_nt_gflops", "GFLOP/s", "higher"),
    timed("dense.syrk_gflops_1t", "GFLOP/s", "higher"),
    timed("dense.thread_speedup", "ratio", "higher"),
    timed("dense.small_syrk_ns", "ns", "lower"),
    timed("dense.kernel_share", "share", "higher"),
    exact("dense.microkernel_calls", "count"),
    exact("dense.pack_words", "words"),
    exact("dense.tasks_run", "count"),
    timed("dense.arena_misses", "count", "lower"),
    timed("dense.steals", "count", "lower"),
    // syrk-machine
    timed("machine.events_per_s", "1/s", "higher"),
    timed("machine.spawn_us_per_rank", "us", "lower"),
    timed("machine.a2a_words_per_s", "words/s", "higher"),
    timed("machine.reduce_scatter_words_per_s", "words/s", "higher"),
    timed("machine.comm_share", "share", "lower"),
    exact("machine.resumes", "count"),
    exact("machine.wakes", "count"),
    exact("machine.words_total", "words"),
    exact("machine.messages_max", "count"),
    exact("machine.peak_buffer_words", "words"),
    timed("machine.rss_kb_per_rank", "kB", "lower"),
    // syrk-core
    exact("core.words_max.1d", "words"),
    exact("core.words_max.2d", "words"),
    exact("core.words_max.3d", "words"),
    exact("core.bound_ratio.1d", "ratio"),
    exact("core.bound_ratio.2d", "ratio"),
    exact("core.bound_ratio.3d", "ratio"),
    timed("core.glue_share", "share", "lower"),
    timed("core.plan_hit_ns", "ns", "lower"),
    timed("core.plan_miss_us", "us", "lower"),
    timed("core.bound_eval_ns", "ns", "lower"),
    timed("core.plan_cache_hits", "count", "higher"),
    timed("core.plan_cache_misses", "count", "lower"),
    timed("core.plan_cache_evictions", "count", "lower"),
    timed("core.direct_run_ms.r1d", "ms", "lower"),
    timed("core.direct_run_ms.r2d", "ms", "lower"),
    timed("core.direct_run_ms.r3d", "ms", "lower"),
    timed("core.direct_run_ms.rauto", "ms", "lower"),
    timed("core.direct_run_ms.rcrash", "ms", "lower"),
    exact("core.recovery_attempts", "count"),
    exact("core.recovery_words", "words"),
    // syrk-server
    timed("server.http_floor_us", "us", "lower"),
    timed("server.connect_us", "us", "lower"),
    timed("server.ttfb_us", "us", "lower"),
    timed("server.handler_us_mean", "us", "lower"),
    timed("server.json_parse_us", "us", "lower"),
    timed("server.admit_ns", "ns", "lower"),
    timed("server.plan_cold_p50_us", "us", "lower"),
    timed("server.bounds_p50_us", "us", "lower"),
    timed("server.metrics_p50_us", "us", "lower"),
    timed("server.run_p50_ms.r1d", "ms", "lower"),
    timed("server.run_p50_ms.r2d", "ms", "lower"),
    timed("server.run_p50_ms.r3d", "ms", "lower"),
    timed("server.run_p50_ms.rauto", "ms", "lower"),
    timed("server.run_p50_ms.rcrash", "ms", "lower"),
    timed("server.run_overhead_ms.r1d", "ms", "lower"),
    timed("server.run_overhead_ms.r2d", "ms", "lower"),
    timed("server.run_overhead_ms.r3d", "ms", "lower"),
    timed("server.run_overhead_ms.rauto", "ms", "lower"),
    timed("server.run_overhead_ms.rcrash", "ms", "lower"),
    timed("server.plan_beside_run_p50_us", "us", "lower"),
    timed("server.plan_beside_run_p99_us", "us", "lower"),
    timed("server.gen_late_p99_us", "us", "lower"),
    timed("server.responses_5xx", "count", "lower"),
    timed("server.run_rejected", "count", "lower"),
    timed("server.conn_rejected", "count", "lower"),
    timed("server.warmup_drift", "ratio", "lower"),
    // syrk-telemetry
    timed("telemetry.snapshot_us", "us", "lower"),
    timed("telemetry.prometheus_render_us", "us", "lower"),
    timed("telemetry.counter_inc_ns", "ns", "lower"),
    // the harness itself
    timed("harness.op_samples", "count", "higher"),
    timed("harness.op_tail_ms", "ms", "lower"),
    timed("harness.op_tail_percentile", "%", "higher"),
    timed("harness.warmup_s", "s", "lower"),
    timed("trace_overhead_share", "share", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use syrk_server::json::{parse, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json is strict JSON")
    }

    fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(a)) => a,
            other => panic!("BENCHMARK.json {key}: {other:?}"),
        }
    }

    fn text<'a>(item: &'a Json, key: &str) -> &'a str {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} of {item:?}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = manifest();
        let e2e = items(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(item, "name"), m.name);
            assert_eq!(text(item, "unit"), m.unit);
            assert_eq!(text(item, "better"), m.better);
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = items(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (item, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(item, "name"), m.name);
            assert_eq!(text(item, "unit"), m.unit);
            assert_eq!(text(item, "better"), m.better);
        }
        let workloads = items(&doc, "workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (item, (name, why)) in workloads.iter().zip(crate::workloads::WORKLOADS) {
            assert_eq!(text(item, "name"), name);
            assert_eq!(text(item, "why"), why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for names in [DIRECT_RUN_MS, RUN_P50_MS, RUN_OVERHEAD_MS] {
            for (name, class) in names.iter().zip(crate::workloads::serve_mixed::CLASSES) {
                assert!(name.ends_with(class) && seen.contains(name));
            }
        }
        for fam in ["1d", "2d", "3d"] {
            assert!(seen.contains(words_max(fam)) && seen.contains(bound_ratio(fam)));
        }
    }
}
