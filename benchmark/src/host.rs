//! What the numbers were measured on: the host fingerprint, the peak
//! resident set of this process, and the refusal to run under a switch.

use std::process::Command;

use syrk_telemetry::registry::{MetricValue, MetricsSnapshot};

use crate::jsonout::J;

/// Bumped whenever a workload, a metric definition or the results schema
/// changes; `compare` refuses files of different versions.
pub const BENCH_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The benchmark measures defaults only (default engine, thread budget,
/// ISA dispatch, stack size). Any `SYRK_*` variable is a switch some
/// crate of the repository reads; numbers taken under one do not count,
/// so the run does not start.
pub fn refuse_env_overrides() -> Result<(), String> {
    refuse_overrides_in(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()))
}

fn refuse_overrides_in(names: impl Iterator<Item = String>) -> Result<(), String> {
    let mut set: Vec<String> = names.filter(|k| k.starts_with("SYRK_")).collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to run: {} set in the environment. The benchmark measures the \
         defaults only; unset every SYRK_* variable and run again.",
        set.join(", ")
    ))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything two results files must share before their numbers may be
/// compared, plus the provenance (commit, compiler) that says what
/// produced them.
pub fn fingerprint() -> J {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    J::obj([
        (
            "nproc",
            J::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
        ),
        (
            "kernel_threads",
            J::Int(syrk_dense::available_threads() as i64),
        ),
        ("cpu", J::Str(cpu)),
        ("isa_detected", J::str(syrk_dense::detected_isa().name())),
        (
            "isa_dispatched",
            J::str(syrk_dense::dispatched_isa().name()),
        ),
        (
            "engine",
            J::str(syrk_machine::Machine::new(1).selected_engine().name()),
        ),
        ("rustc", J::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            J::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// The fingerprint fields `compare` requires to be equal. Commit and
/// compiler are provenance: comparing two commits is the point.
pub const FINGERPRINT_MUST_MATCH: [&str; 6] = [
    "nproc",
    "kernel_threads",
    "cpu",
    "isa_detected",
    "isa_dispatched",
    "engine",
];

/// Peak resident set of this process (`VmHWM`), in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Counter of `snap`, 0 when it was never registered.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// `after − before` for one counter.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    counter(after, name).saturating_sub(counter(before, name))
}

/// `after − before` of every counter and of every histogram's count and
/// sum, as the registry-snapshot delta a results file embeds. Gauges are
/// levels, not totals, and are reported as they stand at `after`.
pub fn registry_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> J {
    let mut members = Vec::new();
    for (name, value) in &after.entries {
        match value {
            MetricValue::Counter(v) => {
                let d = v.saturating_sub(counter(before, name));
                if d != 0 {
                    members.push((name.to_string(), J::Int(d as i64)));
                }
            }
            MetricValue::Gauge(v) => {
                if *v != 0 {
                    members.push((name.to_string(), J::Int(*v)));
                }
            }
            MetricValue::Histogram { count, sum, .. } => {
                let (c0, s0) = before.histogram(name).unwrap_or((0, 0));
                if *count > c0 {
                    members.push((format!("{name}_count"), J::Int((count - c0) as i64)));
                    members.push((format!("{name}_sum"), J::Int(sum.saturating_sub(s0) as i64)));
                }
            }
        }
    }
    J::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_syrk_variable_stops_the_run_and_is_named() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(
            refuse_overrides_in(names(&["PATH", "HOME", "CARGO_TARGET_DIR"]).into_iter()).is_ok()
        );
        for var in [
            "SYRK_BENCH_FAST",
            "SYRK_NUM_THREADS",
            "SYRK_FORCE_ISA",
            "SYRK_MACHINE_ENGINE",
            "SYRK_SOMETHING_NEW",
        ] {
            let err = refuse_overrides_in(names(&["PATH", var]).into_iter()).unwrap_err();
            assert!(err.contains(var), "{err}");
            assert!(err.contains("refusing to run"), "{err}");
        }
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        let mb = peak_rss_mb();
        assert!(mb.is_nan() || mb > 0.5, "VmHWM = {mb} MB");
    }
}
