//! The `trace` CLI's argument line, read as the text form of a run, and
//! its report: what a traced run prints that depends only on the run,
//! not on the host (wall time, kernel dispatch and resident memory stay
//! in the binary).

use std::fmt::Write as _;

use syrk_core::{attribute_bounds, RunSpec, SyrkRun, SyrkRunResult};
use syrk_machine::{EventKind, FaultPlan};

/// `trace`'s modes: (mode, `alg`, default shape, the grid keys the shape
/// gives after `n1 n2`).
const MODES: [(&str, &str, &str, &[&str]); 4] = [
    ("1d", "1d", "36 8 4", &["p"]),
    ("2d", "2d", "36 8 3", &["c"]),
    ("3d", "3d", "36 24 3 2", &["c", "p2"]),
    ("plan", "auto", "36 8 12", &["p"]),
];

/// A traced run's label, its `n1 × n2` input and its pairs.
pub type TracePairs = (&'static str, usize, usize, Vec<(String, String)>);

/// `trace`'s argument line (without `--metrics` and `--flight-recorder`)
/// as pairs for `syrk_core::parse_run_spec`: the mode's `alg` and the
/// grid keys its shape gives, then each `key=value` argument and each
/// `--faults` item, in which `seed` means `fault_seed`.
pub fn trace_pairs(mut args: Vec<String>) -> Result<TracePairs, String> {
    let faults = take_flag(&mut args, "faults")?.unwrap_or_default();
    for item in faults.split(',').filter(|item| !item.is_empty()) {
        let (key, value) = item.split_once('=').unwrap_or((item, ""));
        let key = if key == "seed" { "fault_seed" } else { key };
        args.push(format!("{key}={value}"));
    }
    let (given, shape): (Vec<String>, Vec<String>) =
        args.into_iter().partition(|a| a.contains('='));
    let mode = shape.first().map_or("2d", String::as_str);
    let mode = mode.to_ascii_lowercase();
    let Some(&(label, alg, default, keys)) = MODES.iter().find(|m| m.0 == mode) else {
        return Err(format!("unknown mode {mode:?}"));
    };
    let shape: Vec<&str> = match shape.get(1..).unwrap_or_default() {
        [] => default.split(' ').collect(),
        s if s.len() == 2 + keys.len() => s.iter().map(String::as_str).collect(),
        _ => return Err(format!("wrong number of shape arguments for mode {mode:?}")),
    };
    let bad = |s: &str| format!("bad shape argument {s:?} (want a positive integer)");
    let dim = |s: &str| s.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(s));
    let grid = keys.iter().copied().zip(shape[2..].iter().copied());
    let given = given.iter().filter_map(|a| a.split_once('='));
    let pairs = [("alg", alg)].into_iter().chain(grid).chain(given);
    let pairs = pairs.map(|(k, v)| (k.to_string(), v.to_string())).collect();
    Ok((label, dim(shape[0])?, dim(shape[1])?, pairs))
}

/// Pull `--NAME VALUE` or `--NAME=VALUE` out of `args`; an error when the
/// flag has no value.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let (bare, eq_form) = (format!("--{name}"), format!("--{name}="));
    let flag = |a: &String| *a == bare || a.starts_with(&eq_form);
    let Some(i) = args.iter().position(flag) else {
        return Ok(None);
    };
    match args.remove(i).strip_prefix(&eq_form) {
        Some(value) => Ok(Some(value.to_string())),
        None if i < args.len() => Ok(Some(args.remove(i))),
        None => Err(format!("{bare} needs a value")),
    }
}

/// The per-rank summary, the phase table and the bound-attribution
/// residuals of a traced run of `spec` on an `n1 × n2` input, then the
/// retry traffic when `spec` injects faults. Bounds are those of the plan
/// that ran: after a recovery, the final one.
pub fn report(label: &str, n1: usize, n2: usize, spec: &RunSpec, out: &SyrkRun) -> String {
    let run = &out.result;
    let plan = out.recovery.as_ref().map_or(spec.plan, |r| r.final_plan);
    let traces = out.traces.as_deref().unwrap_or_default();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{label} SYRK trace: A {n1}×{n2}, plan {plan:?}, P = {}",
        run.cost.num_ranks()
    );
    let _ = writeln!(
        s,
        "{:>5} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "rank", "events", "exchgs", "words", "flops", "final clock"
    );
    for (r, (tl, cost)) in traces.iter().zip(&run.cost.ranks).enumerate() {
        let exchgs = tl.iter().filter(|e| e.kind == EventKind::Exchange).count();
        let (events, words, flops, clock) = (tl.len(), cost.words_sent, cost.flops, cost.clock);
        let _ = writeln!(
            s,
            "{r:>5} {events:>8} {exchgs:>8} {words:>10} {flops:>10} {clock:>12.4}"
        );
    }
    let _ = writeln!(s, "critical path (max clock): {:.4}\n", run.cost.elapsed());
    let _ = writeln!(s, "{}", run.cost.phase_table());
    let _ = write!(s, "{}", attribute_bounds(n1, n2, plan, &run.cost));
    if let Some(plan) = &spec.faults {
        report_faults(&mut s, plan, run);
    }
    s
}

/// The retry phase table: traffic the fault plan caused, which is paid
/// for in the ledger but sits outside the Theorem 1 bound terms. Sent and
/// received words are summed because drops charge the sender while
/// detected duplicates/corruptions charge the receiver.
fn report_faults(s: &mut String, plan: &FaultPlan, run: &SyrkRunResult) {
    let _ = writeln!(s, "\nfault injection (seed {}): retry traffic", plan.seed());
    let mut retry = run.cost.phase_names();
    retry.retain(|n| n.starts_with("retry:"));
    if retry.is_empty() {
        let _ = writeln!(s, "  (no message was faulted under this plan)");
        return;
    }
    let _ = writeln!(
        s,
        "  {:<20} {:>12} {:>12} {:>10}",
        "phase", "tot words", "tot msgs", "max clock"
    );
    for name in retry {
        let (mut words, mut msgs, mut clock) = (0u64, 0u64, 0f64);
        for rank in 0..run.cost.num_ranks() {
            if let Some(c) = run.cost.phase_cost(rank, name) {
                words += c.words_sent + c.words_recv;
                msgs += c.msgs_sent + c.msgs_recv;
                clock = clock.max(c.clock);
            }
        }
        let _ = writeln!(s, "  {name:<20} {words:>12} {msgs:>12} {clock:>10.3e}");
    }
}
