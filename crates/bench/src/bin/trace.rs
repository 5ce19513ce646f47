//! Phase-attributed communication trace: run one of the SYRK algorithms
//! with event tracing and render per-rank timelines, the per-phase cost
//! table, and the bound-attribution residuals.
//!
//! ```text
//! trace                      # 2D at the default shape (36, 8, c = 3)
//! trace 1d [n1 n2 p]         # Algorithm 1        (defaults 36 8 4)
//! trace 2d [n1 n2 c]         # Algorithm 2        (defaults 36 8 3)
//! trace 3d [n1 n2 c p2]      # Algorithm 3        (defaults 36 24 3 2)
//! trace plan [n1 n2 P]       # planner's pick     (defaults 36 8 12)
//! ```
//!
//! Writes the full event log as CSV and as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`; timestamps are the
//! simulated α-β-γ clock) to `target/experiments/trace_<mode>.{csv,json}`.
//! Malformed arguments print usage and exit with status 2.

use syrk_core::{attribute_bounds, plan, run, Plan, RunSpec, SyrkRunResult};
use syrk_dense::{detected_isa, dispatched_isa, kernel_stats, seeded_matrix};
use syrk_machine::telemetry::{flight, prometheus_text, registry, snapshot_json};
use syrk_machine::{
    chrome_trace_json, chrome_trace_json_with_wall, timelines_csv, CostModel, EventKind, FaultPlan,
    Machine, MachineError, Timeline,
};

const USAGE: &str = "\
usage: trace [mode] [shape] [--faults SPEC] [--metrics FMT] [--flight-recorder PATH]
  trace                  2D at the default shape (36, 8, c = 3)
  trace 1d [n1 n2 p]     Algorithm 1 (defaults 36 8 4)
  trace 2d [n1 n2 c]     Algorithm 2 (defaults 36 8 3)
  trace 3d [n1 n2 c p2]  Algorithm 3 (defaults 36 24 3 2)
  trace plan [n1 n2 P]   the planner's pick for a P-rank budget (defaults 36 8 12)
  trace deadlock         force a 2-rank recv/recv deadlock and write the
                         failure dump (wait-for graph + metrics + flight
                         recording); exits 0 when the dump was written
shape arguments are positive integers

  --faults SPEC          inject deterministic transport faults and print the
                         retry phase table. SPEC is comma-separated key=value:
                         seed=N drop=p dup=p delay=p skew=s corrupt=p retries=n
                         (probabilities in [0,1]); e.g. --faults seed=7,drop=0.2
  --metrics FMT          print the telemetry registry after the run; FMT is
                         `text` (Prometheus exposition) or `json`
  --flight-recorder PATH enable the wall-clock flight recorder and write the
                         merged Chrome trace (simulated rows + wall-clock
                         rows) to PATH; in deadlock mode, the failure dump";

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parse every shape argument as a positive integer or exit with usage.
fn parse_shape(args: &[String]) -> Vec<usize> {
    args.iter()
        .map(|a| match a.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("trace: bad shape argument {a:?} (want a positive integer)\n");
                usage_exit()
            }
        })
        .collect()
}

/// Parse a `--faults` spec (`seed=7,drop=0.2,...`) or exit with usage.
fn parse_faults(spec: &str) -> FaultPlan {
    let mut seed = 0u64;
    let mut fields: Vec<(&str, f64)> = Vec::new();
    for item in spec.split(',').filter(|s| !s.is_empty()) {
        let bad = |what: &str| -> ! {
            eprintln!("trace: bad --faults item {item:?} ({what})\n");
            usage_exit()
        };
        let Some((key, value)) = item.split_once('=') else {
            bad("want key=value");
        };
        match key {
            "seed" => match value.parse::<u64>() {
                Ok(n) => seed = n,
                Err(_) => bad("seed wants an unsigned integer"),
            },
            "drop" | "dup" | "delay" | "corrupt" => match value.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => fields.push((key, p)),
                _ => bad("probability must be in [0, 1]"),
            },
            "skew" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 => fields.push((key, s)),
                _ => bad("skew must be non-negative"),
            },
            "retries" => match value.parse::<u32>() {
                Ok(n) => fields.push((key, f64::from(n))),
                Err(_) => bad("retries wants an unsigned integer"),
            },
            _ => bad("unknown key"),
        }
    }
    let get = |key: &str| {
        fields
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    };
    let mut plan = FaultPlan::seeded(seed);
    if let Some(p) = get("drop") {
        plan = plan.drop(p);
    }
    if let Some(p) = get("dup") {
        plan = plan.duplicate(p);
    }
    if let Some(p) = get("delay") {
        plan = plan.delay(p, get("skew").unwrap_or(1.0));
    }
    if let Some(p) = get("corrupt") {
        plan = plan.corrupt(p);
    }
    if let Some(n) = get("retries") {
        plan = plan.retries(n as u32);
    }
    plan
}

/// Pull `--NAME VALUE` / `--NAME=VALUE` out of `args`, returning the
/// value; exits with usage when the flag is present but valueless.
fn take_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let eq_form = format!("--{name}=");
    let i = args
        .iter()
        .position(|a| a == &format!("--{name}") || a.starts_with(&eq_form))?;
    if let Some(s) = args[i].strip_prefix(&eq_form) {
        let s = s.to_string();
        args.remove(i);
        Some(s)
    } else {
        args.remove(i);
        if i >= args.len() {
            eprintln!("trace: --{name} needs a value\n");
            usage_exit()
        }
        Some(args.remove(i))
    }
}

/// Print the metrics registry in the requested format (`text` = Prometheus
/// exposition, `json`).
fn print_metrics(fmt: &str) {
    let snap = registry::snapshot();
    match fmt {
        "text" => print!("{}", prometheus_text(&snap)),
        "json" => println!("{}", snapshot_json(&snap)),
        other => {
            eprintln!("trace: bad --metrics format {other:?} (want text or json)\n");
            usage_exit()
        }
    }
}

/// Force a two-rank recv/recv deadlock: both ranks post a receive and
/// nobody sends, so the scheduler declares it, the failure dump (wait-for graph,
/// metrics, flight recording) lands at `dump_path`, and the process exits
/// 0 if the dump is non-empty.
fn run_deadlock(dump_path: &std::path::Path, metrics: Option<&str>) -> ! {
    flight::enable();
    let machine = Machine::new(2).with_failure_dump(dump_path);
    let err = machine.try_run(|comm| {
        // Symmetric blocked receives: a cycle the scheduler must report.
        let peer = 1 - comm.rank();
        comm.try_recv::<Vec<f64>>(peer, 99).map(|_| ())
    });
    flight::disable();
    if let Some(fmt) = metrics {
        println!("\n-- metrics ({fmt}) --");
        print_metrics(fmt);
    }
    match err {
        Err(MachineError::Deadlock(info)) => {
            println!(
                "deadlock detected as expected ({} wait-for edges)",
                info.edges.len()
            );
            match std::fs::metadata(dump_path) {
                Ok(m) if m.len() > 0 => {
                    println!("failure dump: {} ({} bytes)", dump_path.display(), m.len());
                    std::process::exit(0)
                }
                _ => {
                    eprintln!(
                        "trace: failure dump missing or empty at {}",
                        dump_path.display()
                    );
                    std::process::exit(1)
                }
            }
        }
        other => {
            eprintln!("trace: expected a deadlock, got {other:?}");
            std::process::exit(1)
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Extract the --flag arguments before positional parsing.
    let faults: Option<FaultPlan> = take_flag(&mut args, "faults").map(|s| parse_faults(&s));
    let metrics_fmt = take_flag(&mut args, "metrics");
    if let Some(fmt) = &metrics_fmt {
        if fmt != "text" && fmt != "json" {
            eprintln!("trace: bad --metrics format {fmt:?} (want text or json)\n");
            usage_exit()
        }
    }
    let flight_path = take_flag(&mut args, "flight-recorder").map(std::path::PathBuf::from);
    if args.first().map(String::as_str) == Some("deadlock") {
        let dump =
            flight_path.unwrap_or_else(|| "target/experiments/trace_deadlock_dump.json".into());
        if let Some(dir) = dump.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        run_deadlock(&dump, metrics_fmt.as_deref());
    }
    if flight_path.is_some() {
        flight::enable();
    }
    let (mode, rest) = match args.split_first() {
        None => (String::from("2d"), &args[..]),
        Some((m, rest)) => (m.to_ascii_lowercase(), rest),
    };

    let (label, n1, n2, the_plan) = match (mode.as_str(), &parse_shape(rest)[..]) {
        ("1d", []) => ("1d", 36, 8, Plan::OneD { p: 4 }),
        ("1d", [n1, n2, p]) => ("1d", *n1, *n2, Plan::OneD { p: *p }),
        ("2d", []) => ("2d", 36, 8, Plan::TwoD { c: 3 }),
        ("2d", [n1, n2, c]) => ("2d", *n1, *n2, Plan::TwoD { c: *c }),
        ("3d", []) => ("3d", 36, 24, Plan::ThreeD { c: 3, p2: 2 }),
        ("3d", [n1, n2, c, p2]) => ("3d", *n1, *n2, Plan::ThreeD { c: *c, p2: *p2 }),
        ("plan", []) => ("plan", 36, 8, plan(36, 8, 12).plan),
        ("plan", [n1, n2, p]) => ("plan", *n1, *n2, plan(*n1, *n2, *p).plan),
        ("1d" | "2d" | "3d" | "plan", _) => {
            eprintln!("trace: wrong number of shape arguments for mode {mode:?}\n");
            usage_exit()
        }
        _ => {
            eprintln!("trace: unknown mode {mode:?}\n");
            usage_exit()
        }
    };

    let a = seeded_matrix::<f64>(n1, n2, 1);
    let model = CostModel {
        alpha: 1.0,
        beta: 0.01,
        gamma: 1e-5,
    };
    let spec = RunSpec {
        faults,
        trace: true,
        ..RunSpec::new(the_plan, model)
    };

    let kernels_before = kernel_stats();
    let wall = std::time::Instant::now();
    let (run, traces) = match run(&a, &spec) {
        Ok(out) => (out.result, out.traces.expect("the spec asks for tracing")),
        Err(e) => {
            eprintln!("trace: run failed: {e}");
            std::process::exit(1);
        }
    };
    let wall = wall.elapsed().as_secs_f64();
    let kernels = kernel_stats().since(&kernels_before);

    report(label, n1, n2, the_plan, &run, &traces);
    if let Some(plan) = &spec.faults {
        report_faults(plan, &run);
    }

    let total_flops: u64 = run.cost.ranks.iter().map(|r| r.flops).sum();
    println!(
        "\nkernel engine: {} pack words, {} microkernel calls, \
         {:.3e} effective GFLOP/s ({} wall)",
        kernels.pack_words,
        kernels.microkernel_calls,
        total_flops as f64 / wall.max(1e-9) / 1e9,
        format_time(wall),
    );
    println!(
        "kernel runtime: arena {} hits / {} misses / {} bytes allocated",
        kernels.arena_hits, kernels.arena_misses, kernels.arena_alloc_bytes,
    );
    let per_isa = kernels
        .isa_calls_by_name()
        .into_iter()
        .map(|(name, calls)| format!("{name} {calls}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "kernel dispatch: isa {} (detected {}), per-isa microkernel calls: {}",
        dispatched_isa(),
        detected_isa(),
        if per_isa.is_empty() {
            String::from("(none)")
        } else {
            per_isa
        },
    );

    // The whole run's wall time over its messages: kernels, spawn and
    // this binary's event tracing are all in the numerator.
    let messages: u64 = run.cost.ranks.iter().map(|r| r.msgs_sent).sum();
    println!(
        "message path: {messages} messages, {:.0} ns host time per message \
         (wall time of the run / messages sent, tracing on)",
        wall * 1e9 / messages.max(1) as f64,
    );
    // The process's peak resident set over the simulated ranks: the
    // bytes of live state a rank costs the host, stacks included.
    if let Some(kib) = vm_hwm_kib() {
        let ranks = run.cost.num_ranks();
        println!(
            "host memory: VmHWM {:.1} MB, {:.1} kB per rank",
            kib as f64 * 1.024e-3,
            kib as f64 * 1.024 / ranks as f64,
        );
    }

    let dir = std::path::Path::new("target/experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("trace: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let csv_path = dir.join(format!("trace_{label}.csv"));
    let json_path = dir.join(format!("trace_{label}.json"));
    for (path, payload) in [
        (&csv_path, timelines_csv(&traces)),
        (&json_path, chrome_trace_json(&traces)),
    ] {
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("trace: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!(
        "full event log: {} (CSV), {} (Chrome trace JSON)",
        csv_path.display(),
        json_path.display()
    );

    if let Some(path) = &flight_path {
        flight::disable();
        let rec = flight::collect();
        let merged = chrome_trace_json_with_wall(&traces, &rec);
        if let Err(e) = std::fs::write(path, merged) {
            eprintln!("trace: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "flight recorder: {} ({} wall-clock events, {} dropped)",
            path.display(),
            rec.events.len(),
            rec.dropped
        );
    }
    if let Some(fmt) = &metrics_fmt {
        println!("\n-- metrics ({fmt}) --");
        print_metrics(fmt);
    }
}

/// Peak resident set of this process (`VmHWM`), in KiB; `None` where
/// there is no procfs.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// The retry phase table: traffic the fault plan caused, which is paid
/// for in the ledger but sits outside the Theorem 1 bound terms. Sent and
/// received words are summed because drops charge the sender while
/// detected duplicates/corruptions charge the receiver.
fn report_faults(plan: &FaultPlan, run: &SyrkRunResult) {
    println!("\nfault injection (seed {}): retry traffic", plan.seed());
    let retry: Vec<&str> = run
        .cost
        .phase_names()
        .into_iter()
        .filter(|n| n.starts_with("retry:"))
        .collect();
    if retry.is_empty() {
        println!("  (no message was faulted under this plan)");
        return;
    }
    println!(
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
        println!("  {name:<20} {words:>12} {msgs:>12} {clock:>10.3e}");
    }
}

/// Per-rank summary, the phase table, and the bound-attribution residuals.
fn report(label: &str, n1: usize, n2: usize, plan: Plan, run: &SyrkRunResult, traces: &[Timeline]) {
    println!(
        "{label} SYRK trace: A {n1}×{n2}, plan {plan:?}, P = {}",
        run.cost.num_ranks()
    );
    println!(
        "{:>5} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "rank", "events", "exchgs", "words", "flops", "final clock"
    );
    for (r, tl) in traces.iter().enumerate() {
        let exchgs = tl.iter().filter(|e| e.kind == EventKind::Exchange).count();
        println!(
            "{:>5} {:>8} {:>8} {:>10} {:>10} {:>12.4}",
            r,
            tl.len(),
            exchgs,
            run.cost.ranks[r].words_sent,
            run.cost.ranks[r].flops,
            run.cost.ranks[r].clock
        );
    }
    println!("critical path (max clock): {:.4}\n", run.cost.elapsed());
    print!("{}", run.cost.phase_table());
    println!();
    print!("{}", attribute_bounds(n1, n2, plan, &run.cost));
}

/// Human-readable seconds.
fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_scales() {
        assert!(format_time(2.5).ends_with(" s"));
        assert!(format_time(2.5e-3).ends_with(" ms"));
        assert!(format_time(2.5e-6).ends_with(" us"));
        assert!(format_time(2.5e-9).ends_with(" ns"));
    }
}
