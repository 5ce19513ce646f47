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
//! trace 2d 36 8 3 crash_rank=1 crash_op=2 max_attempts=3
//! ```
//!
//! The mode and shape set `alg` and its grid keys; each `key=value` and
//! `--faults` item is a further pair of the run's text form, which `/run`
//! reads too. Bounds are attributed to the plan that ran last.
//!
//! Writes the full event log as CSV and as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`; timestamps are the
//! simulated α-β-γ clock) to `target/experiments/trace_<mode>.{csv,json}`.
//! Malformed arguments print usage and exit with status 2.

use syrk_bench::trace::{report, take_flag, trace_pairs};
use syrk_core::{parse_run_spec, run, RunSpec};
use syrk_dense::{detected_isa, dispatched_isa, kernel_stats, seeded_matrix};
use syrk_machine::telemetry::{flight, prometheus_text, registry, snapshot_json};
use syrk_machine::{
    chrome_trace_json, chrome_trace_json_with_wall, timelines_csv, CostModel, Machine, MachineError,
};

const USAGE: &str = "\
usage: trace [mode] [shape] [key=value ...] [--faults SPEC] [--metrics FMT] [--flight-recorder PATH]
  trace                  2D at the default shape (36, 8, c = 3)
  trace 1d [n1 n2 p]     Algorithm 1 (defaults 36 8 4)
  trace 2d [n1 n2 c]     Algorithm 2 (defaults 36 8 3)
  trace 3d [n1 n2 c p2]  Algorithm 3 (defaults 36 24 3 2)
  trace plan [n1 n2 P]   the planner's pick for a P-rank budget (defaults 36 8 12)
  trace deadlock         force a 2-rank recv/recv deadlock and write the
                         failure dump (wait-for graph + metrics + flight
                         recording); exits 0 when the dump was written
shape arguments are positive integers

  key=value              a pair of the run's text form, as /run takes it: alg p
                         c p2 fault_seed drop dup delay skew corrupt retries
                         crash_rank crash_op max_attempts; the last value wins
  --faults SPEC          comma-separated pairs (seed=N is fault_seed) and the
                         retry phase table; e.g. --faults seed=7,drop=0.2
  --metrics FMT          print the telemetry registry after the run; FMT is
                         `text` (Prometheus exposition) or `json`
  --flight-recorder PATH enable the wall-clock flight recorder and write the
                         merged Chrome trace (simulated rows + wall-clock
                         rows) to PATH; in deadlock mode, the failure dump";

fn usage_exit(message: &str) -> ! {
    eprintln!("trace: {message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Print the metrics registry: `text` is the Prometheus exposition,
/// anything else JSON.
fn print_metrics(fmt: &str) {
    let snap = registry::snapshot();
    if fmt == "text" {
        print!("{}", prometheus_text(&snap));
    } else {
        println!("{}", snapshot_json(&snap));
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

/// The run an argument line (without `--metrics` and `--flight-recorder`)
/// asks for: the mode's label, the input shape and the traced spec.
fn spec_of(args: Vec<String>) -> (&'static str, usize, usize, RunSpec) {
    let (label, n1, n2, pairs) = trace_pairs(args).unwrap_or_else(|e| usage_exit(&e));
    let spec = parse_run_spec(n1, n2, usize::MAX, &pairs);
    let mut spec = spec.unwrap_or_else(|e| usage_exit(&e.to_string()));
    spec.trace = true;
    spec.model = CostModel {
        alpha: 1.0,
        beta: 0.01,
        gamma: 1e-5,
    };
    (label, n1, n2, spec)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Extract the --flag arguments before positional parsing.
    let mut flag = |name| take_flag(&mut args, name).unwrap_or_else(|e| usage_exit(&e));
    let metrics_fmt = flag("metrics");
    let flight_path = flag("flight-recorder").map(std::path::PathBuf::from);
    match metrics_fmt.as_deref() {
        None | Some("text" | "json") => {}
        Some(fmt) => usage_exit(&format!("bad --metrics format {fmt:?} (want text or json)")),
    }
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
    let (label, n1, n2, spec) = spec_of(args);
    let a = seeded_matrix::<f64>(n1, n2, 1);

    let kernels_before = kernel_stats();
    let wall = std::time::Instant::now();
    let out = match run(&a, &spec) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("trace: run failed: {e}");
            std::process::exit(1);
        }
    };
    let wall = wall.elapsed().as_secs_f64();
    let kernels = kernel_stats().since(&kernels_before);
    print!("{}", report(label, n1, n2, &spec, &out));
    let run = &out.result;
    let traces = out.traces.as_deref().expect("the spec asks for tracing");

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
        (&csv_path, timelines_csv(traces)),
        (&json_path, chrome_trace_json(traces)),
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
        let merged = chrome_trace_json_with_wall(traces, &rec);
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

    /// 64-bit FNV-1a of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn reports_of_the_ci_lines_are_pinned() {
        // (argument line, report length, FNV-1a of the report) for every
        // line CI traces except the 10⁴-rank smokes: the report is the
        // whole of stdout but the host lines (wall time, kernel dispatch,
        // VmHWM, file paths).
        let pins: [(&str, usize, u64); 5] = [
            ("1d", 895, 0x041a_a354_d900_4e29),
            ("2d", 1469, 0x78ef_646c_4a2f_bdb2),
            ("3d", 2386, 0x7d49_91fd_b279_dc54),
            ("plan", 1471, 0x66b8_fb75_a2b3_0e61),
            (
                "2d 36 8 3 --faults seed=7,drop=0.2,dup=0.1,delay=0.2,skew=2.0,corrupt=0.05",
                2032,
                0xd5c9_1106_36c4_4e40,
            ),
        ];
        let mut moved = Vec::new();
        for (line, want_len, want_digest) in pins {
            let (label, n1, n2, spec) = spec_of(line.split(' ').map(String::from).collect());
            let out = run(&seeded_matrix::<f64>(n1, n2, 1), &spec).expect("CI lines run");
            let text = report(label, n1, n2, &spec, &out);
            let got = (text.len(), fnv1a(text.as_bytes()));
            if got != (want_len, want_digest) {
                moved.push(format!("(\"{line}\", {}, {:#018x}),\n{text}", got.0, got.1));
            }
        }
        assert!(
            moved.is_empty(),
            "pinned reports moved:\n{}",
            moved.join("\n")
        );
    }
}
