//! `syrkbench` — the one benchmark of the SYRK reproduction.
//!
//! ```text
//! syrkbench --workload W --seed N --seconds S --trace 0|1   one workload (what BENCHMARK.json runs)
//! syrkbench run [--seed N] [--seconds S] [--sets K] [--trace]   all four, one child process each
//! syrkbench compare BASE.json NEW.json                      apply the bounds
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and what each
//! is expected to move.

mod client;
mod compare;
mod host;
mod jsonout;
mod metrics;
mod replay;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use syrk_server::json::{self, Json};
use syrk_telemetry::registry;

use jsonout::J;
use metrics::{END_TO_END, PER_LAYER};
use workloads::{Ctx, Report, WORKLOADS};

/// Window length of a full run; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  syrkbench --workload <sim_ranks|sim_blocks|serve_plan|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
  syrkbench run [--seed <n>] [--seconds <s>] [--sets <k>] [--trace]
  syrkbench compare <base.json> <new.json>
  syrkbench manifest                       print BENCHMARK.json as the metric tables define it";

/// Where result and trace files go: `benchmark/results/`, next to this
/// package's manifest whatever the working directory is.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--name value` options and bare flags after the subcommand.
struct Options {
    values: BTreeMap<String, String>,
}

impl Options {
    fn parse(args: &[String], flags: &[&str]) -> Result<Options, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if flags.contains(&name) {
                "1".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            values.insert(name.to_string(), value);
        }
        Ok(Options { values })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot read {raw:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn seconds_in_range(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 && seconds <= 60.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be in (0, 60], got {seconds}"))
    }
}

/// The metrics of one finished workload, in `BENCHMARK.json` order: the
/// end-to-end ones from an untraced run, the per-layer ones from a traced
/// run (0 for every layer the workload does not call into).
fn metrics_of(report: &Report, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        return PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    report.layer.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .collect();
    }
    let op = stats::summarize(&report.untraced.op_ms);
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "op_p50_ms" => op.p50,
                "ops_per_s" => report.untraced.ops as f64 / report.untraced.seconds,
                "peak_rss_mb" => host::peak_rss_mb(),
                "setup_s" => stats::median(&report.setup_s),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (m.name, m.unit, value)
        })
        .collect()
}

/// Run one workload in this process and print its result; the last line
/// of standard output is the JSON object the PR driver reads.
fn run_one(opts: &Options) -> Result<ExitCode, String> {
    opts.only(&["workload", "seed", "seconds", "trace", "detail"])?;
    let name: String = opts.get("workload", String::new())?;
    let trace = match opts.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let ctx = Ctx {
        seed: opts.get("seed", 1)?,
        seconds: seconds_in_range(opts.get("seconds", DEFAULT_SECONDS)?)?,
        trace,
    };
    let detail: String = opts.get("detail", String::new())?;

    let before = registry::snapshot();
    let mut tracer = span::Tracer::new(false, Instant::now(), 0);
    let report = workloads::run(&name, &ctx, &mut tracer).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let registry_delta = host::registry_delta(&before, &registry::snapshot());

    for reason in &report.checks.reasons {
        eprintln!("FAILED: {reason}");
    }
    if report.untraced.op_ms.is_empty() || report.setup_s.is_empty() {
        return Err(format!("{name}: nothing was measured"));
    }
    let op = stats::summarize(&report.untraced.op_ms);
    println!(
        "# {name} seed={} seconds={} trace={}: {} operations timed; tail is p{:.1} \
         (the highest percentile with >= {} samples beyond it, capped at p99)",
        ctx.seed,
        ctx.seconds,
        trace as u8,
        op.n,
        op.tail_q * 100.0,
        stats::TAIL_SAMPLES_BEYOND
    );
    let metrics = metrics_of(&report, trace);
    for (metric, unit, value) in &metrics {
        println!("{metric} {value} {unit}");
    }
    println!(
        "failed_share {} share",
        report.checks.failed as f64 / report.checks.attempted.max(1) as f64
    );
    for warning in &report.warnings {
        println!("# warning: {warning}");
    }
    if trace {
        let path = results_dir().join(format!("trace-{name}.json"));
        write_file(
            &path,
            &span::chrome_trace(&name, tracer.spans()).to_string(),
        )?;
        println!("# trace written to {}", path.display());
    }

    let correct = report.checks.failed == 0;
    let result = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(report.checks.attempted.max(1) as i64)),
        ("failed", J::Int(report.checks.failed as i64)),
        (
            "metrics",
            J::obj(metrics.iter().map(|&(metric, unit, value)| {
                (
                    metric,
                    J::obj([("value", J::Num(value)), ("unit", J::str(unit))]),
                )
            })),
        ),
    ]);
    if !detail.is_empty() {
        let doc = J::obj([
            ("fingerprint", host::fingerprint()),
            ("registry_delta", registry_delta),
            (
                "warnings",
                J::Arr(report.warnings.iter().map(J::str).collect()),
            ),
            (
                "failures",
                J::Arr(report.checks.reasons.iter().map(J::str).collect()),
            ),
        ]);
        write_file(Path::new(&detail), &doc.to_string())?;
    }
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What `run` keeps of one workload across its sets.
#[derive(Default)]
struct Collected {
    attempted: u64,
    failed: u64,
    /// metric → (unit, one value per set)
    metrics: Vec<(String, String, Vec<f64>)>,
    detail: Option<Json>,
}

fn json_to_j(v: &Json) -> J {
    match v {
        Json::Null => J::Null,
        Json::Bool(b) => J::Bool(*b),
        Json::Num(n) => J::Num(*n),
        Json::Str(s) => J::Str(s.clone()),
        Json::Arr(a) => J::Arr(a.iter().map(json_to_j).collect()),
        Json::Obj(o) => J::Obj(o.iter().map(|(k, v)| (k.clone(), json_to_j(v))).collect()),
    }
}

/// Run every workload in a child process of its own — the registry, the
/// plan cache, the allocator's state and `VmHWM` are per process, so each
/// workload starts from the same nothing — and write one results file.
fn run_all(opts: &Options) -> Result<ExitCode, String> {
    opts.only(&["seed", "seconds", "sets", "trace"])?;
    let seed: u64 = opts.get("seed", 1)?;
    let seconds = seconds_in_range(opts.get("seconds", DEFAULT_SECONDS)?)?;
    let sets: usize = opts.get("sets", 1)?;
    let trace = opts.get("trace", 0u8)? == 1;
    if sets == 0 {
        return Err("--sets must be at least 1".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = results_dir();
    let mut collected: Vec<(&str, Collected)> = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let mut c = Collected::default();
        for set in 0..sets {
            eprintln!("== {name} (set {} of {sets}) ==", set + 1);
            let detail_path = dir.join(format!(".detail-{name}.json"));
            let out = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--detail")
                .arg(&detail_path)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or("");
            let result = json::parse(last).map_err(|e| {
                format!("{name}: no result line ({e}); exit {:?}", out.status.code())
            })?;
            all_correct &= out.status.success();
            c.attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            c.failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
            if let Some(Json::Obj(ms)) = result.get("metrics") {
                for (i, (metric, m)) in ms.iter().enumerate() {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    if set == 0 {
                        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                        c.metrics
                            .push((metric.clone(), unit.to_string(), vec![value]));
                    } else {
                        c.metrics[i].2.push(value);
                    }
                }
            }
            if let Ok(text) = std::fs::read_to_string(&detail_path) {
                c.detail = json::parse(&text).ok();
                let _ = std::fs::remove_file(&detail_path);
            }
        }
        collected.push((name, c));
    }

    let fingerprint = collected
        .iter()
        .find_map(|(_, c)| c.detail.as_ref().and_then(|d| d.get("fingerprint")))
        .map_or(J::Null, json_to_j);
    let doc = J::obj([
        ("benchmark", J::str("syrkbench")),
        ("version", J::str(host::BENCH_VERSION)),
        ("seed", J::Int(seed as i64)),
        ("seconds", J::Num(seconds)),
        ("sets", J::Int(sets as i64)),
        ("trace", J::Bool(trace)),
        ("fingerprint", fingerprint),
        (
            "workloads",
            J::obj(collected.iter().map(|(name, c)| {
                let detail = |key: &str| {
                    c.detail
                        .as_ref()
                        .and_then(|d| d.get(key))
                        .map_or(J::Null, json_to_j)
                };
                (
                    *name,
                    J::obj([
                        ("correct", J::Bool(c.failed == 0)),
                        ("attempted", J::Int(c.attempted as i64)),
                        ("failed", J::Int(c.failed as i64)),
                        (
                            "metrics",
                            J::obj(c.metrics.iter().map(|(metric, unit, values)| {
                                (
                                    metric.as_str(),
                                    J::obj([
                                        ("unit", J::str(unit.as_str())),
                                        ("median", J::Num(stats::median(values))),
                                        (
                                            "values",
                                            J::Arr(values.iter().map(|&v| J::Num(v)).collect()),
                                        ),
                                    ]),
                                )
                            })),
                        ),
                        ("registry_delta", detail("registry_delta")),
                        ("warnings", detail("warnings")),
                        ("failures", detail("failures")),
                    ]),
                )
            })),
        ),
    ]);
    let file = dir.join(format!(
        "{}-{seed}.json",
        if trace { "traced" } else { "run" }
    ));
    write_file(&file, &format!("{doc}\n"))?;
    eprintln!("results written to {}", file.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json` as the tables in `metrics.rs` and `workloads` define
/// it (`syrkbench manifest > BENCHMARK.json`); a unit test checks the
/// committed file against the same tables.
fn manifest() -> J {
    let text = |s: &str| J::str(s);
    J::obj([
        (
            "command",
            J::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", J::Arr(vec![text("benchmark")])),
        ("run_seconds", J::Int(DEFAULT_SECONDS as i64)),
        (
            "workloads",
            J::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| J::obj([("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            J::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        J::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", J::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            J::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        J::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("manifest") if args.len() == 1 => {
            println!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match args {
            [_, base, new] => Ok(if compare::compare(base, new)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("run") => {
            host::refuse_env_overrides()?;
            run_all(&Options::parse(&args[1..], &["trace"])?)
        }
        Some(first) if first.starts_with("--") && first != "--help" => {
            host::refuse_env_overrides()?;
            run_one(&Options::parse(args, &[])?)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("syrkbench: {message}");
            ExitCode::from(2)
        }
    }
}
