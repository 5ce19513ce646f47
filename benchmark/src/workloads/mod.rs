//! The four workloads and what each hands back to `main`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::span::Tracer;

pub mod serve;
pub mod serve_mixed;
pub mod serve_plan;
pub mod sim;
pub mod sim_blocks;
pub mod sim_ranks;

/// Name and one-line reason of every workload, in running order. The
/// reasons are the `why` lines of `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sim_ranks",
        "one 2D SYRK on 2256 simulated ranks with one-row blocks: host time is the event engine, mailboxes and payload copies, not kernel flops",
    ),
    (
        "sim_blocks",
        "1D, 2D and 3D SYRK (Theorem 1 cases 1-3) on 4-12 ranks with big blocks: host time is the dense kernels and the copies around them",
    ),
    (
        "serve_plan",
        "closed-loop /plan, /bounds and /metrics traffic over hot, cold and evicted plan-cache keys: socket, parse, planner and render only",
    ),
    (
        "serve_mixed",
        "closed-loop /run of five classes (one crashing and recovering) beside open-loop /plan at 500/s: the whole stack, two uses at once",
    ),
];

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Changes matrix entries and request order, never shapes or counts.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: half the window untraced, half traced, then the
    /// layer replays.
    pub trace: bool,
}

/// One measured window: the primary operation's latencies and how many
/// operations completed in how long.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Latency of each primary operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations completed (for `serve_plan` all requests, not only
    /// the primary class).
    pub ops: u64,
    /// Wall time of the window, seconds.
    pub seconds: f64,
}

impl Window {
    /// Mean wall time per completed operation, seconds.
    pub fn seconds_per_op(&self) -> f64 {
        self.seconds / self.ops.max(1) as f64
    }
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    /// Wall time of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    pub warmup_s: f64,
    /// The untraced window: the only source of end-to-end metrics.
    pub untraced: Window,
    /// Per-layer metrics (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Things a reader should see next to the numbers.
    pub warnings: Vec<String>,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    /// Count one checked operation; `problem` says what was wrong.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(p);
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Run `f` `reps` times and return the last result and the wall time of
/// each repetition. The set-up is repeated so that `setup_s` is a median,
/// not one sample of a short interval.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("reps >= 1"), times)
}

/// Measure the window with `stretch(tracer, seconds)`: all of `seconds`
/// with the tracer off, or — in a traced run — half with it off (the base
/// of `trace_overhead_share`) and then half with it on.
pub fn measure_window<T>(
    ctx: &Ctx,
    tracer: &mut Tracer,
    mut stretch: impl FnMut(&mut Tracer, f64) -> T,
) -> (T, Option<T>) {
    if !ctx.trace {
        return (stretch(tracer, ctx.seconds), None);
    }
    let untraced = stretch(tracer, ctx.seconds / 2.0);
    tracer.set_enabled(true);
    let traced = stretch(tracer, ctx.seconds / 2.0);
    tracer.set_enabled(false);
    (untraced, Some(traced))
}

/// `trace_overhead_share`: mean time per operation with spans recorded,
/// over the same without, minus one.
pub fn trace_overhead(untraced: &Window, traced: &Window) -> f64 {
    traced.seconds_per_op() / untraced.seconds_per_op() - 1.0
}

/// Dispatch by name.
pub fn run(name: &str, ctx: &Ctx, tracer: &mut Tracer) -> Option<Report> {
    Some(match name {
        "sim_ranks" => sim_ranks::run(ctx, tracer),
        "sim_blocks" => sim_blocks::run(ctx, tracer),
        "serve_plan" => serve_plan::run(ctx, tracer),
        "serve_mixed" => serve_mixed::run(ctx, tracer),
        _ => return None,
    })
}
