//! What the two simulation workloads share: a job (one input, one plan),
//! its correctness gate, and the measured loop over *units* — a unit is
//! every job of the workload run once, in order.

use std::time::Instant;

use syrk_core::{
    syrk_lower_bound, try_syrk_1d, try_syrk_2d, try_syrk_3d, Plan, SyrkError, SyrkRunResult,
};
use syrk_dense::{mul_nt, seeded_matrix, syrk_tolerance, DetRng, Matrix};
use syrk_machine::{CostModel, CostReport};
use syrk_telemetry::registry::{self, MetricsSnapshot};

use super::{Checks, Ctx, Report, Window};
use crate::span::Tracer;

/// The simulated statistics of one run that must repeat exactly: a
/// change that only makes the host faster leaves every one identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostSummary {
    pub words_max: u64,
    pub words_total: u64,
    pub messages_max: u64,
    pub peak_buffer_words: u64,
    pub flops_total: u64,
}

impl CostSummary {
    pub fn of(cost: &CostReport) -> Self {
        CostSummary {
            words_max: cost.max_words_sent(),
            words_total: cost.total_words(),
            messages_max: cost.max_messages(),
            peak_buffer_words: cost.max_peak_buffer(),
            flops_total: cost.total_flops(),
        }
    }
}

/// Short name of a plan's family, as metric suffixes spell it.
pub fn family(plan: Plan) -> &'static str {
    match plan {
        Plan::OneD { .. } => "1d",
        Plan::TwoD { .. } => "2d",
        Plan::ThreeD { .. } => "3d",
    }
}

/// Run `plan` on `a` through the fallible drivers, default everything.
pub fn run_plan(a: &Matrix<f64>, plan: Plan) -> Result<SyrkRunResult, SyrkError> {
    let model = CostModel::bandwidth_only();
    match plan {
        Plan::OneD { p } => try_syrk_1d(a, p, model, None),
        Plan::TwoD { c } => try_syrk_2d(a, c, model, None),
        Plan::ThreeD { c, p2 } => try_syrk_3d(a, c, p2, model, None),
    }
}

/// Entries of the reference checked against plain dot products.
const REFERENCE_SAMPLES: usize = 4096;

/// The sequential reference `A·Aᵀ` and the tolerance a correct `C` meets.
///
/// `syrk_full_reference` (a plain triple loop) takes 7 s on the
/// `sim_blocks` inputs, more than the whole measured window, so the full
/// matrix comes from the packed GEMM `mul_nt` — a code path the SYRK
/// drivers do not use for their diagonal blocks — and `REFERENCE_SAMPLES`
/// seeded entries of it are checked against dot products accumulated in
/// plain ascending order, which share no code with any kernel.
fn reference(a: &Matrix<f64>, seed: u64) -> Result<(Matrix<f64>, f64), String> {
    let c = mul_nt(a, a);
    let tolerance = syrk_tolerance::<f64>(a.cols(), c.max_abs());
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5eed_c0de);
    for _ in 0..REFERENCE_SAMPLES {
        let (i, j) = (rng.gen_range(0, a.rows()), rng.gen_range(0, a.rows()));
        let dot: f64 = a.row(i).iter().zip(a.row(j)).map(|(x, y)| x * y).sum();
        let err = (c[(i, j)] - dot).abs();
        if err.is_nan() || err > tolerance {
            return Err(format!(
                "reference entry ({i}, {j}) is {err:e} away from its dot product"
            ));
        }
    }
    Ok((c, tolerance))
}

/// Largest `|x − y|`, and NaN as soon as one difference is NaN
/// (`syrk_dense::max_abs_diff` folds with `f64::max`, which drops NaNs, so
/// a `C` full of NaNs would pass it).
fn worst_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |worst: f64, d| {
            if worst.is_nan() || d.is_nan() {
                f64::NAN
            } else {
                worst.max(d)
            }
        })
}

/// One input matrix, the plan it runs under, and what a correct run of it
/// looks like.
pub struct SimJob {
    pub a: Matrix<f64>,
    pub plan: Plan,
    /// `Err` when the reference itself failed its spot check.
    reference: Result<(Matrix<f64>, f64), String>,
    /// Theorem 1's `W − resident` at this plan's rank count.
    pub bound_words: f64,
    /// `C` and the cost summary of the first run; every later run must
    /// reproduce both exactly.
    first: Option<(Vec<f64>, CostSummary)>,
}

impl SimJob {
    /// Generate the input from `seed` and compute the sequential
    /// reference once.
    pub fn new(n1: usize, n2: usize, plan: Plan, seed: u64) -> Self {
        let a = seeded_matrix::<f64>(n1, n2, seed);
        let reference = reference(&a, seed);
        SimJob {
            bound_words: syrk_lower_bound(n1, n2, plan.ranks()).communicated(),
            a,
            plan,
            reference,
            first: None,
        }
    }

    /// The cost summary every run of this job has (known after the
    /// first checked run).
    pub fn cost(&self) -> CostSummary {
        self.first.as_ref().expect("job was run and checked").1
    }

    /// The gate: the first `C` is within tolerance of the reference, every
    /// later one bitwise equal to the first; the cost summary never
    /// changes; the busiest rank never sends fewer words than Theorem 1
    /// allows.
    pub fn check(&mut self, run: &Result<SyrkRunResult, SyrkError>) -> Option<String> {
        let what = family(self.plan);
        let run = match run {
            Ok(r) => r,
            Err(e) => return Some(format!("{what}: run failed: {e}")),
        };
        let cost = CostSummary::of(&run.cost);
        if (cost.words_max as f64) < self.bound_words {
            return Some(format!(
                "{what}: busiest rank sent {} words, below the Theorem 1 bound {}",
                cost.words_max, self.bound_words
            ));
        }
        match &self.first {
            None => {
                let (reference, tolerance) = match &self.reference {
                    Ok(r) => r,
                    Err(e) => return Some(format!("{what}: {e}")),
                };
                if run.c.shape() != reference.shape() {
                    return Some(format!("{what}: C has shape {:?}", run.c.shape()));
                }
                let err = worst_diff(run.c.as_slice(), reference.as_slice());
                if err.is_nan() || err > *tolerance {
                    return Some(format!(
                        "{what}: C differs from the reference by {err:e} (tolerance {tolerance:e})"
                    ));
                }
                self.first = Some((run.c.as_slice().to_vec(), cost));
                None
            }
            Some((c0, cost0)) => {
                let same_bits = c0.len() == run.c.len()
                    && c0
                        .iter()
                        .zip(run.c.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                if !same_bits {
                    Some(format!("{what}: C is not bitwise equal to the first run's"))
                } else if *cost0 != cost {
                    Some(format!(
                        "{what}: cost {cost:?} differs from the first run's {cost0:?}"
                    ))
                } else {
                    None
                }
            }
        }
    }
}

/// Run every job once (span `bench.unit` → one `core.run` per job), check
/// each result outside the timed part, and return the unit's run time in
/// milliseconds.
pub fn run_unit(jobs: &mut [SimJob], tracer: &mut Tracer, checks: &mut Checks) -> f64 {
    let mut unit_ns = 0u64;
    tracer.begin("bench.unit");
    for job in jobs.iter_mut() {
        tracer.begin("core.run");
        let t = Instant::now();
        let run = std::hint::black_box(run_plan(&job.a, job.plan));
        unit_ns += t.elapsed().as_nanos() as u64;
        tracer.end();
        checks.record(job.check(&run));
    }
    tracer.end();
    unit_ns as f64 / 1e6
}

/// What the measured loop of a simulation workload produced.
pub struct SimMeasured {
    pub warmup_s: f64,
    pub untraced: Window,
    /// The traced half of a traced run.
    pub traced: Option<Window>,
    /// Registry snapshots around the first timed unit: the window the
    /// exact per-unit counters are read over.
    pub unit_registry: (MetricsSnapshot, MetricsSnapshot),
}

/// Warm up for `warmup_units`, then run units until the window's time is
/// used (at least one unit per half). Unit times add up to the window:
/// the checks between units are not part of it.
pub fn measure(
    ctx: &Ctx,
    jobs: &mut [SimJob],
    warmup_units: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> SimMeasured {
    let t = Instant::now();
    for _ in 0..warmup_units {
        run_unit(jobs, tracer, checks);
    }
    let warmup_s = t.elapsed().as_secs_f64();

    let mut unit_registry = None;
    let (untraced, traced) = super::measure_window(ctx, tracer, |tracer, seconds| {
        let mut w = Window::default();
        while w.seconds < seconds {
            let before = unit_registry.is_none().then(registry::snapshot);
            let ms = run_unit(jobs, tracer, checks);
            if let Some(before) = before {
                unit_registry = Some((before, registry::snapshot()));
            }
            w.op_ms.push(ms);
            w.ops += 1;
            w.seconds += ms / 1e3;
        }
        w
    });
    SimMeasured {
        warmup_s,
        untraced,
        traced,
        unit_registry: unit_registry.expect("at least one timed unit"),
    }
}

/// A whole simulation workload. One repetition of the set-up builds the
/// inputs and references and runs every job once against its reference —
/// the time to a first verified result; the repetitions also warm the
/// process up. In a traced run the layers are replayed at the end.
pub fn run_workload(
    ctx: &Ctx,
    tracer: &mut Tracer,
    make_jobs: fn(u64) -> Vec<SimJob>,
    warmup_units: usize,
    setup_reps: usize,
) -> Report {
    let mut checks = Checks::default();
    let (mut jobs, setup_s) = super::repeat_setup(setup_reps, || {
        let mut jobs = make_jobs(ctx.seed);
        run_unit(&mut jobs, tracer, &mut checks);
        jobs
    });
    let measured = measure(ctx, &mut jobs, warmup_units, tracer, &mut checks);
    let mut report = Report {
        setup_s,
        warmup_s: measured.warmup_s,
        checks,
        ..Report::default()
    };
    if ctx.trace {
        crate::replay::sim_layers(&jobs, &measured, tracer, &mut report);
    }
    report.untraced = measured.untraced;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_in_c_is_not_dropped_by_the_comparison() {
        assert_eq!(worst_diff(&[1.0, 2.0, 3.0], &[1.0, 2.5, 3.25]), 0.5);
        assert!(worst_diff(&[1.0, f64::NAN, 3.0], &[1.0, 2.0, 3.0]).is_nan());
        assert!(worst_diff(&[f64::NAN, 2.0], &[1.0, 9.0]).is_nan());
    }

    #[test]
    fn the_gate_accepts_a_correct_run_and_rejects_a_wrong_one() {
        let mut job = SimJob::new(12, 8, Plan::OneD { p: 3 }, 7);
        let good = run_plan(&job.a, job.plan);
        assert_eq!(job.check(&good), None);
        // The same run again is bitwise equal; a run of another input is not.
        assert_eq!(job.check(&run_plan(&job.a, job.plan)), None);
        let other = run_plan(&seeded_matrix::<f64>(12, 8, 8), job.plan);
        assert!(job.check(&other).unwrap().contains("bitwise"));
        // A fresh job sees the wrong C on its first run: tolerance check.
        let mut fresh = SimJob::new(12, 8, Plan::OneD { p: 3 }, 7);
        assert!(fresh
            .check(&other)
            .unwrap()
            .contains("differs from the reference"));
    }
}
