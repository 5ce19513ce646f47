//! One run, one value: [`RunSpec`] names everything a simulated SYRK run
//! can vary and [`run`] executes it.
//!
//! The paper has three algorithms and one grid choice (§5.1–§5.4), which
//! is the [`Plan`]; the rest of a spec is how the run is observed
//! (`trace`, `dump`), checked (`abft`, `recovery`), perturbed (`faults`)
//! or costed (`model`, `rs_alg`, `padded`). `try_syrk_{1d,2d,3d}` are
//! the plain specs, plus faults, spelled as functions.

use std::path::PathBuf;

use syrk_dense::Matrix;
use syrk_machine::{CostModel, FaultPlan, Machine, ReduceScatterAlg, Timeline};

use super::common::grid;
use super::{threed, SyrkRunResult};
use crate::error::SyrkError;
use crate::planner::Plan;
use crate::recovery::{self, RecoveryPolicy, RecoveryReport};

/// Everything that parameterises one simulated SYRK run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Algorithm and grid (§5.4).
    pub plan: Plan,
    /// The α-β-γ cost model of the simulated machine.
    pub model: CostModel,
    /// Deterministic transport faults and crashes to inject.
    pub faults: Option<FaultPlan>,
    /// Record per-rank event timelines (see `syrk_machine::Event`). With
    /// `recovery`, the timelines are the successful attempt's.
    pub trace: bool,
    /// In-machine ABFT: every rank checks each block it produced against
    /// independently computed row checksums (`C_ij·1 = A_i·(A_jᵀ·1)`)
    /// before the block leaves the rank, so a corrupt local product
    /// surfaces as `MachineError::DataCorruption` naming the block.
    /// Verification flops are charged under the `abft:verify` phase.
    /// Implied by [`RunSpec::recovery`].
    pub abft: bool,
    /// The Reduce-Scatter of each grid row's `C_k` (Alg. 3 line 5; over
    /// one-rank slices, Algorithm 1's line 4), which runs iff `p2 > 1`,
    /// and the §6 latency/bandwidth trade (pairwise = the paper's
    /// analysis; recursive halving = log-latency at equal bandwidth for
    /// power-of-two P, pairwise otherwise).
    pub rs_alg: ReduceScatterAlg,
    /// The exchange of `A` in each slice of more than one rank with the
    /// paper's padded buffer `B` (Alg. 2 lines 3–9 verbatim): measured
    /// bandwidth reproduces eq. (10)'s `(n1n2/c)(1 − 1/P)` exactly, at the
    /// cost of shipping some zeros.
    pub padded: bool,
    /// Survive crashes by shrinking and replanning and detected
    /// corruption by retrying (see [`crate::run_with_recovery`]); `plan`
    /// is then the *initial* grid.
    pub recovery: Option<RecoveryPolicy>,
    /// Where a failed machine writes its post-mortem (`syrk_machine::dump`);
    /// applies to every machine the run builds, recovery prologues
    /// included.
    pub dump: Option<PathBuf>,
}

impl RunSpec {
    /// The plain run of `plan`: no faults, no tracing, no checks, the
    /// paper's pairwise Reduce-Scatter and tight exchange, no recovery,
    /// no dump.
    pub fn new(plan: Plan, model: CostModel) -> Self {
        RunSpec {
            plan,
            model,
            faults: None,
            trace: false,
            abft: false,
            rs_alg: ReduceScatterAlg::PairwiseExchange,
            padded: false,
            recovery: None,
            dump: None,
        }
    }
}

/// What [`run`] returns.
#[derive(Debug)]
pub struct SyrkRun {
    /// The assembled `C = A·Aᵀ` and the cost report.
    pub result: SyrkRunResult,
    /// Per-rank event timelines; `Some` iff [`RunSpec::trace`].
    pub traces: Option<Vec<Timeline>>,
    /// What it took to finish; `Some` iff [`RunSpec::recovery`].
    pub recovery: Option<RecoveryReport>,
}

/// Execute `spec` on `a`. Invalid configurations and machine failures
/// (crash, deadlock, detected corruption, …) surface as [`SyrkError`].
#[must_use = "the Result carries the simulated run's outcome or failure"]
pub fn run(a: &Matrix<f64>, spec: &RunSpec) -> Result<SyrkRun, SyrkError> {
    if let Some(policy) = &spec.recovery {
        return recovery::recover(a, spec, policy);
    }
    let (dist, p2) = grid(spec.plan)?;
    threed::run_grid([a], &dist, p2, spec, 1)
}

/// The machine every run of `spec` executes on, at `ranks` ranks.
pub(crate) fn machine_for(spec: &RunSpec, ranks: usize) -> Machine {
    let mut machine = Machine::new(ranks).with_model(spec.model);
    if spec.trace {
        machine = machine.with_tracing();
    }
    if let Some(plan) = &spec.faults {
        machine = machine.with_faults(plan.clone());
    }
    if let Some(path) = &spec.dump {
        machine = machine.with_failure_dump(path);
    }
    machine
}

fn faulted(
    a: &Matrix<f64>,
    plan: Plan,
    model: CostModel,
    faults: Option<&FaultPlan>,
) -> Result<SyrkRunResult, SyrkError> {
    let spec = RunSpec {
        faults: faults.cloned(),
        ..RunSpec::new(plan, model)
    };
    run(a, &spec).map(|out| out.result)
}

/// Algorithm 1 (§5.1) on `p` ranks: [`run`] of
/// `RunSpec::new(Plan::OneD { p }, model)` plus `faults`.
#[must_use = "the Result carries the simulated run's outcome or failure"]
pub fn try_syrk_1d(
    a: &Matrix<f64>,
    p: usize,
    model: CostModel,
    faults: Option<&FaultPlan>,
) -> Result<SyrkRunResult, SyrkError> {
    faulted(a, Plan::OneD { p }, model, faults)
}

/// Algorithm 2 (§5.2) on `P = c(c+1)` ranks: [`run`] of
/// `RunSpec::new(Plan::TwoD { c }, model)` plus `faults`.
#[must_use = "the Result carries the simulated run's outcome or failure"]
pub fn try_syrk_2d(
    a: &Matrix<f64>,
    c: usize,
    model: CostModel,
    faults: Option<&FaultPlan>,
) -> Result<SyrkRunResult, SyrkError> {
    faulted(a, Plan::TwoD { c }, model, faults)
}

/// Algorithm 2 with each rank's columns streamed in `rounds` panels (§6:
/// the 3D algorithm may not fit in limited memory): every chunk still
/// crosses the network once, each rank sends `rounds` times Algorithm
/// 2's messages, and its peak buffer falls with the panel width.
/// `rounds = 1` is [`try_syrk_2d`], cost report included. Errors as
/// [`run`]; `rounds = 0` panics.
pub fn syrk_2d_limited(
    a: &Matrix<f64>,
    c: usize,
    rounds: usize,
    model: CostModel,
) -> Result<SyrkRunResult, SyrkError> {
    assert!(rounds >= 1, "need at least one panel round");
    let (dist, p2) = grid(Plan::TwoD { c })?;
    let spec = RunSpec::new(Plan::TwoD { c }, model);
    threed::run_grid([a], &dist, p2, &spec, rounds).map(|run| run.result)
}

/// Algorithm 3 (§5.3) on `P = c(c+1)·p2` ranks: [`run`] of
/// `RunSpec::new(Plan::ThreeD { c, p2 }, model)` plus `faults`.
#[must_use = "the Result carries the simulated run's outcome or failure"]
pub fn try_syrk_3d(
    a: &Matrix<f64>,
    c: usize,
    p2: usize,
    model: CostModel,
    faults: Option<&FaultPlan>,
) -> Result<SyrkRunResult, SyrkError> {
    faulted(a, Plan::ThreeD { c, p2 }, model, faults)
}
