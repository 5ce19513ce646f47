//! Shrink-and-replan recovery: crash-surviving SYRK.
//!
//! A [`RunSpec`] with a [`RecoveryPolicy`] ([`run_with_recovery`] is that
//! spec spelled as a function) drives a fallible SYRK run to completion
//! across injected rank crashes and detected data corruption:
//!
//! 1. **detection + agreement** — when an attempt dies with
//!    [`MachineError::RankCrashed`], the next attempt opens with a
//!    *recovery prologue* machine in which the survivors run the
//!    fault-tolerant agreement collective
//!    (`Comm::try_agree_on_failures`), charging heartbeat probes under
//!    `recover:detect` and the `⌈log₂ P′⌉` dissemination rounds of
//!    suspect lists under `recover:agree`;
//! 2. **shrink and replan** — the rank budget drops by one per crash and
//!    the §5.4 planner picks the best grid for `P′ = P − f`, which may
//!    cross a Theorem 1 bound case (each attempt records its
//!    [`BoundCase`]);
//! 3. **redistribution** — survivors ring-shift their `Partition1D`
//!    share of the flattened `A` (`≈ n1·n2/P′` words each) under
//!    `recover:redistribute`, modeling the re-layout of the crashed
//!    rank's operand data;
//! 4. **backoff** — each retry sleeps `BACKOFF_BASE · 2^(retries−1)`
//!    simulated seconds under `recover:backoff` before re-executing;
//! 5. **verification** — every grid slice runs its per-block ABFT
//!    checks in-machine and the final
//!    assembled `C` is checked against [`AbftChecksums`] computed from
//!    `A`; a corrupt result retries on the *same* grid (corruption does
//!    not shrink the world).
//!
//! All prologue traffic lands in the `recover:*` phase family, so the
//! Theorem 1 attribution of the productive phases stays clean: recovery
//! words sit *outside* the bound, while the replanned run re-enters it
//! at `P′`. The last prologue's cost report is merged into the
//! successful run's report (same rank count by construction), so the
//! returned [`SyrkRunResult`] accounts for the whole recovered run.

use syrk_dense::{Matrix, Partition1D};
use syrk_machine::{
    CostModel, CostReport, FaultPlan, MachineError, RECOVER_BACKOFF_PHASE,
    RECOVER_REDISTRIBUTE_PHASE,
};
use syrk_telemetry::Counter;

use crate::abft::AbftChecksums;
use crate::algorithms::{machine_for, run, RunSpec, SyrkRun, SyrkRunResult};
use crate::bounds::{bound_case, BoundCase};
use crate::error::SyrkError;
use crate::planner::{plan, Plan, PlanError};

/// Recovery attempts started (i.e. retries after a failed attempt).
pub(crate) static RECOVERY_ATTEMPTS: Counter = Counter::new("syrk_recovery_attempts");
/// Ranks lost to crashes across all recovered runs.
pub(crate) static RECOVERY_RANKS_LOST: Counter = Counter::new("syrk_recovery_ranks_lost");

/// User tag for the `recover:redistribute` ring shift (kept far below
/// the collective tag space).
const TAG_REDISTRIBUTE: u64 = 77;

/// Simulated-clock backoff before the first retry; doubles on each
/// further retry.
const BACKOFF_BASE: f64 = 64.0;

/// The one knob of a recovered run ([`RunSpec::recovery`]). Every
/// recovered run also verifies: in-machine per-block ABFT checks plus a
/// final full-`C` check, retrying on detected corruption.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Total execution attempts allowed (first try included). Zero is
    /// rejected with [`PlanError::ZeroAttempts`].
    pub max_attempts: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_attempts: 3 }
    }
}

/// How one execution attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt produced a (verified, when enabled) `C`.
    Completed,
    /// The attempt died with [`MachineError::RankCrashed`]; the next
    /// attempt shrinks the world by this rank.
    Crashed {
        /// World rank that crashed (within that attempt's machine).
        rank: usize,
    },
    /// ABFT verification rejected the attempt's output; the same grid
    /// retries.
    Corrupted {
        /// Human-readable description of the failed check.
        detail: String,
    },
}

/// One execution attempt of a recovered run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryAttempt {
    /// Grid the attempt ran on.
    pub plan: Plan,
    /// Theorem 1 case at the attempt's rank count — shrinking `P` can
    /// move the instance across the trichotomy.
    pub bound_case: BoundCase,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// What it took to finish a recovered run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Every attempt in order; the last one is always `Completed`.
    pub attempts: Vec<RecoveryAttempt>,
    /// World ranks lost to crashes, in crash order.
    pub ranks_lost: Vec<usize>,
    /// Grid the successful attempt ran on.
    pub final_plan: Plan,
    /// Whether any recovery was needed (more than one attempt).
    pub recovered: bool,
    /// Words charged to `recover:*` phases across *all* prologues (the
    /// traffic that sits outside the Theorem 1 accounting).
    pub recovery_words: u64,
    /// Total simulated backoff clock across all retries.
    pub backoff_clock: f64,
}

/// Run SYRK under `initial`, surviving injected crashes by shrinking
/// and replanning, and detected corruption by retrying, up to
/// `policy.max_attempts` total attempts: [`run`] of
/// `RunSpec { faults, recovery: Some(policy), ..RunSpec::new(initial, model) }`.
///
/// Returns the result of the successful attempt — with the last recovery
/// prologue's cost merged in — plus a [`RecoveryReport`]. Unrecoverable
/// failures (deadlock, plan rejection, exhausted attempts or ranks)
/// surface as [`SyrkError`].
pub fn run_with_recovery(
    a: &Matrix<f64>,
    initial: Plan,
    model: CostModel,
    faults: Option<&FaultPlan>,
    policy: &RecoveryPolicy,
) -> Result<(SyrkRunResult, RecoveryReport), SyrkError> {
    let spec = RunSpec {
        faults: faults.cloned(),
        recovery: Some(policy.clone()),
        ..RunSpec::new(initial, model)
    };
    let out = run(a, &spec)?;
    Ok((out.result, out.recovery.expect("a recovered run reports")))
}

/// The attempt loop behind [`run`] for a spec with a recovery policy.
pub(crate) fn recover(
    a: &Matrix<f64>,
    spec: &RunSpec,
    policy: &RecoveryPolicy,
) -> Result<SyrkRun, SyrkError> {
    let (n1, n2) = a.shape();
    if n1 == 0 || n2 == 0 {
        return Err(PlanError::EmptyMatrix { n1, n2 }.into());
    }
    let checks = AbftChecksums::new(a);

    // One attempt is `spec` without the policy, on the current grid with
    // the faults still pending.
    let mut attempt_spec = RunSpec {
        abft: true,
        recovery: None,
        ..spec.clone()
    };
    let mut p_budget = spec.plan.ranks();
    let mut attempts: Vec<RecoveryAttempt> = Vec::new();
    let mut ranks_lost: Vec<usize> = Vec::new();
    let mut recovery_words: u64 = 0;
    let mut backoff_clock: f64 = 0.0;
    let mut prologue: Option<CostReport> = None;
    // What a zero budget returns: the loop below never runs.
    let mut last_err = SyrkError::Plan(PlanError::ZeroAttempts);

    for attempt in 1..=policy.max_attempts {
        if attempt > 1 {
            RECOVERY_ATTEMPTS.inc();
            let backoff = BACKOFF_BASE * 2f64.powi(attempt as i32 - 2);
            let pro = recovery_prologue(a, &attempt_spec, &ranks_lost, backoff)?;
            recovery_words += pro.total_words();
            backoff_clock += backoff;
            prologue = Some(pro);
        }
        let cur_plan = attempt_spec.plan;
        let attempt = |outcome| RecoveryAttempt {
            plan: cur_plan,
            bound_case: bound_case(n1, n2, cur_plan.ranks()),
            outcome,
        };
        match run(a, &attempt_spec) {
            Ok(mut out) => {
                if let Err(v) = checks.verify(&out.result.c) {
                    attempts.push(attempt(AttemptOutcome::Corrupted {
                        detail: v.to_string(),
                    }));
                    last_err = SyrkError::Machine(MachineError::DataCorruption {
                        rank: 0,
                        detail: v.to_string(),
                    });
                    continue;
                }
                if let Some(mut pro) = prologue.take() {
                    pro.absorb(&out.result.cost);
                    out.result.cost = pro;
                }
                attempts.push(attempt(AttemptOutcome::Completed));
                out.recovery = Some(RecoveryReport {
                    recovered: attempts.len() > 1,
                    attempts,
                    ranks_lost,
                    final_plan: cur_plan,
                    recovery_words,
                    backoff_clock,
                });
                return Ok(out);
            }
            Err(SyrkError::Machine(MachineError::RankCrashed { rank, after_ops })) => {
                attempts.push(attempt(AttemptOutcome::Crashed { rank }));
                ranks_lost.push(rank);
                RECOVERY_RANKS_LOST.inc();
                last_err = SyrkError::Machine(MachineError::RankCrashed { rank, after_ops });
                if p_budget <= 1 {
                    return Err(last_err);
                }
                p_budget -= 1;
                // The shrunken machine renumbers world ranks 0..P′, so
                // the crashed rank's pending faults must not re-fire
                // against its successor.
                attempt_spec.faults = attempt_spec.faults.take().map(|f| f.without_crashed(rank));
                attempt_spec.plan = plan(n1, n2, p_budget).plan;
            }
            Err(SyrkError::Machine(MachineError::DataCorruption { rank, detail })) => {
                attempts.push(attempt(AttemptOutcome::Corrupted {
                    detail: detail.clone(),
                }));
                // Corruption does not shrink the world: same grid retries.
                last_err = SyrkError::Machine(MachineError::DataCorruption { rank, detail });
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err)
}

/// The detect → agree → redistribute → backoff prologue, run as its own
/// fault-free machine at the *replanned* rank count so its cost report
/// merges index-wise into the subsequent attempt's report.
fn recovery_prologue(
    a: &Matrix<f64>,
    attempt: &RunSpec,
    lost: &[usize],
    backoff: f64,
) -> Result<CostReport, SyrkError> {
    let (n1, n2) = a.shape();
    let p = attempt.plan.ranks();
    let shares = Partition1D::new(n1 * n2, p);
    let lost: Vec<usize> = lost.to_vec();
    // Of the attempt's spec a prologue keeps the model and the dump path.
    let spec = RunSpec {
        dump: attempt.dump.clone(),
        ..RunSpec::new(attempt.plan, attempt.model)
    };
    let out = machine_for(&spec, p).try_run(|comm| {
        let agreed = comm.try_agree_on_failures(&lost)?;
        debug_assert!(
            lost.iter().all(|r| agreed.contains(r)),
            "agreement must contain every locally known failure"
        );
        if !lost.is_empty() && comm.size() > 1 {
            // Ring-shift each survivor's share of the flattened A: the
            // crashed rank's operand block has to come from somewhere,
            // and a single shift is the cheapest all-rank re-layout
            // (every rank sends/receives one conformal share).
            let _span = comm.phase(RECOVER_REDISTRIBUTE_PHASE);
            let me = comm.rank();
            let next = (me + 1) % comm.size();
            let prev = (me + comm.size() - 1) % comm.size();
            let share = a.as_slice()[shares.range(me)].to_vec();
            let _incoming: Vec<f64> = comm.try_exchange(next, share, prev, TAG_REDISTRIBUTE)?;
        }
        let _span = comm.phase(RECOVER_BACKOFF_PHASE);
        comm.sleep(backoff);
        Ok(())
    })?;
    Ok(out.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::{max_abs_diff, seeded_matrix, syrk_full_reference};
    use syrk_machine::{RECOVER_AGREE_PHASE, RECOVER_DETECT_PHASE};

    fn model() -> CostModel {
        CostModel::bandwidth_only()
    }

    #[test]
    fn clean_run_needs_no_recovery() {
        let a = seeded_matrix::<f64>(12, 8, 5);
        let (run, report) = run_with_recovery(
            &a,
            Plan::OneD { p: 4 },
            model(),
            None,
            &RecoveryPolicy::default(),
        )
        .expect("clean run");
        assert!(!report.recovered);
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.final_plan, Plan::OneD { p: 4 });
        assert_eq!(report.recovery_words, 0);
        assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-10);
    }

    #[test]
    fn crash_shrinks_replans_and_completes() {
        let a = seeded_matrix::<f64>(16, 24, 7);
        let faults = FaultPlan::seeded(11).crash_rank(2, 1);
        let policy = RecoveryPolicy::default();
        let (run, report) =
            run_with_recovery(&a, Plan::OneD { p: 5 }, model(), Some(&faults), &policy)
                .expect("recovered run");
        assert!(report.recovered);
        assert_eq!(report.ranks_lost, vec![2]);
        assert_eq!(report.attempts.len(), 2);
        assert!(matches!(
            report.attempts[0].outcome,
            AttemptOutcome::Crashed { rank: 2 }
        ));
        assert_eq!(report.attempts[1].outcome, AttemptOutcome::Completed);
        assert!(report.final_plan.ranks() <= 4);
        assert!(report.recovery_words > 0);
        assert_eq!(report.backoff_clock, BACKOFF_BASE);
        assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-10);
        // The merged cost report carries the recover:* phases.
        let p = report.final_plan.ranks();
        assert!((0..p).any(|r| run.cost.phase_cost(r, RECOVER_DETECT_PHASE).is_some()));
        assert!((0..p).any(|r| run.cost.phase_cost(r, RECOVER_AGREE_PHASE).is_some()));
        assert!((0..p).any(|r| run.cost.phase_cost(r, RECOVER_REDISTRIBUTE_PHASE).is_some()));
    }

    #[test]
    fn budget_exhaustion_returns_the_last_crash() {
        let a = seeded_matrix::<f64>(10, 12, 3);
        let faults = FaultPlan::seeded(4)
            .crash_rank(0, 1)
            .crash_rank(1, 1)
            .crash_rank(2, 1);
        let policy = RecoveryPolicy { max_attempts: 2 };
        let err = run_with_recovery(&a, Plan::OneD { p: 4 }, model(), Some(&faults), &policy)
            .unwrap_err();
        assert!(
            matches!(err, SyrkError::Machine(MachineError::RankCrashed { .. })),
            "{err}"
        );
        // No budget at all is a typed rejection, not a panic.
        let policy = RecoveryPolicy { max_attempts: 0 };
        let err = run_with_recovery(&a, Plan::OneD { p: 4 }, model(), Some(&faults), &policy)
            .unwrap_err();
        assert_eq!(err, SyrkError::Plan(PlanError::ZeroAttempts));
        assert!(err.to_string().contains("at least one attempt"), "{err}");
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let a = seeded_matrix::<f64>(10, 12, 3);
        let faults = FaultPlan::seeded(4).crash_rank(0, 1).crash_rank(1, 1);
        let policy = RecoveryPolicy { max_attempts: 4 };
        let (_, report) =
            run_with_recovery(&a, Plan::OneD { p: 4 }, model(), Some(&faults), &policy)
                .expect("recovers after two crashes");
        assert_eq!(report.ranks_lost, vec![0, 1]);
        // 64 + 128: two retries with doubling backoff.
        assert_eq!(report.backoff_clock, 192.0);
    }

    #[test]
    fn attempts_are_metered() {
        use syrk_telemetry::registry;
        let before = registry::snapshot()
            .counter("syrk_recovery_attempts")
            .unwrap_or(0);
        let a = seeded_matrix::<f64>(8, 8, 1);
        let faults = FaultPlan::seeded(2).crash_rank(1, 1);
        run_with_recovery(
            &a,
            Plan::OneD { p: 3 },
            model(),
            Some(&faults),
            &RecoveryPolicy::default(),
        )
        .expect("recovers");
        let after = registry::snapshot()
            .counter("syrk_recovery_attempts")
            .unwrap();
        assert!(after > before);
    }
}
