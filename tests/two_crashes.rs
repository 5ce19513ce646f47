//! Two crashes in one recovered run: rank 1 dies first, the world
//! shrinks and replans, rank 3's pending crash fires on the shrunken
//! grid, and the third attempt — the last the policy allows — finishes
//! with a correct `C`. One case per plan family of the first attempt.

use syrk_repro::core::{run_with_recovery, AttemptOutcome, Plan, RecoveryPolicy};
use syrk_repro::dense::{max_abs_diff, seeded_matrix, syrk_full_reference};
use syrk_repro::machine::{CostModel, FaultPlan};

/// Run `(n1, n2)` from `initial` with ranks 1 and 3 crashing at their
/// second operation and exactly three attempts allowed; return the plan
/// the last attempt ran on.
fn recover_two_crashes(n1: usize, n2: usize, initial: Plan) -> Plan {
    let a = seeded_matrix::<f64>(n1, n2, 11);
    let faults = FaultPlan::seeded(0).crash_rank(1, 2).crash_rank(3, 2);
    let (run, report) = run_with_recovery(
        &a,
        initial,
        CostModel::bandwidth_only(),
        Some(&faults),
        &RecoveryPolicy { max_attempts: 3 },
    )
    .unwrap_or_else(|e| panic!("{initial:?}: {e}"));
    let outcomes: Vec<_> = report.attempts.iter().map(|a| &a.outcome).collect();
    assert_eq!(
        outcomes,
        [
            &AttemptOutcome::Crashed { rank: 1 },
            &AttemptOutcome::Crashed { rank: 3 },
            &AttemptOutcome::Completed,
        ],
        "{initial:?}"
    );
    assert_eq!(report.ranks_lost, [1, 3], "{initial:?}");
    assert_eq!(report.attempts[0].plan, initial);
    assert!(
        max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-10,
        "{initial:?}"
    );
    report.final_plan
}

#[test]
fn two_crashes_from_a_2d_start() {
    let last = recover_two_crashes(36, 8, Plan::TwoD { c: 3 });
    assert_eq!(last, Plan::TwoD { c: 2 });
}

#[test]
fn two_crashes_from_a_1d_start() {
    let last = recover_two_crashes(20, 30, Plan::OneD { p: 6 });
    assert_eq!(last, Plan::OneD { p: 4 });
}

#[test]
fn two_crashes_from_a_3d_start() {
    let last = recover_two_crashes(24, 18, Plan::ThreeD { c: 2, p2: 3 });
    assert_eq!(last, Plan::TwoD { c: 3 });
}
