//! Crash-recovery surface (DESIGN.md §12): every collective must turn a
//! rank crash into a typed [`MachineError::RankCrashed`] for the
//! survivors — never a deadlock — and `run_with_recovery` must shrink,
//! replan, and finish with a numerically correct `C` plus a faithful
//! [`RecoveryReport`].
//!
//! The matrix covers the dense and sparse all-to-all, Reduce-Scatter,
//! All-Gather, and the recursive-halving variant × {crash
//! before the victim's first operation, crash mid-stream after its first
//! operation}. "Identified" means the surviving ranks' own errors name
//! the crashed rank, not just the machine-level first failure.

use std::sync::Mutex;
use syrk_core::{plan, run_with_recovery, syrk_lower_bound, AttemptOutcome, Plan, RecoveryPolicy};
use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syrk_full_reference};
use syrk_machine::{
    Comm, CostModel, FaultPlan, Machine, MachineError, ReduceScatterAlg, RECOVER_AGREE_PHASE,
    RECOVER_BACKOFF_PHASE, RECOVER_DETECT_PHASE, RECOVER_REDISTRIBUTE_PHASE,
};

/// The collectives of the crash matrix, by variant, each with the seed
/// of its fault plan.
const COLLECTIVES: [(&str, u64); 5] = [
    ("all-to-all", 100),
    ("all-to-all-sparse", 101),
    ("reduce-scatter", 103),
    ("reduce-scatter-halving", 104),
    ("all-gather", 105),
];

/// Run one named collective with small, rank-dependent payloads.
fn run_collective(comm: &Comm, name: &str) -> Result<(), MachineError> {
    let p = comm.size();
    let me = comm.rank();
    match name {
        "all-to-all" => comm.try_all_to_all(vec![vec![me as f64; 2]; p]).map(drop),
        "all-to-all-sparse" => {
            // Algorithm 2's shape: each rank ships to the two ranks ahead.
            let sends = (1..=2)
                .map(|d| ((me + d) % p, vec![me as f64; 2]))
                .collect();
            let recvs: Vec<(usize, usize)> = (1..=2).map(|d| ((me + p - d) % p, 2)).collect();
            comm.try_all_to_all_sparse::<Vec<f64>>(sends, &recvs)
                .map(drop)
        }
        "reduce-scatter" => comm.try_reduce_scatter(vec![vec![1.0; 3]; p]).map(drop),
        "reduce-scatter-halving" => comm
            .try_reduce_scatter_with(vec![vec![1.0; 3]; p], ReduceScatterAlg::RecursiveHalving)
            .map(drop),
        "all-gather" => comm.try_all_gather(vec![me as f64; 4]).map(drop),
        other => unreachable!("unknown collective {other}"),
    }
}

/// How a surviving rank classified the error it observed.
fn classify(err: &MachineError) -> String {
    match err {
        MachineError::RankCrashed { rank, .. } => format!("crashed:{rank}"),
        MachineError::Deadlock(_) => "deadlock".into(),
        other => format!("other:{other}"),
    }
}

/// {5 collectives} × {crash before / mid-exchange}: the run fails with
/// `RankCrashed {{ rank: 1 }}`, at least one survivor observes an error,
/// and every survivor that does observes that same typed crash — never
/// a deadlock.
#[test]
fn crash_matrix_event() {
    for (name, seed) in COLLECTIVES {
        for (mode, at_op) in [("before", 1u64), ("mid", 2u64)] {
            let ctx = format!("{name}/{mode}");
            let faults = FaultPlan::seeded(seed).crash_rank(1, at_op);
            let survivor_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
            let err = Machine::new(4)
                .with_model(CostModel::bandwidth_only())
                .with_faults(faults)
                .try_run(|comm| {
                    // Two back-to-back invocations: `at_op = 1` kills
                    // rank 1 before it touches the fabric at all,
                    // `at_op = 2` kills it mid-stream with its first
                    // operation already delivered.
                    let res =
                        run_collective(&comm, name).and_then(|()| run_collective(&comm, name));
                    if let Err(e) = &res {
                        if comm.rank() != 1 {
                            survivor_errors
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .push(classify(e));
                        }
                    }
                    res
                })
                .expect_err(&format!("{ctx}: a crashed rank must fail the run"));
            match err {
                MachineError::RankCrashed { rank, .. } => {
                    assert_eq!(rank, 1, "{ctx}: wrong crashed rank")
                }
                e => panic!("{ctx}: expected RankCrashed, got: {e}"),
            }
            let seen = survivor_errors
                .into_inner()
                .unwrap_or_else(|p| p.into_inner());
            for s in &seen {
                assert_eq!(
                    s, "crashed:1",
                    "{ctx}: a survivor saw {s}, not the typed crash of rank 1"
                );
            }
            // Some survivor waits on the dead rank in every collective, so
            // the typed error must actually have been observed.
            assert!(!seen.is_empty(), "{ctx}: no survivor observed the crash");
        }
    }
}

/// After a crash poisons the world, the survivors' own
/// `try_agree_on_failures(&[])` converges on exactly the crashed rank.
#[test]
fn survivors_agree_event() {
    let agreed: Mutex<Vec<(usize, Vec<usize>)>> = Mutex::new(Vec::new());
    let err = Machine::new(4)
        .with_model(CostModel::bandwidth_only())
        .with_faults(FaultPlan::seeded(9).crash_rank(1, 1))
        // Pairwise all-gather: every survivor must hear from rank 1
        // directly, so every survivor observes the crash.
        .try_run(|comm| match comm.try_all_gather(vec![1.0; 2]) {
            Ok(_) => Ok(()),
            Err(MachineError::RankCrashed { .. }) if comm.rank() != 1 => {
                let set = comm.try_agree_on_failures(&[])?;
                agreed
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push((comm.rank(), set));
                Ok(())
            }
            Err(e) => Err(e),
        })
        .expect_err("the crash is still the run's first failure");
    assert!(
        matches!(err, MachineError::RankCrashed { rank: 1, .. }),
        "{err}"
    );
    let got = agreed.into_inner().unwrap_or_else(|p| p.into_inner());
    assert_eq!(got.len(), 3, "all three survivors must reach agreement");
    for (rank, set) in got {
        assert_eq!(set, vec![1], "rank {rank} agreed on the wrong failure set");
    }
}

/// The acceptance scenario: a 2D run with an injected crash completes
/// under `run_with_recovery` with a numerically correct `C`, a
/// shrink-and-replanned grid and nonzero `recover:*` traffic in the
/// merged phase table. The recovery story itself — plan, words, clocks —
/// is pinned to what the event engine reported at PR 12, when a second
/// engine still ran this scenario and had to tell the same one.
#[test]
fn twod_crash_recovery_is_engine_identical_and_correct() {
    let a = seeded_matrix::<f64>(36, 8, 7);
    let faults = FaultPlan::seeded(5).crash_rank(1, 1);
    let (run, report) = run_with_recovery(
        &a,
        Plan::TwoD { c: 3 },
        CostModel::bandwidth_only(),
        Some(&faults),
        &RecoveryPolicy::default(),
    )
    .expect("recovers onto the replanned grid");

    assert!(report.recovered, "the crash must force recovery");
    assert_eq!(report.ranks_lost, vec![1]);
    assert!(
        matches!(
            report.attempts[0].outcome,
            AttemptOutcome::Crashed { rank: 1 }
        ),
        "{:?}",
        report.attempts[0].outcome
    );
    assert_eq!(
        report.attempts.last().map(|a| &a.outcome),
        Some(&AttemptOutcome::Completed)
    );
    assert!(
        report.final_plan.ranks() < Plan::TwoD { c: 3 }.ranks(),
        "the replanned grid must shrink below P = 12, got {:?}",
        report.final_plan
    );
    assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-10);

    // The successful attempt ran the replanned grid on the same input: to
    // the bit the run the planner would have launched had it known.
    let p = report.final_plan.ranks();
    let (clean, clean_report) = run_with_recovery(
        &a,
        report.final_plan,
        CostModel::bandwidth_only(),
        None,
        &RecoveryPolicy::default(),
    )
    .expect("clean run on the replanned grid");
    assert!(!clean_report.recovered);
    let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(run.c.as_slice()), bits(clean.c.as_slice()));
    assert_eq!(plan(36, 8, p).plan, report.final_plan);

    // The merged cost report charges the whole recover:* family.
    let phase_words = |name: &str| -> u64 {
        (0..p)
            .filter_map(|r| run.cost.phase_cost(r, name))
            .map(|c| c.words_sent)
            .sum()
    };
    assert!(
        phase_words(RECOVER_DETECT_PHASE) > 0,
        "heartbeat probes must be charged"
    );
    assert!(
        phase_words(RECOVER_AGREE_PHASE) > 0,
        "the agreement exchange must be charged"
    );
    assert!(
        phase_words(RECOVER_REDISTRIBUTE_PHASE) > 0,
        "the A re-layout must be charged"
    );
    assert!(
        (0..p).any(|r| run
            .cost
            .phase_cost(r, RECOVER_BACKOFF_PHASE)
            .is_some_and(|c| c.clock > 0.0)),
        "the backoff wait must appear on the clock"
    );

    assert_eq!(report.final_plan, Plan::TwoD { c: 2 });
    assert_eq!(report.attempts.len(), 2);
    assert_eq!(report.recovery_words, 312);
    assert_eq!(report.backoff_clock, 64.0);
    assert_eq!(run.cost.total_words(), 888);
    assert_eq!(run.cost.max_words_sent(), 148);
    assert_eq!(run.cost.elapsed(), 240.0);
}

/// Shrinking `P = 12 → 11` on a wide instance crosses plan families
/// (the §5.4 planner abandons the triangle grid), so the Theorem 1
/// attribution switches terms: the 2D attempt's dominant traffic is
/// reduce-scatter-of-C shaped, the replanned 1D run's is
/// allgather-of-A shaped. Each attempt's recorded bound case must match
/// a fresh lower-bound evaluation at that attempt's rank count.
#[test]
fn replanning_across_the_shrink_crosses_plan_families() {
    let a = seeded_matrix::<f64>(8, 16, 3);
    let faults = FaultPlan::seeded(2).crash_rank(0, 1);
    let (run, report) = run_with_recovery(
        &a,
        Plan::TwoD { c: 3 },
        CostModel::bandwidth_only(),
        Some(&faults),
        &RecoveryPolicy::default(),
    )
    .expect("recovers onto the replanned grid");
    assert!(matches!(report.attempts[0].plan, Plan::TwoD { c: 3 }));
    assert!(
        matches!(report.final_plan, Plan::OneD { .. }),
        "replanning (8, 16) at P' = 11 must leave the 2D family, got {:?}",
        report.final_plan
    );
    for attempt in &report.attempts {
        assert_eq!(
            attempt.bound_case,
            syrk_lower_bound(8, 16, attempt.plan.ranks()).case,
            "attempt on {:?} recorded a stale bound case",
            attempt.plan
        );
    }
    assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-10);
}

/// Recovery from a 3D start: a crash on a `ThreeD` grid, whose slices run
/// the in-machine ABFT every recovered run carries, shrinks the budget to 11 ranks
/// and replans like any other, to the exact `C`.
#[test]
fn threed_crash_recovery_is_correct() {
    let a = seeded_int_matrix::<f64>(36, 8, 4, 7);
    let faults = FaultPlan::seeded(5).crash_rank(1, 1);
    let initial = Plan::ThreeD { c: 2, p2: 2 };
    let (run, report) = run_with_recovery(
        &a,
        initial,
        CostModel::bandwidth_only(),
        Some(&faults),
        &RecoveryPolicy::default(),
    )
    .expect("recovers onto the replanned grid");
    assert_eq!(report.ranks_lost, [1]);
    assert_eq!(report.attempts[0].plan, initial);
    assert_eq!(
        report.attempts[0].outcome,
        AttemptOutcome::Crashed { rank: 1 }
    );
    assert_eq!(
        report.attempts.last().map(|a| &a.outcome),
        Some(&AttemptOutcome::Completed)
    );
    assert_eq!(report.final_plan, plan(36, 8, 11).plan);
    assert_eq!(max_abs_diff(&run.c, &syrk_full_reference(&a)), 0.0);
}

/// One crash's recovery cost, pinned so that a change to agreement or
/// replanning shows: rank 1 crashes at its second operation and
/// `run_with_recovery` (three attempts) shrinks and replans. Each row is
/// `(n1, n2, start, final plan, max words of recover:agree, of
/// recover:redistribute, the run's max words sent)`, the maxima over
/// ranks of the final cost report, which includes the recovery prologue.
fn one_crash_costs_are(rows: &[(usize, usize, Plan, Plan, u64, u64, u64)]) {
    let policy = RecoveryPolicy { max_attempts: 3 };
    let faults = FaultPlan::seeded(0).crash_rank(1, 2);
    for &(n1, n2, start, want_plan, agree, redistribute, max_words) in rows {
        let a = seeded_matrix::<f64>(n1, n2, 1);
        let (run, report) = run_with_recovery(
            &a,
            start,
            CostModel::bandwidth_only(),
            Some(&faults),
            &policy,
        )
        .unwrap_or_else(|e| panic!("{n1}x{n2} from {start:?}: {e}"));
        let got = (
            report.final_plan,
            run.cost.phase_max_words_sent(RECOVER_AGREE_PHASE),
            run.cost.phase_max_words_sent(RECOVER_REDISTRIBUTE_PHASE),
            run.cost.max_words_sent(),
        );
        assert_eq!(
            got,
            (want_plan, agree, redistribute, max_words),
            "{n1}x{n2} from {start:?}"
        );
        assert_eq!(report.ranks_lost, [1], "{n1}x{n2} from {start:?}");
    }
}

#[test]
fn one_crash_recovery_costs_are_pinned() {
    one_crash_costs_are(&[
        (
            64,
            1024,
            Plan::OneD { p: 96 },
            Plan::OneD { p: 95 },
            7,
            690,
            2756,
        ),
        (
            240,
            64,
            Plan::TwoD { c: 9 },
            Plan::TwoD { c: 8 },
            7,
            214,
            2013,
        ),
        (
            480,
            32,
            Plan::TwoD { c: 11 },
            Plan::TwoD { c: 9 },
            7,
            171,
            1799,
        ),
        (
            256,
            64,
            Plan::TwoD { c: 7 },
            Plan::TwoD { c: 5 },
            5,
            547,
            3477,
        ),
        (
            96,
            96,
            Plan::TwoD { c: 3 },
            Plan::TwoD { c: 2 },
            3,
            1536,
            4612,
        ),
        (
            200,
            200,
            Plan::ThreeD { c: 7, p2: 7 },
            Plan::ThreeD { c: 8, p2: 5 },
            9,
            112,
            1568,
        ),
        (
            96,
            96,
            Plan::TwoD { c: 23 },
            Plan::ThreeD { c: 9, p2: 6 },
            10,
            18,
            391,
        ),
    ]);
}

/// The `sim_ranks` shape: the prologue on the replanned 2176-rank grid
/// agrees in ⌈log₂ 2176⌉ = 12 dissemination rounds.
#[test]
fn one_crash_recovery_cost_at_sim_ranks_is_pinned() {
    one_crash_costs_are(&[(
        188,
        96,
        Plan::TwoD { c: 47 },
        Plan::ThreeD { c: 16, p2: 8 },
        12,
        9,
        272,
    )]);
}
