//! Failure-injection and imbalance-reporting tests (DESIGN.md §5): feed
//! the algorithms deliberately awkward inputs and verify that (a) they
//! stay correct and (b) the cost reporting exposes the imbalance instead
//! of hiding it.

use syrk_repro::core::{try_syrk_1d, try_syrk_2d, try_syrk_3d, SyrkError, SyrkRunResult};
use syrk_repro::dense::{
    limit_threads, max_abs_diff, seeded_matrix, syrk_full_reference, syrk_tolerance, Matrix,
};
use syrk_repro::machine::{CostModel, CostReport, FaultPlan, Machine, MachineError};

#[test]
fn extreme_aspect_ratios_stay_correct() {
    // 2×4096 and 200×1.
    for (n1, n2, p) in [(2usize, 4096usize, 8usize), (200, 1, 6), (3, 1, 7)] {
        let a = seeded_matrix::<f64>(n1, n2, 1);
        let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
        let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
        assert!(
            err <= syrk_tolerance::<f64>(n2, 1.0),
            "({n1},{n2},{p}): {err}"
        );
    }
}

#[test]
fn pathological_magnitudes_survive() {
    // Entries spanning ~1e±150: products stay finite (1e300 < f64 max)
    // and the distributed sum matches the sequential one to relative
    // precision.
    let (n1, n2) = (12usize, 10usize);
    let mut a = seeded_matrix::<f64>(n1, n2, 3);
    for i in 0..n1 {
        let scale = if i % 2 == 0 { 1e150 } else { 1e-150 };
        for x in a.row_mut(i) {
            *x *= scale;
        }
    }
    let run = try_syrk_2d(&a, 2, CostModel::bandwidth_only(), None).unwrap();
    let want = syrk_full_reference(&a);
    for i in 0..n1 {
        for j in 0..n1 {
            let (g, w) = (run.c[(i, j)], want[(i, j)]);
            assert!(g.is_finite());
            let rel = (g - w).abs() / w.abs().max(1e-300);
            assert!(rel < 1e-9, "({i},{j}): {g} vs {w}");
        }
    }
}

#[test]
fn zero_matrix_moves_the_same_words() {
    // Communication is data-oblivious: an all-zero input moves exactly
    // the same words as a dense one (no silent short-circuiting).
    let (n1, n2, c) = (24usize, 8usize, 2usize);
    let dense = seeded_matrix::<f64>(n1, n2, 4);
    let zero = syrk_repro::dense::Matrix::<f64>::zeros(n1, n2);
    let r1 = try_syrk_2d(&dense, c, CostModel::bandwidth_only(), None).unwrap();
    let r0 = try_syrk_2d(&zero, c, CostModel::bandwidth_only(), None).unwrap();
    assert_eq!(r1.cost.max_words_sent(), r0.cost.max_words_sent());
    assert_eq!(r0.c.max_abs(), 0.0);
}

#[test]
fn uneven_column_split_shows_flop_imbalance() {
    // n2 = P + 1: one rank gets two columns, the rest one — the report
    // must expose the 2× local-work imbalance (approximately; the
    // Reduce-Scatter flops damp it).
    let (n1, p) = (32usize, 8usize);
    let a = seeded_matrix::<f64>(n1, p + 1, 5);
    let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
    let imb = run.cost.flop_imbalance();
    assert!(imb > 1.3, "imbalance must be visible: {imb}");
    // And the result is still right.
    assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-10);
}

#[test]
fn ranks_with_no_work_are_handled() {
    // P greater than n2: most ranks own zero columns in the 1D algorithm.
    let a = seeded_matrix::<f64>(10, 3, 6);
    let run = try_syrk_1d(&a, 9, CostModel::bandwidth_only(), None).unwrap();
    assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-12);
    // Idle ranks still participate in the Reduce-Scatter.
    assert!(run.cost.ranks.iter().all(|r| r.msgs_sent > 0));
}

#[test]
fn three_d_with_p2_larger_than_n2() {
    // Some slices own zero columns; their 2D bodies compute zero blocks
    // but must still reduce correctly.
    let a = seeded_matrix::<f64>(8, 3, 7);
    let run = try_syrk_3d(&a, 2, 5, CostModel::bandwidth_only(), None).unwrap();
    assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-12);
}

#[test]
fn poisoned_run_does_not_hang_the_whole_machine() {
    // One rank panics mid-collective; the run must abort promptly (the
    // poison flag) rather than waiting out the full deadlock timeout.
    let t0 = std::time::Instant::now();
    let result = Machine::new(4).try_run(|comm| {
        if comm.rank() == 2 {
            panic!("injected fault");
        }
        // The others enter a collective that can never complete.
        comm.try_all_reduce(&[1.0]).map(drop)
    });
    assert!(matches!(
        result,
        Err(MachineError::RankPanicked { rank: 2, .. })
    ));
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(30),
        "poisoning should abort well before the 120 s timeout"
    );
}

/// Run one of the three algorithms through its `try_` entry point,
/// panicking (test failure) on an unexpected error.
fn run_alg(
    alg: &str,
    a: &Matrix<f64>,
    model: CostModel,
    faults: Option<&FaultPlan>,
) -> SyrkRunResult {
    match alg {
        "1d" => try_syrk_1d(a, 4, model, faults),
        "2d" => try_syrk_2d(a, 2, model, faults),
        "3d" => try_syrk_3d(a, 2, 2, model, faults),
        _ => unreachable!(),
    }
    .unwrap_or_else(|e| panic!("{alg}: {e}"))
}

/// Per-phase, per-rank counter costs: words, messages, and flops, but
/// *not* the clock (delay and stall faults legitimately perturb the
/// clock while leaving every counter untouched). `retry:*` phases are
/// skipped unless `include_retry`.
fn phase_counters(cost: &CostReport, include_retry: bool) -> Vec<(String, usize, [u64; 5])> {
    let mut rows = Vec::new();
    for name in cost.phase_names() {
        if !include_retry && name.starts_with("retry:") {
            continue;
        }
        for rank in 0..cost.num_ranks() {
            if let Some(c) = cost.phase_cost(rank, name) {
                rows.push((
                    name.to_string(),
                    rank,
                    [
                        c.words_sent,
                        c.words_recv,
                        c.msgs_sent,
                        c.msgs_recv,
                        c.flops,
                    ],
                ));
            }
        }
    }
    rows
}

/// Total traffic (words + messages, both directions) charged to
/// `retry:*` phases.
fn retry_traffic(cost: &CostReport) -> u64 {
    cost.phase_names()
        .into_iter()
        .filter(|n| n.starts_with("retry:"))
        .map(|n| {
            (0..cost.num_ranks())
                .filter_map(|r| cost.phase_cost(r, n))
                .map(|c| c.words_sent + c.words_recv + c.msgs_sent + c.msgs_recv)
                .sum::<u64>()
        })
        .sum()
}

fn assert_bitwise_eq(want: &Matrix<f64>, got: &Matrix<f64>, ctx: &str) {
    assert_eq!(
        (want.rows(), want.cols()),
        (got.rows(), got.cols()),
        "{ctx}: shape"
    );
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                want[(i, j)].to_bits(),
                got[(i, j)].to_bits(),
                "{ctx}: C[{i},{j}] = {} vs {}",
                want[(i, j)],
                got[(i, j)]
            );
        }
    }
}

#[test]
fn fault_matrix_is_invisible_outside_retry_phases() {
    // Every recoverable fault kind, on every algorithm, at two seeds:
    // the output must be *bitwise* identical to the fault-free run and
    // every non-retry phase must charge identical counters — faults are
    // paid for exclusively in retry:* phases (drop/dup/corrupt) or pure
    // clock skew (delay).
    let model = CostModel::bandwidth_only();
    let a = seeded_matrix::<f64>(12, 8, 3);
    for alg in ["1d", "2d", "3d"] {
        let baseline = run_alg(alg, &a, model, None);
        let base_counters = phase_counters(&baseline.cost, false);
        for seed in [11u64, 12] {
            let plans = [
                ("drop", FaultPlan::seeded(seed).drop(0.3), true),
                ("dup", FaultPlan::seeded(seed).duplicate(0.3), true),
                ("delay", FaultPlan::seeded(seed).delay(0.4, 2.5), false),
                ("corrupt", FaultPlan::seeded(seed).corrupt(0.3), true),
            ];
            for (kind, plan, expect_retry) in plans {
                let ctx = format!("{alg}/{kind}/seed {seed}");
                let faulted = run_alg(alg, &a, model, Some(&plan));
                assert_bitwise_eq(&baseline.c, &faulted.c, &ctx);
                assert_eq!(
                    base_counters,
                    phase_counters(&faulted.cost, false),
                    "{ctx}: non-retry phase counters must match the fault-free run"
                );
                let retry = retry_traffic(&faulted.cost);
                if expect_retry {
                    assert!(retry > 0, "{ctx}: fault plan caused no retry traffic");
                } else {
                    assert_eq!(retry, 0, "{ctx}: delay must not create retry traffic");
                }
            }
        }
    }
}

#[test]
fn crash_plans_surface_as_typed_errors() {
    // A crashed rank is a *first-class* error from the try_ API, not a
    // panic and not a hang.
    let model = CostModel::bandwidth_only();
    let a = seeded_matrix::<f64>(12, 8, 5);
    let plan = FaultPlan::seeded(3).crash_rank(1, 2);
    for (alg, res) in [
        ("1d", try_syrk_1d(&a, 4, model, Some(&plan))),
        ("2d", try_syrk_2d(&a, 2, model, Some(&plan))),
        ("3d", try_syrk_3d(&a, 2, 2, model, Some(&plan))),
    ] {
        match res {
            Err(SyrkError::Machine(MachineError::RankCrashed { rank, .. })) => {
                assert_eq!(rank, 1, "{alg}: wrong crashed rank");
            }
            Err(e) => panic!("{alg}: expected RankCrashed, got: {e}"),
            Ok(_) => panic!("{alg}: crash plan completed successfully"),
        }
    }
}

#[test]
fn watchdog_turns_deadlock_into_a_diagnostic() {
    // Two ranks each block receiving a message the other never sends.
    // Instead of hanging, the run must abort with the wait-for graph.
    let err = Machine::new(2)
        .try_run(|comm| -> Result<(), MachineError> {
            let peer = 1 - comm.rank();
            let _: Vec<f64> = comm.try_recv(peer, 99)?;
            Ok(())
        })
        .expect_err("a mutual recv must deadlock");
    match err {
        MachineError::Deadlock(info) => {
            assert_eq!(info.edges.len(), 2, "both ranks were blocked: {info}");
            assert!(
                info.edges.iter().any(|e| e.from == 0 && e.to == 1),
                "{info}"
            );
            assert!(
                info.edges.iter().any(|e| e.from == 1 && e.to == 0),
                "{info}"
            );
            assert!(info.finished.is_empty(), "{info}");
        }
        e => panic!("expected Deadlock, got: {e}"),
    }
}

#[test]
fn faulted_runs_are_thread_count_invariant() {
    // Fault decisions are pure in (seed, link, seq), so the same faulted
    // run under different kernel thread budgets must produce bitwise
    // identical output and identical non-retry costs. (Exact retry:dup
    // charges may vary: a trailing duplicate racing a rank's final
    // receive is a property of the schedule, not of the plan.)
    let model = CostModel::bandwidth_only();
    let a = seeded_matrix::<f64>(16, 8, 9);
    let plan = FaultPlan::seeded(21).drop(0.2).duplicate(0.15).corrupt(0.1);
    let budgets = [1usize, 2, 4];
    let runs: Vec<SyrkRunResult> = budgets
        .iter()
        .map(|&t| {
            let _guard = limit_threads(t);
            run_alg("2d", &a, model, Some(&plan))
        })
        .collect();
    for (run, &t) in runs.iter().zip(&budgets).skip(1) {
        let ctx = format!("{} vs {t} threads", budgets[0]);
        assert_bitwise_eq(&runs[0].c, &run.c, &ctx);
        assert_eq!(
            phase_counters(&runs[0].cost, false),
            phase_counters(&run.cost, false),
            "{ctx}: non-retry phase counters must be thread-count invariant"
        );
    }
    for (run, &t) in runs.iter().zip(&budgets) {
        assert!(
            retry_traffic(&run.cost) > 0,
            "{t} threads: plan should fault something"
        );
    }
}
