//! Integration: the observability surface — event tracing through a full
//! algorithm run, phase attribution, and the planner's public reporting
//! types.

use syrk_core::{
    run, syrk_lower_bound, Plan, RankedPlan, RunSpec, SyrkRunResult, PHASE_ALLGATHER_A,
    PHASE_LOCAL_SYRK, PHASE_REDUCE_SCATTER_C,
};
use syrk_dense::{limit_threads, max_abs_diff, seeded_matrix, syrk_full_reference, Matrix};
use syrk_machine::{CostModel, CostReport, EventKind, Timeline};

/// One grid per algorithm, all accepting a 36 × 8 input.
const GRIDS: [(&str, Plan); 3] = [
    ("1d", Plan::OneD { p: 4 }),
    ("2d", Plan::TwoD { c: 3 }),
    ("3d", Plan::ThreeD { c: 2, p2: 2 }),
];

fn traced(a: &Matrix<f64>, plan: Plan, model: CostModel) -> (SyrkRunResult, Vec<Timeline>) {
    let spec = RunSpec {
        trace: true,
        ..RunSpec::new(plan, model)
    };
    let out = run(a, &spec).expect("traced run");
    (out.result, out.traces.expect("the spec asks for tracing"))
}

/// Run every traced algorithm on a shape all three grids accept.
fn traced_runs() -> Vec<(&'static str, SyrkRunResult, Vec<Timeline>)> {
    let a = seeded_matrix::<f64>(36, 8, 8);
    GRIDS
        .into_iter()
        .map(|(name, plan)| {
            let (run, traces) = traced(&a, plan, CostModel::default());
            (name, run, traces)
        })
        .collect()
}

#[test]
fn traced_2d_run_is_correct_and_fully_logged() {
    let (n1, n2, c) = (24usize, 6usize, 2usize);
    let a = seeded_matrix::<f64>(n1, n2, 8);
    let (run, traces) = traced(&a, Plan::TwoD { c }, CostModel::bandwidth_only());
    assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-10);
    assert_eq!(traces.len(), run.cost.num_ranks());

    for (r, tl) in traces.iter().enumerate() {
        // Each exchange event logs max(w_out, w_in) — and in the sparse
        // pairwise schedule a step with traffic in only one direction is
        // logged as a plain send or receive — so the sum of all traffic
        // events brackets the true word counters:
        //   max(sent, recv) ≤ Σ max(out, in) + Σ send + Σ recv ≤ sent + recv.
        let logged: u64 = tl
            .iter()
            .filter(|e| e.kind != EventKind::Flops)
            .map(|e| e.amount)
            .sum();
        let (sent, recv) = (run.cost.ranks[r].words_sent, run.cost.ranks[r].words_recv);
        assert!(
            logged >= sent.max(recv),
            "rank {r}: {logged} < {}",
            sent.max(recv)
        );
        assert!(
            logged <= sent + recv,
            "rank {r}: {logged} > {}",
            sent + recv
        );
        // Flop events reconstruct the flop counter.
        let flops: u64 = tl
            .iter()
            .filter(|e| e.kind == EventKind::Flops)
            .map(|e| e.amount)
            .sum();
        assert_eq!(flops, run.cost.ranks[r].flops, "rank {r}");
        // Clocks are monotone non-decreasing within a rank.
        assert!(
            tl.windows(2).all(|w| w[0].clock <= w[1].clock + 1e-12),
            "rank {r}: clock went backwards"
        );
        // CSV rows render for every event.
        assert!(tl.iter().all(|e| !e.to_csv_row().is_empty()));
    }
}

#[test]
fn phase_sums_match_totals_for_all_algorithms() {
    for (name, run, traces) in traced_runs() {
        let cost: &CostReport = &run.cost;
        assert_eq!(traces.len(), cost.num_ranks(), "{name}");
        for (r, timeline) in traces.iter().enumerate() {
            // Integer counters: the per-phase ledger partitions every
            // delta, so summing phases reconstructs the totals exactly.
            let sums = cost.phases[r].iter().fold([0u64; 5], |mut acc, p| {
                acc[0] += p.cost.words_sent;
                acc[1] += p.cost.words_recv;
                acc[2] += p.cost.msgs_sent;
                acc[3] += p.cost.msgs_recv;
                acc[4] += p.cost.flops;
                acc
            });
            let t = &cost.ranks[r];
            assert_eq!(
                sums,
                [
                    t.words_sent,
                    t.words_recv,
                    t.msgs_sent,
                    t.msgs_recv,
                    t.flops
                ],
                "{name} rank {r}: phase sums diverge from totals"
            );
            // The clock is also a sum of per-event deltas (up to float
            // rounding across phase accumulators).
            let clock_sum: f64 = cost.phases[r].iter().map(|p| p.cost.clock).sum();
            assert!(
                (clock_sum - t.clock).abs() <= 1e-9 * t.clock.max(1.0),
                "{name} rank {r}: phase clocks sum to {clock_sum}, total {}",
                t.clock
            );
            // Traced events carry the same attribution: per phase, the
            // flop-event amounts reproduce the phase's flop counter.
            for p in &cost.phases[r] {
                let ev_flops: u64 = timeline
                    .iter()
                    .filter(|e| e.kind == EventKind::Flops && e.phase == Some(p.name))
                    .map(|e| e.amount)
                    .sum();
                assert_eq!(
                    ev_flops, p.cost.flops,
                    "{name} rank {r} phase {}: event flops mismatch",
                    p.name
                );
            }
        }
        // The canonical phases the algorithms pay appear in the table.
        let table = cost.phase_table();
        let expect: &[&str] = match name {
            "1d" => &[PHASE_LOCAL_SYRK, PHASE_REDUCE_SCATTER_C],
            "2d" => &[PHASE_ALLGATHER_A, PHASE_LOCAL_SYRK],
            _ => &[PHASE_ALLGATHER_A, PHASE_REDUCE_SCATTER_C],
        };
        for phase in expect {
            assert!(
                table.row(phase).is_some(),
                "{name}: phase table is missing {phase}\n{table}"
            );
        }
    }
}

#[test]
fn timelines_identical_across_host_thread_budgets() {
    // The simulated cost charging is deterministic; host kernel
    // parallelism must not leak into the traced timelines.
    let a = seeded_matrix::<f64>(36, 8, 9);
    let model = CostModel::default();
    for (name, plan) in GRIDS {
        let serial = {
            let _g = limit_threads(1);
            traced(&a, plan, model).1
        };
        let wide = {
            let _g = limit_threads(8);
            traced(&a, plan, model).1
        };
        assert_eq!(serial, wide, "{name}: timeline depends on host threads");
    }
}

#[test]
fn planner_report_is_self_consistent() {
    let rp: RankedPlan = syrk_core::plan(512, 16, 40);
    assert!(rp.plan.ranks() <= 40);
    assert!(rp.predicted_cost.is_finite() && rp.predicted_cost > 0.0);
    // The reported bound must equal Theorem 1 at the plan's rank count.
    let expect = syrk_lower_bound(512, 16, rp.plan.ranks()).communicated();
    assert!((rp.bound - expect).abs() < 1e-9);
    // A valid plan never promises to beat its own lower bound by much
    // (tiny slack allowed for the n1±1 discounts).
    assert!(rp.predicted_cost >= rp.bound * 0.95);
}
