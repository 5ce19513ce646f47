//! E4 (Theorem 1 sweep) and E8 (§5.4 algorithm/grid crossover).

use crate::table::{fnum, Table};
use syrk_core::{gemm_lower_bound, plan, predicted_cost, syrk_lower_bound, Plan, SyrkError};

/// E4 — Theorem 1: the lower bound `W` across processor counts for the
/// three matrix shapes (short-wide, tall-skinny, square), showing the
/// case boundaries and the SYRK/GEMM factor of 2.
pub fn bounds_sweep() -> Result<Vec<Table>, SyrkError> {
    let shapes = [
        ("short-wide", 64usize, 65536usize),
        ("tall-skinny", 65536, 64),
        ("square", 2048, 2048),
    ];
    let mut tables = Vec::new();
    for (name, n1, n2) in shapes {
        let mut t = Table::new(
            format!("E4 / Theorem 1 — lower bound sweep, {name} A ({n1}x{n2})"),
            &[
                "P",
                "case",
                "W",
                "resident",
                "comm bound",
                "GEMM W",
                "GEMM/SYRK W ratio",
            ],
        );
        for p in [1usize, 2, 8, 32, 128, 512, 2048, 8192, 32768, 131072] {
            let s = syrk_lower_bound(n1, n2, p);
            let g = gemm_lower_bound(n1, n2, p);
            t.row(vec![
                p.to_string(),
                format!("{:?}", s.case),
                fnum(s.w),
                fnum(s.resident),
                fnum(s.communicated()),
                fnum(g.w),
                fnum(g.w / s.w),
            ]);
        }
        t.note("paper: W = n1n2/P + n1(n1-1)/2 | n1n2/sqrt(P) + n1(n1-1)/2P | (3/2)(n1(n1-1)n2/P)^(2/3)");
        t.note("GEMM/SYRK ratio -> 2 in every case (the headline claim)");
        tables.push(t);
    }
    Ok(tables)
}

/// E8 — §5.4: which algorithm the planner picks as `P` grows for a fixed
/// shape, with the predicted costs of all three families (the crossover
/// the paper describes: 1D→3D for short-wide, 2D→3D for tall-skinny).
pub fn crossover() -> Result<Vec<Table>, SyrkError> {
    let mut tables = Vec::new();
    for (name, n1, n2) in [
        ("short-wide", 64usize, 4096usize),
        ("tall-skinny", 4096, 64),
    ] {
        let mut t = Table::new(
            format!("E8 / §5.4 — planner crossover, {name} A ({n1}x{n2})"),
            &[
                "P budget",
                "chosen plan",
                "ranks",
                "predicted",
                "bound@ranks",
                "1D cost",
                "best 2D",
                "best 3D",
            ],
        );
        for p in [2usize, 6, 12, 30, 56, 132, 306, 1056, 4160, 16512] {
            let rp = plan(n1, n2, p);
            let one = predicted_cost(n1, n2, Plan::OneD { p });
            let best_of = |pred: &dyn Fn(&Plan) -> bool| {
                syrk_core::candidate_plans(p)
                    .into_iter()
                    .filter(|pl| pred(pl))
                    .map(|pl| predicted_cost(n1, n2, pl))
                    .fold(f64::INFINITY, f64::min)
            };
            let two = best_of(&|pl| matches!(pl, Plan::TwoD { .. }));
            let three = best_of(&|pl| matches!(pl, Plan::ThreeD { .. }));
            t.row(vec![
                p.to_string(),
                format!("{:?}", rp.plan),
                rp.plan.ranks().to_string(),
                fnum(rp.predicted_cost),
                fnum(rp.bound),
                fnum(one),
                if two.is_finite() {
                    fnum(two)
                } else {
                    "-".into()
                },
                if three.is_finite() {
                    fnum(three)
                } else {
                    "-".into()
                },
            ]);
        }
        t.note("paper §5.4: case boundaries P = n2/sqrt(n1(n1-1)) (1D->3D) and P = n1(n1-1)/n2^2 (2D->3D)");
        tables.push(t);
    }
    Ok(tables)
}
