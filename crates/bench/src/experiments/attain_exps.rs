//! E5–E7: the optimality experiments. Each runs the real algorithm on the
//! simulated machine, verifies the numerical output against a sequential
//! reference, and compares the *measured* bandwidth cost at the busiest
//! rank against the algorithm's analyzed cost and the Theorem 1 bound.

use crate::table::{fnum, Table};
use syrk_core::{
    alg1d_predicted_cost, alg2d_predicted_cost, alg2d_tight_cost, alg3d_predicted_cost, syrk_1d,
    syrk_2d, syrk_3d, syrk_lower_bound, Plan, RunSpec,
};
use syrk_dense::{max_abs_diff, seeded_matrix, syrk_full_reference, syrk_tolerance, Matrix};
use syrk_machine::CostModel;

fn verified(c: &Matrix<f64>, a: &Matrix<f64>) -> (f64, bool) {
    let err = max_abs_diff(c, &syrk_full_reference(a));
    (err, err <= syrk_tolerance::<f64>(a.cols(), 1.0))
}

/// E5 — Algorithm 1 attains the Case 1 bound (eq. (3)): measured words at
/// the busiest rank vs `n1(n1+1)/2·(1−1/P)` vs `W − resident`.
pub fn attain_1d() -> Vec<Table> {
    let mut t = Table::new(
        "E5 / eq. (3) — 1D algorithm attainment (Case 1: n1 <= n2, small P)",
        &[
            "n1",
            "n2",
            "P",
            "measured",
            "eq(3)",
            "bound",
            "measured/bound",
            "max err",
            "ok",
        ],
    );
    for (n1, n2, p) in [
        (32usize, 512usize, 2usize),
        (32, 512, 4),
        (32, 512, 8),
        (64, 1024, 4),
        (64, 1024, 16),
        (128, 2048, 8),
        (96, 4096, 32),
    ] {
        let a = seeded_matrix::<f64>(n1, n2, (n1 + n2 + p) as u64);
        let run = syrk_1d(&a, p, CostModel::bandwidth_only());
        let (err, ok) = verified(&run.c, &a);
        let measured = run.cost.max_words_sent() as f64;
        let eq3 = alg1d_predicted_cost(n1, p);
        let bound = syrk_lower_bound(n1, n2, p).communicated();
        assert!(ok, "({n1},{n2},{p}) numerically wrong: {err}");
        assert!(
            (measured - eq3).abs() <= p as f64,
            "eq(3) mismatch: {measured} vs {eq3}"
        );
        t.row(vec![
            n1.to_string(),
            n2.to_string(),
            p.to_string(),
            fnum(measured),
            fnum(eq3),
            fnum(bound),
            fnum(measured / bound.max(1.0)),
            format!("{err:.1e}"),
            ok.to_string(),
        ]);
    }
    t.note("paper §5.4 Case 1: eq. (3) bandwidth matches the lower bound's leading term exactly");
    t.note("measured/bound -> (n1+1)/(n1-1) ~ 1 (the diagonal is the only excess)");
    vec![t]
}

/// E6 — Algorithm 2 attains the Case 2 bound: measured vs the tight
/// (unpadded) cost `n1n2/(c+1)`, eq. (10)'s padded cost `n1n2/c·(1−1/P)`,
/// and the Theorem 1 bound.
pub fn attain_2d() -> Vec<Table> {
    let mut t = Table::new(
        "E6 / eqs. (10)-(11) — 2D algorithm attainment (Case 2: n1 > n2)",
        &[
            "n1",
            "n2",
            "c",
            "P",
            "measured",
            "padded meas.",
            "tight",
            "eq(10)",
            "bound",
            "measured/bound",
            "ok",
        ],
    );
    for (n1, n2, c) in [
        (64usize, 4usize, 2usize),
        (128, 8, 2),
        (144, 6, 3),
        (288, 8, 3),
        (300, 4, 5),
        (490, 5, 7),
    ] {
        let p = c * (c + 1);
        let a = seeded_matrix::<f64>(n1, n2, (n1 * 3 + n2 + c) as u64);
        let run = syrk_2d(&a, c, CostModel::bandwidth_only());
        let (err, ok) = verified(&run.c, &a);
        assert!(ok, "({n1},{n2},c={c}) numerically wrong: {err}");
        let measured = run.cost.max_words_sent() as f64;
        let padded = RunSpec {
            padded: true,
            ..RunSpec::new(Plan::TwoD { c }, CostModel::bandwidth_only())
        };
        let padded = syrk_core::run(&a, &padded).expect("same grid as the tight run");
        let padded_meas = padded.result.cost.max_words_sent() as f64;
        let tight = alg2d_tight_cost(n1, n2, c);
        let eq10 = alg2d_predicted_cost(n1, n2, c);
        let bound = syrk_lower_bound(n1, n2, p).communicated();
        assert!(measured <= eq10 * 1.05 + p as f64, "above padded analysis");
        assert!(
            (padded_meas - eq10).abs() <= p as f64,
            "padded variant must sit on eq.(10)"
        );
        t.row(vec![
            n1.to_string(),
            n2.to_string(),
            c.to_string(),
            p.to_string(),
            fnum(measured),
            fnum(padded_meas),
            fnum(tight),
            fnum(eq10),
            fnum(bound),
            fnum(measured / bound.max(1.0)),
            ok.to_string(),
        ]);
    }
    t.note("tight = n1n2/(c+1): only meaningful chunks exchanged; eq(10) = n1n2/c (1-1/P) pads B to P blocks");
    t.note("measured/bound -> 1 as c grows: the triangle blocking attains the constant");
    vec![t]
}

/// E7 — Algorithm 3 attains the Case 3 bound (eq. (12)).
pub fn attain_3d() -> Vec<Table> {
    let mut t = Table::new(
        "E7 / eq. (12) — 3D algorithm attainment (Case 3: large P)",
        &[
            "n1",
            "n2",
            "c",
            "p2",
            "P",
            "measured",
            "eq(12)",
            "bound",
            "measured/bound",
            "ok",
        ],
    );
    for (n1, n2, c, p2) in [
        (48usize, 48usize, 2usize, 2usize),
        (48, 48, 2, 4),
        (72, 72, 3, 2),
        (72, 144, 3, 4),
        (96, 96, 2, 8),
        (180, 90, 3, 3),
        (100, 200, 5, 2),
    ] {
        let p = c * (c + 1) * p2;
        let a = seeded_matrix::<f64>(n1, n2, (n1 + 7 * n2 + c + p2) as u64);
        let run = syrk_3d(&a, c, p2, CostModel::bandwidth_only());
        let (err, ok) = verified(&run.c, &a);
        assert!(ok, "({n1},{n2},c={c},p2={p2}) numerically wrong: {err}");
        let measured = run.cost.max_words_sent() as f64;
        let eq12 = alg3d_predicted_cost(n1, n2, c, p2);
        let bound = syrk_lower_bound(n1, n2, p).communicated();
        t.row(vec![
            n1.to_string(),
            n2.to_string(),
            c.to_string(),
            p2.to_string(),
            p.to_string(),
            fnum(measured),
            fnum(eq12),
            fnum(bound),
            fnum(measured / bound.max(1.0)),
            ok.to_string(),
        ]);
    }
    t.note(
        "eq. (12): n1n2/(c p2)(1-1/p1) + (n1^2/2c^2)(1-1/p2); measured uses unpadded A exchange",
    );
    t.note("grids here are small, so constants include O(1/c) effects; ratios shrink as c grows");
    vec![t]
}
