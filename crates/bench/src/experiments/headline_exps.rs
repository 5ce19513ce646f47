//! E9 — the headline comparison: optimal SYRK vs optimal GEMM vs a
//! ScaLAPACK-style SYRK, in all three regimes. The paper's claims:
//!
//! * SYRK communicates a factor of 2 less than GEMM (leading order),
//! * library SYRK (ScaLAPACK/Elemental) halves the flops but *not* the
//!   communication.

use crate::table::{fnum, Table};
use syrk_core::{
    gemm_1d, gemm_2d, gemm_3d, scalapack_syrk_2d, try_syrk_1d, try_syrk_2d, try_syrk_3d, SyrkError,
};
use syrk_dense::{max_abs_diff, seeded_matrix, syrk_full_reference, syrk_tolerance};
use syrk_machine::CostModel;

/// E9a — Case 1 regime (short-wide): 1D SYRK vs 1D GEMM at identical `P`.
pub fn headline_case1() -> Result<Vec<Table>, SyrkError> {
    let mut t = Table::new(
        "E9a / headline — 1D SYRK vs 1D GEMM (Case 1, words & flops at busiest rank)",
        &[
            "n1",
            "n2",
            "P",
            "SYRK words",
            "GEMM words",
            "word ratio",
            "SYRK flops",
            "GEMM flops",
            "flop ratio",
        ],
    );
    for (n1, n2, p) in [(64usize, 1024usize, 4usize), (96, 2048, 8), (128, 4096, 16)] {
        let a = seeded_matrix::<f64>(n1, n2, 42);
        let s = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None)?;
        let g = gemm_1d(&a, p, CostModel::bandwidth_only())?;
        for run in [&s, &g] {
            let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
            assert!(err <= syrk_tolerance::<f64>(n2, 1.0), "wrong result: {err}");
        }
        let (sw, gw) = (
            s.cost.max_words_sent() as f64,
            g.cost.max_words_sent() as f64,
        );
        let (sf, gf) = (s.cost.max_flops() as f64, g.cost.max_flops() as f64);
        t.row(vec![
            n1.to_string(),
            n2.to_string(),
            p.to_string(),
            fnum(sw),
            fnum(gw),
            fnum(gw / sw),
            fnum(sf),
            fnum(gf),
            fnum(gf / sf),
        ]);
    }
    t.note("expected word ratio: n1^2 / (n1(n1+1)/2) = 2n1/(n1+1) -> 2; flop ratio likewise -> 2");
    Ok(vec![t])
}

/// E9b — Case 2 regime (tall-skinny): 2D SYRK (triangle blocking) vs
/// SUMMA GEMM vs ScaLAPACK-style SYRK. Processor counts differ slightly
/// (`c(c+1)` vs `r²`), so costs are normalized to the scale-free constant
/// `words·√P/(n1·n2)` that the bounds predict: 1 for optimal SYRK, 2 for
/// GEMM *and* for library SYRK.
pub fn headline_case2() -> Result<Vec<Table>, SyrkError> {
    let mut t = Table::new(
        "E9b / headline — 2D: triangle-block SYRK vs SUMMA GEMM vs ScaLAPACK-style SYRK",
        &[
            "algorithm",
            "n1",
            "n2",
            "P",
            "words",
            "const = words*sqrt(P)/(n1n2)",
            "flops/rank",
            "flop const = flops*P/(n1^2 n2)",
        ],
    );
    let (n1, n2) = (720usize, 8usize);
    let a = seeded_matrix::<f64>(n1, n2, 9);
    let reference = syrk_full_reference(&a);
    let tol = syrk_tolerance::<f64>(n2, 1.0);

    // Optimal SYRK on c = 5 (P = 30).
    let s = try_syrk_2d(&a, 5, CostModel::bandwidth_only(), None)?;
    assert!(max_abs_diff(&s.c, &reference) <= tol);
    // GEMM and ScaLAPACK SYRK on r = 6 (P = 36, the closest square).
    let g = gemm_2d(&a, 6, CostModel::bandwidth_only())?;
    assert!(max_abs_diff(&g.c, &reference) <= tol);
    let l = scalapack_syrk_2d(&a, 6, CostModel::bandwidth_only())?;
    assert!(max_abs_diff(&l.c, &reference) <= tol);

    for (name, run, p) in [
        ("syrk_2d (this paper)", &s, 30usize),
        ("gemm_2d (SUMMA)", &g, 36),
        ("scalapack-style syrk", &l, 36),
    ] {
        let words = run.cost.max_words_sent() as f64;
        let konst = words * (p as f64).sqrt() / (n1 * n2) as f64;
        let flops = run.cost.max_flops() as f64;
        let fconst = run.cost.total_flops() as f64 / ((n1 * n1 * n2) as f64 / 1.0);
        t.row(vec![
            name.to_string(),
            n1.to_string(),
            n2.to_string(),
            p.to_string(),
            fnum(words),
            fnum(konst),
            fnum(flops),
            fnum(fconst),
        ]);
    }
    t.note("bounds: optimal SYRK const -> 1, GEMM const -> 2");
    t.note("ScaLAPACK-style: flop const ~ 1 (halved like SYRK) but word const ~ 2 (like GEMM) — the gap this paper closes");
    Ok(vec![t])
}

/// E9c — Case 3 regime (large P): 3D SYRK vs 3D GEMM, normalized to the
/// scale-free constant `words/(n1²n2/P)^{2/3}` (bounds: 3/2 vs 3).
pub fn headline_case3() -> Result<Vec<Table>, SyrkError> {
    let mut t = Table::new(
        "E9c / headline — 3D: SYRK (c(c+1) x p2 grid) vs GEMM (r x r x p2 grid)",
        &[
            "algorithm",
            "n1",
            "n2",
            "P",
            "words",
            "const = words/(n1^2 n2/P)^(2/3)",
        ],
    );
    let (n1, n2) = (144usize, 144usize);
    let a = seeded_matrix::<f64>(n1, n2, 27);
    let reference = syrk_full_reference(&a);
    let tol = syrk_tolerance::<f64>(n2, 1.0);

    // SYRK: c = 3 (p1 = 12), p2 = 3 → P = 36. GEMM: r = 3, p2 = 4 → P = 36.
    let s = try_syrk_3d(&a, 3, 3, CostModel::bandwidth_only(), None)?;
    assert!(max_abs_diff(&s.c, &reference) <= tol);
    let g = gemm_3d(&a, 3, 4, CostModel::bandwidth_only())?;
    assert!(max_abs_diff(&g.c, &reference) <= tol);

    for (name, run, p) in [("syrk_3d (this paper)", &s, 36usize), ("gemm_3d", &g, 36)] {
        let words = run.cost.max_words_sent() as f64;
        let konst = words / ((n1 * n1 * n2) as f64 / p as f64).powf(2.0 / 3.0);
        t.row(vec![
            name.to_string(),
            n1.to_string(),
            n2.to_string(),
            p.to_string(),
            fnum(words),
            fnum(konst),
        ]);
    }
    t.note("bounds: SYRK const -> 3/2, GEMM const -> 3 (factor 2, paper §6); small grids carry O(1/c) slack");
    Ok(vec![t])
}
