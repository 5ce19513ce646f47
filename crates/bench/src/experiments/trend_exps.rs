//! E18 (attainment trend: measured/bound → 1 as c grows — the "matching
//! constants" claim of the abstract) and E19 (eq. (9): computational
//! optimality — the flop side of the factor 2).

use crate::table::{fnum, Table};
use syrk_core::{
    gemm_2d, scalapack_syrk_2d, syrk_lower_bound, try_syrk_2d, try_syrk_3d, SyrkError,
};
use syrk_dense::{max_abs_diff, seeded_matrix, syrk_full_reference, syrk_tolerance};
use syrk_machine::CostModel;

/// E18 — tightness of the constants: fix the per-rank problem size and
/// sweep the grid order `c`. The measured/bound ratio must decrease
/// toward 1 (the leading-order constants match; the gap is O(1/c)).
pub fn attainment_trend() -> Result<Vec<Table>, SyrkError> {
    let mut t = Table::new(
        "E18 / abstract claim — 2D attainment ratio -> 1 as c grows",
        &[
            "c",
            "P",
            "n1",
            "n2",
            "measured",
            "bound",
            "measured/bound",
            "(c+1)/c model",
        ],
    );
    let mut prev_ratio = f64::INFINITY;
    for c in [2usize, 3, 4, 5, 7, 8, 9, 11] {
        let p = c * (c + 1);
        // Scale n1 with c² and n2 with c+1 so every chunk divides evenly
        // (no rounding noise) and every rank keeps the same block size
        // (weak scaling in the triangle dimension).
        let n1 = c * c * 8;
        let n2 = 2 * (c + 1);
        let a = seeded_matrix::<f64>(n1, n2, c as u64);
        let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None)?;
        let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
        assert!(err <= syrk_tolerance::<f64>(n2, 1.0), "c={c}: {err}");
        let measured = run.cost.max_words_sent() as f64;
        let bound = syrk_lower_bound(n1, n2, p).communicated();
        let ratio = measured / bound;
        // The trend is the claim: monotone non-increasing (within noise).
        assert!(
            ratio <= prev_ratio * 1.02,
            "attainment ratio regressed at c={c}: {ratio} after {prev_ratio}"
        );
        prev_ratio = ratio;
        // Crude model of the gap: the unpadded algorithm sends n1n2/(c+1)
        // vs a bound ≈ n1n2(√P−1)/P.
        let model = (n1 * n2) as f64 / (c + 1) as f64 / bound;
        t.row(vec![
            c.to_string(),
            p.to_string(),
            n1.to_string(),
            n2.to_string(),
            fnum(measured),
            fnum(bound),
            fnum(ratio),
            fnum(model),
        ]);
    }
    t.note("the abstract's 'we show these constants are tight': the gap to the bound closes as c grows");
    t.note("c = 4, 8, 9 rows run on the affine-plane (prime-power) grids this repo adds");
    Ok(vec![t])
}

/// E19 — eq. (9): the computational side. Per-rank flops of the 2D
/// algorithm ≈ `n1²n2/P` (half of GEMM's `2n1²n2/P`), with imbalance
/// only from the `c` diagonal-less ranks (§5.2.3).
pub fn flop_optimality() -> Result<Vec<Table>, SyrkError> {
    let mut t = Table::new(
        "E19 / eq. (9) — computational cost: max flops/rank vs n1^2 n2 / P",
        &[
            "algorithm",
            "c",
            "P",
            "max flops",
            "n1^2 n2/P",
            "ratio",
            "imbalance",
        ],
    );
    let (n1, n2) = (360usize, 8usize);
    let a = seeded_matrix::<f64>(n1, n2, 1);
    for c in [2usize, 3, 5] {
        let p = c * (c + 1);
        let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None)?;
        let opt = (n1 * n1 * n2) as f64 / p as f64;
        t.row(vec![
            "syrk_2d".into(),
            c.to_string(),
            p.to_string(),
            run.cost.max_flops().to_string(),
            fnum(opt),
            fnum(run.cost.max_flops() as f64 / opt),
            fnum(run.cost.flop_imbalance()),
        ]);
    }
    // 3D keeps the same optimum (work never grows with p2).
    let run3 = try_syrk_3d(&a, 3, 2, CostModel::bandwidth_only(), None)?;
    let p3 = 24;
    let opt3 = (n1 * n1 * n2) as f64 / p3 as f64;
    t.row(vec![
        "syrk_3d (c=3,p2=2)".into(),
        "3".into(),
        p3.to_string(),
        run3.cost.max_flops().to_string(),
        fnum(opt3),
        fnum(run3.cost.max_flops() as f64 / opt3),
        fnum(run3.cost.flop_imbalance()),
    ]);
    // GEMM baselines do 2× the work at the same P class.
    let g = gemm_2d(&a, 6, CostModel::bandwidth_only())?;
    let sl = scalapack_syrk_2d(&a, 6, CostModel::bandwidth_only())?;
    let opt_g = (n1 * n1 * n2) as f64 / 36.0;
    t.row(vec![
        "gemm_2d (r=6)".into(),
        "-".into(),
        "36".into(),
        g.cost.max_flops().to_string(),
        fnum(opt_g),
        fnum(g.cost.max_flops() as f64 / opt_g),
        fnum(g.cost.flop_imbalance()),
    ]);
    t.row(vec![
        "scalapack (r=6)".into(),
        "-".into(),
        "36".into(),
        sl.cost.max_flops().to_string(),
        fnum(opt_g),
        fnum(sl.cost.max_flops() as f64 / opt_g),
        fnum(sl.cost.flop_imbalance()),
    ]);
    t.note("paper eq. (9): gamma * n1^2 n2 / P + O(n1^2 n2 / P^{3/2}) — ratio -> 1 with c");
    t.note("GEMM ratio -> 2 (no symmetry saving); ScaLAPACK-style halves flops but its idle upper");
    t.note("ranks make the flop IMBALANCE ~2 (max/avg): the triangle blocks also fix load balance");
    Ok(vec![t])
}
