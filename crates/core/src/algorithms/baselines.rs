//! Baselines for the headline comparison (§1, §6), all corners of one
//! SUMMA grid of `r × r × p2` ranks:
//!
//! * **Communication-optimal GEMM** (Al Daas et al., SPAA '22) computes
//!   the *full* `C = A·Aᵀ`, symmetry unused: 1D is the `r = 1` corner,
//!   2D (SUMMA-style) the `p2 = 1` corner and 3D the whole grid, one per
//!   bound case, each communicating 2× the matching SYRK algorithm.
//! * **ScaLAPACK-style SYRK** is 2D GEMM computing only lower-triangle
//!   blocks: "they halve the computation but communicate the same amount
//!   of data as GEMM".
//!
//! A unit dimension costs nothing: at `r = 1` a rank's operand is its
//! column block of `A` where it lies, and at `p2 = 1` no Reduce-Scatter
//! runs. Zero ranks, an empty `A` and more than `u32::MAX` ranks are
//! [`PlanError`]s, as in [`run`](crate::run).

use syrk_dense::{
    gemm_flops, gemm_nt, mirror_lower_to_upper, syrk_flops, syrk_packed, write_packed_lower,
    Matrix, PackedLower, Partition1D,
};
use syrk_machine::{Comm, CostModel, Machine, MachineError, ProcessGrid};

use super::common::{check_ranks, check_shape, SyrkRunResult};
use crate::error::SyrkError;
use crate::planner::PlanError;

/// The one driver. Each of the `p2` slices runs SUMMA on its `n2/p2`
/// columns of `A` — rank `(I, J)` all-gathers `A_I` and `A_J` and computes
/// block `(I, J)` of `C` — and a Reduce-Scatter across slices sums each
/// block. `syrk_mode`, the only difference between GEMM and ScaLAPACK's
/// SYRK, computes just the blocks with `I ≥ J`, the diagonal one by a SYRK.
fn summa(
    a: &Matrix<f64>,
    r: usize,
    p2: usize,
    model: CostModel,
    syrk_mode: bool,
) -> Result<SyrkRunResult, SyrkError> {
    let (n1, n2) = a.shape();
    check_ranks(r.min(p2))?;
    check_shape(n1, n2)?;
    let p = (r.checked_mul(r).and_then(|rr| rr.checked_mul(p2)))
        .filter(|&p| u32::try_from(p).is_ok())
        .ok_or(PlanError::SummaGridOverflow { r, p2 })?;
    let (rows, cols) = (Partition1D::new(n1, r), Partition1D::new(n2, p2));
    let grid = ProcessGrid::new(r * r, p2);

    let out = Machine::new(p).with_model(model).try_run(|mut comm| {
        let gc = grid.split(&mut comm);
        let (big_i, big_j) = (gc.k % r, gc.k / r);
        let (cr, mut slice) = (cols.range(gc.l), gc.slice);
        let a_col = a.block(0, cr.start, n1, cr.len());
        // The operand gather: rank (I, J) holds chunk J of A_I and chunk I
        // of A_J (by flattened elements, read where they lie); all-gathers
        // among the ranks sharing I (in J order) and sharing J (in I order)
        // rebuild A_I and A_J. At r = 1 both are the column block itself.
        let gather = |blk: usize, idx: usize, comm: Comm| {
            let rr = rows.range(blk);
            let part = Partition1D::new(rr.len() * cr.len(), r).range(idx);
            let chunk = a_col
                .sub(rr.start, 0, rr.len(), cr.len())
                .flat_range_to_vec(part);
            let flat = comm.try_all_gather_concat(chunk)?;
            Ok::<_, MachineError>(Matrix::from_vec(rr.len(), cr.len(), flat))
        };
        let gathered = match r {
            1 => None,
            _ => {
                let row = slice.split(big_i as u64, big_j);
                let col = slice.split((r + big_j) as u64, big_i);
                Some([gather(big_i, big_j, row)?, gather(big_j, big_i, col)?])
            }
        };
        let [a_i, a_j] = gathered
            .as_ref()
            .map_or([a_col; 2], |g| g.each_ref().map(Matrix::view));

        // In `syrk_mode` no words above the diagonal and a packed triangle
        // on it; GEMM charges the full 2n1²n2 flops.
        let (m, n) = (a_i.rows(), a_j.rows());
        let block = if syrk_mode && big_i < big_j {
            Vec::new()
        } else if syrk_mode && big_i == big_j {
            comm.add_flops(syrk_flops(m, cr.len()));
            let mut c = PackedLower::zeros(m);
            syrk_packed(&mut c, a_i);
            c.into_vec()
        } else {
            comm.add_flops(gemm_flops(m, n, cr.len()));
            let mut c = Matrix::zeros(m, n);
            gemm_nt(&mut c, a_i, a_j);
            c.into_vec()
        };
        if p2 == 1 {
            return Ok(block);
        }
        let seg = Partition1D::new(block.len(), p2);
        gc.row.try_reduce_scatter_block(&block, &seg.lens())
    })?;

    // Block (I, J) is the segments of grid row I + J·r: world ranks
    // I + J·r + ℓ·r², in ℓ order. GEMM writes both triangles as reduced:
    // the two sums of a mirrored pair need not round alike.
    let mut c = Matrix::zeros(n1, n1);
    for k in 0..r * r {
        let (bi, bj) = (rows.range(k % r), rows.range(k / r));
        let segs = out.results[k..].iter().step_by(r * r).map(Vec::as_slice);
        if syrk_mode && k % r == k / r {
            write_packed_lower(&mut c, bi.start, bi.len(), segs);
        } else if !syrk_mode || k % r > k / r {
            let blk = Matrix::from_vec(bi.len(), bj.len(), segs.flatten().copied().collect());
            c.set_block(bi.start, bj.start, &blk);
        }
    }
    if syrk_mode {
        mirror_lower_to_upper(&mut c);
    }
    Ok(SyrkRunResult { c, cost: out.cost })
}

/// 1D GEMM baseline (Case 1 regime), the `r = 1` corner: local full
/// product, Reduce-Scatter of all `n1²` words — twice the 1D SYRK's.
pub fn gemm_1d(a: &Matrix<f64>, p: usize, model: CostModel) -> Result<SyrkRunResult, SyrkError> {
    summa(a, 1, p, model, false)
}

/// 2D GEMM baseline (Case 2 regime), the `p2 = 1` corner: `2·n1n2/r·(1 −
/// 1/r)` words per rank — twice the 2D SYRK cost.
pub fn gemm_2d(a: &Matrix<f64>, r: usize, model: CostModel) -> Result<SyrkRunResult, SyrkError> {
    summa(a, r, 1, model, false)
}

/// ScaLAPACK-style 2D SYRK baseline: identical communication to
/// [`gemm_2d`], half the flops (only `I ≥ J` blocks computed).
pub fn scalapack_syrk_2d(
    a: &Matrix<f64>,
    r: usize,
    model: CostModel,
) -> Result<SyrkRunResult, SyrkError> {
    summa(a, r, 1, model, true)
}

/// 3D GEMM baseline (Case 3 regime), the whole grid. Leading cost
/// `2n1n2/(r·p2) + n1²/r²` — twice the 3D SYRK with the optimal grids of
/// §5.4.
pub fn gemm_3d(
    a: &Matrix<f64>,
    r: usize,
    p2: usize,
    model: CostModel,
) -> Result<SyrkRunResult, SyrkError> {
    summa(a, r, p2, model, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::{max_abs_diff, seeded_matrix, syrk_full_reference};

    fn check(run: &SyrkRunResult, a: &Matrix<f64>, label: &str) {
        let err = max_abs_diff(&run.c, &syrk_full_reference(a));
        assert!(err < 1e-10, "{label}: err {err}");
    }

    #[test]
    fn gemm_1d_correct() {
        for &(n1, n2, p) in &[(6usize, 12usize, 3usize), (5, 7, 4), (8, 8, 1)] {
            let a = seeded_matrix::<f64>(n1, n2, 31);
            check(
                &gemm_1d(&a, p, CostModel::bandwidth_only()).unwrap(),
                &a,
                "gemm_1d",
            );
        }
    }

    #[test]
    fn gemm_1d_communicates_twice_syrk_1d() {
        let (n1, n2, p) = (20, 40, 5);
        let a = seeded_matrix::<f64>(n1, n2, 3);
        let g = gemm_1d(&a, p, CostModel::bandwidth_only()).unwrap();
        let s = crate::try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
        let ratio = g.cost.max_words_sent() as f64 / s.cost.max_words_sent() as f64;
        // n1² vs n1(n1+1)/2 → ratio = 2n1/(n1+1) ≈ 1.90 for n1 = 20.
        assert!((ratio - 2.0 * 20.0 / 21.0).abs() < 0.05, "ratio {ratio}");
        // And flops are double (minus the diagonal discount).
        let fr = g.cost.total_flops() as f64 / s.cost.total_flops() as f64;
        assert!((fr - 2.0 * 20.0 / 21.0).abs() < 0.05, "flop ratio {fr}");
    }

    #[test]
    fn gemm_2d_correct() {
        for &(n1, n2, r) in &[(8usize, 6usize, 2usize), (12, 5, 3), (9, 9, 3)] {
            let a = seeded_matrix::<f64>(n1, n2, 17);
            check(
                &gemm_2d(&a, r, CostModel::bandwidth_only()).unwrap(),
                &a,
                "gemm_2d",
            );
        }
    }

    #[test]
    fn scalapack_syrk_correct_and_half_flops_same_comm() {
        let (n1, n2, r) = (24, 10, 3);
        let a = seeded_matrix::<f64>(n1, n2, 5);
        let g = gemm_2d(&a, r, CostModel::bandwidth_only()).unwrap();
        let s = scalapack_syrk_2d(&a, r, CostModel::bandwidth_only()).unwrap();
        check(&s, &a, "scalapack_syrk_2d");
        // Identical communication...
        assert_eq!(g.cost.max_words_sent(), s.cost.max_words_sent());
        assert_eq!(g.cost.total_words(), s.cost.total_words());
        // ...roughly half the flops (exactly: (r(r+1)/2 blocks + diag
        // discount) vs r² blocks).
        let fr = g.cost.total_flops() as f64 / s.cost.total_flops() as f64;
        assert!(fr > 1.8 && fr < 2.1, "flop ratio {fr}");
    }

    #[test]
    fn gemm_2d_bandwidth_formula() {
        // Each rank: two all-gathers of chunks of n1n2/r² words to r−1
        // partners each: 2(r−1)·n1n2/r².
        let (n1, n2, r) = (24, 12, 2);
        let a = seeded_matrix::<f64>(n1, n2, 2);
        let g = gemm_2d(&a, r, CostModel::bandwidth_only()).unwrap();
        let expect = 2 * (r - 1) * n1 * n2 / (r * r);
        assert_eq!(g.cost.max_words_sent(), expect as u64);
    }

    #[test]
    fn gemm_3d_correct() {
        // The last two leave row blocks empty (n1 < r) and, in the last,
        // a slice without columns (n2 < p2).
        for &(n1, n2, r, p2) in &[
            (8usize, 6usize, 2usize, 3usize),
            (12, 8, 2, 2),
            (9, 6, 3, 2),
            (2, 9, 3, 2),
            (1, 1, 2, 2),
        ] {
            let a = seeded_matrix::<f64>(n1, n2, 23);
            check(
                &gemm_3d(&a, r, p2, CostModel::bandwidth_only()).unwrap(),
                &a,
                "gemm_3d",
            );
        }
    }

    #[test]
    fn grids_of_more_than_u32_max_ranks_are_rejected() {
        // 2³³ and 70 000² ranks are more than a machine simulates (it
        // would panic on them); r·r and r·r·p2 of the last three wrap.
        // Each call returns before any machine is built.
        let a = seeded_matrix::<f64>(4, 3, 0);
        let m = CostModel::bandwidth_only();
        let r32 = 1usize << 32;
        for (got, want) in [
            (gemm_1d(&a, 1 << 33, m), (1, 1 << 33)),
            (gemm_2d(&a, 70_000, m), (70_000, 1)),
            (scalapack_syrk_2d(&a, r32, m), (r32, 1)),
            (gemm_3d(&a, r32, 1, m), (r32, 1)),
            (gemm_3d(&a, 1 << 16, r32 + 1, m), (1 << 16, r32 + 1)),
        ] {
            match got {
                Err(SyrkError::Plan(PlanError::SummaGridOverflow { r, p2 })) => {
                    assert_eq!((r, p2), want)
                }
                other => panic!("{want:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn gemm_3d_with_p2_1_matches_2d_comm() {
        let (n1, n2, r) = (16, 8, 2);
        let a = seeded_matrix::<f64>(n1, n2, 29);
        let g3 = gemm_3d(&a, r, 1, CostModel::bandwidth_only()).unwrap();
        let g2 = gemm_2d(&a, r, CostModel::bandwidth_only()).unwrap();
        assert_eq!(g3.cost.max_words_sent(), g2.cost.max_words_sent());
    }
}
