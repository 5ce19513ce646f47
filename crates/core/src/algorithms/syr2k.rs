//! Distributed SYR2K — the first of the paper's §6 future-work kernels
//! (`C = A·Bᵀ + B·Aᵀ`, symmetric output), built with the *same* triangle
//! blocking machinery as SYRK.
//!
//! The symmetric-iteration-space argument carries over directly: with two
//! `n1 × n2` inputs, the 1D algorithm still communicates only the packed
//! output triangle (`(n1(n1+1)/2)(1 − 1/P)` words — unchanged from SYRK),
//! and the 2D algorithm communicates both inputs' row blocks
//! (`2·n1n2/(c+1)` words — exactly twice SYRK's input term, half of the
//! `4·n1n2/√P` a GEMM-style evaluation of the two products would move).

use syrk_dense::{
    gemm_nt, mirror_lower_to_upper, mul_nt, syr2k_flops, syr2k_packed, write_packed_lower, Diag,
    Matrix, PackedLower, Partition1D,
};
use syrk_machine::{CostModel, Machine};

use super::common::{assemble_c, check_ranks, check_shape, triangle_dist, SyrkRunResult};
use super::twod::{gather_row_blocks, local_step, owned_blocks};
use crate::dist::ConformalADist;
use crate::error::SyrkError;

/// 1D SYR2K: both inputs column-distributed, local SYR2K, Reduce-Scatter
/// of the packed triangle. Identical communication to Algorithm 1
/// ([`try_syrk_1d`](crate::try_syrk_1d)) — the output is the only thing
/// that moves. Errors as [`run`](crate::run); `A` and `B` of different
/// shapes panic.
pub fn syr2k_1d(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    p: usize,
    model: CostModel,
) -> Result<SyrkRunResult, SyrkError> {
    let (n1, n2) = a.shape();
    assert_eq!(
        b.shape(),
        (n1, n2),
        "syr2k: A and B must have identical shapes"
    );
    check_ranks(p)?;
    check_shape(n1, n2)?;
    let cols = Partition1D::new(n2, p);
    let segments = Partition1D::new(Diag::Inclusive.packed_len(n1), p);

    let machine = Machine::new(p).with_model(model);
    let out = machine.try_run(|comm| {
        // Both column blocks are read where they lie.
        let r = cols.range(comm.rank());
        let mut cbar = PackedLower::zeros(n1, Diag::Inclusive);
        let (a_l, b_l) = (
            a.block(0, r.start, n1, r.len()),
            b.block(0, r.start, n1, r.len()),
        );
        syr2k_packed(&mut cbar, a_l, b_l);
        comm.add_flops(syr2k_flops(n1, r.len()));
        comm.try_reduce_scatter_block(cbar.as_slice(), &segments.lens())
    })?;

    // The segments concatenate to the packed triangle.
    let mut c = Matrix::zeros(n1, n1);
    let segs = out.results.iter().map(Vec::as_slice);
    write_packed_lower(&mut c, 0, n1, Diag::Inclusive, segs);
    mirror_lower_to_upper(&mut c);
    Ok(SyrkRunResult { c, cost: out.cost })
}

/// 2D SYR2K on the Triangle Block Distribution: Algorithm 2's exchange
/// gathers the `R_k` row blocks of *both* inputs (both chunks in one
/// message per partner: SYRK's latency, twice its bandwidth), then
/// Algorithm 2's local step makes each off-diagonal block
/// `C_ij = A_i·B_jᵀ + B_i·A_jᵀ` and the diagonal block a local SYR2K.
/// Errors as [`run`](crate::run); `A` and `B` of
/// different shapes panic.
pub fn syr2k_2d(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: usize,
    model: CostModel,
) -> Result<SyrkRunResult, SyrkError> {
    let (n1, n2) = a.shape();
    assert_eq!(
        b.shape(),
        (n1, n2),
        "syr2k: A and B must have identical shapes"
    );
    let dist = triangle_dist(c)?;
    check_shape(n1, n2)?;
    let ad = ConformalADist::new(&dist, n1, n2);

    let machine = Machine::new(dist.p()).with_model(model);
    let out = machine.try_run(|comm| {
        let mut owned = owned_blocks(&dist, &ad, comm.rank());
        let operands = [a.view(), b.view()];
        let gathered = gather_row_blocks(&comm, &dist, &ad, &owned.live, operands, false)?;
        // C_ij = A_i·B_jᵀ + B_i·A_jᵀ as two products and one add: folding
        // the second product into the first's accumulation would round
        // differently.
        local_step(
            &comm,
            &mut owned,
            n2,
            2,
            |cij, x, y| {
                let ([ai, bi], [aj, bj]) = (&gathered[x], &gathered[y]);
                gemm_nt(cij, ai, bj);
                cij.add_assign(&mul_nt(bi, aj));
            },
            |cii, x| syr2k_packed(cii, gathered[x][0].view(), gathered[x][1].view()),
            false,
        );
        Ok(owned.out)
    })?;
    Ok(SyrkRunResult {
        c: assemble_c(n1, &ad.rows, &out.results),
        cost: out.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syr2k_full_reference};

    #[test]
    fn syr2k_1d_correct() {
        for &(n1, n2, p) in &[(6usize, 12usize, 3usize), (9, 7, 4), (16, 16, 1)] {
            let a = seeded_matrix::<f64>(n1, n2, 1);
            let b = seeded_matrix::<f64>(n1, n2, 2);
            let run = syr2k_1d(&a, &b, p, CostModel::bandwidth_only()).unwrap();
            let err = max_abs_diff(&run.c, &syr2k_full_reference(&a, &b));
            assert!(err < 1e-10, "({n1},{n2},{p}): {err}");
        }
    }

    #[test]
    fn syr2k_2d_correct() {
        for &(n1, n2, c) in &[(8usize, 5usize, 2usize), (18, 4, 3), (27, 6, 3)] {
            let a = seeded_int_matrix::<f64>(n1, n2, 4, 3);
            let b = seeded_int_matrix::<f64>(n1, n2, 4, 4);
            let run = syr2k_2d(&a, &b, c, CostModel::bandwidth_only()).unwrap();
            assert_eq!(
                max_abs_diff(&run.c, &syr2k_full_reference(&a, &b)),
                0.0,
                "({n1},{n2},c={c})"
            );
        }
    }

    #[test]
    fn syr2k_1d_communication_equals_syrk_1d() {
        // The §6 insight carried over: the output triangle is all that
        // moves, so SYR2K costs the same words as SYRK in 1D.
        let (n1, n2, p) = (20, 40, 5);
        let a = seeded_matrix::<f64>(n1, n2, 5);
        let b = seeded_matrix::<f64>(n1, n2, 6);
        let s2 = syr2k_1d(&a, &b, p, CostModel::bandwidth_only()).unwrap();
        let s1 = crate::try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(s2.cost.max_words_sent(), s1.cost.max_words_sent());
        // Local flops double (two rank-k updates); the Reduce-Scatter
        // additions are unchanged (same output size).
        let rs_flops = ((p - 1) * n1 * (n1 + 1) / 2) as u64;
        assert_eq!(
            s2.cost.total_flops(),
            2 * (s1.cost.total_flops() - rs_flops) + rs_flops
        );
    }

    #[test]
    fn syr2k_2d_communication_is_twice_syrk_2d() {
        let (n1, n2, c) = (36, 8, 3);
        let a = seeded_matrix::<f64>(n1, n2, 7);
        let b = seeded_matrix::<f64>(n1, n2, 8);
        let s2 = syr2k_2d(&a, &b, c, CostModel::bandwidth_only()).unwrap();
        let s1 = crate::try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(s2.cost.max_words_sent(), 2 * s1.cost.max_words_sent());
        // Same latency: chunks are paired into the same messages.
        assert_eq!(s2.cost.max_messages(), s1.cost.max_messages());
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn shape_mismatch_rejected() {
        let a = Matrix::<f64>::zeros(4, 3);
        let b = Matrix::<f64>::zeros(4, 2);
        let _ = syr2k_1d(&a, &b, 2, CostModel::bandwidth_only());
    }
}
