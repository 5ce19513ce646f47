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
    gemm_flops, mirror_lower_to_upper, mul_nt, syr2k_flops, syr2k_packed, syr2k_packed_new,
    write_packed_lower, Diag, Matrix, PackedLower, Partition1D,
};
use syrk_machine::{CostModel, Machine};

use super::common::{assemble_c, DiagBlock, LocalOutput, OffDiagBlock, SyrkRunResult};
use super::twod::gather_row_blocks;
use crate::dist::{ConformalADist, TriangleBlockDist};

/// 1D SYR2K: both inputs column-distributed, local SYR2K, Reduce-Scatter
/// of the packed triangle. Identical communication to [`syrk_1d`]
/// (`crate::syrk_1d`) — the output is the only thing that moves.
pub fn syr2k_1d(a: &Matrix<f64>, b: &Matrix<f64>, p: usize, model: CostModel) -> SyrkRunResult {
    let (n1, n2) = a.shape();
    assert_eq!(
        b.shape(),
        (n1, n2),
        "syr2k: A and B must have identical shapes"
    );
    let cols = Partition1D::new(n2, p);
    let segments = Partition1D::new(Diag::Inclusive.packed_len(n1), p);

    let machine = Machine::new(p).with_model(model);
    let out = machine.run(|comm| {
        // Both column blocks are read where they lie.
        let r = cols.range(comm.rank());
        let mut cbar = PackedLower::zeros(n1, Diag::Inclusive);
        let (a_l, b_l) = (
            a.block(0, r.start, n1, r.len()),
            b.block(0, r.start, n1, r.len()),
        );
        syr2k_packed(&mut cbar, a_l, b_l);
        comm.add_flops(syr2k_flops(n1, r.len()));
        comm.reduce_scatter_block(cbar.as_slice(), &segments.lens())
    });

    // The segments concatenate to the packed triangle, as in `run_1d`.
    let mut c = Matrix::zeros(n1, n1);
    let segs = out.results.iter().map(Vec::as_slice);
    write_packed_lower(&mut c, 0, n1, Diag::Inclusive, segs);
    mirror_lower_to_upper(&mut c);
    SyrkRunResult { c, cost: out.cost }
}

/// 2D SYR2K on the Triangle Block Distribution: Algorithm 2's exchange
/// gathers the `R_k` row blocks of *both* inputs (both chunks in one
/// message per partner: SYRK's latency, twice its bandwidth), then each
/// off-diagonal block is `C_ij = A_i·B_jᵀ + B_i·A_jᵀ` and each diagonal
/// block a local SYR2K.
pub fn syr2k_2d(a: &Matrix<f64>, b: &Matrix<f64>, c: usize, model: CostModel) -> SyrkRunResult {
    let dist = TriangleBlockDist::for_order(c).unwrap_or_else(|| {
        panic!("no triangle block construction for c = {c} (need a prime power)")
    });
    let (n1, n2) = a.shape();
    assert_eq!(
        b.shape(),
        (n1, n2),
        "syr2k: A and B must have identical shapes"
    );
    let ad = ConformalADist::new(&dist, n1, n2);

    let machine = Machine::new(dist.p()).with_model(model);
    let out = machine.run(|comm| {
        let k = comm.rank();
        let live = ad.live_blocks(k);
        let gathered = gather_row_blocks(&comm, &dist, &ad, &live, [a.view(), b.view()], false)
            .unwrap_or_else(|e| panic!("{e}"));

        // Blocks by position in `live`, pairs in `blocks_of(k)` order.
        let mut out = LocalOutput::default();
        for (x, [ai, bi]) in gathered.iter().enumerate() {
            for (y, [aj, bj]) in gathered[..x].iter().enumerate() {
                // C_ij = A_i·B_jᵀ + B_i·A_jᵀ.
                let mut blk = mul_nt(ai, bj);
                blk.add_assign(&mul_nt(bi, aj));
                comm.add_flops(2 * gemm_flops(ai.rows(), aj.rows(), n2));
                let (i, j) = (live[x], live[y]);
                out.offdiag.push(OffDiagBlock { i, j, data: blk });
            }
        }
        let diag = dist
            .d_block(k)
            .and_then(|i| Some((i, live.binary_search(&i).ok()?)));
        if let Some((i, x)) = diag {
            let [ai, bi] = &gathered[x];
            out.diag.push(DiagBlock {
                i,
                data: syr2k_packed_new(ai, bi, Diag::Inclusive),
            });
            comm.add_flops(syr2k_flops(ai.rows(), n2));
        }
        out
    });
    let c_full = assemble_c(n1, &ad.rows, &out.results);
    SyrkRunResult {
        c: c_full,
        cost: out.cost,
    }
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
            let run = syr2k_1d(&a, &b, p, CostModel::bandwidth_only());
            let err = max_abs_diff(&run.c, &syr2k_full_reference(&a, &b));
            assert!(err < 1e-10, "({n1},{n2},{p}): {err}");
        }
    }

    #[test]
    fn syr2k_2d_correct() {
        for &(n1, n2, c) in &[(8usize, 5usize, 2usize), (18, 4, 3), (27, 6, 3)] {
            let a = seeded_int_matrix::<f64>(n1, n2, 4, 3);
            let b = seeded_int_matrix::<f64>(n1, n2, 4, 4);
            let run = syr2k_2d(&a, &b, c, CostModel::bandwidth_only());
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
        let s2 = syr2k_1d(&a, &b, p, CostModel::bandwidth_only());
        let s1 = crate::syrk_1d(&a, p, CostModel::bandwidth_only());
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
        let s2 = syr2k_2d(&a, &b, c, CostModel::bandwidth_only());
        let s1 = crate::syrk_2d(&a, c, CostModel::bandwidth_only());
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
