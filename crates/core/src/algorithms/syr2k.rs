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
    gemm_flops, mul_nt, syr2k_flops, syr2k_packed_new, Diag, Matrix, PackedLower, Partition1D,
};
use syrk_machine::{CostModel, Machine};

use super::common::{assemble_c, DiagBlock, LocalOutput, OffDiagBlock, SyrkRunResult};
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
    let packed_len = Diag::Inclusive.packed_len(n1);
    let segments = Partition1D::new(packed_len, p);

    let machine = Machine::new(p).with_model(model);
    let out = machine.run(|comm| {
        let r = cols.range(comm.rank());
        let a_l = a.block_owned(0, r.start, n1, r.len());
        let b_l = b.block_owned(0, r.start, n1, r.len());
        let cbar = syr2k_packed_new(&a_l, &b_l, Diag::Inclusive);
        comm.add_flops(syr2k_flops(n1, r.len()));
        comm.reduce_scatter_block(cbar.as_slice(), &segments.lens())
    });

    let mut packed = Vec::with_capacity(packed_len);
    for seg in &out.results {
        packed.extend_from_slice(seg);
    }
    let c = PackedLower::from_vec(n1, Diag::Inclusive, packed).to_full_symmetric();
    SyrkRunResult { c, cost: out.cost }
}

/// 2D SYR2K on the Triangle Block Distribution: one All-to-All gathers
/// the `R_k` row blocks of *both* inputs (two chunks per partner), then
/// each off-diagonal block is `C_ij = A_i·B_jᵀ + B_i·A_jᵀ` and each
/// diagonal block a local SYR2K.
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
        let n2l = n2;
        // Chunks of both inputs are packed back-to-back per partner, so
        // the exchange is still a single (sparse) All-to-All: latency
        // matches SYRK's pair-per-partner schedule, bandwidth doubled.
        let my_chunk = |m: &Matrix<f64>, i: usize| ad.extract_chunk(m.view(), i, k);
        let mut recv_words: Vec<usize> = vec![0; comm.size()];
        for &i in dist.r_set(k) {
            let part = ad.chunk_partition(i);
            for (pos, &m) in dist.q_set(i).iter().enumerate() {
                if m != k {
                    recv_words[m] = 2 * part.len(pos);
                }
            }
        }
        let blocks: Vec<Vec<f64>> = (0..comm.size())
            .map(|k2| {
                if k2 == k {
                    return Vec::new();
                }
                match dist.common_block(k, k2) {
                    Some(i) => [my_chunk(a, i), my_chunk(b, i)].concat(),
                    None => Vec::new(),
                }
            })
            .collect();
        let received = comm
            .try_all_to_all_v(blocks, &recv_words)
            .unwrap_or_else(|e| panic!("{e}"));

        // Reassemble A_i and B_i from the paired chunks.
        let gather = |i: usize| -> (Matrix<f64>, Matrix<f64>) {
            let (mine_a, mine_b) = (my_chunk(a, i), my_chunk(b, i));
            let (mut a_chunks, mut b_chunks) = (Vec::new(), Vec::new());
            for &m in dist.q_set(i) {
                if m == k {
                    a_chunks.push(&mine_a[..]);
                    b_chunks.push(&mine_b[..]);
                } else {
                    let buf = &received[m];
                    let half = ad.chunk_len(i, m);
                    assert_eq!(buf.len(), 2 * half, "paired chunk length mismatch");
                    a_chunks.push(&buf[..half]);
                    b_chunks.push(&buf[half..]);
                }
            }
            (
                ad.assemble_block(i, a_chunks),
                ad.assemble_block(i, b_chunks),
            )
        };
        type BlockPair = (Matrix<f64>, Matrix<f64>);
        let gathered: Vec<(usize, BlockPair)> =
            dist.r_set(k).iter().map(|&i| (i, gather(i))).collect();
        let pair_for = |i: usize| {
            &gathered
                .iter()
                .find(|&&(bi, _)| bi == i)
                .expect("i ∈ R_k was gathered")
                .1
        };

        let mut out = LocalOutput::default();
        for (i, j) in dist.blocks_of(k) {
            let (ai, bi) = pair_for(i);
            let (aj, bj) = pair_for(j);
            // C_ij = A_i·B_jᵀ + B_i·A_jᵀ.
            let mut blk = mul_nt(ai, bj);
            blk.add_assign(&mul_nt(bi, aj));
            comm.add_flops(2 * gemm_flops(ai.rows(), aj.rows(), n2l));
            out.offdiag.push(OffDiagBlock { i, j, data: blk });
        }
        if let Some(i) = dist.d_block(k) {
            let (ai, bi) = pair_for(i);
            out.diag.push(DiagBlock {
                i,
                data: syr2k_packed_new(ai, bi, Diag::Inclusive),
            });
            comm.add_flops(syr2k_flops(ai.rows(), n2l));
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
