//! Baselines for the headline comparison (§1, §6):
//!
//! * **Communication-optimal GEMM** (Al Daas et al., SPAA '22): computes
//!   the *full* `C = A·Aᵀ` without exploiting symmetry. 1D, 2D (SUMMA-
//!   style all-gather on a square grid), and 3D variants — one per bound
//!   case. Their leading communication terms are exactly 2× the SYRK
//!   algorithms'.
//! * **ScaLAPACK-style SYRK**: same grid and data movement as 2D GEMM,
//!   but only lower-triangle blocks are computed — "they halve the
//!   computation but communicate the same amount of data as GEMM".

use syrk_dense::{gemm_flops, mul_nt, syrk_flops, syrk_packed_new, Diag, Matrix, Partition1D};
use syrk_machine::{CostModel, Machine, ProcessGrid};

use super::common::{assemble_c, DiagBlock, LocalOutput, OffDiagBlock, SyrkRunResult};

/// 1D GEMM baseline (Case 1 regime): `A` by block columns, local full
/// product, Reduce-Scatter of all `n1²` words — twice the 1D SYRK's
/// `n1(n1+1)/2`.
pub fn gemm_1d(a: &Matrix<f64>, p: usize, model: CostModel) -> SyrkRunResult {
    let (n1, n2) = a.shape();
    let cols = Partition1D::new(n2, p);
    let seg = Partition1D::new(n1 * n1, p);

    let machine = Machine::new(p).with_model(model);
    let out = machine.run(|comm| {
        let r = cols.range(comm.rank());
        let a_l = a.block_owned(0, r.start, n1, r.len());
        let cbar = mul_nt(&a_l, &a_l); // full product: no symmetry savings
        comm.add_flops(gemm_flops(n1, n1, r.len()));
        comm.reduce_scatter_block(cbar.as_slice(), &seg.lens())
    });
    let mut flat = Vec::with_capacity(n1 * n1);
    for s in &out.results {
        flat.extend_from_slice(s);
    }
    SyrkRunResult {
        c: Matrix::from_vec(n1, n1, flat),
        cost: out.cost,
    }
}

/// Shared body of the 2D baselines: an `r × r` grid, rank `(I, J)` owns
/// the `C` block `(I, J)`; `A_I` is spread over process row `I` and `A_J`
/// over process column `J` (by flattened elements); two all-gathers
/// reconstruct the operands. `compute` decides what the rank computes —
/// that is the *only* difference between GEMM and ScaLAPACK-style SYRK.
fn summa_like(
    a: &Matrix<f64>,
    r: usize,
    n2_range: std::ops::Range<usize>,
    model: CostModel,
    syrk_mode: bool,
) -> (Vec<LocalOutput>, syrk_machine::CostReport) {
    let n1 = a.rows();
    let n2l = n2_range.len();
    let rows = Partition1D::new(n1, r);
    let grid = ProcessGrid::new(r, r);

    let machine = Machine::new(r * r).with_model(model);
    let out = machine.run(|mut comm| {
        let gc = grid.split(&mut comm);
        let (big_i, big_j) = (gc.k, gc.l);
        // My chunks: 1/r of A_I (by flattened elements, chunk index J)
        // and 1/r of A_J (chunk index I).
        let chunk = |blk: usize, idx: usize| -> Vec<f64> {
            let rr = rows.range(blk);
            let flat = a
                .block_owned(rr.start, n2_range.start, rr.len(), n2l)
                .into_vec();
            let part = Partition1D::new(flat.len(), r);
            flat[part.range(idx)].to_vec()
        };
        // All-gather A_I along my process row (the p2-direction comm is
        // `row` in grid terms — ranks sharing I). Our grid names: `slice`
        // spans ranks with equal ℓ (= J) and `row` spans equal k (= I).
        let a_i_flat = gc.row.all_gather_concat(chunk(big_i, big_j));
        let rr = rows.range(big_i);
        let a_i = Matrix::from_vec(rr.len(), n2l, a_i_flat);
        // All-gather A_J along my process column (ranks sharing J).
        let a_j_flat = gc.slice.all_gather_concat(chunk(big_j, big_i));
        let rj = rows.range(big_j);
        let a_j = Matrix::from_vec(rj.len(), n2l, a_j_flat);

        // Compute the owned block. ScaLAPACK-style SYRK computes only the
        // lower triangle (I ≥ J): upper ranks idle after communicating.
        let mut out = LocalOutput::default();
        if syrk_mode {
            if big_i > big_j {
                out.offdiag.push(OffDiagBlock {
                    i: big_i,
                    j: big_j,
                    data: mul_nt(&a_i, &a_j),
                });
                comm.add_flops(gemm_flops(a_i.rows(), a_j.rows(), n2l));
            } else if big_i == big_j {
                out.diag.push(DiagBlock {
                    i: big_i,
                    data: syrk_packed_new(&a_i, Diag::Inclusive),
                });
                comm.add_flops(syrk_flops(a_i.rows(), n2l));
            }
        } else {
            // Full GEMM: every rank computes its block; represent upper
            // blocks implicitly by transposing into the lower triangle
            // (values are identical by symmetry of A·Aᵀ, so assembly
            // stays exact while flops count the full 2n1²n2l).
            comm.add_flops(gemm_flops(a_i.rows(), a_j.rows(), n2l));
            if big_i > big_j {
                out.offdiag.push(OffDiagBlock {
                    i: big_i,
                    j: big_j,
                    data: mul_nt(&a_i, &a_j),
                });
            } else if big_i == big_j {
                let full = mul_nt(&a_i, &a_i);
                out.diag.push(DiagBlock {
                    i: big_i,
                    data: syrk_dense::PackedLower::from_matrix(&full, Diag::Inclusive),
                });
            } else {
                let _ = mul_nt(&a_i, &a_j); // computed and discarded (upper half)
            }
        }
        out
    });
    (out.results, out.cost)
}

/// 2D GEMM baseline (SUMMA-style, Case 2 regime) on an `r × r` grid:
/// `2·n1n2/r·(1 − 1/r)` words per rank — twice the 2D SYRK cost.
pub fn gemm_2d(a: &Matrix<f64>, r: usize, model: CostModel) -> SyrkRunResult {
    let n1 = a.rows();
    let (outputs, cost) = summa_like(a, r, 0..a.cols(), model, false);
    let c = assemble_c(n1, &Partition1D::new(n1, r), &outputs);
    SyrkRunResult { c, cost }
}

/// ScaLAPACK-style 2D SYRK baseline: identical communication to
/// [`gemm_2d`], half the flops (only `I ≥ J` blocks computed).
pub fn scalapack_syrk_2d(a: &Matrix<f64>, r: usize, model: CostModel) -> SyrkRunResult {
    let n1 = a.rows();
    let (outputs, cost) = summa_like(a, r, 0..a.cols(), model, true);
    let c = assemble_c(n1, &Partition1D::new(n1, r), &outputs);
    SyrkRunResult { c, cost }
}

/// 3D GEMM baseline (Case 3 regime): an `r × r × p2` grid; each of the
/// `p2` slices runs [`gemm_2d`]'s pattern on `n2/p2` columns, then the
/// per-block contributions are reduce-scattered across slices. Leading
/// cost `2n1n2/(r·p2) + n1²/r²` — twice the 3D SYRK with the optimal
/// grids of §5.4.
pub fn gemm_3d(a: &Matrix<f64>, r: usize, p2: usize, model: CostModel) -> SyrkRunResult {
    let (n1, n2) = a.shape();
    let rows = Partition1D::new(n1, r);
    let cols = Partition1D::new(n2, p2);
    let grid = ProcessGrid::new(r * r, p2);

    let machine = Machine::new(r * r * p2).with_model(model);
    let out = machine.run(|mut comm| {
        let gc = grid.split(&mut comm);
        let (big_i, big_j) = (gc.k % r, gc.k / r);
        let cr = cols.range(gc.l);
        let n2l = cr.len();

        // 2D SUMMA within the slice (inlined: the slice communicator must
        // be subdivided again into its own rows/columns).
        let mut slice = gc.slice;
        let row_comm = slice.split(big_i as u64, big_j); // ranks sharing I
        let col_comm = slice.split((r + big_j) as u64, big_i); // sharing J
        let chunk = |blk: usize, idx: usize| -> Vec<f64> {
            let rr = rows.range(blk);
            let flat = a.block_owned(rr.start, cr.start, rr.len(), n2l).into_vec();
            let part = Partition1D::new(flat.len(), r);
            flat[part.range(idx)].to_vec()
        };
        let a_i = Matrix::from_vec(
            rows.len(big_i),
            n2l,
            row_comm.all_gather_concat(chunk(big_i, big_j)),
        );
        let a_j = Matrix::from_vec(
            rows.len(big_j),
            n2l,
            col_comm.all_gather_concat(chunk(big_j, big_i)),
        );
        let c_blk = mul_nt(&a_i, &a_j);
        comm.add_flops(gemm_flops(a_i.rows(), a_j.rows(), n2l));

        // Sum the block across slices and scatter evenly.
        let seg = Partition1D::new(c_blk.len(), p2);
        let mine = gc.row.reduce_scatter_block(c_blk.as_slice(), &seg.lens());
        (big_i, big_j, gc.l, mine)
    });

    // Assemble: concatenate segments per (I, J) and keep the lower half.
    let mut per_block: Vec<Vec<(usize, Vec<f64>)>> = vec![Vec::new(); r * r];
    for (bi, bj, l, seg) in out.results {
        per_block[bi * r + bj].push((l, seg));
    }
    let mut c = Matrix::zeros(n1, n1);
    for bi in 0..r {
        for bj in 0..r {
            let mut segs = std::mem::take(&mut per_block[bi * r + bj]);
            segs.sort_by_key(|&(l, _)| l);
            let flat: Vec<f64> = segs.into_iter().flat_map(|(_, s)| s).collect();
            let (ri, rj) = (rows.range(bi), rows.range(bj));
            c.set_block(
                ri.start,
                rj.start,
                &Matrix::from_vec(ri.len(), rj.len(), flat),
            );
        }
    }
    SyrkRunResult { c, cost: out.cost }
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
            check(&gemm_1d(&a, p, CostModel::bandwidth_only()), &a, "gemm_1d");
        }
    }

    #[test]
    fn gemm_1d_communicates_twice_syrk_1d() {
        let (n1, n2, p) = (20, 40, 5);
        let a = seeded_matrix::<f64>(n1, n2, 3);
        let g = gemm_1d(&a, p, CostModel::bandwidth_only());
        let s = crate::syrk_1d(&a, p, CostModel::bandwidth_only());
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
            check(&gemm_2d(&a, r, CostModel::bandwidth_only()), &a, "gemm_2d");
        }
    }

    #[test]
    fn scalapack_syrk_correct_and_half_flops_same_comm() {
        let (n1, n2, r) = (24, 10, 3);
        let a = seeded_matrix::<f64>(n1, n2, 5);
        let g = gemm_2d(&a, r, CostModel::bandwidth_only());
        let s = scalapack_syrk_2d(&a, r, CostModel::bandwidth_only());
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
        let g = gemm_2d(&a, r, CostModel::bandwidth_only());
        let expect = 2 * (r - 1) * n1 * n2 / (r * r);
        assert_eq!(g.cost.max_words_sent(), expect as u64);
    }

    #[test]
    fn gemm_3d_correct() {
        for &(n1, n2, r, p2) in &[
            (8usize, 6usize, 2usize, 3usize),
            (12, 8, 2, 2),
            (9, 6, 3, 2),
        ] {
            let a = seeded_matrix::<f64>(n1, n2, 23);
            check(
                &gemm_3d(&a, r, p2, CostModel::bandwidth_only()),
                &a,
                "gemm_3d",
            );
        }
    }

    #[test]
    fn gemm_3d_with_p2_1_matches_2d_comm() {
        let (n1, n2, r) = (16, 8, 2);
        let a = seeded_matrix::<f64>(n1, n2, 29);
        let g3 = gemm_3d(&a, r, 1, CostModel::bandwidth_only());
        let g2 = gemm_2d(&a, r, CostModel::bandwidth_only());
        assert_eq!(g3.cost.max_words_sent(), g2.cost.max_words_sent());
    }
}
