//! Shared types for the distributed SYRK algorithms: per-rank outputs,
//! global assembly, the run result bundling output with costs, and the
//! configuration checks every driver makes before a rank starts.

use syrk_dense::{mirror_lower_to_upper, write_packed_lower, Matrix, PackedLower, Partition1D};
use syrk_machine::CostReport;

use crate::dist::TriangleBlockDist;
use crate::error::SyrkError;
use crate::planner::{Plan, PlanError};

/// `Ok` for a run on at least one rank (`p`, `p2` or a grid side `r`).
pub(crate) fn check_ranks(p: usize) -> Result<(), PlanError> {
    (p > 0).then_some(()).ok_or(PlanError::ZeroRanks)
}

/// `Ok` for an `n1 × n2` input with no zero dimension.
pub(crate) fn check_shape(n1: usize, n2: usize) -> Result<(), PlanError> {
    (n1 > 0 && n2 > 0)
        .then_some(())
        .ok_or(PlanError::EmptyMatrix { n1, n2 })
}

/// The triangle block distribution of order `c`, if one is constructible.
/// An order whose `c(c+1)` ranks overflow `usize` is rejected before its
/// primality is tested.
pub(crate) fn triangle_dist(c: usize) -> Result<TriangleBlockDist, PlanError> {
    c.checked_add(1)
        .and_then(|c1| c.checked_mul(c1))
        .and_then(|_| TriangleBlockDist::for_order(c))
        .ok_or(PlanError::UnsupportedOrder { c })
}

/// The `p1 × p2` grid of Algorithm 3 that runs `plan`, as its slices'
/// distribution (`p1 = dist.p()` ranks) and `p2`, with the rank count
/// checked against the most a machine simulates, `u32::MAX`. Algorithms 1
/// and 2 are its corners: one-rank slices, and one slice.
pub(crate) fn grid(plan: Plan) -> Result<(TriangleBlockDist, usize), SyrkError> {
    let (dist, p2) = match plan {
        Plan::OneD { p } => (TriangleBlockDist::one_rank(), p),
        Plan::TwoD { c } => (triangle_dist(c)?, 1),
        Plan::ThreeD { c, p2 } => (triangle_dist(c)?, p2),
    };
    check_ranks(p2)?;
    let (c, p1) = (dist.c(), dist.p());
    p1.checked_mul(p2)
        .filter(|&p| u32::try_from(p).is_ok())
        .ok_or(PlanError::RankCountOverflow { c, p2 })?;
    Ok((dist, p2))
}

/// An off-diagonal block of `C` produced by a rank: block indices
/// `(i, j)` with `i > j` and the dense block values.
#[derive(Debug, Clone)]
pub(crate) struct OffDiagBlock {
    /// Block row index.
    pub i: usize,
    /// Block column index (`j < i`).
    pub j: usize,
    /// The dense `rows(i) × rows(j)` block.
    pub data: Matrix<f64>,
}

/// A diagonal block of `C` produced by a rank, stored as an inclusive
/// packed lower triangle (symmetry makes the upper half redundant).
#[derive(Debug, Clone)]
pub(crate) struct DiagBlock {
    /// Block index on the diagonal.
    pub i: usize,
    /// Packed inclusive lower triangle of the block.
    pub data: PackedLower<f64>,
}

/// Everything a rank contributes to the global output.
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalOutput {
    /// Off-diagonal blocks owned by this rank.
    pub offdiag: Vec<OffDiagBlock>,
    /// Diagonal blocks owned by this rank (at most one for the paper's
    /// algorithms).
    pub diag: Vec<DiagBlock>,
}

/// The result of a distributed SYRK run: the assembled full symmetric
/// output and the machine's cost report.
#[derive(Debug)]
pub struct SyrkRunResult {
    /// `C = A·Aᵀ`, assembled and symmetrized (diagonal included).
    pub c: Matrix<f64>,
    /// Communication/computation costs of the run.
    pub cost: CostReport,
}

/// Assemble per-rank [`LocalOutput`]s into the full symmetric `C`.
///
/// `rows` is the block-row partition of `0..n1` shared by all outputs.
/// Every off-diagonal and diagonal block with rows on both sides must
/// appear exactly once across the outputs (a block without rows holds no
/// words and may be left out). Each block is written once, into the lower
/// triangle; the strict upper triangle is filled by one mirror pass.
pub(crate) fn assemble_c(n1: usize, rows: &Partition1D, outputs: &[LocalOutput]) -> Matrix<f64> {
    let mut c = Matrix::zeros(n1, n1);
    // One flag per pair `j ≤ i` of the row blocks that have rows, numbered
    // by position in `live`: with n1 < c² that is a few hundred blocks out
    // of c².
    let live: Vec<usize> = (0..rows.parts()).filter(|&i| rows.len(i) > 0).collect();
    let pair = |a: usize, b: usize| a * (a + 1) / 2 + b;
    let mut seen = vec![false; pair(live.len(), 0)];
    // Marks the pair; false when it was marked before.
    let mut first_time = |i: usize, j: usize| {
        let (Ok(a), Ok(b)) = (live.binary_search(&i), live.binary_search(&j)) else {
            return true;
        };
        !std::mem::replace(&mut seen[pair(a, b)], true)
    };
    for out in outputs {
        for blk in &out.offdiag {
            assert!(blk.j < blk.i, "off-diagonal block must have j < i");
            assert!(
                first_time(blk.i, blk.j),
                "block ({}, {}) produced twice",
                blk.i,
                blk.j
            );
            let (r, s) = (rows.range(blk.i), rows.range(blk.j));
            assert_eq!(blk.data.shape(), (r.len(), s.len()), "block shape mismatch");
            c.set_block(r.start, s.start, &blk.data);
        }
        for blk in &out.diag {
            assert!(
                first_time(blk.i, blk.i),
                "diagonal block {} produced twice",
                blk.i
            );
            let r = rows.range(blk.i);
            assert_eq!(blk.data.n(), r.len(), "diagonal block size mismatch");
            write_packed_lower(&mut c, r.start, r.len(), [blk.data.as_slice()]);
        }
    }
    for (a, &i) in live.iter().enumerate() {
        for (b, &j) in live[..=a].iter().enumerate() {
            assert!(seen[pair(a, b)], "block ({i}, {j}) was not produced");
        }
    }
    mirror_lower_to_upper(&mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::{max_abs_diff, mul_nt, seeded_matrix, syrk_full_reference, syrk_packed_new};

    #[test]
    fn assembly_reconstructs_reference() {
        // Split a small SYRK by hand into blocks and reassemble.
        let (n1, n2) = (6, 4);
        let a = seeded_matrix::<f64>(n1, n2, 5);
        let rows = Partition1D::new(n1, 3);
        let mut outputs = vec![LocalOutput::default(), LocalOutput::default()];
        // Rank 0: off-diagonal blocks (1,0), (2,0); rank 1: (2,1) + diagonals.
        for (rank, pairs) in [(0usize, vec![(1usize, 0usize), (2, 0)]), (1, vec![(2, 1)])] {
            for (i, j) in pairs {
                let (ri, rj) = (rows.range(i), rows.range(j));
                let ai = a.block_owned(ri.start, 0, ri.len(), n2);
                let aj = a.block_owned(rj.start, 0, rj.len(), n2);
                outputs[rank].offdiag.push(OffDiagBlock {
                    i,
                    j,
                    data: mul_nt(&ai, &aj),
                });
            }
        }
        for i in 0..3 {
            let r = rows.range(i);
            let ai = a.block_owned(r.start, 0, r.len(), n2);
            outputs[1].diag.push(DiagBlock {
                i,
                data: syrk_packed_new(&ai, syrk_dense::Diag::Inclusive),
            });
        }
        let c = assemble_c(n1, &rows, &outputs);
        let want = syrk_full_reference(&a);
        assert!(max_abs_diff(&c, &want) < 1e-12);
    }

    /// A 3-block output of zeros with one block left out.
    fn zeros_without(skip: (usize, usize)) -> (Partition1D, LocalOutput) {
        let rows = Partition1D::new(6, 3);
        let mut out = LocalOutput::default();
        for i in 0..3 {
            for j in (0..=i).filter(|&j| (i, j) != skip) {
                if j < i {
                    let data = Matrix::zeros(2, 2);
                    out.offdiag.push(OffDiagBlock { i, j, data });
                } else {
                    let data = PackedLower::zeros(2);
                    out.diag.push(DiagBlock { i, data });
                }
            }
        }
        (rows, out)
    }

    #[test]
    #[should_panic(expected = "block (2, 1) was not produced")]
    fn missing_offdiagonal_block_rejected() {
        let (rows, out) = zeros_without((2, 1));
        let _ = assemble_c(6, &rows, &[out]);
    }

    #[test]
    #[should_panic(expected = "block (1, 1) was not produced")]
    fn missing_diagonal_block_rejected() {
        let (rows, out) = zeros_without((1, 1));
        let _ = assemble_c(6, &rows, &[out]);
    }

    #[test]
    fn blocks_without_rows_may_be_left_out() {
        // n1 = 2 over 3 row blocks: block 2 has no rows and no block.
        let rows = Partition1D::new(2, 3);
        let mut out = LocalOutput::default();
        let one = |v: f64| PackedLower::from_vec(1, vec![v]);
        out.diag.push(DiagBlock {
            i: 0,
            data: one(1.0),
        });
        out.diag.push(DiagBlock {
            i: 1,
            data: one(3.0),
        });
        let data = Matrix::from_vec(1, 1, vec![2.0]);
        out.offdiag.push(OffDiagBlock { i: 1, j: 0, data });
        let c = assemble_c(2, &rows, &[out]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "produced twice")]
    fn duplicate_block_rejected() {
        let rows = Partition1D::new(4, 2);
        let blk = OffDiagBlock {
            i: 1,
            j: 0,
            data: Matrix::zeros(2, 2),
        };
        let out = LocalOutput {
            offdiag: vec![blk.clone(), blk],
            diag: vec![],
        };
        let _ = assemble_c(4, &rows, &[out]);
    }

    #[test]
    #[should_panic(expected = "j < i")]
    fn upper_block_rejected() {
        let rows = Partition1D::new(4, 2);
        let out = LocalOutput {
            offdiag: vec![OffDiagBlock {
                i: 0,
                j: 1,
                data: Matrix::zeros(2, 2),
            }],
            diag: vec![],
        };
        let _ = assemble_c(4, &rows, &[out]);
    }

    #[test]
    fn grid_orders_whose_rank_count_overflows_are_unsupported() {
        // 2⁶⁴ − 59 is prime: its c(c+1) overflows, and trial division
        // would take 2³¹ steps to say so.
        let a = seeded_matrix::<f64>(36, 8, 0);
        let run = |plan| {
            let spec = crate::RunSpec::new(plan, syrk_machine::CostModel::bandwidth_only());
            crate::run(&a, &spec).map(|_| ())
        };
        for c in [18_446_744_073_709_551_557, usize::MAX] {
            match run(crate::Plan::TwoD { c }) {
                Err(crate::SyrkError::Plan(PlanError::UnsupportedOrder { c: got })) => {
                    assert_eq!(got, c)
                }
                other => panic!("c = {c}: {other:?}"),
            }
        }
        // A slice order that exists, times a slice count: 12·(2⁶² + 1)
        // wraps to 12; 2³² ranks, or 12·2³¹, are more than a machine has.
        // Algorithm 1's `p` ranks are `c = 1` slices.
        for (c, p2) in [
            (3, (1 << 62) + 1),
            (2, usize::MAX),
            (1, 1 << 32),
            (3, 1 << 31),
        ] {
            let plan = match c {
                1 => crate::Plan::OneD { p: p2 },
                _ => crate::Plan::ThreeD { c, p2 },
            };
            match run(plan) {
                Err(crate::SyrkError::Plan(PlanError::RankCountOverflow { c: gc, p2: gp })) => {
                    assert_eq!((gc, gp), (c, p2))
                }
                other => panic!("{plan:?}: {other:?}"),
            }
        }
    }
}
