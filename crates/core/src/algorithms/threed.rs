//! Algorithm 3: 3D SYRK (§5.3).
//!
//! A `p1 × p2` process grid with `p1 = c(c+1)`: each of the `p2` slices
//! `Π_{*ℓ}` runs the 2D algorithm on its block column `A_{*ℓ}` (`n2/p2`
//! columns), producing identically-distributed partial results; a
//! `Reduce-Scatter` across each row `Π_{k*}` then sums the partial `C_k`
//! triangle-blocks-of-blocks and leaves the final output evenly spread.
//!
//! Bandwidth cost (eq. (12)): `n1n2/(√p1·p2) + n1²/(2p1)` to leading
//! order.

use syrk_dense::{Diag, Matrix, PackedLower, Partition1D};
use syrk_machine::ProcessGrid;

use super::common::{
    assemble_c, check_ranks, check_shape, triangle_dist, DiagBlock, LocalOutput, OffDiagBlock,
    SyrkRunResult,
};
use super::run::{machine_for, RunSpec, SyrkRun};
use super::twod::twod_body;
use crate::attribution::PHASE_REDUCE_SCATTER_C;
use crate::dist::{ConformalADist, TriangleBlockDist};
use crate::error::SyrkError;

/// The canonical flat layout of a rank's `C_k` data: its off-diagonal
/// blocks in `blocks_of(k)` order (each row-major), followed by the
/// packed inclusive diagonal block if one is assigned. The layout is a
/// pure function of `(dist, rows, k)`, so all `p2` ranks of a grid row
/// agree on it — the precondition for reduce-scattering `C_k`.
struct CkLayout {
    offdiag: Vec<(usize, usize, usize, usize)>, // (i, j, rows, cols)
    diag: Option<(usize, usize)>,               // (i, n)
    total: usize,
}

impl CkLayout {
    fn new(dist: &TriangleBlockDist, rows: &Partition1D, k: usize) -> Self {
        let mut total = 0;
        // Zero-sized blocks are omitted, mirroring `twod_body`'s output
        // convention (they carry no data and would only bloat the layout
        // when n1 < c² leaves most row blocks empty).
        let offdiag: Vec<_> = dist
            .blocks_of(k)
            .into_iter()
            .filter_map(|(i, j)| {
                let (ri, rj) = (rows.len(i), rows.len(j));
                if ri * rj == 0 {
                    return None;
                }
                total += ri * rj;
                Some((i, j, ri, rj))
            })
            .collect();
        let diag = dist.d_block(k).and_then(|i| {
            let n = rows.len(i);
            if n == 0 {
                return None;
            }
            total += Diag::Inclusive.packed_len(n);
            Some((i, n))
        });
        CkLayout {
            offdiag,
            diag,
            total,
        }
    }

    /// Build the per-destination Reduce-Scatter payloads directly from the
    /// block storage: each of the `lens[q]`-sized segments is filled by
    /// walking the blocks in layout order, so the data is copied exactly
    /// once (block → segment) with no intermediate flat buffer.
    fn segments(&self, out: &LocalOutput, lens: &[usize]) -> Vec<Vec<f64>> {
        let mut srcs: Vec<&[f64]> = Vec::with_capacity(self.offdiag.len() + 1);
        for (idx, &(i, j, ri, rj)) in self.offdiag.iter().enumerate() {
            let blk = &out.offdiag[idx];
            assert_eq!((blk.i, blk.j), (i, j), "layout order mismatch");
            assert_eq!(blk.data.shape(), (ri, rj));
            srcs.push(blk.data.as_slice());
        }
        if let Some((i, n)) = self.diag {
            let blk = &out.diag[0];
            assert_eq!(blk.i, i);
            assert_eq!(blk.data.n(), n);
            srcs.push(blk.data.as_slice());
        }
        debug_assert_eq!(srcs.iter().map(|s| s.len()).sum::<usize>(), self.total);
        assert_eq!(lens.iter().sum::<usize>(), self.total);
        let mut segs: Vec<Vec<f64>> = lens.iter().map(|&l| Vec::with_capacity(l)).collect();
        let mut q = 0;
        for mut src in srcs {
            while !src.is_empty() {
                while segs[q].len() == lens[q] {
                    q += 1;
                }
                let take = src.len().min(lens[q] - segs[q].len());
                let (head, tail) = src.split_at(take);
                segs[q].extend_from_slice(head);
                src = tail;
            }
        }
        segs
    }

    /// Rebuild a `LocalOutput` from the reduced segments (in ℓ order),
    /// reading across segment boundaries with a cursor — the inverse of
    /// [`CkLayout::segments`], again with a single block-sized copy and no
    /// concatenated flat buffer.
    fn assemble(&self, segs: &[Vec<f64>]) -> LocalOutput {
        assert_eq!(
            segs.iter().map(Vec::len).sum::<usize>(),
            self.total,
            "C_k segments have the wrong total length"
        );
        let (mut q, mut off) = (0usize, 0usize);
        let mut take = |len: usize| -> Vec<f64> {
            let mut buf = Vec::with_capacity(len);
            while buf.len() < len {
                if off == segs[q].len() {
                    q += 1;
                    off = 0;
                    continue;
                }
                let n = (len - buf.len()).min(segs[q].len() - off);
                buf.extend_from_slice(&segs[q][off..off + n]);
                off += n;
            }
            buf
        };
        let mut out = LocalOutput::default();
        for &(i, j, ri, rj) in &self.offdiag {
            out.offdiag.push(OffDiagBlock {
                i,
                j,
                data: Matrix::from_vec(ri, rj, take(ri * rj)),
            });
        }
        if let Some((i, n)) = self.diag {
            out.diag.push(DiagBlock {
                i,
                data: PackedLower::from_vec(
                    n,
                    Diag::Inclusive,
                    take(Diag::Inclusive.packed_len(n)),
                ),
            });
        }
        out
    }
}

/// Run Algorithm 3 on a simulated machine with `P = c(c+1)·p2` ranks.
pub(crate) fn run_3d(
    a: &Matrix<f64>,
    c: usize,
    p2: usize,
    spec: &RunSpec,
) -> Result<SyrkRun, SyrkError> {
    let dist = triangle_dist(c)?;
    check_ranks(p2)?;
    let p1 = dist.p();
    let (n1, n2) = a.shape();
    check_shape(n1, n2)?;
    let rows = Partition1D::new(n1, dist.num_blocks());
    let cols = Partition1D::new(n2, p2);
    let grid = ProcessGrid::new(p1, p2);

    // The slices run the 2D body with the spec's exchange (`padded`) and
    // no in-machine `abft` (see the `RunSpec` field docs).
    let slice_spec = RunSpec {
        padded: spec.padded,
        ..RunSpec::new(spec.plan, spec.model)
    };
    let out = machine_for(spec, p1 * p2).try_run(|mut comm| {
        let gc = grid.split(&mut comm);
        // Line 3: run 2D SYRK within the slice on block column A_{*ℓ}.
        // Phases (allgather-A, local-gemm, local-syrk) are pushed by the
        // 2D body on the slice communicator; they land on this world
        // rank's ledger because spans are per-rank, not per-communicator.
        let cr = cols.range(gc.l);
        let a_col = a.block(0, cr.start, n1, cr.len());
        let ad = ConformalADist::new(&dist, n1, cr.len());
        let local = twod_body(&gc.slice, &dist, &ad, a_col, &slice_spec)?;
        // Lines 4–5: Reduce-Scatter the partial C_k across Π_{k*} with the
        // spec's algorithm. The payloads are built straight from the block
        // storage (no flat concatenation) and handed to the segment-based
        // collective, which moves exactly the same words as the block
        // interface.
        let _span = comm.phase(PHASE_REDUCE_SCATTER_C);
        let layout = CkLayout::new(&dist, &rows, gc.k);
        let seg = Partition1D::new(layout.total, p2);
        let segments = layout.segments(&local, &seg.lens());
        let mine = gc.row.try_reduce_scatter_with(segments, spec.rs_alg)?;
        Ok((gc.k, gc.l, mine))
    })?;

    // Assembly: for each grid row k, concatenate the p2 final segments in
    // ℓ order to recover the summed flat C_k, then unflatten.
    let mut per_k: Vec<Vec<(usize, Vec<f64>)>> = vec![Vec::new(); p1];
    for (k, l, seg) in out.results {
        per_k[k].push((l, seg));
    }
    let mut outputs = Vec::with_capacity(p1);
    for (k, mut segs) in per_k.into_iter().enumerate() {
        segs.sort_by_key(|&(l, _)| l);
        let segs: Vec<Vec<f64>> = segs.into_iter().map(|(_, s)| s).collect();
        outputs.push(CkLayout::new(&dist, &rows, k).assemble(&segs));
    }
    Ok(SyrkRun {
        result: SyrkRunResult {
            c: assemble_c(n1, &rows, &outputs),
            cost: out.cost,
        },
        traces: out.traces,
        recovery: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::PHASE_ALLGATHER_A;
    use crate::bounds::{alg3d_a_term, alg3d_predicted_cost};
    use crate::{run, try_syrk_2d, try_syrk_3d, Plan};
    use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syrk_full_reference};
    use syrk_machine::{CostModel, ReduceScatterAlg};

    #[test]
    fn correct_small_grids() {
        for &(n1, n2, c, p2) in &[
            (8usize, 6usize, 2usize, 3usize), // Fig. 3's grid: p1=6, p2=3
            (8, 8, 2, 2),
            (9, 12, 3, 2),
            (12, 9, 2, 3),  // uneven: c² = 4 blocks of 3 rows, n2 = 9 over 3
            (10, 10, 2, 4), // c² ∤ n1 and p2 ∤ n2
        ] {
            let a = seeded_matrix::<f64>(n1, n2, (n1 * 7 + n2 * 3 + c) as u64);
            let run = try_syrk_3d(&a, c, p2, CostModel::bandwidth_only(), None).unwrap();
            let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
            assert!(err < 1e-10, "({n1},{n2},c={c},p2={p2}): err {err}");
        }
    }

    #[test]
    fn p2_equals_1_reduces_to_2d() {
        // With p2 = 1 the slice is the whole machine and the final
        // Reduce-Scatter is over one rank (free): identical to Alg. 2.
        let a = seeded_int_matrix::<f64>(12, 5, 4, 5);
        let run3 = try_syrk_3d(&a, 2, 1, CostModel::bandwidth_only(), None).unwrap();
        let run2 = try_syrk_2d(&a, 2, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(max_abs_diff(&run3.c, &run2.c), 0.0);
        assert_eq!(run3.cost.max_words_sent(), run2.cost.max_words_sent());
    }

    #[test]
    fn integer_inputs_are_exact() {
        let a = seeded_int_matrix::<f64>(16, 12, 4, 21);
        let run = try_syrk_3d(&a, 2, 3, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(max_abs_diff(&run.c, &syrk_full_reference(&a)), 0.0);
    }

    #[test]
    fn bandwidth_near_eq12() {
        // Exact-division sizes so the prediction is sharp. Our A-exchange
        // is the tight (unpadded) variant, so measured ≤ eq. (12) with the
        // A term scaled by c/(c+1), within rounding.
        let (n1, n2, c, p2) = (36, 24, 3, 4);
        let a = seeded_matrix::<f64>(n1, n2, 6);
        let run = try_syrk_3d(&a, c, p2, CostModel::bandwidth_only(), None).unwrap();
        let measured = run.cost.max_words_sent() as f64;
        let padded = alg3d_predicted_cost(n1, n2, c, p2);
        // Tight A-term: n1·(n2/p2)/(c+1); C-term as in eq. (12) but with
        // the exact |C_k| of this grid.
        assert!(
            measured <= padded * 1.05,
            "measured {measured} should not exceed padded eq(12) {padded}"
        );
        assert!(
            measured >= padded * 0.6,
            "measured {measured} suspiciously far below eq(12) {padded}"
        );
    }

    /// Algorithm 3 at (36, 24, c = 3, p2 = 4) under `spec`.
    fn run_3d_spec(a: &Matrix<f64>, f: impl FnOnce(&mut RunSpec)) -> SyrkRunResult {
        let mut spec = RunSpec::new(Plan::ThreeD { c: 3, p2: 4 }, CostModel::bandwidth_only());
        f(&mut spec);
        run(a, &spec).unwrap().result
    }

    #[test]
    fn padded_slices_ship_the_eq12_a_term_exactly() {
        let a = seeded_matrix::<f64>(36, 24, 6);
        let padded = run_3d_spec(&a, |s| s.padded = true);
        let words = padded.cost.phase_max_words_sent(PHASE_ALLGATHER_A);
        assert_eq!(words as f64, alg3d_a_term(36, 24, 3, 4));
        assert_eq!(words, 66);
        assert!(max_abs_diff(&padded.c, &syrk_full_reference(&a)) < 1e-10);
        let tight = run_3d_spec(&a, |_| {});
        assert!(tight.cost.phase_max_words_sent(PHASE_ALLGATHER_A) < words);
    }

    #[test]
    fn recursive_halving_row_reduce_scatter_takes_log_p2_messages() {
        let a = seeded_int_matrix::<f64>(36, 24, 4, 9);
        let pairwise = run_3d_spec(&a, |_| {});
        let halving = run_3d_spec(&a, |s| s.rs_alg = ReduceScatterAlg::RecursiveHalving);
        let row = |r: &SyrkRunResult| {
            let table = r.cost.phase_table();
            let row = table.row(PHASE_REDUCE_SCATTER_C).unwrap();
            (row.max_msgs, row.max_words_sent)
        };
        let (pw_msgs, pw_words) = row(&pairwise);
        let (rh_msgs, rh_words) = row(&halving);
        assert_eq!((pw_msgs, rh_msgs), (3, 2));
        assert_eq!(rh_words, pw_words);
        let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&halving.c), bits(&pairwise.c));
        assert_eq!(max_abs_diff(&halving.c, &syrk_full_reference(&a)), 0.0);
    }

    #[test]
    fn both_a_and_c_move() {
        // Unlike 1D (C only) and 2D (A only), the 3D algorithm moves both:
        // words exceed either single-phase total.
        let (n1, n2, c, p2) = (24, 12, 2, 2);
        let a = seeded_matrix::<f64>(n1, n2, 13);
        let run = try_syrk_3d(&a, c, p2, CostModel::bandwidth_only(), None).unwrap();
        let a_words_per_slice_rank = n1 * (n2 / p2) / (c + 1);
        assert!(run.cost.max_words_sent() > a_words_per_slice_rank as u64);
    }
}
