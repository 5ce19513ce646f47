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

use syrk_dense::{Matrix, Partition1D};
use syrk_machine::ProcessGrid;

use super::common::{
    assemble_c, check_ranks, check_shape, triangle_dist, LocalOutput, SyrkRunResult,
};
use super::run::{machine_for, RunSpec, SyrkRun};
use super::twod::{owned_blocks, twod_body};
use crate::attribution::PHASE_REDUCE_SCATTER_C;
use crate::dist::{ConformalADist, TriangleBlockDist};
use crate::error::SyrkError;

/// The words of a `LocalOutput` in `C_k` order: the off-diagonal blocks
/// as listed, each row-major, then the packed diagonal block. Every rank
/// of grid row `k` and the host list the same blocks (`owned_blocks(k)`),
/// so they agree on this order — the precondition for reduce-scattering
/// `C_k`.
fn ck_words(out: &LocalOutput) -> impl Iterator<Item = &[f64]> {
    let off = out.offdiag.iter().map(|b| b.data.as_slice());
    off.chain(out.diag.iter().map(|d| d.data.as_slice()))
}

/// Copy the concatenation of `src` into the concatenation of `dst`,
/// piece by piece across the boundaries of both; the two totals must
/// agree.
fn copy_across<'s, 'd>(
    src: impl IntoIterator<Item = &'s [f64]>,
    dst: impl IntoIterator<Item = &'d mut [f64]>,
) {
    let mut src = src.into_iter();
    let mut from: &[f64] = &[];
    for mut to in dst {
        while !to.is_empty() {
            while from.is_empty() {
                from = src.next().expect("C_k source shorter than its blocks");
            }
            let n = to.len().min(from.len());
            let (head, tail) = std::mem::take(&mut to).split_at_mut(n);
            head.copy_from_slice(&from[..n]);
            (to, from) = (tail, &from[n..]);
        }
    }
    assert!(
        from.is_empty() && src.all(<[f64]>::is_empty),
        "C_k source longer than its blocks"
    );
}

/// Rank side of Alg. 3 lines 4–5: `local`'s words in `C_k` order, cut
/// into `p2` near-even Reduce-Scatter segments.
fn ck_segments(local: &LocalOutput, p2: usize) -> Vec<Vec<f64>> {
    let total = ck_words(local).map(<[f64]>::len).sum();
    let lens = Partition1D::new(total, p2).lens();
    let mut segs: Vec<Vec<f64>> = lens.iter().map(|&l| vec![0.0; l]).collect();
    copy_across(ck_words(local), segs.iter_mut().map(Vec::as_mut_slice));
    segs
}

/// Host side: grid row `k`'s reduced `C_k`, from its segments in ℓ
/// order, as the blocks `owned_blocks` lists for `k`.
fn ck_blocks(
    dist: &TriangleBlockDist,
    ad: &ConformalADist,
    k: usize,
    segs: &[Vec<f64>],
) -> LocalOutput {
    let mut out = owned_blocks(dist, ad, k).out;
    let off = out.offdiag.iter_mut().map(|b| b.data.as_mut_slice());
    let dst = off.chain(out.diag.iter_mut().map(|d| d.data.as_mut_slice()));
    copy_across(segs.iter().map(Vec::as_slice), dst);
    out
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
        let segments = ck_segments(&local, p2);
        let mine = gc.row.try_reduce_scatter_with(segments, spec.rs_alg)?;
        Ok((gc.k, gc.l, mine))
    })?;

    // Assembly: for each grid row k, the p2 final segments in ℓ order
    // are the summed C_k.
    let mut per_k: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); p2]; p1];
    for (k, l, seg) in out.results {
        per_k[k][l] = seg;
    }
    let whole = ConformalADist::new(&dist, n1, n2);
    let outputs: Vec<LocalOutput> = (per_k.iter().enumerate())
        .map(|(k, segs)| ck_blocks(&dist, &whole, k, segs))
        .collect();
    Ok(SyrkRun {
        result: SyrkRunResult {
            c: assemble_c(n1, &whole.rows, &outputs),
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

    /// Every word of `out` in `C_k` order, as bits.
    fn ck_bits(out: &LocalOutput) -> Vec<u64> {
        ck_words(out).flatten().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn c_k_segments_round_trip_over_the_owned_block_list() {
        // Rank-side segments back to host-side blocks, over every rank of
        // c = 3 at n1 ∈ {4, 10, 36} (n1 = 4 < c² leaves five of nine row
        // blocks dead) and p2 up to 40, above every C_k word count here.
        let dist = TriangleBlockDist::new(3);
        let (mut crossed, mut empty, mut no_diag) = (false, false, false);
        for n1 in [4, 10, 36] {
            let ad = ConformalADist::new(&dist, n1, 1);
            for k in 0..dist.p() {
                let mut out = owned_blocks(&dist, &ad, k).out;
                let off = out.offdiag.iter_mut().map(|b| b.data.as_mut_slice());
                let words = off.chain(out.diag.iter_mut().map(|d| d.data.as_mut_slice()));
                for (w, x) in words.flatten().zip(1..) {
                    *w = f64::from(x);
                }
                no_diag |= out.diag.is_empty();
                let mut block_end = 0;
                let block_ends: Vec<usize> = (ck_words(&out).map(<[f64]>::len))
                    .map(|len| {
                        block_end += len;
                        block_end
                    })
                    .collect();
                for p2 in [1, 2, 3, 5, 7, 40] {
                    let segs = ck_segments(&out, p2);
                    assert_eq!(segs.len(), p2);
                    empty |= segs.iter().any(Vec::is_empty);
                    // A segment that ends inside a block splits it.
                    let mut end = 0;
                    for seg in &segs {
                        end += seg.len();
                        crossed |= !seg.is_empty() && !block_ends.contains(&end);
                    }
                    let back = ck_blocks(&dist, &ad, k, &segs);
                    assert_eq!(ck_bits(&back), ck_bits(&out), "n1={n1} k={k} p2={p2}");
                }
            }
        }
        assert!(crossed && empty && no_diag);
    }

    #[test]
    #[should_panic(expected = "longer than its blocks")]
    fn c_k_segments_of_the_wrong_total_are_rejected() {
        let dist = TriangleBlockDist::new(2);
        let ad = ConformalADist::new(&dist, 8, 1);
        let mut segs = ck_segments(&owned_blocks(&dist, &ad, 0).out, 2);
        segs[1].push(0.0);
        let _ = ck_blocks(&dist, &ad, 0, &segs);
    }

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
