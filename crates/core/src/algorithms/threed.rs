//! Algorithm 3: 3D SYRK (§5.3), the one driver of Algorithms 1–3 and SYR2K.
//!
//! A `p1 × p2` process grid: each of the `p2` slices `Π_{*ℓ}` runs the 2D
//! body on its block column `A_{*ℓ}` (`n2/p2` columns); a `Reduce-Scatter`
//! across each row `Π_{k*}` then sums the partial `C_k` and leaves the
//! final output evenly spread. Algorithm 2 is the `p2 = 1` corner (no
//! Reduce-Scatter); Algorithm 1 the `p1 = 1` corner, whose one-rank slices
//! exchange no `A` and whose row Reduce-Scatter is Algorithm 1's line 4.
//!
//! Bandwidth cost (eq. (12)): `n1n2/(√p1·p2) + n1²/(2p1)` to leading
//! order; eqs. (3) and (10) at the corners.

use syrk_dense::{Matrix, Partition1D};
use syrk_machine::{Comm, MachineError, ProcessGrid};

use super::common::{assemble_c, check_shape, LocalOutput, SyrkRunResult};
use super::run::{machine_for, RunSpec, SyrkRun};
use super::twod::{owned_blocks, slice_body};
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

/// Rank side of Alg. 3 lines 4–5: reduce-scatter `ck` across the grid
/// row with `spec.rs_alg`. Out of line: inlined into the rank closure,
/// its frame sits under every rank's exchange, 5 MB more stack pages
/// touched across the 2256 ranks of `sim_ranks`.
#[inline(never)]
fn reduce_ck(row: &Comm, ck: &LocalOutput, spec: &RunSpec) -> Result<Vec<f64>, MachineError> {
    let _span = row.phase(PHASE_REDUCE_SCATTER_C);
    row.try_reduce_scatter_with(ck_segments(ck, row.size()), spec.rs_alg)
}

/// Host side: grid row `k`'s reduced `C_k`, from its segments in ℓ
/// order, as the blocks `owned_blocks` lists for `k`.
fn ck_blocks<'s>(
    dist: &TriangleBlockDist,
    ad: &ConformalADist,
    k: usize,
    segs: impl IntoIterator<Item = &'s [f64]>,
) -> LocalOutput {
    let mut out = owned_blocks(dist, ad, k).out;
    let off = out.offdiag.iter_mut().map(|b| b.data.as_mut_slice());
    let dst = off.chain(out.diag.iter_mut().map(|d| d.data.as_mut_slice()));
    copy_across(segs, dst);
    out
}

/// Run Algorithm 3 on a simulated machine with a `dist.p() × p2` grid of
/// ranks, a count [`grid`](super::common::grid) has checked. `ops` are
/// the equally shaped inputs: `[A]` is SYRK and `[A, B]` SYR2K. The row
/// Reduce-Scatter runs iff `p2 > 1`.
pub(crate) fn run_grid<const N: usize>(
    ops: [&Matrix<f64>; N],
    dist: &TriangleBlockDist,
    p2: usize,
    spec: &RunSpec,
) -> Result<SyrkRun, SyrkError> {
    let (n1, n2) = ops[0].shape();
    check_shape(n1, n2)?;
    let p1 = dist.p();
    let cols = Partition1D::new(n2, p2);
    let grid = ProcessGrid::new(p1, p2);

    let out = machine_for(spec, grid.size()).try_run(|mut comm| {
        let gc = grid.split(&mut comm);
        // Line 3: the slice body on block column ℓ of every operand, read
        // where it lies; its phases land on this rank's ledger (spans are
        // per rank).
        let cr = cols.range(gc.l);
        let col_blocks = ops.map(|m| m.block(0, cr.start, n1, cr.len()));
        let ad = ConformalADist::new(dist, n1, cr.len());
        let local = slice_body(&gc.slice, dist, &ad, col_blocks, spec)?;
        // A rank alone in its grid row hands back its C_k blocks; the
        // others hand back their segment of the row's reduced C_k.
        if p2 == 1 {
            return Ok((Some(local), Vec::new()));
        }
        Ok((None, reduce_ck(&gc.row, &local, spec)?))
    })?;

    let whole = ConformalADist::new(dist, n1, n2);
    let outputs: Vec<LocalOutput> = if p2 == 1 {
        out.results.into_iter().filter_map(|(b, _)| b).collect()
    } else {
        // Grid row k's segments are world ranks k, k + p1, …: ℓ order.
        let row = |k: usize| out.results[k..].iter().step_by(p1).map(|(_, s)| &s[..]);
        (0..p1)
            .map(|k| ck_blocks(dist, &whole, k, row(k)))
            .collect()
    };
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
    use crate::{run, try_syrk_3d, Plan};
    use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syrk_full_reference};
    use syrk_machine::{CostModel, ReduceScatterAlg};

    /// Every entry of `m`, as bits.
    fn bits(m: &Matrix<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

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
                    let back = ck_blocks(&dist, &ad, k, segs.iter().map(Vec::as_slice));
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
        let _ = ck_blocks(&dist, &ad, 0, segs.iter().map(Vec::as_slice));
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
        // With p2 = 1 the slice is the whole machine and there is no
        // Reduce-Scatter: Algorithm 2 to the bit, cost report included,
        // with and without in-machine ABFT.
        for (n1, n2, c) in [(36, 8, 3), (12, 5, 2), (338, 64, 13), (10, 3, 3)] {
            let a = seeded_int_matrix::<f64>(n1, n2, 4, 5);
            for abft in [false, true] {
                let of = |plan| {
                    let spec = RunSpec {
                        abft,
                        ..RunSpec::new(plan, CostModel::typical())
                    };
                    run(&a, &spec).unwrap().result
                };
                let (run3, run2) = (of(Plan::ThreeD { c, p2: 1 }), of(Plan::TwoD { c }));
                let label = format!("{n1}x{n2} c={c} abft={abft}");
                let report = |r: &SyrkRunResult| (r.cost.ranks.clone(), r.cost.phases.clone());
                assert_eq!(report(&run3), report(&run2), "{label}");
                assert_eq!(bits(&run3.c), bits(&run2.c), "{label}");
            }
        }
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

    /// Algorithm 1, the grid's one-rank-slice corner.
    mod oned {
        use crate::bounds::alg1d_predicted_cost;
        use crate::try_syrk_1d;
        use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syrk_full_reference};
        use syrk_machine::CostModel;

        #[test]
        fn correct_for_various_shapes_and_p() {
            for &(n1, n2, p) in &[
                (1usize, 1usize, 1usize),
                (4, 8, 2),
                (6, 24, 4),
                (9, 10, 3), // P ∤ n2: uneven column blocks
                (5, 3, 4),  // P > n2: some ranks own no columns
                (16, 64, 8),
            ] {
                let a = seeded_matrix::<f64>(n1, n2, (n1 * 100 + n2) as u64);
                let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
                let want = syrk_full_reference(&a);
                let err = max_abs_diff(&run.c, &want);
                assert!(err < 1e-10, "({n1},{n2},{p}): err {err}");
            }
        }

        #[test]
        fn integer_inputs_are_exact() {
            let a = seeded_int_matrix::<f64>(8, 16, 4, 7);
            let run = try_syrk_1d(&a, 4, CostModel::bandwidth_only(), None).unwrap();
            assert_eq!(max_abs_diff(&run.c, &syrk_full_reference(&a)), 0.0);
        }

        #[test]
        fn bandwidth_matches_eq3_exactly() {
            // Every rank sends Σ_{q≠me} |segment_q| words; with the even split
            // of n1(n1+1)/2 this is (1 − 1/P)·n1(n1+1)/2 ± rounding.
            let (n1, n2, p) = (20, 40, 5);
            let a = seeded_matrix::<f64>(n1, n2, 3);
            let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
            let predicted = alg1d_predicted_cost(n1, p);
            let measured = run.cost.max_words_sent() as f64;
            assert!(
                (measured - predicted).abs() <= 1.0,
                "measured {measured} vs eq(3) {predicted}"
            );
            // Latency: P − 1 messages per rank (pairwise exchange).
            assert_eq!(run.cost.max_messages(), (p - 1) as u64);
        }

        #[test]
        fn no_a_communication() {
            // The 1D algorithm must move only C contributions: total traffic
            // equals P·(1−1/P)·packed = (P−1)·packed words.
            let (n1, n2, p) = (10, 30, 3);
            let a = seeded_matrix::<f64>(n1, n2, 9);
            let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
            let packed = n1 * (n1 + 1) / 2;
            assert_eq!(run.cost.total_words(), ((p - 1) * packed) as u64);
        }

        #[test]
        fn flops_are_load_balanced_when_p_divides_n2() {
            let (n1, n2, p) = (12, 32, 4);
            let a = seeded_matrix::<f64>(n1, n2, 11);
            let run = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None).unwrap();
            // Local SYRK flops identical across ranks; Reduce-Scatter adds
            // (P−1)·|segment| flops, and segments differ by at most one word.
            let fmax = run.cost.ranks.iter().map(|r| r.flops).max().unwrap();
            let fmin = run.cost.ranks.iter().map(|r| r.flops).min().unwrap();
            assert!(fmax - fmin <= (p - 1) as u64, "flop spread {}", fmax - fmin);
        }

        #[test]
        fn single_rank_does_no_communication() {
            let a = seeded_matrix::<f64>(7, 5, 2);
            let run = try_syrk_1d(&a, 1, CostModel::bandwidth_only(), None).unwrap();
            assert_eq!(run.cost.total_words(), 0);
            assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-12);
        }
    }
}
