//! Limited-memory SYRK (§6: "the 3D algorithm may not be feasible in
//! limited-memory scenarios … We plan to explore algorithms that attain
//! the memory-dependent lower bound in future work").
//!
//! This module implements the natural panel-streaming variant of the 2D
//! algorithm: instead of gathering all `n2` columns of its `R_k` row
//! blocks at once, each rank processes the columns in `rounds` panels —
//! gather a panel (All-to-All), accumulate its contribution into the
//! locally owned `C` blocks, discard the panel, repeat.
//!
//! * **Communication volume for `A` is unchanged** (every chunk still
//!   crosses the network exactly once): `n1n2/(c+1)` words per rank.
//! * **Latency multiplies by `rounds`** (one All-to-All per panel).
//! * **Peak memory shrinks**: the transient gathered-panel buffer drops
//!   from `c·(n1/c²)·n2` to `c·(n1/c²)·⌈n2/rounds⌉` words.
//!
//! That is exactly the trade the memory-dependent regime prescribes, and
//! it lets the per-rank footprint be driven down toward the
//! `O((n1²/2 + n1n2)/P)` balanced-data budget.

use syrk_dense::{
    gemm_flops, gemm_nt, syrk_flops, syrk_packed, Diag, Matrix, PackedLower, Partition1D,
};
use syrk_machine::{CostModel, Machine};

use super::common::{assemble_c, DiagBlock, LocalOutput, OffDiagBlock, SyrkRunResult};
use crate::dist::{ConformalADist, TriangleBlockDist};

/// Run the panel-streaming 2D algorithm with `rounds` column panels.
/// `rounds = 1` is exactly [`syrk_2d`](crate::syrk_2d).
pub fn syrk_2d_limited(
    a: &Matrix<f64>,
    c: usize,
    rounds: usize,
    model: CostModel,
) -> SyrkRunResult {
    assert!(rounds >= 1, "need at least one panel round");
    let dist = TriangleBlockDist::for_order(c)
        .unwrap_or_else(|| panic!("no triangle block construction for c = {c}"));
    let (n1, n2) = a.shape();
    let rows = Partition1D::new(n1, dist.num_blocks());
    let panels = Partition1D::new(n2, rounds);

    let machine = Machine::new(dist.p()).with_model(model);
    let out = machine.run(|comm| {
        let k = comm.rank();
        // Owned output blocks, accumulated across panels.
        let mut off_blocks: Vec<OffDiagBlock> = dist
            .blocks_of(k)
            .into_iter()
            .map(|(i, j)| OffDiagBlock {
                i,
                j,
                data: Matrix::zeros(rows.len(i), rows.len(j)),
            })
            .collect();
        let mut diag_block: Option<DiagBlock> = dist.d_block(k).map(|i| DiagBlock {
            i,
            data: PackedLower::zeros(rows.len(i), Diag::Inclusive),
        });
        // Persistent output footprint.
        let out_words: usize = off_blocks.iter().map(|b| b.data.len()).sum::<usize>()
            + diag_block.as_ref().map_or(0, |d| d.data.len());
        comm.note_buffer(out_words);

        for round in 0..rounds {
            let pr = panels.range(round);
            if pr.is_empty() {
                continue;
            }
            let a_panel = a.block(0, pr.start, n1, pr.len());
            let ad = ConformalADist::new(&dist, n1, pr.len());
            let my_chunk = |i: usize| ad.extract_chunk(a_panel, i, k);
            // Panel All-to-All: same pattern as Alg. 2, panel width only.
            let blocks: Vec<Vec<f64>> = (0..comm.size())
                .map(|k2| {
                    if k2 == k {
                        Vec::new()
                    } else {
                        let mine = dist.common_block(k, k2).map(&my_chunk);
                        mine.map_or_else(Vec::new, |ch| ch.to_vec())
                    }
                })
                .collect();
            let received = comm.all_to_all(blocks);
            let gathered: Vec<(usize, Matrix<f64>)> = dist
                .r_set(k)
                .iter()
                .map(|&i| {
                    let (mine, q) = (my_chunk(i), dist.q_set(i));
                    let chunks = (q.iter()).map(|&m| if m == k { &mine[..] } else { &received[m] });
                    (i, ad.assemble_block(i, chunks))
                })
                .collect();
            comm.note_buffer(out_words + gathered.iter().map(|(_, m)| m.len()).sum::<usize>());
            let block_for = |i: usize| {
                &gathered
                    .iter()
                    .find(|&&(bi, _)| bi == i)
                    .expect("gathered")
                    .1
            };
            // Accumulate this panel's contribution.
            for blk in &mut off_blocks {
                let (ai, aj) = (block_for(blk.i), block_for(blk.j));
                gemm_nt(&mut blk.data, ai, aj);
                comm.add_flops(gemm_flops(ai.rows(), aj.rows(), pr.len()));
            }
            if let Some(d) = &mut diag_block {
                let ai = block_for(d.i);
                syrk_packed(&mut d.data, ai);
                comm.add_flops(syrk_flops(ai.rows(), pr.len()));
            }
        }
        LocalOutput {
            offdiag: off_blocks,
            diag: diag_block.into_iter().collect(),
        }
    });
    let c_full = assemble_c(n1, &rows, &out.results);
    SyrkRunResult {
        c: c_full,
        cost: out.cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syrk_full_reference};

    #[test]
    fn limited_is_correct_for_any_round_count() {
        let (n1, n2, c) = (18usize, 24usize, 3usize);
        let a = seeded_matrix::<f64>(n1, n2, 31);
        let want = syrk_full_reference(&a);
        for rounds in [1usize, 2, 3, 5, 24, 30] {
            let run = syrk_2d_limited(&a, c, rounds, CostModel::bandwidth_only());
            let err = max_abs_diff(&run.c, &want);
            assert!(err < 1e-10, "rounds={rounds}: err {err}");
        }
    }

    #[test]
    fn rounds_1_matches_plain_2d() {
        let a = seeded_int_matrix::<f64>(16, 10, 4, 7);
        let lim = syrk_2d_limited(&a, 2, 1, CostModel::bandwidth_only());
        let std = crate::syrk_2d(&a, 2, CostModel::bandwidth_only());
        assert_eq!(max_abs_diff(&lim.c, &std.c), 0.0);
        assert_eq!(lim.cost.max_words_sent(), std.cost.max_words_sent());
        assert_eq!(lim.cost.total_flops(), std.cost.total_flops());
    }

    #[test]
    fn words_constant_latency_grows_memory_shrinks() {
        // The memory-dependent trade, measured: A-volume invariant,
        // messages ×rounds, peak transient buffer ↓.
        let (n1, n2, c) = (36usize, 48usize, 3usize);
        let a = seeded_matrix::<f64>(n1, n2, 8);
        let one = syrk_2d_limited(&a, c, 1, CostModel::bandwidth_only());
        let four = syrk_2d_limited(&a, c, 4, CostModel::bandwidth_only());
        // Same total A words (each chunk crosses once).
        assert_eq!(one.cost.total_words(), four.cost.total_words());
        // Latency multiplied by the round count.
        assert_eq!(four.cost.max_messages(), 4 * one.cost.max_messages());
        // Peak buffer strictly smaller.
        assert!(
            four.cost.max_peak_buffer() < one.cost.max_peak_buffer(),
            "{} !< {}",
            four.cost.max_peak_buffer(),
            one.cost.max_peak_buffer()
        );
    }

    #[test]
    fn more_rounds_than_columns_is_fine() {
        // Empty panels are skipped (no phantom messages or flops).
        let a = seeded_matrix::<f64>(8, 3, 9);
        let run = syrk_2d_limited(&a, 2, 10, CostModel::bandwidth_only());
        assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-12);
    }
}
