//! Limited-memory SYRK (§6: "the 3D algorithm may not be feasible in
//! limited-memory scenarios … We plan to explore algorithms that attain
//! the memory-dependent lower bound in future work").
//!
//! This module implements the natural panel-streaming variant of the 2D
//! algorithm: instead of gathering all `n2` columns of its `R_k` row
//! blocks at once, each rank processes the columns in `rounds` panels —
//! gather a panel with Algorithm 2's exchange (`gather_row_blocks`, the
//! one `run` executes for `Plan::TwoD`), accumulate its contribution
//! into the locally owned `C` blocks with Algorithm 2's local step
//! (`local_step`), discard the panel, repeat.
//!
//! * **Communication volume for `A` is unchanged** (every chunk still
//!   crosses the network exactly once): `n1n2/(c+1)` words per rank.
//! * **Latency multiplies by `rounds`**: each panel sends one message to
//!   each of the `c²` partners that share a row block (with a nonempty
//!   chunk).
//! * **Peak memory shrinks**: the transient gathered-panel buffer drops
//!   from `c·(n1/c²)·n2` to `c·(n1/c²)·⌈n2/rounds⌉` words.
//!
//! That is exactly the trade the memory-dependent regime prescribes, and
//! it lets the per-rank footprint be driven down toward the
//! `O((n1²/2 + n1n2)/P)` balanced-data budget.

use syrk_dense::{gemm_nt, syrk_packed, Matrix, Partition1D};
use syrk_machine::{CostModel, Machine};

use super::common::{assemble_c, check_shape, triangle_dist, SyrkRunResult};
use super::twod::{gather_row_blocks, local_step, owned_blocks};
use crate::dist::ConformalADist;
use crate::error::SyrkError;

/// Run the panel-streaming 2D algorithm with `rounds` column panels.
/// `rounds = 1` sends, receives and computes exactly what Algorithm 2
/// ([`try_syrk_2d`](crate::try_syrk_2d)) does, rank by rank, and produces
/// the same `C`; only `peak_buffer_words` differs, by convention: this
/// driver counts its owned output blocks and not its staged chunks (2532
/// words against 2880 at E16's 72 × 96, c = 3). Errors as
/// [`run`](crate::run); `rounds = 0` panics.
pub fn syrk_2d_limited(
    a: &Matrix<f64>,
    c: usize,
    rounds: usize,
    model: CostModel,
) -> Result<SyrkRunResult, SyrkError> {
    assert!(rounds >= 1, "need at least one panel round");
    let dist = triangle_dist(c)?;
    let (n1, n2) = a.shape();
    check_shape(n1, n2)?;
    // Every panel has the row blocks of the whole input.
    let whole = ConformalADist::new(&dist, n1, n2);
    let rows = &whole.rows;
    let panels = Partition1D::new(n2, rounds);

    let machine = Machine::new(dist.p()).with_model(model);
    let out = machine.try_run(|comm| {
        // Owned output blocks, accumulated across panels.
        let mut owned = owned_blocks(&dist, &whole, comm.rank());
        // Persistent output footprint.
        let out = &owned.out;
        let out_words = (out.offdiag.iter().map(|b| b.data.len()))
            .chain(out.diag.iter().map(|d| d.data.len()))
            .sum::<usize>();
        comm.note_buffer(out_words);

        for round in 0..rounds {
            let pr = panels.range(round);
            if pr.is_empty() {
                continue;
            }
            // Algorithm 2's exchange and local step, panel width only.
            let a_panel = a.block(0, pr.start, n1, pr.len());
            let ad = ConformalADist::new(&dist, n1, pr.len());
            let gathered = gather_row_blocks(&comm, &dist, &ad, &owned.live, [a_panel], false)?;
            comm.note_buffer(out_words + gathered.iter().map(|[ai]| ai.len()).sum::<usize>());
            local_step(
                &comm,
                &mut owned,
                pr.len(),
                1,
                |cij, x, y| gemm_nt(cij, gathered[x][0].view(), gathered[y][0].view()),
                |cii, x| syrk_packed(cii, gathered[x][0].view()),
            );
        }
        Ok(owned.out)
    })?;
    Ok(SyrkRunResult {
        c: assemble_c(n1, rows, &out.results),
        cost: out.cost,
    })
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
            let run = syrk_2d_limited(&a, c, rounds, CostModel::bandwidth_only()).unwrap();
            let err = max_abs_diff(&run.c, &want);
            assert!(err < 1e-10, "rounds={rounds}: err {err}");
        }
    }

    #[test]
    fn rounds_1_matches_plain_2d() {
        // Rank by rank: the same messages, words and flops, and `C` to the
        // bit — at a full shape and at n1 < c² (most blocks dead).
        for (n1, n2, c) in [(16, 10, 2), (3, 4, 4)] {
            let a = seeded_int_matrix::<f64>(n1, n2, 4, 7);
            let lim = syrk_2d_limited(&a, c, 1, CostModel::bandwidth_only()).unwrap();
            let std = crate::try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
            let bits =
                |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lim.c), bits(&std.c), "{n1}x{n2} c={c}");
            for (rank, (l, s)) in lim.cost.ranks.iter().zip(&std.cost.ranks).enumerate() {
                let counts =
                    |r: &syrk_machine::RankCost| [r.words_sent, r.words_recv, r.msgs_sent, r.flops];
                assert_eq!(counts(l), counts(s), "{n1}x{n2} c={c} rank {rank}");
            }
        }
    }

    #[test]
    fn peak_buffer_counts_owned_output_instead_of_staged_chunks() {
        // The one field `rounds = 1` does not share with Algorithm 2, at
        // E16's shape.
        let a = seeded_matrix::<f64>(72, 96, 14);
        let lim = syrk_2d_limited(&a, 3, 1, CostModel::bandwidth_only()).unwrap();
        let std = crate::try_syrk_2d(&a, 3, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(lim.cost.max_peak_buffer(), 2532);
        assert_eq!(std.cost.max_peak_buffer(), 2880);
    }

    #[test]
    fn words_constant_latency_grows_memory_shrinks() {
        // The memory-dependent trade, measured: A-volume invariant,
        // messages ×rounds, peak transient buffer ↓.
        let (n1, n2, c) = (36usize, 48usize, 3usize);
        let a = seeded_matrix::<f64>(n1, n2, 8);
        let one = syrk_2d_limited(&a, c, 1, CostModel::bandwidth_only()).unwrap();
        let four = syrk_2d_limited(&a, c, 4, CostModel::bandwidth_only()).unwrap();
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
        let run = syrk_2d_limited(&a, 2, 10, CostModel::bandwidth_only()).unwrap();
        assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-12);
    }
}
