//! Algorithm 2: 2D SYRK (§5.2).
//!
//! `C` is laid out by the Triangle Block Distribution; each processor
//! gathers the `c` row blocks of `A` in its row block set `R_k` via a
//! single `All-to-All` (each pair of processors shares at most one row
//! block, so the exchange pattern is exactly personalized all-to-all),
//! then computes its `c(c−1)/2` off-diagonal blocks with local GEMMs and
//! its diagonal block (if assigned) with a local SYRK. No contribution to
//! `C` is ever communicated — only parts of `A`.

use std::sync::Arc;

use syrk_dense::{
    balanced_chunks_by_cost, gemm_flops, mul_nt, par_for_each_task, steal_task_count, syrk_flops,
    syrk_packed_new, workers_for_flops, Diag, Matrix, MatrixView,
};
use syrk_machine::{Comm, MachineError};

use super::common::{assemble_c, DiagBlock, LocalOutput, OffDiagBlock, SyrkRunResult};
use super::run::{machine_for, RunSpec, SyrkRun};
use crate::attribution::{PHASE_ALLGATHER_A, PHASE_LOCAL_GEMM, PHASE_LOCAL_SYRK};
use crate::dist::{ConformalADist, TriangleBlockDist};
use crate::error::SyrkError;
use crate::planner::PlanError;

/// The SPMD body of Algorithm 2, reused verbatim by each slice of the 3D
/// algorithm (Alg. 3 line 3). `a_slice` is the `n1 × n2_local` input this
/// communicator is responsible for — a view, because a 3D slice's column
/// block stays where it lies in the global `A`; `comm.size()` must be
/// `c(c+1)`.
///
/// Of `spec` the body reads `padded` and `abft`. With `padded` the
/// exchange buffer `B` is padded to `P` equal blocks of
/// `⌈n1·n2/(c²(c+1))⌉` words, exactly as Algorithm 2's pseudocode
/// allocates it — reproducing the eq. (10) cost analysis verbatim (the
/// unpadded variant is slightly cheaper; see `alg2d_tight_cost`). The
/// exchange itself is [`gather_row_blocks`], which the §6 extension
/// drivers call too.
pub(crate) fn twod_body(
    comm: &Comm,
    dist: &TriangleBlockDist,
    ad: &ConformalADist,
    a_slice: MatrixView<'_, f64>,
    spec: &RunSpec,
) -> Result<LocalOutput, MachineError> {
    assert_eq!(comm.size(), dist.p(), "2D body needs exactly c(c+1) ranks");
    let k = comm.rank();
    let n2l = a_slice.cols();

    // The row blocks of R_k that exist. Everything below — exchange,
    // pair list, diagonal — is derived from this list by position, so a
    // rank's host time follows its live blocks instead of c or c². A dead
    // block moves and computes nothing in either variant (padded partners
    // get zeros for it, as they do for a pair that shares no block).
    let live = ad.live_blocks(k);

    // Lines 3–14: gather every live A_i. The exchange-and-reassemble of A
    // is the phase Theorem 1's Case-2 `n1·n2/√P` term charges.
    let ag_span = comm.phase(PHASE_ALLGATHER_A);
    let gathered: Vec<Matrix<f64>> =
        gather_row_blocks(comm, dist, ad, &live, [a_slice], spec.padded)?
            .into_iter()
            .map(|[ai]| ai)
            .collect();
    comm.note_buffer(
        gathered.iter().map(Matrix::len).sum::<usize>()
            + live.iter().map(|&i| ad.chunk_len(i, k)).sum::<usize>(),
    );
    drop(ag_span);

    // Lines 15–17: off-diagonal blocks C_ij = A_i · A_jᵀ over the pairs of
    // live blocks (positions in `live`, in `blocks_of(k)` order — the 3D
    // algorithm's C_k layout depends on `out.offdiag` keeping it),
    // computed in flop-balanced chunks over the rank's thread budget, or
    // on this thread when the whole list is too small to pay for a
    // worker. Pairs with a zero-sized block (n1 < c² leaves row blocks
    // empty) never appear, matching `CkLayout`'s convention: at 10⁴ ranks
    // the c(c−1)/2 pairs per rank are dominated by empty ones, and
    // materializing ~P·c²/2 zero-sized outputs costs more than the whole
    // exchange. Flops are charged up front, outside the worker closure, to
    // keep the cost report deterministic.
    let mut out = LocalOutput::default();
    let gemm_span = comm.phase(PHASE_LOCAL_GEMM);
    let pairs: Vec<(usize, usize)> = (0..live.len())
        .flat_map(|a| (0..a).map(move |b| (a, b)))
        .collect();
    let costs: Vec<u64> = pairs
        .iter()
        .map(|&(a, b)| gemm_flops(gathered[a].rows(), gathered[b].rows(), n2l))
        .collect();
    for &f in &costs {
        comm.add_flops(f);
    }
    let mut results: Vec<Option<OffDiagBlock>> = (0..pairs.len()).map(|_| None).collect();
    // Oversubscribe chunks past the worker count so the work-stealing
    // runtime can rebalance uneven block sizes.
    let workers = workers_for_flops(costs.iter().sum());
    let chunks = balanced_chunks_by_cost(&costs, steal_task_count(workers), 1);
    let mut tasks: Vec<(std::ops::Range<usize>, &mut [Option<OffDiagBlock>])> = Vec::new();
    let mut rest = results.as_mut_slice();
    for r in &chunks {
        let (head, tail) = rest.split_at_mut(r.len());
        tasks.push((r.clone(), head));
        rest = tail;
    }
    par_for_each_task(tasks, |_, (range, slots)| {
        for (slot, bi) in slots.iter_mut().zip(range) {
            let (a, b) = pairs[bi];
            *slot = Some(OffDiagBlock {
                i: live[a],
                j: live[b],
                data: mul_nt(&gathered[a], &gathered[b]),
            });
        }
    });
    out.offdiag.extend(
        results
            .into_iter()
            .map(|r| r.expect("every block computed")),
    );
    drop(gemm_span);

    // Lines 18–20: the diagonal block, if assigned and live (`D_k` may
    // name a dead block — the same zero-sized-block convention as the
    // off-diagonal list).
    let diag = dist
        .d_block(k)
        .and_then(|i| Some((i, &gathered[live.binary_search(&i).ok()?])));
    if let Some((i, ai)) = diag {
        let _span = comm.phase(PHASE_LOCAL_SYRK);
        out.diag.push(DiagBlock {
            i,
            data: syrk_packed_new(ai, Diag::Inclusive),
        });
        comm.add_flops(syrk_flops(ai.rows(), n2l));
    }

    // ABFT: verify every produced block against its row checksums,
    // computed independently from the gathered A blocks, before the
    // contribution leaves this rank (`C_ij·1 = A_i·(A_jᵀ·1)`).
    if spec.abft {
        let _span = comm.phase(crate::abft::PHASE_ABFT);
        let corrupt = |detail| MachineError::DataCorruption {
            rank: comm.world_rank(),
            detail,
        };
        for (blk, &(a, b)) in out.offdiag.iter().zip(&pairs) {
            let (ai, aj) = (&gathered[a], &gathered[b]);
            comm.add_flops(crate::abft::block_check_flops(ai.rows(), aj.rows(), n2l));
            crate::abft::verify_offdiag_block(ai, aj, &blk.data, blk.i, blk.j).map_err(&corrupt)?;
        }
        if let (Some((i, ai)), Some(blk)) = (diag, out.diag.first()) {
            comm.add_flops(crate::abft::block_check_flops(ai.rows(), ai.rows(), n2l));
            crate::abft::verify_diag_block(ai, &blk.data, i).map_err(&corrupt)?;
        }
    }
    Ok(out)
}

/// Algorithm 2's exchange (§5.2 lines 3–14), the one place it is
/// planned: rank `k` ships its chunk of each live row block `A_i`,
/// `i ∈ R_k`, to the other `c` members of `Q_i`, then reassembles each
/// `A_i` from the chunks of `Q_i`. `live` is `ad.live_blocks(k)`; the
/// result is parallel to it, one block per operand. Each operand is
/// distributed conformally by `ad`: SYRK passes `A`, SYMM its `B`, the
/// panel variant one panel of `A`, and SYR2K both `A` and `B`, whose
/// chunks for a partner travel back to back in one message. A single
/// operand's chunk ships as `extract_chunk` staged it — one buffer, `c`
/// handles, reused in the reassembly.
///
/// The block destined to k' is my chunk of the unique row block shared
/// with k' (each pair of ranks shares at most one). The tight exchange is
/// planned *sparsely*: only nonempty chunks generate traffic, so both the
/// plan and the per-rank buffers stay O(c · live blocks) instead of
/// O(P) — dense P-length buffers on every rank are O(P²) bytes
/// machine-wide, and at 10⁴ ranks that working set turns every
/// event-engine resume into a cache-cold stall. With `padded`, every
/// partner (even a partnerless pair) gets the paper's fixed-size block of
/// `B`, `⌈n1·n2/(c²(c+1))⌉` words per operand, so that variant keeps the
/// dense schedule and reproduces eq. (10) verbatim.
pub(crate) fn gather_row_blocks<const N: usize>(
    comm: &Comm,
    dist: &TriangleBlockDist,
    ad: &ConformalADist,
    live: &[usize],
    operands: [MatrixView<'_, f64>; N],
    padded: bool,
) -> Result<Vec<[Matrix<f64>; N]>, MachineError> {
    let k = comm.rank();
    let mine: Vec<Arc<[f64]>> = live
        .iter()
        .map(|&i| match &operands[..] {
            [a] => ad.extract_chunk(*a, i, k),
            ops => (ops.iter().map(|&a| ad.extract_chunk(a, i, k)))
                .collect::<Vec<_>>()
                .concat()
                .into(),
        })
        .collect();
    // Padded: owned buffers indexed by sender. Tight: the senders' own
    // buffers, parallel to the receive plan.
    let (mut by_sender, mut by_plan): (Vec<Vec<f64>>, Vec<Arc<[f64]>>) = Default::default();
    if padded {
        // Rounded up to cover uneven chunk splits; the scan touches every
        // chunk of every row block, so the tight path skips it.
        let pad_len = (0..dist.num_blocks())
            .flat_map(|i| dist.q_set(i).iter().map(move |&m| ad.chunk_len(i, m)))
            .max()
            .unwrap_or(0);
        // The chunk owed to each partner, read off the live blocks'
        // processor sets in O(c · live) instead of intersecting R_k with
        // every other rank's set.
        let mut owed: Vec<Option<&[f64]>> = vec![None; comm.size()];
        for (&i, ch) in live.iter().zip(&mine) {
            for &m in dist.q_set(i).iter().filter(|&&m| m != k) {
                debug_assert!(owed[m].is_none(), "two ranks share two row blocks");
                owed[m] = Some(ch);
            }
        }
        let blocks: Vec<Vec<f64>> = (0..comm.size())
            .map(|k2| {
                if k2 == k {
                    return Vec::new();
                }
                let mut buf = owed[k2].map(<[f64]>::to_vec).unwrap_or_default();
                buf.resize(N * pad_len, 0.0);
                buf
            })
            .collect();
        by_sender = comm.try_all_to_all(blocks)?;
    } else {
        let mut sends: Vec<(usize, Arc<[f64]>)> = Vec::new();
        let mut recvs: Vec<(usize, usize)> = Vec::new();
        for (&i, ch) in live.iter().zip(&mine) {
            let part = ad.chunk_partition(i);
            for (pos, &m) in dist.q_set(i).iter().enumerate() {
                if m == k {
                    continue;
                }
                if part.len(pos) > 0 {
                    recvs.push((m, N * part.len(pos)));
                }
                if !ch.is_empty() {
                    sends.push((m, Arc::clone(ch)));
                }
            }
        }
        by_plan = comm.try_all_to_all_sparse(sends, &recvs)?;
    }

    // Reassemble each live block from the buffers of Q_i (mine plus the
    // one received from every other member; padded buffers are truncated
    // back to the true length). Q_i order *is* chunk order, so each
    // chunk's length comes straight from the block's partition — and the
    // sparse results arrive in exactly this iteration order (the order
    // the receive plan was built in), so a plain cursor pairs them up.
    let mut next_recv = 0;
    let blocks = live.iter().zip(&mine).map(|(&i, mine)| {
        let part = ad.chunk_partition(i);
        let bufs: Vec<&[f64]> = (dist.q_set(i).iter().enumerate())
            .map(|(pos, &m)| {
                let len = N * part.len(pos);
                if m == k {
                    &mine[..]
                } else if padded {
                    &by_sender[m][..len]
                } else if len == 0 {
                    &[]
                } else {
                    next_recv += 1;
                    &by_plan[next_recv - 1][..]
                }
            })
            .collect();
        // Operand `o` is the `o`-th chunk-length piece of each buffer.
        std::array::from_fn(|o| {
            let chunks = bufs.iter().enumerate().map(|(pos, buf)| {
                let len = part.len(pos);
                &buf[o * len..(o + 1) * len]
            });
            ad.assemble_block(i, chunks)
        })
    });
    Ok(blocks.collect())
}

/// Run Algorithm 2 on a simulated machine with `P = c(c+1)` ranks.
pub(crate) fn run_2d(a: &Matrix<f64>, c: usize, spec: &RunSpec) -> Result<SyrkRun, SyrkError> {
    let dist = TriangleBlockDist::for_order(c).ok_or(PlanError::UnsupportedOrder { c })?;
    let (n1, n2) = a.shape();
    if n1 == 0 || n2 == 0 {
        return Err(PlanError::EmptyMatrix { n1, n2 }.into());
    }
    let ad = ConformalADist::new(&dist, n1, n2);

    let out =
        machine_for(spec, dist.p()).try_run(|comm| twod_body(&comm, &dist, &ad, a.view(), spec))?;
    Ok(SyrkRun {
        result: SyrkRunResult {
            c: assemble_c(n1, &ad.rows, &out.results),
            cost: out.cost,
        },
        traces: out.traces,
        recovery: None,
    })
}

#[cfg(test)]
mod tests {
    use crate::bounds::{alg2d_predicted_cost, alg2d_tight_cost};
    use crate::{run, syrk_2d, Plan, RunSpec};
    use syrk_dense::{gemm_flops, syrk_flops};
    use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix, syrk_full_reference};
    use syrk_machine::CostModel;

    #[test]
    fn correct_for_c2_and_c3() {
        for &(n1, n2, c) in &[
            (8usize, 6usize, 2usize), // c² = 4 row blocks of 2 rows
            (9, 5, 3),                // c² = 9 row blocks of 1 row
            (18, 4, 3),
            (27, 7, 3),
            (10, 3, 3), // c² ∤ n1: uneven row blocks
        ] {
            let a = seeded_matrix::<f64>(n1, n2, (n1 * 13 + n2) as u64);
            let run = syrk_2d(&a, c, CostModel::bandwidth_only());
            let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
            assert!(err < 1e-10, "({n1},{n2},c={c}): err {err}");
        }
    }

    #[test]
    fn correct_for_c5() {
        // P = 30 ranks, 25 row blocks.
        let a = seeded_int_matrix::<f64>(50, 6, 4, 77);
        let run = syrk_2d(&a, 5, CostModel::bandwidth_only());
        assert_eq!(max_abs_diff(&run.c, &syrk_full_reference(&a)), 0.0);
    }

    #[test]
    fn bandwidth_matches_tight_cost() {
        // Meaningful chunks only: each rank sends n1·n2/(c+1) words
        // (= W − n1n2/P, slightly under the padded eq. (10) analysis).
        let (n1, n2, c) = (36, 8, 3); // blocks of 4 rows, chunks of 8 words
        let a = seeded_matrix::<f64>(n1, n2, 4);
        let run = syrk_2d(&a, c, CostModel::bandwidth_only());
        let tight = alg2d_tight_cost(n1, n2, c);
        let measured = run.cost.max_words_sent() as f64;
        assert!(
            (measured - tight).abs() <= 1.0,
            "measured {measured} vs tight {tight}"
        );
        assert!(measured <= alg2d_predicted_cost(n1, n2, c) + 1.0);
        // Sparse pairwise exchange: one message per sharing partner (the
        // c² other members of R_k's processor sets — every chunk is
        // nonempty at this shape); partnerless pairs are skipped. The
        // padded variant keeps the dense P − 1 schedule.
        assert_eq!(run.cost.max_messages(), (c * c) as u64);
    }

    fn dist_p(c: usize) -> usize {
        c * (c + 1)
    }

    #[test]
    fn no_c_communication() {
        // Only parts of A move: total words = P · n1n2/(c+1) exactly when
        // the chunk sizes divide evenly.
        let (n1, n2, c) = (36, 8, 3);
        let a = seeded_matrix::<f64>(n1, n2, 8);
        let run = syrk_2d(&a, c, CostModel::bandwidth_only());
        let expect = dist_p(c) * n1 * n2 / (c + 1);
        assert_eq!(run.cost.total_words(), expect as u64);
    }

    #[test]
    fn flop_imbalance_is_only_the_diagonal_effect() {
        // c ranks compute no diagonal block; the imbalance must stay under
        // the ratio (off+diag)/off = 1 + O(1/c) (§5.2.3).
        let (n1, n2, c) = (36, 10, 3);
        let a = seeded_matrix::<f64>(n1, n2, 2);
        let run = syrk_2d(&a, c, CostModel::bandwidth_only());
        let imb = run.cost.flop_imbalance();
        // Off-diagonal work per rank: c(c−1)/2 gemms = 3 gemms of
        // 2·12²·10; diagonal adds ≤ one syrk of 12·13·10.
        assert!(imb > 1.0 && imb < 1.3, "imbalance {imb}");
    }

    #[test]
    fn total_flops_equal_symmetric_work() {
        // Σ flops = n1(n1+1)n2 + cross-block corrections: with exact
        // block division, off-diagonal gemms cover all inter-block pairs
        // and diagonal syrks the intra-block triangles.
        let (n1, n2, c) = (8, 6, 2);
        let a = seeded_matrix::<f64>(n1, n2, 1);
        let run = syrk_2d(&a, c, CostModel::bandwidth_only());
        let b = n1 / (c * c); // rows per block
        let c2 = c * c;
        let off = (c2 * (c2 - 1) / 2) as u64 * gemm_flops(b, b, n2);
        let diag = c2 as u64 * syrk_flops(b, n2);
        assert_eq!(run.cost.total_flops(), off + diag);
    }

    #[test]
    fn padded_variant_matches_eq10_exactly() {
        // Exact-division sizes: chunk = n1·n2/(c²(c+1)) with no rounding.
        let (n1, n2, c) = (36, 8, 3); // chunks of 36·8/(9·4) = 8 words
        let a = seeded_matrix::<f64>(n1, n2, 21);
        let spec = RunSpec {
            padded: true,
            ..RunSpec::new(Plan::TwoD { c }, CostModel::bandwidth_only())
        };
        let run = run(&a, &spec).unwrap().result;
        // Correctness unchanged.
        assert!(max_abs_diff(&run.c, &syrk_full_reference(&a)) < 1e-10);
        // Every rank ships P−1 blocks of the fixed size: eq. (10).
        let measured = run.cost.max_words_sent() as f64;
        let eq10 = alg2d_predicted_cost(n1, n2, c);
        assert!(
            (measured - eq10).abs() < 1e-9,
            "measured {measured} vs eq(10) {eq10}"
        );
        // And strictly more than the unpadded variant.
        let lean = syrk_2d(&a, c, CostModel::bandwidth_only());
        assert!(run.cost.max_words_sent() > lean.cost.max_words_sent());
    }
}
