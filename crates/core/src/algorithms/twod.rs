//! Algorithm 2: 2D SYRK (§5.2), the body every slice of the grid runs.
//!
//! `C` is laid out by the Triangle Block Distribution; each processor
//! gathers the `c` row blocks of `A` in its row block set `R_k` via a
//! single `All-to-All` (each pair of processors shares at most one row
//! block, so the exchange pattern is exactly personalized all-to-all),
//! then computes its `c(c−1)/2` off-diagonal blocks with local GEMMs and
//! its diagonal block (if assigned) with a local SYRK. No contribution to
//! `C` is ever communicated — only parts of `A`. The driver that runs this
//! body on each slice, for all three algorithms, is `threed::run_grid`;
//! §6's panel variant, `syrk_2d_limited`, streams it over the columns.

use std::ops::Range;
use std::sync::Arc;

use syrk_dense::{
    balanced_chunks_by_cost, gemm_flops, gemm_nt, mul_nt, par_for_each_task, steal_task_count,
    syr2k_packed, syrk_flops, syrk_packed, workers_for_flops, Matrix, MatrixView, PackedLower,
    Partition1D,
};
use syrk_machine::{Comm, MachineError};

use super::common::{DiagBlock, LocalOutput, OffDiagBlock};
use super::run::RunSpec;
use crate::abft::{block_check_flops, verify_diag_block, verify_offdiag_block, PHASE_ABFT};
use crate::attribution::{PHASE_ALLGATHER_A, PHASE_LOCAL_GEMM, PHASE_LOCAL_SYRK};
use crate::dist::{ConformalADist, TriangleBlockDist};

/// The SPMD body of Algorithm 2 on one slice of the grid (Alg. 3 line 3).
/// `ops` are the slice's `n1 × n2_local` block columns of the inputs,
/// read where they lie: `[A]` runs SYRK, `[A, B]` SYR2K. `comm.size()`
/// must be `dist.p()`. Of `spec` the body reads `padded` and, for SYRK
/// only, `abft`. The exchange is [`gather_row_blocks`] and the local step
/// [`local_step`].
///
/// The columns stream in `panels` near-even panels (1 for every `Plan`),
/// each one exchange and one local step into the same owned blocks; only
/// several panels skip an empty one, so a 3D slice with no columns still
/// runs its exchange. A one-rank slice (Algorithm 1's) holds its one row
/// block whole: it exchanges nothing, and its local step is one SYRK (or
/// SYR2K) of `ops`.
pub(crate) fn slice_body<const N: usize>(
    comm: &Comm,
    dist: &TriangleBlockDist,
    ops: [MatrixView<'_, f64>; N],
    spec: &RunSpec,
    panels: usize,
) -> Result<LocalOutput, MachineError> {
    assert_eq!(comm.size(), dist.p(), "a slice has dist.p() ranks");
    debug_assert!(N == 1 || !spec.abft, "ABFT checks SYRK's blocks only");
    debug_assert!(panels == 1 || !spec.abft, "ABFT checks whole blocks only");
    let (k, n1, one_rank) = (comm.rank(), ops[0].rows(), dist.p() == 1);
    let widths = Partition1D::new(ops[0].cols(), panels);
    let (mut live, mut owned) = (Vec::new(), None);
    let runs = |cols: &Range<usize>| panels == 1 || !cols.is_empty();
    for cols in (0..panels).map(|q| widths.range(q)).filter(runs) {
        let ad = ConformalADist::new(dist, n1, cols.len());
        let ops = ops.map(|m| m.sub(0, cols.start, n1, cols.len()));
        if owned.is_none() {
            live = ad.live_blocks(k);
        }
        // Lines 3–14, the phase Theorem 1's Case-2 `n1·n2/√P` term charges.
        // A rank notes what its local step reads, gathered blocks plus own
        // staged chunks, never its outputs; a one-rank slice gathers
        // nothing, and notes its one chunk, its columns, under `local-syrk`.
        let gathered = {
            let _span = comm.phase(if one_rank {
                PHASE_LOCAL_SYRK
            } else {
                PHASE_ALLGATHER_A
            });
            let gathered = if one_rank {
                Vec::new()
            } else {
                gather_row_blocks(comm, dist, &ad, &live, ops, spec.padded)?
            };
            comm.note_buffer(
                gathered.iter().flatten().map(Matrix::len).sum::<usize>()
                    + N * live.iter().map(|&i| ad.chunk_len(i, k)).sum::<usize>(),
            );
            gathered
        };
        // Allocated after the first exchange: with 10³ ranks in one process
        // no rank's blocks live through every other rank's exchange.
        let owned = owned.get_or_insert_with(|| owned_blocks(dist, &ad, k, &live));
        panel_step(comm, owned, &gathered, ops, spec)?;
    }
    Ok(owned.expect("a slice runs at least one panel").out)
}

/// One panel's local step (lines 15–20) and ABFT checks; a one-rank
/// slice gathers nothing and its row block is `ops`. Out of line, to keep
/// the frame under every exchange small: on `sim_ranks` most of the 2256
/// rank stacks end a few bytes short of a second page.
#[inline(never)]
fn panel_step<const N: usize>(
    comm: &Comm,
    owned: &mut OwnedBlocks,
    gathered: &[[Matrix<f64>; N]],
    ops: [MatrixView<'_, f64>; N],
    spec: &RunSpec,
) -> Result<(), MachineError> {
    let n2 = ops[0].cols();
    let block = |x: usize| {
        gathered
            .get(x)
            .map_or(ops, |g| g.each_ref().map(Matrix::view))
    };
    // SYR2K's C_ij = A_i·B_jᵀ + B_i·A_jᵀ is two products and one add:
    // folding the second product into the first's accumulation would
    // round differently.
    local_step(
        comm,
        owned,
        n2,
        N as u64,
        |cij, x, y| match (&gathered[x][..], &gathered[y][..]) {
            ([ai], [aj]) => gemm_nt(cij, ai.view(), aj.view()),
            ([ai, bi], [aj, bj]) => {
                gemm_nt(cij, ai.view(), bj.view());
                cij.add_assign(&mul_nt(bi, aj));
            }
            _ => unreachable!("SYRK has one operand, SYR2K two"),
        },
        |cii, x| match block(x).as_slice() {
            [ai] => syrk_packed(cii, *ai),
            [ai, bi] => syr2k_packed(cii, *ai, *bi),
            _ => unreachable!("SYRK has one operand, SYR2K two"),
        },
    );

    // ABFT: check every produced block against its row checksums,
    // `C_ij·1 = A_i·(A_jᵀ·1)`, before it leaves this rank.
    if spec.abft {
        let _span = comm.phase(PHASE_ABFT);
        let corrupt = |detail| MachineError::DataCorruption {
            rank: comm.world_rank(),
            detail,
        };
        for (blk, &(x, y)) in owned.out.offdiag.iter().zip(&owned.pairs) {
            let (ai, aj) = (block(x)[0], block(y)[0]);
            comm.add_flops(block_check_flops(ai.rows(), aj.rows(), n2));
            verify_offdiag_block(ai, aj, &blk.data, blk.i, blk.j).map_err(&corrupt)?;
        }
        if let (Some(x), Some(blk)) = (owned.diag, owned.out.diag.first()) {
            let ai = block(x)[0];
            comm.add_flops(block_check_flops(ai.rows(), ai.rows(), n2));
            verify_diag_block(ai, &blk.data, blk.i).map_err(&corrupt)?;
        }
    }
    Ok(())
}

/// The blocks of `C` rank `k` owns (§5.2, Alg. 2 lines 15–20), which are
/// also the `C_k` Algorithm 3 reduce-scatters (§5.3 lines 3–5).
pub(crate) struct OwnedBlocks {
    /// Each block of `out.offdiag` as the positions `(x, y)`, `y < x`, of
    /// its row blocks in `live`.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// The position of `D_k` in `live`, when `D_k` is assigned and live.
    pub(crate) diag: Option<usize>,
    /// The blocks, zero-filled: `offdiag` in `blocks_of(k)` order, then
    /// `diag` with the diagonal block, if any.
    pub(crate) out: LocalOutput,
}

/// The one enumeration of what rank `k` owns, by position in `live`, its
/// row blocks that have rows (`ad.live_blocks(k)`). A pair or a diagonal
/// with a block without rows is dropped (`n1 < c²` leaves most row blocks
/// empty, and `D_k` may name one): at 10⁴ ranks materializing the
/// ~`P·c²/2` zero-sized pairs would cost more than the whole exchange.
/// Live means rows, not words, and the list depends on `ad` only through
/// its rows, so the `p2` slices of a 3D grid row (one may have no
/// columns) and the host assembling their `C_k` all see the same blocks
/// in one order.
pub(crate) fn owned_blocks(
    dist: &TriangleBlockDist,
    ad: &ConformalADist,
    k: usize,
    live: &[usize],
) -> OwnedBlocks {
    let rows = &ad.rows;
    let pairs: Vec<(usize, usize)> = (0..live.len())
        .flat_map(|x| (0..x).map(move |y| (x, y)))
        .collect();
    let offdiag = (pairs.iter())
        .map(|&(x, y)| {
            let (i, j) = (live[x], live[y]);
            let data = Matrix::zeros(rows.len(i), rows.len(j));
            OffDiagBlock { i, j, data }
        })
        .collect();
    let diag = dist.d_block(k).and_then(|i| live.binary_search(&i).ok());
    let diag_block = diag.map(|x| DiagBlock {
        i: live[x],
        data: PackedLower::zeros(rows.len(live[x])),
    });
    let out = LocalOutput {
        offdiag,
        diag: diag_block.into_iter().collect(),
    };
    OwnedBlocks { pairs, diag, out }
}

/// Algorithm 2's local step (lines 15–20) into `owned`'s blocks, whose
/// row blocks the closures address by position in the live list: `pair`
/// adds into each off-diagonal block `(x, y)`, `diag` into the diagonal
/// block `x`. Every operand has `n2` columns, and a block takes `updates`
/// rank-`n2` updates (SYRK's `A_i·A_jᵀ`, SYR2K's `A_i·B_jᵀ + B_i·A_jᵀ`),
/// charged as `updates·gemm_flops` per pair in pair order before the
/// products run, then `updates·syrk_flops` for the diagonal. The pairs
/// run as flop-balanced chunks on the kernel runtime, or on this thread
/// when the list is too small to pay for a worker. They run in the
/// `local-gemm` phase and the diagonal in `local-syrk`.
pub(crate) fn local_step(
    comm: &Comm,
    owned: &mut OwnedBlocks,
    n2: usize,
    updates: u64,
    pair: impl Fn(&mut Matrix<f64>, usize, usize) + Sync,
    diag: impl FnOnce(&mut PackedLower<f64>, usize),
) {
    let gemm_span = comm.phase(PHASE_LOCAL_GEMM);
    let costs: Vec<u64> = (owned.out.offdiag.iter())
        .map(|blk| {
            let (ri, rj) = blk.data.shape();
            updates * gemm_flops(ri, rj, n2)
        })
        .collect();
    for &f in &costs {
        comm.add_flops(f);
    }
    // Oversubscribe chunks past the worker count so the runtime's task
    // cursor can even out uneven block sizes.
    let workers = workers_for_flops(costs.iter().sum());
    let mut rest = owned.out.offdiag.as_mut_slice();
    let mut tasks = Vec::new();
    for r in balanced_chunks_by_cost(&costs, steal_task_count(workers), 1) {
        let (head, tail) = rest.split_at_mut(r.len());
        tasks.push((&owned.pairs[r], head));
        rest = tail;
    }
    par_for_each_task(tasks, |_, (pairs, blocks)| {
        for (blk, &(x, y)) in blocks.iter_mut().zip(pairs) {
            pair(&mut blk.data, x, y);
        }
    });
    drop(gemm_span);

    if let (Some(x), Some(blk)) = (owned.diag, owned.out.diag.first_mut()) {
        let _span = comm.phase(PHASE_LOCAL_SYRK);
        diag(&mut blk.data, x);
        comm.add_flops(updates * syrk_flops(blk.data.n(), n2));
    }
}

/// Algorithm 2's exchange (§5.2 lines 3–14), the one place it is
/// planned: rank `k` ships its chunk of each live row block `A_i`,
/// `i ∈ R_k`, to the other `c` members of `Q_i`, then reassembles each
/// `A_i` from the chunks of `Q_i`. `live` is `ad.live_blocks(k)`; the
/// result is parallel to it, one block per operand. Each operand is
/// distributed conformally by `ad`: SYRK passes `A` (or one panel of
/// it), and SYR2K both `A` and `B`, whose chunks for a partner travel
/// back to back in one message. A single
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
fn gather_row_blocks<const N: usize>(
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
        // At most `c` partners per live block: sized once, never doubled.
        let mut sends: Vec<(usize, Arc<[f64]>)> = Vec::with_capacity(live.len() * dist.c());
        let mut recvs: Vec<(usize, usize)> = Vec::with_capacity(live.len() * dist.c());
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

#[cfg(test)]
mod tests {
    use crate::bounds::{alg2d_predicted_cost, alg2d_tight_cost};
    use crate::{run, syrk_2d_limited, try_syrk_2d, Plan, RunSpec};
    use syrk_dense::{gemm_flops, syrk_flops, Matrix};
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
            let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
            let err = max_abs_diff(&run.c, &syrk_full_reference(&a));
            assert!(err < 1e-10, "({n1},{n2},c={c}): err {err}");
        }
    }

    #[test]
    fn correct_for_c5() {
        // P = 30 ranks, 25 row blocks.
        let a = seeded_int_matrix::<f64>(50, 6, 4, 77);
        let run = try_syrk_2d(&a, 5, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(max_abs_diff(&run.c, &syrk_full_reference(&a)), 0.0);
    }

    #[test]
    fn bandwidth_matches_tight_cost() {
        // Meaningful chunks only: each rank sends n1·n2/(c+1) words
        // (= W − n1n2/P, slightly under the padded eq. (10) analysis).
        let (n1, n2, c) = (36, 8, 3); // blocks of 4 rows, chunks of 8 words
        let a = seeded_matrix::<f64>(n1, n2, 4);
        let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
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
        let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
        let expect = dist_p(c) * n1 * n2 / (c + 1);
        assert_eq!(run.cost.total_words(), expect as u64);
    }

    #[test]
    fn flop_imbalance_is_only_the_diagonal_effect() {
        // c ranks compute no diagonal block; the imbalance must stay under
        // the ratio (off+diag)/off = 1 + O(1/c) (§5.2.3).
        let (n1, n2, c) = (36, 10, 3);
        let a = seeded_matrix::<f64>(n1, n2, 2);
        let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
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
        let run = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
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
        let lean = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
        assert!(run.cost.max_words_sent() > lean.cost.max_words_sent());
    }

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
        // bit, against the direct entry point — at a full shape and at
        // n1 < c² (most blocks dead).
        let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (n1, n2, c) in [(16, 10, 2), (3, 4, 4)] {
            let a = seeded_int_matrix::<f64>(n1, n2, 4, 7);
            let lim = syrk_2d_limited(&a, c, 1, CostModel::bandwidth_only()).unwrap();
            let std = try_syrk_2d(&a, c, CostModel::bandwidth_only(), None).unwrap();
            assert_eq!(bits(&lim.c), bits(&std.c), "{n1}x{n2} c={c}");
            for (rank, (l, s)) in lim.cost.ranks.iter().zip(&std.cost.ranks).enumerate() {
                let counts =
                    |r: &syrk_machine::RankCost| [r.words_sent, r.words_recv, r.msgs_sent, r.flops];
                assert_eq!(counts(l), counts(s), "{n1}x{n2} c={c} rank {rank}");
            }
        }
    }

    #[test]
    fn one_panel_peak_buffer_is_algorithm_2s() {
        // At E16's shape one panel stages the same chunks as Algorithm 2,
        // so both count the same peak transient buffer.
        let a = seeded_matrix::<f64>(72, 96, 14);
        let lim = syrk_2d_limited(&a, 3, 1, CostModel::bandwidth_only()).unwrap();
        let std = try_syrk_2d(&a, 3, CostModel::bandwidth_only(), None).unwrap();
        assert_eq!(lim.cost.max_peak_buffer(), 2880);
        assert_eq!(std.cost.max_peak_buffer(), 2880);
    }

    #[test]
    fn one_panel_is_algorithm_2() {
        // `C` to the bit and the whole cost report: every per-rank and
        // per-phase counter, the clocks and the phase names — at a full
        // shape, at n1 < c² (most blocks dead) and at E16's shape.
        let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for model in [CostModel::bandwidth_only(), CostModel::typical()] {
            for (n1, n2, c) in [(16, 10, 2), (3, 4, 4), (72, 96, 3)] {
                let a = seeded_int_matrix::<f64>(n1, n2, 4, 7);
                let lim = syrk_2d_limited(&a, c, 1, model).unwrap();
                let two = run(&a, &RunSpec::new(Plan::TwoD { c }, model))
                    .unwrap()
                    .result;
                let label = format!("{n1}x{n2} c={c} {model:?}");
                assert_eq!(bits(&lim.c), bits(&two.c), "{label}");
                assert_eq!(lim.cost.ranks, two.cost.ranks, "{label}");
                assert_eq!(lim.cost.phases, two.cost.phases, "{label}");
            }
        }
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
