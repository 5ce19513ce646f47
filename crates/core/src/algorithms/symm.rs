//! Distributed SYMM — `C = A·B` with a *symmetric* `A` (n×n, stored by
//! its lower triangle) and dense `B` (n×m) — the last of the paper's §6
//! future-work kernels ("symmetric matrix multiplication (SYMM)").
//!
//! The triangle block distribution now lives on the symmetric *input*:
//! processor `k` permanently owns the blocks `A_ij` with `i, j ∈ R_k`
//! (`i > j`, plus its diagonal block if assigned) — `A` never moves.
//! Each owned block serves double duty (`A_ij·B_j → C_i` and
//! `A_ijᵀ·B_i → C_j`), which is the symmetry saving. The communication
//! is two sparse exchanges over Algorithm 2's pair structure, one message
//! per partner that shares a row block (with a nonempty chunk):
//!
//! 1. **gather `B`**: rank `k` collects `B_j` for `j ∈ R_k` from the
//!    conformal distribution (`n·m/(c+1)` words) — Algorithm 2's
//!    exchange (`gather_row_blocks`) with `B` in `A`'s place, and
//! 2. **reduce `C`**: partial `C_i` contributions flow back along the
//!    same pairs, leaving `C_i` conformally distributed over `Q_i`
//!    (`n·m/(c+1)` words).
//!
//! Total: `2nm/(c+1) ≈ 2nm/√P` — independent of `n²`, i.e. the
//! `n × n` symmetric operand contributes **zero** communication.

use syrk_dense::{gemm_flops, mul_nn, Matrix};
use syrk_machine::{CostModel, CostReport, Machine};

use super::common::{check_shape, triangle_dist};
use super::twod::{gather_row_blocks, owned_blocks};
use crate::dist::ConformalADist;
use crate::error::SyrkError;

/// Result of a distributed SYMM run.
#[derive(Debug)]
pub struct SymmRunResult {
    /// `C = A·B` assembled (`n × m`).
    pub c: Matrix<f64>,
    /// Cost report of the run.
    pub cost: CostReport,
}

/// Run the 2D SYMM on `P = c(c+1)` simulated ranks. `a_sym` must be
/// symmetric (only its lower triangle is read); `b` is `n × m`. Errors
/// as [`run`](crate::run); a non-square `A` or a `B` of the wrong height
/// panics.
pub fn symm_2d(
    a_sym: &Matrix<f64>,
    b: &Matrix<f64>,
    c: usize,
    model: CostModel,
) -> Result<SymmRunResult, SyrkError> {
    let n = a_sym.rows();
    assert_eq!(a_sym.cols(), n, "SYMM needs a square symmetric A");
    assert_eq!(b.rows(), n, "B must have n rows");
    let m = b.cols();
    let dist = triangle_dist(c)?;
    check_shape(n, m)?;
    // Conformal layout of the n×m operands B and C over the c² row blocks.
    let bd = ConformalADist::new(&dist, n, m);
    let rows = &bd.rows;

    let machine = Machine::new(dist.p()).with_model(model);
    let out = machine.try_run(|comm| {
        let k = comm.rank();
        // Rank k's blocks of A are the blocks of C it would own in
        // Algorithm 2, addressed by position in `live` the same way.
        let live = &bd.live_blocks(k);
        let owned = owned_blocks(&dist, &bd, k, live);

        // Phase 1: gather B_j for j ∈ R_k.
        let b_blocks = gather_row_blocks(&comm, &dist, &bd, live, [b.view()], false)?;
        let b_blocks: Vec<Matrix<f64>> = b_blocks.into_iter().map(|[bj]| bj).collect();

        // Phase 2: local compute. partial[x] accumulates this rank's
        // contribution to C_i, i = live[x].
        let mut partial: Vec<Matrix<f64>> = (live.iter())
            .map(|&i| Matrix::zeros(rows.len(i), m))
            .collect();
        // A block row/col ranges follow the same row partition as B.
        let a_block = |bi: usize, bj: usize| -> Matrix<f64> {
            let (ri, rj) = (rows.range(bi), rows.range(bj));
            a_sym.block_owned(ri.start, rj.start, ri.len(), rj.len())
        };
        for &(x, y) in &owned.pairs {
            let aij = a_block(live[x], live[y]);
            // C_i += A_ij · B_j.
            partial[x].add_assign(&mul_nn(&aij, &b_blocks[y]));
            // C_j += A_ijᵀ · B_i  (= A_ji · B_i by symmetry): compute as
            // (B_iᵀ · A_ij)ᵀ without forming A_ijᵀ: use gemm_nt with
            // operands transposed — simplest is explicit transpose (the
            // block is small).
            partial[y].add_assign(&mul_nn(&aij.transpose(), &b_blocks[x]));
            comm.add_flops(2 * gemm_flops(aij.rows(), m, aij.cols()));
        }
        if let Some(x) = owned.diag {
            let aii = a_block(live[x], live[x]);
            // The diagonal block is symmetric; only its lower triangle is
            // authoritative, so symmetrize before multiplying.
            let mut full = aii.clone();
            for r in 0..full.rows() {
                for s in r + 1..full.cols() {
                    full[(r, s)] = full[(s, r)];
                }
            }
            partial[x].add_assign(&mul_nn(&full, &b_blocks[x]));
            comm.add_flops(gemm_flops(full.rows(), m, full.cols()));
        }

        // Phase 3: reduce C along the same pairs — rank k sends each other
        // member q of Q_i q's conformal chunk of its partial C_i, and
        // receives its own chunk from each of them. Every rank then sums
        // what it receives with its own chunk, in Q_i order, ending with
        // C conformally distributed.
        let mut sends: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut recvs: Vec<(usize, usize)> = Vec::new();
        for (&i, part_c) in live.iter().zip(&partial) {
            let part = bd.chunk_partition(i);
            let mine = part.len(dist.chunk_index(i, k));
            for (pos, &q) in dist.q_set(i).iter().enumerate() {
                if q == k {
                    continue;
                }
                if part.len(pos) > 0 {
                    sends.push((q, part_c.as_slice()[part.range(pos)].to_vec()));
                }
                if mine > 0 {
                    recvs.push((q, mine));
                }
            }
        }
        let received = comm.try_all_to_all_sparse(sends, &recvs)?;
        // Final owned chunks: for each live i, my chunk of C_i = my
        // partial chunk + the chunks received from the other Q_i members
        // (in the order the receive plan was built, so a cursor pairs
        // them up).
        let mut received = received.iter();
        let chunks = (live.iter().zip(&partial))
            .map(|(&i, part_c)| {
                let part = bd.chunk_partition(i);
                let mut acc = part_c.as_slice()[part.range(dist.chunk_index(i, k))].to_vec();
                for _ in 0..dist.c() {
                    if !acc.is_empty() {
                        let inc = received.next().expect("one chunk per partner");
                        for (a, b) in acc.iter_mut().zip(inc) {
                            *a += b;
                        }
                    }
                    comm.add_flops(acc.len() as u64);
                }
                (i, acc)
            })
            .collect::<Vec<_>>();
        Ok(chunks)
    })?;

    // Assembly: each rank's chunk of C_i is its conformal slice of the
    // rows of C_i, which lie contiguously in `c_full`.
    let mut c_full = Matrix::zeros(n, m);
    for (k, chunks) in out.results.iter().enumerate() {
        for (i, chunk) in chunks {
            let base = rows.range(*i).start * m;
            let r = bd.chunk_partition(*i).range(dist.chunk_index(*i, k));
            c_full.as_mut_slice()[base + r.start..base + r.end].copy_from_slice(chunk);
        }
    }
    Ok(SymmRunResult {
        c: c_full,
        cost: out.cost,
    })
}

/// Sequential reference: `C = sym(A)·B` where only the lower triangle of
/// `a_sym` is trusted.
pub fn symm_reference(a_sym: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let n = a_sym.rows();
    let mut full = a_sym.clone();
    for i in 0..n {
        for j in i + 1..n {
            full[(i, j)] = full[(j, i)];
        }
    }
    mul_nn(&full, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::{max_abs_diff, seeded_int_matrix, seeded_matrix};

    fn symmetric(n: usize, seed: u64) -> Matrix<f64> {
        let raw = seeded_matrix::<f64>(n, n, seed);
        let mut s = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                s[(i, j)] = raw[(i, j)] + raw[(j, i)];
            }
        }
        s
    }

    #[test]
    fn symm_correct_various_shapes() {
        for &(n, m, c) in &[(8usize, 3usize, 2usize), (18, 5, 3), (27, 4, 3), (10, 2, 3)] {
            let a = symmetric(n, (n + m) as u64);
            let b = seeded_matrix::<f64>(n, m, 77);
            let run = symm_2d(&a, &b, c, CostModel::bandwidth_only()).unwrap();
            let err = max_abs_diff(&run.c, &symm_reference(&a, &b));
            assert!(err < 1e-9, "(n={n},m={m},c={c}): {err}");
        }
        // n < c²: most row blocks are empty.
        for &(n, m, c) in &[(5usize, 7usize, 3usize), (3, 4, 4), (10, 3, 5), (1, 1, 2)] {
            let raw = seeded_int_matrix::<f64>(n, n, 3, (n + m) as u64);
            let a = Matrix::from_fn(n, n, |i, j| raw[(i, j)] + raw[(j, i)]);
            let b = seeded_int_matrix::<f64>(n, m, 3, 77);
            let run = symm_2d(&a, &b, c, CostModel::bandwidth_only()).unwrap();
            let err = max_abs_diff(&run.c, &symm_reference(&a, &b));
            assert_eq!(err, 0.0, "(n={n},m={m},c={c})");
        }
    }

    #[test]
    fn symm_exact_with_integer_data() {
        let n = 16;
        let raw = seeded_int_matrix::<f64>(n, n, 3, 5);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                a[(i, j)] = raw[(i, j)];
                a[(j, i)] = raw[(i, j)];
            }
        }
        let b = seeded_int_matrix::<f64>(n, 4, 3, 6);
        let run = symm_2d(&a, &b, 2, CostModel::bandwidth_only()).unwrap();
        assert_eq!(max_abs_diff(&run.c, &symm_reference(&a, &b)), 0.0);
    }

    #[test]
    fn a_never_moves_and_comm_is_2nm_over_c_plus_1() {
        // The headline property of symmetric-input SYMM: communication is
        // independent of n² — only B and C move, 2·nm/(c+1) words/rank.
        let (n, m, c) = (36usize, 8usize, 3usize);
        let a = symmetric(n, 9);
        let b = seeded_matrix::<f64>(n, m, 10);
        let run = symm_2d(&a, &b, c, CostModel::bandwidth_only()).unwrap();
        let expect = 2 * n * m / (c + 1);
        let measured = run.cost.max_words_sent() as usize;
        assert!(
            measured.abs_diff(expect) <= c * c,
            "measured {measured}, expected ~{expect}"
        );
        // Doubling n (with m fixed) must NOT double the communication…
        let a2 = symmetric(2 * n, 11);
        let b2 = seeded_matrix::<f64>(2 * n, m, 12);
        let run2 = symm_2d(&a2, &b2, c, CostModel::bandwidth_only()).unwrap();
        // …it exactly doubles with n·m (linear in n), not with n².
        let ratio = run2.cost.max_words_sent() as f64 / run.cost.max_words_sent() as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn two_all_to_alls_of_latency() {
        // One message per partner that shares a row block, in each of the
        // two exchanges: 2·c², not the dense schedule's 2(P − 1).
        let (n, m, c) = (18usize, 4usize, 3usize);
        let a = symmetric(n, 1);
        let b = seeded_matrix::<f64>(n, m, 2);
        let run = symm_2d(&a, &b, c, CostModel::bandwidth_only()).unwrap();
        assert_eq!(run.cost.max_messages(), 2 * (c * c) as u64);
    }
}
