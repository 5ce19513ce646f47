//! Distributed SYMM — `C = A·B` with a *symmetric* `A` (n×n, stored by
//! its lower triangle) and dense `B` (n×m) — the last of the paper's §6
//! future-work kernels ("symmetric matrix multiplication (SYMM)").
//!
//! The triangle block distribution now lives on the symmetric *input*:
//! processor `k` permanently owns the blocks `A_ij` with `i, j ∈ R_k`
//! (`i > j`, plus its diagonal block if assigned) — `A` never moves.
//! Each owned block serves double duty (`A_ij·B_j → C_i` and
//! `A_ijᵀ·B_i → C_j`), which is the symmetry saving. The communication
//! is two personalized All-to-Alls over the same pair structure as
//! Algorithm 2:
//!
//! 1. **gather `B`**: rank `k` collects `B_j` for `j ∈ R_k` from the
//!    conformal distribution (`n·m/(c+1)` words), and
//! 2. **reduce `C`**: partial `C_i` contributions flow back along the
//!    same pairs, leaving `C_i` conformally distributed over `Q_i`
//!    (`n·m/(c+1)` words).
//!
//! Total: `2nm/(c+1) ≈ 2nm/√P` — independent of `n²`, i.e. the
//! `n × n` symmetric operand contributes **zero** communication.

use syrk_dense::{gemm_flops, mul_nn, Matrix};
use syrk_machine::{CostModel, Machine};

use crate::dist::{ConformalADist, TriangleBlockDist};
use syrk_machine::CostReport;

/// Result of a distributed SYMM run.
#[derive(Debug)]
pub struct SymmRunResult {
    /// `C = A·B` assembled (`n × m`).
    pub c: Matrix<f64>,
    /// Cost report of the run.
    pub cost: CostReport,
}

/// Run the 2D SYMM on `P = c(c+1)` simulated ranks. `a_sym` must be
/// symmetric (only its lower triangle is read); `b` is `n × m`.
pub fn symm_2d(a_sym: &Matrix<f64>, b: &Matrix<f64>, c: usize, model: CostModel) -> SymmRunResult {
    let n = a_sym.rows();
    assert_eq!(a_sym.cols(), n, "SYMM needs a square symmetric A");
    assert_eq!(b.rows(), n, "B must have n rows");
    let m = b.cols();
    let dist = TriangleBlockDist::for_order(c)
        .unwrap_or_else(|| panic!("no triangle block construction for c = {c}"));
    // Conformal layout of the n×m operands B and C over the c² row blocks.
    let bd = ConformalADist::new(&dist, n, m);
    let rows = &bd.rows;

    let machine = Machine::new(dist.p()).with_model(model);
    let out = machine.run(|comm| {
        let k = comm.rank();
        let my_chunk = |i: usize| bd.extract_chunk(b.view(), i, k);

        // Phase 1: gather B_j for j ∈ R_k (identical pattern to Alg. 2's
        // A gather).
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
                (i, bd.assemble_block(i, chunks))
            })
            .collect();
        let b_block = |i: usize| {
            &gathered
                .iter()
                .find(|&&(bi, _)| bi == i)
                .expect("j ∈ R_k gathered")
                .1
        };

        // Phase 2: local compute. partial[i] accumulates this rank's
        // contribution to C_i, for each i ∈ R_k.
        let mut partial: Vec<(usize, Matrix<f64>)> = dist
            .r_set(k)
            .iter()
            .map(|&i| (i, Matrix::zeros(rows.len(i), m)))
            .collect();
        let mut add_into = |i: usize, contrib: &Matrix<f64>| {
            let slot = partial
                .iter_mut()
                .find(|(bi, _)| *bi == i)
                .expect("contribution targets an owned row block");
            slot.1.add_assign(contrib);
        };
        // A block row/col ranges follow the same row partition as B.
        let a_block = |bi: usize, bj: usize| -> Matrix<f64> {
            let (ri, rj) = (rows.range(bi), rows.range(bj));
            a_sym.block_owned(ri.start, rj.start, ri.len(), rj.len())
        };
        for (i, j) in dist.blocks_of(k) {
            let aij = a_block(i, j);
            // C_i += A_ij · B_j.
            add_into(i, &mul_nn(&aij, b_block(j)));
            // C_j += A_ijᵀ · B_i  (= A_ji · B_i by symmetry): compute as
            // (B_iᵀ · A_ij)ᵀ without forming A_ijᵀ: use gemm_nt with
            // operands transposed — simplest is explicit transpose (the
            // block is small).
            add_into(j, &mul_nn(&aij.transpose(), b_block(i)));
            comm.add_flops(2 * gemm_flops(aij.rows(), m, aij.cols()));
        }
        if let Some(i) = dist.d_block(k) {
            let aii = a_block(i, i);
            // The diagonal block is symmetric; only its lower triangle is
            // authoritative, so symmetrize before multiplying.
            let mut full = aii.clone();
            for r in 0..full.rows() {
                for s in r + 1..full.cols() {
                    full[(r, s)] = full[(s, r)];
                }
            }
            add_into(i, &mul_nn(&full, b_block(i)));
            comm.add_flops(gemm_flops(full.rows(), m, full.cols()));
        }

        // Phase 3: reduce C along the same pair structure — rank k sends
        // to k' the chunk (k'’s conformal slice) of its partial C_i for
        // the shared block i; every rank then sums what it receives with
        // its own slice, ending with C conformally distributed.
        let chunk_of = |mat: &Matrix<f64>, i: usize, owner: usize| -> Vec<f64> {
            let part = syrk_dense::Partition1D::new(mat.len(), dist.c() + 1);
            let flat = mat.as_slice();
            flat[part.range(dist.chunk_index(i, owner))].to_vec()
        };
        let c_blocks: Vec<Vec<f64>> = (0..comm.size())
            .map(|k2| {
                if k2 == k {
                    return Vec::new();
                }
                match dist.common_block(k, k2) {
                    Some(i) => {
                        let mat = &partial
                            .iter()
                            .find(|(bi, _)| *bi == i)
                            .expect(
                                "common_block(k, k2) = Some(i) implies i ∈ R_k, and `partial` \
                                 holds one accumulator per block of R_k",
                            )
                            .1;
                        chunk_of(mat, i, k2)
                    }
                    None => Vec::new(),
                }
            })
            .collect();
        let c_recv = comm.all_to_all(c_blocks);
        // Final owned chunks: for each i ∈ R_k, my slice of C_i = my
        // partial slice + the slices received from the other Q_i members.
        let mut final_chunks: Vec<(usize, Vec<f64>)> = Vec::with_capacity(dist.r_set(k).len());
        for &(i, ref mat) in &partial {
            let mut acc = chunk_of(mat, i, k);
            for &q in dist.q_set(i) {
                if q == k {
                    continue;
                }
                let inc = &c_recv[q];
                assert_eq!(inc.len(), acc.len(), "C-reduce chunk length mismatch");
                for (a, b) in acc.iter_mut().zip(inc) {
                    *a += b;
                }
                comm.add_flops(acc.len() as u64);
            }
            final_chunks.push((i, acc));
        }
        final_chunks
    });

    // Assembly: collect each C_i's chunks (in Q_i order) and reconstruct.
    let mut c_full = Matrix::zeros(n, m);
    for i in 0..dist.num_blocks() {
        let chunks: Vec<Vec<f64>> = dist
            .q_set(i)
            .iter()
            .map(|&k| {
                out.results[k]
                    .iter()
                    .find(|(bi, _)| *bi == i)
                    .expect("every Q_i member ends with a chunk of C_i")
                    .1
                    .clone()
            })
            .collect();
        let block = bd.assemble_block(i, &chunks);
        c_full.set_block(rows.range(i).start, 0, &block);
    }
    SymmRunResult {
        c: c_full,
        cost: out.cost,
    }
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
            let run = symm_2d(&a, &b, c, CostModel::bandwidth_only());
            let err = max_abs_diff(&run.c, &symm_reference(&a, &b));
            assert!(err < 1e-9, "(n={n},m={m},c={c}): {err}");
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
        let run = symm_2d(&a, &b, 2, CostModel::bandwidth_only());
        assert_eq!(max_abs_diff(&run.c, &symm_reference(&a, &b)), 0.0);
    }

    #[test]
    fn a_never_moves_and_comm_is_2nm_over_c_plus_1() {
        // The headline property of symmetric-input SYMM: communication is
        // independent of n² — only B and C move, 2·nm/(c+1) words/rank.
        let (n, m, c) = (36usize, 8usize, 3usize);
        let a = symmetric(n, 9);
        let b = seeded_matrix::<f64>(n, m, 10);
        let run = symm_2d(&a, &b, c, CostModel::bandwidth_only());
        let expect = 2 * n * m / (c + 1);
        let measured = run.cost.max_words_sent() as usize;
        assert!(
            measured.abs_diff(expect) <= c * c,
            "measured {measured}, expected ~{expect}"
        );
        // Doubling n (with m fixed) must NOT double the communication…
        let a2 = symmetric(2 * n, 11);
        let b2 = seeded_matrix::<f64>(2 * n, m, 12);
        let run2 = symm_2d(&a2, &b2, c, CostModel::bandwidth_only());
        // …it exactly doubles with n·m (linear in n), not with n².
        let ratio = run2.cost.max_words_sent() as f64 / run.cost.max_words_sent() as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn two_all_to_alls_of_latency() {
        let (n, m, c) = (18usize, 4usize, 3usize);
        let a = symmetric(n, 1);
        let b = seeded_matrix::<f64>(n, m, 2);
        let run = symm_2d(&a, &b, c, CostModel::bandwidth_only());
        let p = c * (c + 1);
        assert_eq!(run.cost.max_messages(), 2 * (p - 1) as u64);
    }
}
