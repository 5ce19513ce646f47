//! General matrix multiplication kernels.
//!
//! Two operation shapes are provided, both accumulating into `C`:
//!
//! * [`gemm_nn`]: `C += A·B`     (`A: m×k`, `B: k×n`, `C: m×n`)
//! * [`gemm_nt`]: `C += A·Bᵀ`    (`A: m×k`, `B: n×k`, `C: m×n`)
//!
//! `gemm_nt` is the shape the SYRK algorithms use for off-diagonal blocks
//! (`C_ij = A_i · A_jᵀ`, Alg. 2 line 16). Both take `MatrixView` operands,
//! blocks of a larger matrix where they lie ([`mul_nt`] and [`mul_nn`] wrap
//! owned ones), and have a `_ref` twin. The packed, register-blocked kernel
//! builds on [`crate::microkernel`]: the operands are packed into k-major
//! micro-panels per `KC`-wide panel of the inner dimension, and an
//! `MR × NR` register tile is accumulated per inner call. Parallelism is
//! over disjoint row chunks of `C`, work-stolen from per-worker deques
//! (see [`crate::parallel`]); the B-side pack of each inner panel is a
//! [`SharedPack`] published `NC`-column block by block, each packed
//! exactly once by whichever worker first sweeps it, while A row blocks
//! are packed per task into [`crate::arena`] buffers. Every `C` element
//! is accumulated in ascending-k order regardless of blocking, task
//! placement or thread count, so results are deterministic. A `C` of at most
//! [`SMALL_OUTPUT_CUTOFF`] entries skips all of this: its entries are
//! direct chains with the same op sequence ([`crate::direct`]).

use crate::arena;
use crate::matrix::Matrix;
use crate::microkernel::{store_add, MAX_ACC};
use crate::pack::{
    pack_cols_into, pack_rows, pack_rows_into, packed_panel_len, panel_offset, SharedPack,
};
use crate::parallel::{
    par_for_each_task, steal_task_count, workers_for_flops, SMALL_OUTPUT_CUTOFF,
};
use crate::scalar::Scalar;
use crate::schedule::balanced_chunks_by_cost;
use crate::view::MatrixView;
use std::ops::Range;

/// Flops performed by `C += A·B` with `A: m×k`, `B: k×n`
/// (a multiply and an add per inner iteration).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// Reference `C += A·B`. Row-major ikj loop order.
pub fn gemm_nn_ref<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "gemm_nn: inner dimensions {k} vs {k2}");
    assert_eq!(c.shape(), (m, n), "gemm_nn: output shape mismatch");
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj = aip.mul_add(bj, *cj);
            }
        }
    }
}

/// Reference `C += A·Bᵀ`. Dot products of rows.
pub fn gemm_nt_ref<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(k, k2, "gemm_nt: inner dimensions {k} vs {k2}");
    assert_eq!(c.shape(), (m, n), "gemm_nt: output shape mismatch");
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let brow = b.row(j);
            let mut acc = T::zero();
            for (&x, &y) in arow.iter().zip(brow) {
                acc = x.mul_add(y, acc);
            }
            c[(i, j)] += acc;
        }
    }
}

/// Evenly sized `mr`-aligned row chunks of `m` rows, at most `parts` of
/// them (callers oversubscribe the worker count so load evens out).
fn row_chunks(m: usize, parts: usize, mr: usize) -> Vec<Range<usize>> {
    balanced_chunks_by_cost(&vec![1u64; m], parts, mr)
}

/// Split `c`'s backing slice at chunk row boundaries (rows are contiguous
/// in a row-major matrix, so each chunk is one disjoint sub-slice).
fn split_rows<'c, T: Scalar>(
    c: &'c mut Matrix<T>,
    chunks: &[Range<usize>],
) -> Vec<(Range<usize>, &'c mut [T])> {
    let cols = c.cols();
    let mut rest = c.as_mut_slice();
    let mut out = Vec::with_capacity(chunks.len());
    for r in chunks {
        let (head, tail) = rest.split_at_mut(r.len() * cols);
        out.push((r.clone(), head));
        rest = tail;
    }
    out
}

/// The packed-kernel GEMM driver. The tile geometry and blocking come
/// from the dispatched [`crate::microkernel::KernelSpec`], resolved once
/// per call so every tile of one GEMM runs the same kernel. The B-side
/// pack of the current inner panel is a [`SharedPack`] over all `n`
/// packed columns, published in `nc`-column blocks by whichever worker
/// first sweeps each window; `pack_b(cols, ks, nr, dst)` fills one such
/// block for inner range `ks` at lane width `nr`. Each task packs its
/// own A row blocks into an arena buffer and sweeps register tiles.
/// Needs nonempty operands.
pub(crate) fn gemm_driver<T: Scalar>(
    c: &mut Matrix<T>,
    a: MatrixView<'_, T>,
    pack_b: impl Fn(Range<usize>, Range<usize>, usize, &mut [T]) + Sync,
) {
    let d = T::dispatch();
    let (mr, nr, kc, mc, nc) = (d.spec.mr, d.spec.nr, d.spec.kc, d.spec.mc, d.spec.nc);
    let (m, k) = (a.rows(), a.cols());
    let n = c.cols();
    let kc_cap = kc.min(k);
    // One task list per inner panel, so that panel's flops decide whether
    // workers are worth spawning. Row chunks are oversubscribed so a
    // worker that finishes early finds another; which chunk a tile lands in never affects its
    // value (chunk boundaries stay on the global mr-tile grid).
    let workers = workers_for_flops(gemm_flops(m, n, kc_cap));
    let chunks = row_chunks(m, steal_task_count(workers), mr);
    let mut bbuf = arena::acquire::<T>(packed_panel_len(n, kc_cap, nr));
    for p0 in (0..k).step_by(kc) {
        let pb = kc.min(k - p0);
        let ks = p0..p0 + pb;
        let bshared = SharedPack::new(bbuf.resized(packed_panel_len(n, pb, nr)), n, pb, nr, nc);
        let pack_b_block = |cols: Range<usize>, dst: &mut [T]| pack_b(cols, ks.clone(), nr, dst);
        let tasks = split_rows(c, &chunks);
        par_for_each_task(tasks, |_, (rows, cbuf)| {
            let mut apack = arena::acquire::<T>(packed_panel_len(mc.min(rows.len()), pb, mr));
            let mut acc = [T::zero(); MAX_ACC];
            let mut tiles = 0u64;
            for i0 in (rows.start..rows.end).step_by(mc) {
                let ib = mc.min(rows.end - i0);
                pack_rows(apack.vec_mut(), a, i0..i0 + ib, ks.clone(), mr);
                for jc in (0..n).step_by(nc) {
                    let jc_end = (jc + nc).min(n);
                    // nc-aligned windows map 1:1 onto publication blocks.
                    bshared.ensure_rows(jc..jc_end, &pack_b_block);
                    for it in (0..ib).step_by(mr) {
                        let take = mr.min(ib - it);
                        let ap = &apack.vec_mut()[panel_offset(it, pb, mr)..];
                        for j0 in (jc..jc_end).step_by(nr) {
                            let cc = nr.min(jc_end - j0);
                            let off = (i0 - rows.start + it) * n + j0;
                            (d.kernel)(pb, ap, bshared.panel(j0), &mut acc[..mr * nr]);
                            tiles += 1;
                            store_add(&mut cbuf[off..], n, take, cc, &acc[..mr * nr], nr);
                        }
                    }
                }
            }
            crate::stats::add_microkernel_calls(d.spec.isa, tiles);
        });
    }
}

/// Packed, register-blocked, multi-threaded `C += A·Bᵀ`; a `C` of at most
/// `SMALL_OUTPUT_CUTOFF` entries as direct chains (`crate::direct`).
pub fn gemm_nt<T: Scalar>(c: &mut Matrix<T>, a: MatrixView<'_, T>, b: MatrixView<'_, T>) {
    let (m, k, n, k2) = (a.rows(), a.cols(), b.rows(), b.cols());
    assert_eq!(k, k2, "gemm_nt: inner dimensions {k} vs {k2}");
    assert_eq!(c.shape(), (m, n), "gemm_nt: output shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n <= SMALL_OUTPUT_CUTOFF {
        // Column j of Bᵀ is row j of B.
        let (y, stride) = b.strided_at(0);
        return crate::direct::gemm(c, a, y, stride, 1);
    }
    // Bᵀ's columns are B's rows, so the B-side pack is a row pack.
    gemm_driver(c, a, |cols, ks, r, dst| pack_rows_into(dst, b, cols, ks, r));
}

/// Packed, register-blocked, multi-threaded `C += A·B`; a `C` of at most
/// `SMALL_OUTPUT_CUTOFF` entries as direct chains (`crate::direct`).
pub fn gemm_nn<T: Scalar>(c: &mut Matrix<T>, a: MatrixView<'_, T>, b: MatrixView<'_, T>) {
    let (m, k, k2, n) = (a.rows(), a.cols(), b.rows(), b.cols());
    assert_eq!(k, k2, "gemm_nn: inner dimensions {k} vs {k2}");
    assert_eq!(c.shape(), (m, n), "gemm_nn: output shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n <= SMALL_OUTPUT_CUTOFF {
        let (y, stride) = b.strided_at(0);
        return crate::direct::gemm(c, a, y, 1, stride);
    }
    gemm_driver(c, a, |cols, ks, r, dst| pack_cols_into(dst, b, ks, cols, r));
}

/// Convenience: `A·Bᵀ` into a fresh matrix.
pub fn mul_nt<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm_nt(&mut c, a.view(), b.view());
    c
}

/// Convenience: `A·B` into a fresh matrix.
pub fn mul_nn<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_nn(&mut c, a.view(), b.view());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_matrix;

    fn assert_close(a: &Matrix<f64>, b: &Matrix<f64>, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() <= tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gemm_nn_small_known() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = mul_nn(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_nt_equals_nn_with_transpose() {
        let a = seeded_matrix(13, 9, 1);
        let b = seeded_matrix(7, 9, 2);
        let via_nt = mul_nt(&a, &b);
        let via_nn = mul_nn(&a, &b.transpose());
        assert_close(&via_nt, &via_nn, 1e-12);
    }

    #[test]
    fn blocked_matches_reference_across_shapes() {
        for (m, n, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (64, 64, 64),
            (65, 130, 33),
            (100, 1, 200),
            (33, 70, 300), // spans a KC panel boundary
        ] {
            let a = seeded_matrix(m, k, 10 + m as u64);
            let b = seeded_matrix(n, k, 20 + n as u64);
            let mut c_ref = Matrix::zeros(m, n);
            gemm_nt_ref(&mut c_ref, &a, &b);
            let c_blk = mul_nt(&a, &b);
            assert_close(&c_blk, &c_ref, 1e-10);

            let bt = b.transpose();
            let mut c2_ref = Matrix::zeros(m, n);
            gemm_nn_ref(&mut c2_ref, &a, &bt);
            let c2_blk = mul_nn(&a, &bt);
            assert_close(&c2_blk, &c2_ref, 1e-10);
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = seeded_matrix(4, 3, 5);
        let b = seeded_matrix(6, 3, 6);
        let mut c = Matrix::from_fn(4, 6, |i, j| (i + j) as f64);
        let base = c.clone();
        gemm_nt(&mut c, a.view(), b.view());
        let mut expect = mul_nt(&a, &b);
        expect.add_assign(&base);
        assert_close(&c, &expect, 1e-12);
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let a = Matrix::<f64>::zeros(0, 5);
        let b = Matrix::<f64>::zeros(3, 5);
        let mut c = Matrix::<f64>::zeros(0, 3);
        gemm_nt(&mut c, a.view(), b.view()); // must not panic

        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(3, 0);
        let mut c = Matrix::from_fn(2, 3, |_, _| 1.0);
        gemm_nt(&mut c, a.view(), b.view());
        assert_eq!(c[(1, 2)], 1.0, "k = 0 leaves C unchanged");
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dims_panic() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 4);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm_nt(&mut c, a.view(), b.view());
    }

    #[test]
    fn result_independent_of_thread_count() {
        // Bitwise assertion: a concurrent ISA-override flip mid-run
        // would change rounding, so serialize against the force tests.
        let _serial = crate::isa::test_lock::serial();
        let a = seeded_matrix::<f64>(70, 90, 31);
        let b = seeded_matrix::<f64>(50, 90, 32);
        let one = {
            let _g = crate::parallel::limit_threads(1);
            mul_nt(&a, &b)
        };
        let four = {
            let _g = crate::parallel::limit_threads(4);
            mul_nt(&a, &b)
        };
        // Bit-identical: per-element accumulation order is k-order in
        // both cases.
        assert_eq!(one, four);
    }
}
