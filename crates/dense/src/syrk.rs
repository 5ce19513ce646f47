//! Local symmetric rank-k update kernels: `C += A·Aᵀ` (lower triangle).
//!
//! These are the *sequential building blocks* the distributed algorithms
//! call on each rank (`Local-SYRK` in Algorithms 1–3). The symmetry of the
//! output halves the flops relative to GEMM: computing the inclusive lower
//! triangle of `A·Aᵀ` for `A: n×k` takes `n(n+1)·k` flops instead of
//! `2n²k`.
//!
//! The packed kernel shares the register-blocked machinery of
//! [`crate::microkernel`], with geometry taken from the dispatched
//! [`crate::microkernel::KernelSpec`]: per `kc`-wide panel of `A`,
//! k-major [`SharedPack`]s of all rows serve the two sides of the
//! product **across every worker** — row blocks are packed
//! cooperatively, each exactly once behind a publication flag, instead
//! of serially by the caller or redundantly per chunk. When the
//! dispatched tile is square (`mr == nr`, the scalar spec) *one* shared
//! pack feeds both operands of every register tile; rectangular SIMD
//! tiles keep a second pack at lane width `nr` for the column side.
//! Threads work-steal flop-balanced row chunks of the packed triangle
//! (see [`crate::schedule`] — row `i` costs `Θ(i·k)`, so an even row
//! split would be badly skewed), pulling pack buffers from the workspace
//! [`crate::arena`] so the steady state allocates nothing. Diagonal
//! register tiles are computed in full and stored clamped to `j ≤ i`
//! (or `j < i`). A triangle of at most [`SMALL_OUTPUT_CUTOFF`] packed
//! entries skips all of this: its entries are direct chains with the same
//! op sequence ([`crate::direct`]).

use crate::arena;
use crate::matrix::Matrix;
use crate::microkernel::MAX_ACC;
use crate::pack::{pack_rows_into, packed_panel_len, SharedPack};
use crate::packed::{mirror_lower_to_upper, Diag, PackedLower};
use crate::parallel::{
    par_for_each_task, steal_task_count, workers_for_flops, SMALL_OUTPUT_CUTOFF,
};
use crate::scalar::Scalar;
use crate::schedule::balanced_triangle_chunks;
use crate::view::MatrixView;
use std::ops::Range;

/// Flops to compute the inclusive lower triangle of `A·Aᵀ`, `A: n×k`
/// (one multiply + one add per iteration point; `n(n+1)/2 · 2k`).
pub fn syrk_flops(n: usize, k: usize) -> u64 {
    (n as u64) * (n as u64 + 1) * (k as u64)
}

/// Flops to compute only the strict lower triangle (`n(n−1)/2 · 2k`),
/// the quantity Lemma 5 and Theorem 1 reason about.
pub fn syrk_strict_flops(n: usize, k: usize) -> u64 {
    (n as u64) * (n as u64).saturating_sub(1) * (k as u64)
}

/// Reference kernel: dense `C += A·Aᵀ` writing only entries with `j ≤ i`.
/// The strict upper triangle of `C` is left untouched.
pub fn syrk_lower_ref<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>) {
    let (n, _k) = a.shape();
    assert_eq!(c.shape(), (n, n), "syrk: C must be n×n");
    for i in 0..n {
        let arow = a.row(i);
        for j in 0..=i {
            let brow = a.row(j);
            let mut acc = T::zero();
            for (&x, &y) in arow.iter().zip(brow) {
                acc = x.mul_add(y, acc);
            }
            c[(i, j)] += acc;
        }
    }
}

/// Offset of packed row `i` for `diag`.
#[inline]
fn row_off(diag: Diag, i: usize) -> usize {
    match diag {
        Diag::Inclusive => i * (i + 1) / 2,
        Diag::Strict => i * i.saturating_sub(1) / 2,
    }
}

/// Add the leading `rr` rows of the row-major `acc` tile (row stride
/// `nr`) into the packed chunk slice `cbuf` (whose first element is
/// packed offset `base`), clamping each row to its `diag` column bound.
#[inline]
#[allow(clippy::too_many_arguments)]
fn store_packed_tile<T: Scalar>(
    diag: Diag,
    base: usize,
    cbuf: &mut [T],
    acc: &[T],
    nr: usize,
    it: usize,
    rr: usize,
    j0: usize,
) {
    // Store row by row: packed rows are contiguous, and tiles straddling
    // the diagonal clamp to the row's column bound.
    for u in 0..rr {
        let i = it + u;
        let jend = (j0 + nr).min(diag.row_len(i));
        if jend <= j0 {
            continue;
        }
        let off = row_off(diag, i) - base + j0;
        let dst = &mut cbuf[off..off + jend - j0];
        for (d, &v) in dst.iter_mut().zip(&acc[u * nr..]) {
            *d += v;
        }
    }
}

/// SYRK (`b = None`, `C += A·Aᵀ`) and SYR2K (`b = Some`,
/// `C += A·Bᵀ + B·Aᵀ`) into packed storage: a triangle of at most
/// [`SMALL_OUTPUT_CUTOFF`] entries as direct chains ([`crate::direct`]),
/// anything larger through [`triangle_driver`].
pub(crate) fn packed_rank_update<T: Scalar>(
    c: &mut PackedLower<T>,
    a: MatrixView<'_, T>,
    b: Option<MatrixView<'_, T>>,
) {
    let (n, k) = (a.rows(), a.cols());
    assert_eq!(c.n(), n, "packed rank update: dimension mismatch");
    if let Some(b) = b {
        assert_eq!(
            (b.rows(), b.cols()),
            (n, k),
            "syr2k: A and B must have identical shapes"
        );
    }
    if n == 0 || k == 0 {
        return;
    }
    if c.len() <= SMALL_OUTPUT_CUTOFF {
        crate::direct::rank_update(c, a, b);
    } else {
        triangle_driver(c, a, b);
    }
}

/// The packed-triangle driver behind [`packed_rank_update`]. `kc`-panel
/// loop outside, flop-balanced work-stolen row chunks inside; every packed
/// entry is accumulated in ascending-k order independent of the chunking,
/// and each row block of a shared pack is packed exactly once per panel by
/// whichever worker first needs it. Square tiles (`mr == nr`) alias one
/// pack per operand matrix for both sides of the product; rectangular
/// SIMD tiles add a second pack at lane width `nr` for the column side.
/// Needs nonempty operands of matching shapes.
pub(crate) fn triangle_driver<T: Scalar>(
    c: &mut PackedLower<T>,
    a: MatrixView<'_, T>,
    b: Option<MatrixView<'_, T>>,
) {
    let (n, k) = (a.rows(), a.cols());
    let d = T::dispatch();
    let (mr, nr, kc, mc) = (d.spec.mr, d.spec.nr, d.spec.kc, d.spec.mc);
    let square = mr == nr;
    // Column-side publication granularity: the smallest nr-multiple
    // covering an mc-row block (SharedPack blocks must align to lanes).
    let col_block = mc.div_ceil(nr) * nr;
    let diag = c.diag();
    let kc_cap = kc.min(k);
    // One task list per inner panel, so that panel's flops (twice over
    // for SYR2K's fused pair of products) decide whether workers are
    // worth spawning. Chunks are oversubscribed so idle workers always
    // find something to steal; the chunk a tile lands in never affects
    // its value.
    let panel_flops = syrk_flops(n, kc_cap) * if b.is_some() { 2 } else { 1 };
    let workers = workers_for_flops(panel_flops);
    let chunks = balanced_triangle_chunks(n, diag, steal_task_count(workers), mr);
    let mut a_row_buf = arena::acquire::<T>(packed_panel_len(n, kc_cap, mr));
    let mut a_col_buf = (!square).then(|| arena::acquire::<T>(packed_panel_len(n, kc_cap, nr)));
    let mut b_row_buf = b.map(|_| arena::acquire::<T>(packed_panel_len(n, kc_cap, mr)));
    let mut b_col_buf =
        (b.is_some() && !square).then(|| arena::acquire::<T>(packed_panel_len(n, kc_cap, nr)));
    for p0 in (0..k).step_by(kc) {
        let pb = kc.min(k - p0);
        let cols = p0..p0 + pb;
        // Full-height shared packs publish row blocks once on first
        // demand, for all workers.
        let a_row = SharedPack::new(
            a_row_buf.resized(packed_panel_len(n, pb, mr)),
            n,
            pb,
            mr,
            mc,
        );
        let a_col = a_col_buf.as_mut().map(|buf| {
            SharedPack::new(
                buf.resized(packed_panel_len(n, pb, nr)),
                n,
                pb,
                nr,
                col_block,
            )
        });
        let b_row = b_row_buf
            .as_mut()
            .map(|buf| SharedPack::new(buf.resized(packed_panel_len(n, pb, mr)), n, pb, mr, mc));
        let b_col = b_col_buf.as_mut().map(|buf| {
            SharedPack::new(
                buf.resized(packed_panel_len(n, pb, nr)),
                n,
                pb,
                nr,
                col_block,
            )
        });
        let pack_a_row = |rows: Range<usize>, dst: &mut [T]| {
            pack_rows_into(dst, a, rows, cols.clone(), mr);
        };
        let pack_a_col = |rows: Range<usize>, dst: &mut [T]| {
            pack_rows_into(dst, a, rows, cols.clone(), nr);
        };
        let pack_b_row = |rows: Range<usize>, dst: &mut [T]| {
            pack_rows_into(dst, b.expect("b_row implies b"), rows, cols.clone(), mr);
        };
        let pack_b_col = |rows: Range<usize>, dst: &mut [T]| {
            pack_rows_into(dst, b.expect("b_col implies b"), rows, cols.clone(), nr);
        };
        // Column-side views: alias the row-side pack when tiles are
        // square, so SYRK still packs A exactly once per panel.
        let acol = a_col.as_ref().unwrap_or(&a_row);
        let bcol = b_col.as_ref().or(b_row.as_ref());
        let pack_acol: &(dyn Fn(Range<usize>, &mut [T]) + Sync) =
            if square { &pack_a_row } else { &pack_a_col };
        let pack_bcol: &(dyn Fn(Range<usize>, &mut [T]) + Sync) =
            if square { &pack_b_row } else { &pack_b_col };
        let tasks = split_triangle(c, &chunks);
        par_for_each_task(tasks, |_, (rows, cbuf)| {
            let base = row_off(diag, rows.start);
            let mut acc = [T::zero(); MAX_ACC];
            let mut acc2 = [T::zero(); MAX_ACC];
            let mut tiles = 0u64;
            for it in rows.clone().step_by(mr) {
                let take = mr.min(rows.end - it);
                let colmax = diag.row_len(it + take - 1);
                a_row.ensure_rows(it..it + take, &pack_a_row);
                acol.ensure_rows(0..colmax, &pack_acol);
                if let Some(brow) = &b_row {
                    brow.ensure_rows(it..it + take, &pack_b_row);
                }
                if let Some(bc) = bcol {
                    bc.ensure_rows(0..colmax, &pack_bcol);
                }
                for j0 in (0..colmax).step_by(nr) {
                    if let Some(bc) = bcol {
                        // A·Bᵀ tile plus B·Aᵀ tile, fused before the
                        // store (ab + ba elementwise, fixed order).
                        let brow = b_row.as_ref().expect("bcol implies b_row");
                        (d.kernel)(pb, a_row.panel(it), bc.panel(j0), &mut acc[..mr * nr]);
                        (d.kernel)(pb, brow.panel(it), acol.panel(j0), &mut acc2[..mr * nr]);
                        tiles += 2;
                        for (x, &y) in acc[..mr * nr].iter_mut().zip(&acc2[..mr * nr]) {
                            *x += y;
                        }
                    } else {
                        (d.kernel)(pb, a_row.panel(it), acol.panel(j0), &mut acc[..mr * nr]);
                        tiles += 1;
                    }
                    store_packed_tile(diag, base, cbuf, &acc[..mr * nr], nr, it, take, j0);
                }
            }
            crate::stats::add_microkernel_calls(d.spec.isa, tiles);
        });
    }
}

/// Split the packed buffer into per-chunk sub-slices (each chunk's rows
/// are contiguous in packed row-major order).
fn split_triangle<'c, T: Scalar>(
    c: &'c mut PackedLower<T>,
    chunks: &[Range<usize>],
) -> Vec<(Range<usize>, &'c mut [T])> {
    let diag = c.diag();
    let mut rest = c.as_mut_slice();
    let mut out = Vec::with_capacity(chunks.len());
    for r in chunks {
        let len = row_off(diag, r.end) - row_off(diag, r.start);
        let (head, tail) = rest.split_at_mut(len);
        out.push((r.clone(), head));
        rest = tail;
    }
    out
}

/// Packed kernel: accumulate the lower triangle of `A·Aᵀ` into packed
/// storage via the register-blocked driver.
pub fn syrk_packed<T: Scalar>(c: &mut PackedLower<T>, a: &Matrix<T>) {
    syrk_packed_view(c, a.view());
}

/// [`syrk_packed`] on a borrowed block: a rank runs `Local-SYRK` on its
/// column block of the global `A` without copying it. Packing visits the
/// same values in the same ascending-k order as for an owned copy of the
/// block, so the result is bitwise the same.
pub fn syrk_packed_view<T: Scalar>(c: &mut PackedLower<T>, a: MatrixView<'_, T>) {
    packed_rank_update(c, a, None);
}

/// Convenience: the lower triangle of `A·Aᵀ` as packed storage.
pub fn syrk_packed_new<T: Scalar>(a: &Matrix<T>, diag: Diag) -> PackedLower<T> {
    let mut c = PackedLower::zeros(a.rows(), diag);
    syrk_packed(&mut c, a);
    c
}

/// Sequential reference for the full SYRK product as a dense symmetric
/// matrix — the ground truth the distributed algorithms are verified
/// against.
pub fn syrk_full_reference<T: Scalar>(a: &Matrix<T>) -> Matrix<T> {
    let n = a.rows();
    let mut c = Matrix::zeros(n, n);
    syrk_lower_ref(&mut c, a);
    mirror_lower_to_upper(&mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::mul_nt;
    use crate::rng::seeded_matrix;

    #[test]
    fn syrk_matches_gemm_lower_triangle() {
        for (n, k) in [(1, 1), (4, 2), (7, 13), (33, 65), (64, 10)] {
            let a = seeded_matrix::<f64>(n, k, n as u64 * 31 + k as u64);
            let full = mul_nt(&a, &a);
            let mut c = Matrix::zeros(n, n);
            syrk_lower_ref(&mut c, &a);
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (c[(i, j)] - full[(i, j)]).abs() < 1e-10,
                        "n={n} k={k} ({i},{j})"
                    );
                }
                for j in i + 1..n {
                    assert_eq!(c[(i, j)], 0.0, "upper triangle must be untouched");
                }
            }
        }
    }

    #[test]
    fn packed_inclusive_matches_reference() {
        for (n, k) in [(1, 3), (5, 5), (17, 9), (40, 64), (70, 300)] {
            let a = seeded_matrix::<f64>(n, k, 7 * n as u64 + k as u64);
            let p = syrk_packed_new(&a, Diag::Inclusive);
            let mut dense = Matrix::zeros(n, n);
            syrk_lower_ref(&mut dense, &a);
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (p.get(i, j) - dense[(i, j)]).abs() < 1e-10,
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_strict_skips_diagonal() {
        let a = seeded_matrix::<f64>(6, 4, 3);
        let p = syrk_packed_new(&a, Diag::Strict);
        assert_eq!(p.len(), 15);
        let mut dense = Matrix::zeros(6, 6);
        syrk_lower_ref(&mut dense, &a);
        for i in 0..6 {
            for j in 0..i {
                assert!((p.get(i, j) - dense[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn packed_accumulates() {
        let a = seeded_matrix::<f64>(5, 3, 11);
        let mut p = syrk_packed_new(&a, Diag::Inclusive);
        syrk_packed(&mut p, &a); // second accumulation doubles everything
        let single = syrk_packed_new(&a, Diag::Inclusive);
        for (two, one) in p.as_slice().iter().zip(single.as_slice()) {
            assert!((two - 2.0 * one).abs() < 1e-10);
        }
    }

    #[test]
    fn full_reference_is_symmetric() {
        let a = seeded_matrix::<f64>(9, 4, 42);
        let c = syrk_full_reference(&a);
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(c[(i, j)], c[(j, i)]);
            }
        }
        // And equals A·Aᵀ.
        let g = mul_nt(&a, &a);
        for i in 0..9 {
            for j in 0..9 {
                assert!((c[(i, j)] - g[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn flop_formulas() {
        assert_eq!(syrk_flops(4, 10), 4 * 5 * 10);
        assert_eq!(syrk_strict_flops(4, 10), 4 * 3 * 10);
        // Strict + n diagonal dot products (2k flops each) = inclusive.
        let (n, k) = (9u64, 5u64);
        assert_eq!(syrk_strict_flops(9, 5) + 2 * n * k, syrk_flops(9, 5));
    }

    #[test]
    fn zero_k_is_noop() {
        let a = Matrix::<f64>::zeros(4, 0);
        let p = syrk_packed_new(&a, Diag::Inclusive);
        assert!(p.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn packed_result_independent_of_thread_count() {
        // Bitwise assertion: a concurrent ISA-override flip mid-run
        // would change rounding, so serialize against the force tests.
        let _serial = crate::isa::test_lock::serial();
        let a = seeded_matrix::<f64>(101, 67, 13);
        for diag in [Diag::Inclusive, Diag::Strict] {
            let one = {
                let _g = crate::parallel::limit_threads(1);
                syrk_packed_new(&a, diag)
            };
            let many = {
                let _g = crate::parallel::limit_threads(5);
                syrk_packed_new(&a, diag)
            };
            assert_eq!(one, many, "accumulation order must not depend on chunking");
        }
    }
}
