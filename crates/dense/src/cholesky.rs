//! Sequential Cholesky factorization and triangular solves.
//!
//! SYRK "gets its name from its use as a subroutine within algorithms for
//! computing the Cholesky decomposition" (§1); these small local kernels
//! close the loop for the CholeskyQR / normal-equations examples — the
//! distributed SYRK produces the Gram matrix, these consume it.

use crate::arena;
use crate::matrix::Matrix;
use crate::microkernel::{flatten_acc, microkernel_wide, MAX_ACC, MR, NR};
use crate::pack::{pack_rows, packed_panel_len, panel_offset};
use crate::parallel::{par_for_each_task, steal_task_count, workers_for_flops};
use crate::scalar::Scalar;
use crate::schedule::balanced_triangle_chunks;
use crate::syrk::syrk_flops;

/// Errors from the Cholesky factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum CholeskyError {
    /// The matrix is not (numerically) positive definite: the pivot at
    /// the given index was non-positive.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// The offending pivot value.
        value: f64,
    },
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotPositiveDefinite { pivot, value } => {
                write!(f, "matrix not positive definite: pivot {pivot} = {value}")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Cholesky factorization `G = L·Lᵀ` of a symmetric positive-definite
/// matrix (only the lower triangle of `G` is read). Returns lower `L`.
///
/// ```
/// use syrk_dense::{Matrix, cholesky};
/// let g = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 10.0]);
/// let l = cholesky(&g).unwrap();
/// assert_eq!(l[(0, 0)], 2.0);
/// assert_eq!(l[(1, 0)], 1.0);
/// assert_eq!(l[(1, 1)], 3.0);
/// ```
pub fn cholesky<T: Scalar>(g: &Matrix<T>) -> Result<Matrix<T>, CholeskyError> {
    let n = g.rows();
    assert_eq!(g.cols(), n, "cholesky needs a square matrix");
    if n <= CHOLESKY_BLOCK {
        cholesky_unblocked(g)
    } else {
        cholesky_blocked(g)
    }
}

/// Panel width of the blocked factorization; also the dispatch threshold
/// below which the unblocked kernel runs directly (the trailing-update
/// microkernel only pays off once the trailing matrix dwarfs the panel).
const CHOLESKY_BLOCK: usize = 64;

/// Textbook scalar factorization, used for small matrices and for the
/// diagonal blocks of the blocked path.
fn cholesky_unblocked<T: Scalar>(g: &Matrix<T>) -> Result<Matrix<T>, CholeskyError> {
    let n = g.rows();
    let mut l = Matrix::<T>::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = g[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s.to_f64() <= 0.0 {
                    return Err(CholeskyError::NotPositiveDefinite {
                        pivot: i,
                        value: s.to_f64(),
                    });
                }
                l[(i, j)] = T::from_f64(s.to_f64().sqrt());
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Right-looking blocked factorization: factor a diagonal block, solve
/// the panel below it, then subtract the panel's rank-`nb` outer product
/// from the trailing lower triangle through the register-blocked
/// microkernel (the SYRK shape is where the cubic work lives).
fn cholesky_blocked<T: Scalar>(g: &Matrix<T>) -> Result<Matrix<T>, CholeskyError> {
    let n = g.rows();
    let d = T::dispatch();
    let (mr, nr) = (d.spec.mr, d.spec.nr);
    // Work in place on the lower triangle; the strict upper stays zero.
    let mut l = Matrix::from_fn(n, n, |i, j| if j <= i { g[(i, j)] } else { T::zero() });
    // Arena-backed panel workspace, sized once for the largest trailing
    // pack (the first iteration's) so later packs never reallocate. The
    // column side gets its own pack at lane width nr when the dispatched
    // tile is rectangular; square tiles read both sides from one pack.
    let trailing_cap = n.saturating_sub(CHOLESKY_BLOCK);
    let mut panel = arena::acquire::<T>(packed_panel_len(trailing_cap, CHOLESKY_BLOCK, mr));
    let mut panel_col =
        (mr != nr).then(|| arena::acquire::<T>(packed_panel_len(trailing_cap, CHOLESKY_BLOCK, nr)));
    for k0 in (0..n).step_by(CHOLESKY_BLOCK) {
        let nb = CHOLESKY_BLOCK.min(n - k0);
        let k1 = k0 + nb;
        // Factor the diagonal block in place (prior panels are already
        // subtracted, so only intra-block updates remain).
        for i in k0..k1 {
            for j in k0..=i {
                let mut s = l[(i, j)];
                for t in k0..j {
                    s -= l[(i, t)] * l[(j, t)];
                }
                if i == j {
                    if s.to_f64() <= 0.0 {
                        return Err(CholeskyError::NotPositiveDefinite {
                            pivot: i,
                            value: s.to_f64(),
                        });
                    }
                    l[(i, j)] = T::from_f64(s.to_f64().sqrt());
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        if k1 == n {
            break;
        }
        // Panel solve: L21 · L11ᵀ = A21, row-forward substitution.
        for i in k1..n {
            for j in k0..k1 {
                let mut s = l[(i, j)];
                for t in k0..j {
                    s -= l[(i, t)] * l[(j, t)];
                }
                l[(i, j)] = s / l[(j, j)];
            }
        }
        // Trailing update: lower(A22) −= L21·L21ᵀ. The panel is packed
        // once by the caller (a task's row slice of `l` spans the full
        // matrix width including the pack-source columns, so cooperative
        // packing would alias the read with concurrent writes), then
        // flop-balanced, work-stolen row chunks of the trailing triangle
        // run in parallel — chunk rows are contiguous slices of the
        // matrix. The scalar-ISA f64 path sweeps dual-panel wide tiles
        // away from chunk tails.
        let trailing = n - k1;
        pack_rows(panel.vec_mut(), l.view(), k1..n, k0..k1, mr);
        if let Some(pc) = panel_col.as_mut() {
            pack_rows(pc.vec_mut(), l.view(), k1..n, k0..k1, nr);
        }
        let chunks = balanced_triangle_chunks(
            trailing,
            crate::packed::Diag::Inclusive,
            steal_task_count(workers_for_flops(syrk_flops(trailing, nb))),
            mr,
        );
        let mut rest = &mut l.as_mut_slice()[k1 * n..];
        let mut tasks = Vec::with_capacity(chunks.len());
        for r in &chunks {
            let (head, tail) = rest.split_at_mut(r.len() * n);
            tasks.push((r.clone(), head));
            rest = tail;
        }
        let panel: &[T] = panel.vec_mut();
        let pcol: &[T] = match panel_col.as_mut() {
            Some(pc) => pc.vec_mut(),
            None => panel,
        };
        // Subtract the leading `rr` rows of the row-major `acc` tile
        // (row stride `nrs`) from the trailing triangle, clamping each
        // row `i` to its inclusive diagonal bound.
        let store = |lbuf: &mut [T],
                     acc: &[T],
                     nrs: usize,
                     row0: usize,
                     it: usize,
                     rr: usize,
                     j0: usize| {
            for u in 0..rr {
                let i = it + u;
                let jend = (j0 + nrs).min(i + 1);
                if jend <= j0 {
                    continue;
                }
                let off = (i - row0) * n + k1 + j0;
                let dst = &mut lbuf[off..off + jend - j0];
                for (d, &v) in dst.iter_mut().zip(&acc[u * nrs..]) {
                    *d -= v;
                }
            }
        };
        par_for_each_task(tasks, |_, (rows, lbuf)| {
            let mut acc = [T::zero(); MAX_ACC];
            let mut tiles = 0u64;
            let mut it = rows.start;
            while it < rows.end {
                let wide = d.spec.wide && it + 2 * mr <= rows.end;
                let take = if wide { 2 * mr } else { mr.min(rows.end - it) };
                let ap = &panel[panel_offset(it, nb, mr)..];
                if wide {
                    // Scalar-ISA only, where mr == MR, nr == NR and the
                    // column pack aliases the row pack.
                    let ap1 = &panel[panel_offset(it + MR, nb, MR)..];
                    for j0 in (0..it + take).step_by(NR) {
                        let bp = &panel[panel_offset(j0, nb, NR)..];
                        let (acc0, acc1) = microkernel_wide(nb, ap, ap1, bp);
                        tiles += 2;
                        flatten_acc(&acc0, &mut acc[..MR * NR]);
                        store(lbuf, &acc[..MR * NR], NR, rows.start, it, MR, j0);
                        flatten_acc(&acc1, &mut acc[..MR * NR]);
                        store(lbuf, &acc[..MR * NR], NR, rows.start, it + MR, MR, j0);
                    }
                } else {
                    for j0 in (0..it + take).step_by(nr) {
                        let bp = &pcol[panel_offset(j0, nb, nr)..];
                        (d.kernel)(nb, ap, bp, &mut acc[..mr * nr]);
                        tiles += 1;
                        store(lbuf, &acc[..mr * nr], nr, rows.start, it, take, j0);
                    }
                }
                it += take;
            }
            crate::stats::add_microkernel_calls(d.spec.isa, tiles);
        });
    }
    Ok(l)
}

/// Solve `X·Lᵀ = B` for `X` given lower-triangular `L` (i.e. multiply by
/// `R⁻¹` on the right, `R = Lᵀ`). Used by CholeskyQR: `Q = M·R⁻¹`.
pub fn trsm_right_transpose<T: Scalar>(b: &Matrix<T>, l: &Matrix<T>) -> Matrix<T> {
    let (m, n) = b.shape();
    assert_eq!(l.shape(), (n, n), "trsm: L must be n×n with n = B.cols()");
    let mut x = b.clone();
    for j in 0..n {
        for row in 0..m {
            let mut s = x[(row, j)];
            for k in 0..j {
                s -= x[(row, k)] * l[(j, k)]; // R[k][j] = L[j][k]
            }
            x[(row, j)] = s / l[(j, j)];
        }
    }
    x
}

/// Solve `Lᵀ·X = B` (back substitution) for each column of `B`. Completes
/// the SPD solve `G·x = b` after [`trsm_left_lower`]: `L·y = b`, then
/// `Lᵀ·x = y`.
pub fn trsm_left_transpose<T: Scalar>(l: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let n = l.rows();
    assert_eq!(l.cols(), n);
    assert_eq!(b.rows(), n, "trsm: B must have n rows");
    let mut x = b.clone();
    for i in (0..n).rev() {
        for col in 0..b.cols() {
            let mut s = x[(i, col)];
            for k in i + 1..n {
                s -= l[(k, i)] * x[(k, col)]; // (Lᵀ)[i][k] = L[k][i]
            }
            x[(i, col)] = s / l[(i, i)];
        }
    }
    x
}

/// Solve `L·y = b` (forward substitution) for each column of `B`.
pub fn trsm_left_lower<T: Scalar>(l: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let n = l.rows();
    assert_eq!(l.cols(), n);
    assert_eq!(b.rows(), n, "trsm: B must have n rows");
    let mut x = b.clone();
    for i in 0..n {
        for col in 0..b.cols() {
            let mut s = x[(i, col)];
            for k in 0..i {
                s -= l[(i, k)] * x[(k, col)];
            }
            x[(i, col)] = s / l[(i, i)];
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{mul_nn, mul_nt};
    use crate::norms::max_abs_diff;
    use crate::rng::seeded_matrix;
    use crate::syrk::syrk_full_reference;

    /// A random SPD matrix: G = AAᵀ + n·I.
    fn spd(n: usize, seed: u64) -> Matrix<f64> {
        let a = seeded_matrix::<f64>(n, n, seed);
        let mut g = syrk_full_reference(&a);
        for i in 0..n {
            g[(i, i)] += n as f64;
        }
        g
    }

    #[test]
    fn factorization_reconstructs() {
        for n in [1usize, 2, 5, 16, 33] {
            let g = spd(n, n as u64);
            let l = cholesky(&g).expect("SPD must factor");
            let llt = mul_nt(&l, &l);
            assert!(max_abs_diff(&llt, &g) < 1e-9 * n as f64, "n={n}");
            // L is lower triangular with positive diagonal.
            for i in 0..n {
                assert!(l[(i, i)] > 0.0);
                for j in i + 1..n {
                    assert_eq!(l[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn blocked_path_matches_unblocked() {
        // n > CHOLESKY_BLOCK exercises the microkernel trailing update,
        // including a ragged final block (150 = 2·64 + 22).
        for n in [100usize, 150] {
            let g = spd(n, n as u64);
            let blocked = cholesky(&g).expect("SPD must factor");
            let unblocked = cholesky_unblocked(&g).expect("SPD must factor");
            assert!(
                max_abs_diff(&blocked, &unblocked) < 1e-8,
                "n={n}: blocked and unblocked factors disagree"
            );
            let llt = mul_nt(&blocked, &blocked);
            assert!(max_abs_diff(&llt, &g) < 1e-8 * n as f64, "n={n}");
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(blocked[(i, j)], 0.0, "upper triangle must stay zero");
                }
            }
        }
    }

    #[test]
    fn blocked_indefinite_reports_global_pivot() {
        // SPD leading part, a negative pivot deep in the trailing part.
        let mut g = spd(100, 9);
        g[(90, 90)] = -1e6;
        match cholesky(&g) {
            Err(CholeskyError::NotPositiveDefinite { pivot, .. }) => assert_eq!(pivot, 90),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn indefinite_matrix_errors() {
        let mut g = Matrix::<f64>::zeros(2, 2);
        g[(0, 0)] = 1.0;
        g[(1, 1)] = -1.0;
        match cholesky(&g) {
            Err(CholeskyError::NotPositiveDefinite { pivot: 1, value }) => {
                assert!(value <= 0.0)
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn trsm_right_inverts_r() {
        let g = spd(6, 3);
        let l = cholesky(&g).unwrap();
        let b = seeded_matrix::<f64>(4, 6, 8);
        let x = trsm_right_transpose(&b, &l);
        // X·Lᵀ must reproduce B.
        let xr = mul_nn(&x, &l.transpose());
        assert!(max_abs_diff(&xr, &b) < 1e-10);
    }

    #[test]
    fn trsm_left_inverts_l() {
        let g = spd(5, 4);
        let l = cholesky(&g).unwrap();
        let b = seeded_matrix::<f64>(5, 3, 9);
        let y = trsm_left_lower(&l, &b);
        let ly = mul_nn(&l, &y);
        assert!(max_abs_diff(&ly, &b) < 1e-10);
    }

    #[test]
    fn normal_equations_solve() {
        // Least squares via the normal equations — the paper's §1
        // motivating application: min ‖Mx − b‖ with G = MᵀM from SYRK.
        let (m, n) = (40usize, 6usize);
        let mm = {
            let mut t = seeded_matrix::<f64>(m, n, 5);
            for i in 0..n {
                t[(i, i)] += 3.0;
            }
            t
        };
        // Build b = M·x_true.
        let x_true = seeded_matrix::<f64>(n, 1, 6);
        let b = mul_nn(&mm, &x_true);
        // G = MᵀM, rhs = Mᵀb; solve G x = rhs via L Lᵀ.
        let g = syrk_full_reference(&mm.transpose());
        let rhs = mul_nn(&mm.transpose(), &b);
        let l = cholesky(&g).unwrap();
        let y = trsm_left_lower(&l, &rhs);
        let x = trsm_left_transpose(&l, &y);
        assert!(max_abs_diff(&x, &x_true) < 1e-8);
    }

    #[test]
    fn error_displays() {
        let e = CholeskyError::NotPositiveDefinite {
            pivot: 3,
            value: -0.5,
        };
        assert!(e.to_string().contains("pivot 3"));
    }
}
