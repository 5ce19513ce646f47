//! Local symmetric rank-2k update: `C += A·Bᵀ + B·Aᵀ` (lower triangle).
//!
//! SYR2K is the first kernel the paper's §6 names as future work for the
//! symmetric-iteration-space technique. Like SYRK it has a symmetric
//! output, so only the lower triangle is computed: `2·n(n+1)·k` flops
//! instead of GEMM's `4n²k` for the same product.

use crate::matrix::Matrix;
use crate::packed::{mirror_lower_to_upper, PackedLower};
use crate::scalar::Scalar;
use crate::view::MatrixView;

/// Flops for the inclusive lower triangle of `A·Bᵀ + B·Aᵀ`, `A, B: n×k`:
/// two fused dot products per entry, `n(n+1)/2 · 4k`.
pub fn syr2k_flops(n: usize, k: usize) -> u64 {
    2 * (n as u64) * (n as u64 + 1) * (k as u64)
}

/// Reference kernel: dense `C += A·Bᵀ + B·Aᵀ` writing only `j ≤ i`.
pub(crate) fn syr2k_lower_ref<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    let (n, k) = a.shape();
    assert_eq!(
        b.shape(),
        (n, k),
        "syr2k: A and B must have identical shapes"
    );
    assert_eq!(c.shape(), (n, n), "syr2k: C must be n×n");
    for i in 0..n {
        let (ai, bi) = (a.row(i), b.row(i));
        for j in 0..=i {
            let (aj, bj) = (a.row(j), b.row(j));
            let mut acc = T::zero();
            for t in 0..k {
                acc = ai[t].mul_add(bj[t], acc);
                acc = bi[t].mul_add(aj[t], acc);
            }
            c[(i, j)] += acc;
        }
    }
}

/// Packed SYR2K: accumulate the lower triangle of `A·Bᵀ + B·Aᵀ` into
/// packed storage, via the register-blocked driver shared with
/// [`crate::syrk_packed`]: both operands are full-height shared packs
/// published cooperatively across the workers (per side of
/// the tile when the dispatched kernel is rectangular), and each
/// register tile fuses two microkernel calls before the store. The
/// operands are views, so a rank passes its column blocks of the global
/// `A` and `B` where they lie; packing reads the same values in the same
/// order as from owned copies, so the result is bitwise the same.
pub fn syr2k_packed<T: Scalar>(c: &mut PackedLower<T>, a: MatrixView<'_, T>, b: MatrixView<'_, T>) {
    crate::syrk::packed_rank_update(c, a, Some(b));
}

/// Convenience: packed lower triangle of `A·Bᵀ + B·Aᵀ`.
pub fn syr2k_packed_new<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> PackedLower<T> {
    let mut c = PackedLower::zeros(a.rows());
    syr2k_packed(&mut c, a.view(), b.view());
    c
}

/// Sequential full reference `C = A·Bᵀ + B·Aᵀ` (symmetrized), the ground
/// truth the distributed SYR2K is verified against.
pub fn syr2k_full_reference<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let n = a.rows();
    let mut c = Matrix::zeros(n, n);
    syr2k_lower_ref(&mut c, a, b);
    mirror_lower_to_upper(&mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::mul_nt;
    use crate::rng::seeded_matrix;

    #[test]
    fn matches_two_gemms() {
        for (n, k) in [(1usize, 1usize), (5, 3), (16, 9), (33, 20)] {
            let a = seeded_matrix::<f64>(n, k, 1);
            let b = seeded_matrix::<f64>(n, k, 2);
            let mut want = mul_nt(&a, &b);
            want.add_assign(&mul_nt(&b, &a));
            let got = syr2k_full_reference(&a, &b);
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (got[(i, j)] - want[(i, j)]).abs() < 1e-10,
                        "n={n} k={k} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn output_is_symmetric_by_construction() {
        let a = seeded_matrix::<f64>(7, 4, 3);
        let b = seeded_matrix::<f64>(7, 4, 4);
        let c = syr2k_full_reference(&a, &b);
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(c[(i, j)], c[(j, i)]);
            }
        }
    }

    #[test]
    fn packed_agrees_with_dense() {
        let a = seeded_matrix::<f64>(8, 5, 9);
        let b = seeded_matrix::<f64>(8, 5, 10);
        let p = syr2k_packed_new(&a, &b);
        let full = syr2k_full_reference(&a, &b);
        for i in 0..8 {
            for j in 0..=i {
                assert!((p.get(i, j) - full[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn syr2k_with_b_equals_a_is_twice_syrk() {
        let a = seeded_matrix::<f64>(6, 4, 7);
        let two_syrk = {
            let mut m = crate::syrk::syrk_full_reference(&a);
            m.scale(2.0);
            m
        };
        let s2 = syr2k_full_reference(&a, &a);
        for i in 0..6 {
            for j in 0..6 {
                assert!((s2[(i, j)] - two_syrk[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn flop_formula() {
        assert_eq!(syr2k_flops(4, 10), 2 * 4 * 5 * 10);
        // Exactly twice the SYRK flops for the same n, k.
        assert_eq!(syr2k_flops(9, 5), 2 * crate::syrk::syrk_flops(9, 5));
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(3, 2);
        let b = Matrix::<f64>::zeros(3, 3);
        let _ = syr2k_full_reference(&a, &b);
    }
}
