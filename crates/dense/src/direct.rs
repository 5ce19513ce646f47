//! Direct per-entry chains for products too small for the packed runtime.
//!
//! A product with at most [`SMALL_OUTPUT_CUTOFF`] output entries — the
//! 1–5-row blocks of a many-rank 2D or 3D run — costs the packed drivers
//! more in arena buffers, shared packs, a task list and zero-padded
//! register tiles than in arithmetic. Here each entry is one chain instead:
//! per `kc` panel, a sum over ascending `k` that starts from zero and is
//! then added to `C`, in the dispatched ISA's arithmetic (one fused
//! multiply-add per step for the SIMD ISAs, a separate `*` and `+` for the
//! portable kernel). That is exactly the op sequence the packed path
//! applies to every entry, so `C` is bitwise what it would give, on every
//! ISA (`tests::direct_path_equals_packed_path_bitwise`).

use crate::matrix::Matrix;
use crate::packed::PackedLower;
use crate::parallel::SMALL_OUTPUT_CUTOFF;
use crate::scalar::Scalar;
use crate::view::MatrixView;

/// `acc[j] = Σ_p x[p]·y[j·rs + p·ps]` over `p ∈ 0..x.len()`: one chain per
/// entry, from zero in ascending `p`, fused (`FUSED`) or as `*` then `+`.
/// Entries run eight at a time, then the rest as one group, so independent
/// chains overlap; which group an entry lands in never changes its value.
/// The x86 SIMD ISAs call this from a `#[target_feature]` wrapper so
/// `mul_add` is one instruction.
#[inline(always)]
pub(crate) fn chains<T: Scalar, const FUSED: bool>(
    x: &[T],
    y: &[T],
    rs: usize,
    ps: usize,
    acc: &mut [T],
) {
    let mut j = 0;
    while acc.len() - j >= 8 {
        group::<T, FUSED, 8>(x, &y[j * rs..], rs, ps, &mut acc[j..j + 8]);
        j += 8;
    }
    if j == acc.len() {
        return;
    }
    // The rest as one group, not as 4 + 2 + 1 short ones in a row.
    let (y, tail) = (&y[j * rs..], &mut acc[j..]);
    match tail.len() {
        1 => group::<T, FUSED, 1>(x, y, rs, ps, tail),
        2 => group::<T, FUSED, 2>(x, y, rs, ps, tail),
        3 => group::<T, FUSED, 3>(x, y, rs, ps, tail),
        4 => group::<T, FUSED, 4>(x, y, rs, ps, tail),
        5 => group::<T, FUSED, 5>(x, y, rs, ps, tail),
        6 => group::<T, FUSED, 6>(x, y, rs, ps, tail),
        _ => group::<T, FUSED, 7>(x, y, rs, ps, tail),
    }
}

/// `W` chains of [`chains`], accumulated in registers.
#[inline(always)]
fn group<T: Scalar, const FUSED: bool, const W: usize>(
    x: &[T],
    y: &[T],
    rs: usize,
    ps: usize,
    out: &mut [T],
) {
    let step = |xp: T, yv: T, s: T| {
        if FUSED {
            xp.mul_add(yv, s)
        } else {
            s + xp * yv
        }
    };
    let mut s = [T::zero(); W];
    if ps == 1 {
        // Contiguous operand rows: slice each to x's length once, so the
        // loop below runs without bounds checks.
        let len = x.len();
        let mut rows = [&y[..0]; W];
        for (w, row) in rows.iter_mut().enumerate() {
            *row = &y[w * rs..w * rs + len];
        }
        for p in 0..len {
            let xp = x[p];
            for (sw, row) in s.iter_mut().zip(&rows) {
                *sw = step(xp, row[p], *sw);
            }
        }
    } else {
        for (p, &xp) in x.iter().enumerate() {
            for (w, sw) in s.iter_mut().enumerate() {
                *sw = step(xp, y[w * rs + p * ps], *sw);
            }
        }
    }
    out.copy_from_slice(&s);
}

/// `C += A·Y` entry by entry, where `Y(p, j) = y[j·rs + p·ps]` is `k × n`:
/// `gemm_nt` passes `B`'s rows, `gemm_nn` `B`'s columns. Needs
/// `C.cols() ≤ SMALL_OUTPUT_CUTOFF`.
pub(crate) fn gemm<T: Scalar>(
    c: &mut Matrix<T>,
    a: MatrixView<'_, T>,
    y: &[T],
    rs: usize,
    ps: usize,
) {
    let d = T::dispatch();
    let mut acc = [T::zero(); SMALL_OUTPUT_CUTOFF];
    let acc = &mut acc[..c.cols()];
    for p0 in (0..a.cols()).step_by(d.spec.kc) {
        let ks = p0..a.cols().min(p0 + d.spec.kc);
        for i in 0..a.rows() {
            (d.chains)(&a.row(i)[ks.clone()], &y[p0 * ps..], rs, ps, acc);
            for (cij, &v) in c.row_mut(i).iter_mut().zip(acc.iter()) {
                *cij += v;
            }
        }
    }
}

/// The packed lower triangle of `A·Aᵀ` (`b = None`) or `A·Bᵀ + B·Aᵀ`
/// (`b = Some`) added into `c` entry by entry, the SYR2K pair summed
/// before the add as the packed driver's fused tile does. Needs
/// `c.len() ≤ SMALL_OUTPUT_CUTOFF` and nonempty operands.
pub(crate) fn rank_update<T: Scalar>(
    c: &mut PackedLower<T>,
    a: MatrixView<'_, T>,
    b: Option<MatrixView<'_, T>>,
) {
    let d = T::dispatch();
    let (mut acc, mut acc2) = (
        [T::zero(); SMALL_OUTPUT_CUTOFF],
        [T::zero(); SMALL_OUTPUT_CUTOFF],
    );
    for p0 in (0..a.cols()).step_by(d.spec.kc) {
        let ks = p0..a.cols().min(p0 + d.spec.kc);
        let (ya, rs) = a.strided_at(p0);
        let mut rows = c.as_mut_slice();
        for i in 0..a.rows() {
            let len = i + 1;
            let (row, rest) = rows.split_at_mut(len);
            rows = rest;
            let acc = &mut acc[..len];
            let ai = &a.row(i)[ks.clone()];
            match b {
                None => {
                    (d.chains)(ai, ya, rs, 1, acc);
                    for (cij, &v) in row.iter_mut().zip(acc.iter()) {
                        *cij += v;
                    }
                }
                Some(b) => {
                    let (yb, rsb) = b.strided_at(p0);
                    let acc2 = &mut acc2[..len];
                    (d.chains)(ai, yb, rsb, 1, acc);
                    (d.chains)(&b.row(i)[ks.clone()], ya, rs, 1, acc2);
                    for ((cij, &v), &w) in row.iter_mut().zip(acc.iter()).zip(acc2.iter()) {
                        *cij += v + w;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // The public entry points route every shape below the cutoff here, so
    // the packed side of the comparison calls the drivers themselves.
    use crate::gemm::gemm_driver;
    use crate::isa::{available_isas, force_isa, test_lock};
    use crate::pack::{pack_cols_into, pack_rows_into};
    use crate::packed::{packed_len, PackedLower};
    use crate::parallel::SMALL_OUTPUT_CUTOFF;
    use crate::rng::seeded_matrix;
    use crate::scalar::Scalar;
    use crate::syrk::triangle_driver;
    use crate::{gemm_nn, gemm_nt, syr2k_packed, syrk_packed};

    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    }

    /// Every ISA the host runs, `k` across the `kc` panel edges, into a
    /// nonzero `C`. GEMM: `m, n ∈ 1..=9` and one side at the cutoff ±1.
    /// SYRK and SYR2K: `n ∈ 1..=12`, which crosses the cutoff for both
    /// diagonal conventions, on strided views of wider matrices.
    #[test]
    fn direct_path_equals_packed_path_bitwise() {
        let _serial = test_lock::serial();
        let kc = <f64 as Scalar>::dispatch().spec.kc;
        let cut = SMALL_OUTPUT_CUTOFF;
        let mut shapes: Vec<(usize, usize)> =
            (1..=9).flat_map(|m| (1..=9).map(move |n| (m, n))).collect();
        for e in [cut - 1, cut, cut + 1] {
            shapes.extend([(e, 1), (1, e)]);
        }
        for isa in available_isas() {
            let _isa = force_isa(isa);
            for k in [1, 7, kc - 1, kc, kc + 1, 2 * kc + 3] {
                for &(m, n) in &shapes {
                    let ctx = format!("{isa} m={m} n={n} k={k}");
                    let seed = (m * 131 + n * 17 + k) as u64;
                    let a = seeded_matrix::<f64>(m, k, seed);
                    let b = seeded_matrix::<f64>(n, k, seed + 1);
                    let bt = b.transpose();
                    let c0 = seeded_matrix::<f64>(m, n, seed + 2);

                    let (mut direct, mut packed) = (c0.clone(), c0.clone());
                    gemm_nt(&mut direct, a.view(), b.view());
                    gemm_driver(&mut packed, a.view(), |cols, ks, r, dst| {
                        pack_rows_into(dst, b.view(), cols, ks, r)
                    });
                    assert!(same_bits(direct.as_slice(), packed.as_slice()), "nt {ctx}");

                    let (mut direct, mut packed) = (c0.clone(), c0);
                    gemm_nn(&mut direct, a.view(), bt.view());
                    gemm_driver(&mut packed, a.view(), |cols, ks, r, dst| {
                        pack_cols_into(dst, bt.view(), ks, cols, r)
                    });
                    assert!(same_bits(direct.as_slice(), packed.as_slice()), "nn {ctx}");
                }
                for n in 1..=12 {
                    let ctx = format!("{isa} n={n} k={k}");
                    let seed = (n * 17 + k) as u64;
                    let wide_a = seeded_matrix::<f64>(n, k + 3, seed);
                    let wide_b = seeded_matrix::<f64>(n, k + 3, seed + 1);
                    let (va, vb) = (wide_a.block(0, 1, n, k), wide_b.block(0, 1, n, k));
                    let c0 = seeded_matrix::<f64>(1, packed_len(n), seed + 2).into_vec();
                    let c0 = PackedLower::from_vec(n, c0);

                    let (mut direct, mut packed) = (c0.clone(), c0.clone());
                    syrk_packed(&mut direct, va);
                    triangle_driver(&mut packed, va, None);
                    let ok = same_bits(direct.as_slice(), packed.as_slice());
                    assert!(ok, "syrk {ctx}");

                    let (mut direct, mut packed) = (c0.clone(), c0);
                    syr2k_packed(&mut direct, va, vb);
                    triangle_driver(&mut packed, va, Some(vb));
                    let ok = same_bits(direct.as_slice(), packed.as_slice());
                    assert!(ok, "syr2k {ctx}");
                }
            }
        }
    }
}
