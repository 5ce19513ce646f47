//! Kernel integration tests: large blocked shapes, cross-kernel
//! consistency, and the flop-count identities the cost accounting
//! relies on.

use syrk_dense::{
    gemm_flops, gemm_nn_ref, mul_nn, mul_nt, seeded_matrix, syr2k_flops, syr2k_full_reference,
    syrk_flops, syrk_full_reference, syrk_packed_new, syrk_packed_view, syrk_strict_flops, Diag,
    Matrix, PackedLower,
};

#[test]
fn large_blocked_gemm_crosses_tile_boundaries() {
    // Sizes straddling the 64-wide tile: 65, 127, 129.
    let (m, n, k) = (65usize, 129usize, 127usize);
    let a = seeded_matrix::<f64>(m, k, 3);
    let b = seeded_matrix::<f64>(k, n, 4);
    let mut c_ref = Matrix::zeros(m, n);
    gemm_nn_ref(&mut c_ref, &a, &b);
    let c_blk = mul_nn(&a, &b);
    for i in 0..m {
        for j in 0..n {
            assert!((c_ref[(i, j)] - c_blk[(i, j)]).abs() < 1e-9, "({i},{j})");
        }
    }
}

#[test]
fn syrk_equals_half_of_symmetric_gemm() {
    // C = A·Aᵀ: gemm and syrk agree; syrk touches only the lower half.
    let a = seeded_matrix::<f64>(40, 25, 5);
    let g = mul_nt(&a, &a);
    let s = syrk_full_reference(&a);
    for i in 0..40 {
        for j in 0..40 {
            assert!((g[(i, j)] - s[(i, j)]).abs() < 1e-10);
        }
    }
}

#[test]
fn syrk_on_a_borrowed_column_block_is_bitwise_the_copy() {
    // Real-valued entries and k past one inner panel: any change in the
    // order of accumulation would show in the last bits.
    let whole = seeded_matrix::<f64>(70, 1400, 6);
    for (col0, cols) in [(0, 1400), (3, 700), (699, 701), (1399, 1), (1400, 0)] {
        for diag in [Diag::Inclusive, Diag::Strict] {
            let mut borrowed = PackedLower::zeros(70, diag);
            syrk_packed_view(&mut borrowed, whole.block(0, col0, 70, cols));
            let copied = syrk_packed_new(&whole.block_owned(0, col0, 70, cols), diag);
            assert_eq!(borrowed, copied, "columns {col0}+{cols} {diag:?}");
        }
    }
}

#[test]
fn syr2k_is_the_symmetrized_cross_product() {
    let a = seeded_matrix::<f64>(12, 7, 8);
    let b = seeded_matrix::<f64>(12, 7, 9);
    let s = syr2k_full_reference(&a, &b);
    let mut g = mul_nt(&a, &b);
    g.add_assign(&mul_nt(&b, &a));
    for i in 0..12 {
        for j in 0..12 {
            assert!((s[(i, j)] - g[(i, j)]).abs() < 1e-10);
        }
    }
}

#[test]
fn flop_identities() {
    // The §1 story in flop counts: SYRK = half of the GEMM it replaces
    // (asymptotically), SYR2K = twice SYRK.
    let (n, k) = (1000usize, 77usize);
    assert_eq!(gemm_flops(n, n, k), 2 * (n * n * k) as u64);
    assert_eq!(syrk_flops(n, k), (n * (n + 1) * k) as u64);
    assert_eq!(syr2k_flops(n, k), 2 * syrk_flops(n, k));
    // syrk/gemm → 1/2 as n grows.
    let ratio = syrk_flops(n, k) as f64 / gemm_flops(n, n, k) as f64;
    assert!((ratio - 0.5).abs() < 1e-3);
    // Strict + diagonal = inclusive.
    assert_eq!(
        syrk_strict_flops(n, k) + 2 * (n * k) as u64,
        syrk_flops(n, k)
    );
}

#[test]
fn packed_strict_and_inclusive_interconvert() {
    let a = seeded_matrix::<f64>(9, 6, 10);
    let incl = syrk_packed_new(&a, Diag::Inclusive);
    let strict = syrk_packed_new(&a, Diag::Strict);
    // The strict entries are embedded in the inclusive packing.
    for i in 0..9 {
        for j in 0..i {
            assert_eq!(incl.get(i, j), strict.get(i, j));
        }
    }
    // Lengths: n(n+1)/2 vs n(n−1)/2.
    assert_eq!(incl.len() - strict.len(), 9);
}

#[test]
fn packed_from_vec_and_back() {
    let data: Vec<f64> = (0..10).map(|x| x as f64).collect();
    let p = PackedLower::from_vec(4, Diag::Inclusive, data.clone());
    assert_eq!(p.as_slice(), &data[..]);
    assert_eq!(p.clone().into_vec(), data);
    let full = p.to_full_symmetric();
    let back = PackedLower::from_matrix(&full, Diag::Inclusive);
    assert_eq!(back.as_slice(), &data[..]);
}
