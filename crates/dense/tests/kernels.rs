//! Kernel integration tests: large blocked shapes, cross-kernel
//! consistency, and the flop-count identities the cost accounting
//! relies on.

use syrk_dense::{
    gemm_flops, gemm_nn, gemm_nn_ref, gemm_nt, mul_nn, mul_nt, seeded_matrix, syr2k_flops,
    syr2k_full_reference, syrk_flops, syrk_full_reference, syrk_packed, syrk_packed_new,
    syrk_strict_flops, Diag, Matrix, PackedLower,
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
        let mut borrowed = PackedLower::zeros(70);
        syrk_packed(&mut borrowed, whole.block(0, col0, 70, cols));
        let copied = syrk_packed_new(&whole.block_owned(0, col0, 70, cols), Diag::Inclusive);
        assert_eq!(borrowed, copied, "columns {col0}+{cols}");
    }
}

#[test]
fn gemm_on_borrowed_blocks_is_bitwise_the_copy() {
    // Strided views of real-valued entries, k past one inner panel. An
    // `m × n` of at most 64 entries takes the direct path, whose B stride
    // is the view's, not its width; 40 × 33 takes the packed path.
    let bits = |c: &Matrix<f64>| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let wide = seeded_matrix::<f64>(90, 1400, 7);
    let tall = seeded_matrix::<f64>(1400, 90, 8);
    for (m, n, k) in [(1, 1, 1), (2, 3, 701), (8, 8, 300), (40, 33, 699)] {
        let a = (wide.block(1, 3, m, k), wide.block_owned(1, 3, m, k));
        let b = (wide.block(45, 5, n, k), wide.block_owned(45, 5, n, k));
        let (mut borrowed, mut copied) = (Matrix::zeros(m, n), Matrix::zeros(m, n));
        gemm_nt(&mut borrowed, a.0, b.0);
        gemm_nt(&mut copied, a.1.view(), b.1.view());
        assert_eq!(bits(&borrowed), bits(&copied), "gemm_nt {m}x{n}x{k}");

        let b = (tall.block(2, 7, k, n), tall.block_owned(2, 7, k, n));
        let (mut borrowed, mut copied) = (Matrix::zeros(m, n), Matrix::zeros(m, n));
        gemm_nn(&mut borrowed, a.0, b.0);
        gemm_nn(&mut copied, a.1.view(), b.1.view());
        assert_eq!(bits(&borrowed), bits(&copied), "gemm_nn {m}x{n}x{k}");
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
fn packed_from_vec_and_back() {
    let data: Vec<f64> = (0..10).map(|x| x as f64).collect();
    let p = PackedLower::from_vec(4, data.clone());
    assert_eq!(p.as_slice(), &data[..]);
    assert_eq!(p.clone().into_vec(), data);
    let full = p.to_full_symmetric();
    let back = PackedLower::from_matrix(&full);
    assert_eq!(back.as_slice(), &data[..]);
}
