//! Cholesky QR via parallel SYRK (the paper's §1 motivation: "computing a
//! QR factorization using the Cholesky QR algorithm"). For a tall-skinny
//! `M` (`m × n`, `m ≫ n`):
//!
//! 1. form the Gram matrix `G = Mᵀ·M` — a SYRK on `A = Mᵀ` (short-wide),
//! 2. factor `G = L·Lᵀ` (sequential Cholesky — `G` is tiny),
//! 3. `R = Lᵀ` and `Q = M·R⁻¹`; then `M = Q·R` with orthonormal `Q`.
//!
//! The SYRK is the communication bottleneck; everything else is `O(n²)`
//! data. This example runs step 1 on the simulated machine with the
//! paper's optimal algorithm and checks `‖M − QR‖` and `‖QᵀQ − I‖`.
//!
//! ```text
//! cargo run --release --example cholesky_qr
//! ```

use syrk_repro::core::SyrkError;
use syrk_repro::dense::{max_abs_diff, mul_nn, seeded_matrix, Matrix};
use syrk_repro::{run_auto, CostModel};

/// Dense Cholesky factorization `G = L·Lᵀ` (lower). Sequential: `G` is
/// the small n×n Gram matrix, not distributed data.
fn cholesky(g: &Matrix<f64>) -> Matrix<f64> {
    let n = g.rows();
    let mut l = Matrix::<f64>::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = g[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                assert!(s > 0.0, "Gram matrix must be positive definite (pivot {s})");
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    l
}

/// Solve `X·Lᵀ = B` for `X` (back-substitution with the upper-triangular
/// `R = Lᵀ`), i.e. `X = B·R⁻¹`.
fn trsm_right_upper(b: &Matrix<f64>, l: &Matrix<f64>) -> Matrix<f64> {
    let (m, n) = b.shape();
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

fn main() -> Result<(), SyrkError> {
    // Tall-skinny M: 4096 × 32 on 16 processors.
    let (m, n, p) = (4096usize, 32usize, 16usize);
    let mm = seeded_matrix::<f64>(m, n, 99);
    // Make it well-conditioned: M += 2·I pattern on the top block.
    let mut mm = mm;
    for i in 0..n {
        mm[(i, i)] += 2.0;
    }

    // Step 1 (distributed): G = Mᵀ·M = A·Aᵀ with A = Mᵀ (n × m).
    let a = mm.transpose();
    let (plan, run) = run_auto(&a, p, CostModel::bandwidth_only())?;
    println!("CholeskyQR of a {m}×{n} matrix on P = {p}");
    println!(
        "Gram SYRK planned as {plan:?}; moved {} words at the busiest rank",
        run.cost.max_words_sent()
    );
    let g = run.c;

    // Step 2 (local): G = L·Lᵀ.
    let l = cholesky(&g);

    // Step 3 (local here; embarrassingly parallel in practice): Q = M·R⁻¹.
    let q = trsm_right_upper(&mm, &l);
    let r = l.transpose();

    // Verify the factorization: M = Q·R.
    let qr = mul_nn(&q, &r);
    let recon_err = max_abs_diff(&qr, &mm);
    println!("‖M − QR‖_max        = {recon_err:.2e}");
    assert!(recon_err < 1e-8);

    // Verify orthogonality: QᵀQ = I.
    let qtq = mul_nn(&q.transpose(), &q);
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let want = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((qtq[(i, j)] - want).abs());
        }
    }
    println!("‖QᵀQ − I‖_max       = {worst:.2e}");
    assert!(worst < 1e-6, "CholeskyQR orthogonality failed: {worst}");
    println!("CholeskyQR OK — the SYRK was the only distributed step.");
    Ok(())
}
