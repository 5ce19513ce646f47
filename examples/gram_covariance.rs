//! Covariance / Gram matrix workload (the paper's §1 motivation for the
//! short-wide case): `A` holds `n1` features × `n2` observations, and the
//! covariance matrix is `C = A·Aᵀ` (up to centering/scaling). With
//! `n1 ≪ n2` and moderate `P` this is Case 1, where the 1D algorithm is
//! optimal — and the point of the paper: it moves *half* the words the
//! GEMM-style computation does.
//!
//! ```text
//! cargo run --release --example gram_covariance
//! ```

use syrk_repro::core::{gemm_1d, gemm_lower_bound, syrk_lower_bound, try_syrk_1d, SyrkError};
use syrk_repro::dense::{max_abs_diff, seeded_matrix, syrk_full_reference};
use syrk_repro::machine::CostModel;

fn main() -> Result<(), SyrkError> {
    // 128 features, 8192 observations, 32 processors.
    let (features, samples, p) = (128usize, 8192usize, 32usize);
    let mut a = seeded_matrix::<f64>(features, samples, 7);

    // Center each feature (row) — the usual covariance preprocessing.
    for i in 0..features {
        let row = a.row_mut(i);
        let mean = row.iter().sum::<f64>() / samples as f64;
        for x in row {
            *x -= mean;
        }
    }

    println!("covariance of {features} features × {samples} samples on P = {p}");
    let bound = syrk_lower_bound(features, samples, p);
    println!(
        "regime: {:?} (short-wide input, C is the small matrix)",
        bound.case
    );

    // The paper's algorithm: symmetric, 1D.
    let syrk = try_syrk_1d(&a, p, CostModel::bandwidth_only(), None)?;
    // The conventional route: same product, full GEMM output.
    let gemm = gemm_1d(&a, p, CostModel::bandwidth_only())?;

    let err = max_abs_diff(&syrk.c, &syrk_full_reference(&a));
    assert!(err < 1e-6, "covariance mismatch: {err}");
    assert!(max_abs_diff(&syrk.c, &gemm.c) < 1e-6);

    let (sw, gw) = (syrk.cost.max_words_sent(), gemm.cost.max_words_sent());
    let (sf, gf) = (syrk.cost.max_flops(), gemm.cost.max_flops());
    println!("                          SYRK (Alg. 1)    GEMM baseline");
    println!(
        "words at busiest rank:  {sw:>14}  {gw:>14}   (GEMM/SYRK = {:.3})",
        gw as f64 / sw as f64
    );
    println!(
        "flops at busiest rank:  {sf:>14}  {gf:>14}   (GEMM/SYRK = {:.3})",
        gf as f64 / sf as f64
    );
    println!("SYRK bound (Thm 1):     {:>14.0}", bound.communicated());
    println!(
        "GEMM bound (SPAA'22):   {:>14.0}",
        gemm_lower_bound(features, samples, p).communicated()
    );

    // Sanity check on the covariance itself: the diagonal carries the
    // (unnormalized) feature variances, which must be nonnegative.
    let variances: Vec<f64> = (0..features).map(|i| syrk.c[(i, i)]).collect();
    assert!(variances.iter().all(|&v| v >= 0.0));
    let top = variances.iter().cloned().fold(f64::MIN, f64::max);
    println!("largest feature variance (unnormalized): {top:.3}");

    // A tiny demonstration that the output is usable as a covariance:
    // correlation of feature 0 with itself is exactly 1.
    let corr00 = syrk.c[(0, 0)] / (variances[0].sqrt() * variances[0].sqrt());
    assert!((corr00 - 1.0).abs() < 1e-12);
    Ok(())
}
