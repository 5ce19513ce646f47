//! Algorithm-based fault tolerance (ABFT) for `C = A·Aᵀ`.
//!
//! Huang–Abraham-style checksum verification: because every entry of `C`
//! is a bilinear function of `A`, the row sums of `C` are themselves a
//! product the verifier can compute independently,
//!
//! ```text
//! C·1 = A·(Aᵀ·1)        (plain row checksums)
//! C·ω = A·(Aᵀ·ω),  ω_i = i + 1   (weighted checksums)
//! ```
//!
//! at `O(n1·n2)` cost — asymptotically free next to the `O(n1²·n2)`
//! multiply. A corrupt-but-undetected entry `C[i][j] += δ` shifts row
//! `i`'s plain checksum by `δ` and its weighted checksum by `(j+1)·δ`,
//! so the *ratio of residuals localizes the corrupted column*. The same
//! identity restricted to a block pair verifies one distributed block:
//! `C_ij·1 = A_i·(A_jᵀ·1)`, which is what every slice of the SYRK grid
//! checks per rank before returning its contribution.
//!
//! Checks and detections are metered as `syrk_abft_checks` /
//! `syrk_abft_detects`; in-run check flops are charged under the
//! [`PHASE_ABFT`] phase so verification overhead is visible in the phase
//! table without polluting the Theorem 1 accounting.

use syrk_dense::{Matrix, MatrixView, PackedLower};
use syrk_telemetry::Counter;

/// Checksum verifications performed (block-level and full-matrix).
pub(crate) static ABFT_CHECKS: Counter = Counter::new("syrk_abft_checks");
/// Checksum verifications that detected corruption.
pub(crate) static ABFT_DETECTS: Counter = Counter::new("syrk_abft_detects");

/// Phase under which in-run ABFT verification flops are charged.
pub const PHASE_ABFT: &str = "abft:verify";

/// Relative tolerance scale for checksum comparisons. Checksums and the
/// checked values are accumulated in different orders (SIMD kernels vs.
/// plain sums), so the residual of an honest result grows like
/// `n·ε·scale`; 1e-9 relative sits orders of magnitude above that for
/// every size this repo simulates, and orders below any real corruption.
const REL_TOL: f64 = 1e-9;

/// A detected checksum violation, localized as far as the residuals
/// allow.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AbftViolation {
    /// Row of `C` whose checksum failed.
    pub row: usize,
    /// Column localized from the weighted/plain residual ratio, when the
    /// plain residual was large enough to divide by.
    pub col: Option<usize>,
    /// Plain-checksum residual `Σ_j C[row][j] − (A·(Aᵀ·1))[row]`.
    pub residual: f64,
}

impl std::fmt::Display for AbftViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "row {} checksum off by {:.3e}", self.row, self.residual)?;
        match self.col {
            Some(c) => write!(f, " (localized to column {c})"),
            None => write!(f, " (column not localizable)"),
        }
    }
}

/// Row and weighted checksums of `C = A·Aᵀ`, computed from `A` alone.
///
/// Build once from the input, verify any claimed `C` against it.
#[derive(Debug, Clone)]
pub(crate) struct AbftChecksums {
    /// Expected `C·1` (length `n1`).
    row: Vec<f64>,
    /// Expected `C·ω` with `ω_i = i + 1` (length `n1`).
    weighted: Vec<f64>,
}

impl AbftChecksums {
    /// Compute both checksum vectors from `A` in `O(n1·n2)`.
    pub fn new(a: &Matrix<f64>) -> Self {
        AbftChecksums {
            row: weighted_rowsums(a.view(), a.view(), |_| 1.0),
            weighted: weighted_rowsums(a.view(), a.view(), |i| (i + 1) as f64),
        }
    }

    /// Verify a claimed `C` against the checksums. Returns the first
    /// violating row (lowest index) with its localized column, or `Ok`
    /// when every row checks out.
    pub(crate) fn verify(&self, c: &Matrix<f64>) -> Result<(), AbftViolation> {
        assert_eq!(c.rows(), self.row.len(), "C has the wrong dimension");
        ABFT_CHECKS.inc();
        let n = c.rows();
        for i in 0..n {
            let mut plain = 0.0f64;
            let mut weighted = 0.0f64;
            let mut scale = 0.0f64;
            for (j, &v) in c.row(i).iter().enumerate() {
                plain += v;
                weighted += (j + 1) as f64 * v;
                scale += v.abs();
            }
            if let Some(residual) = off_by(plain, self.row[i], scale) {
                let wres = weighted - self.weighted[i];
                let col = localize(wres, residual, n);
                return Err(AbftViolation {
                    row: i,
                    col,
                    residual,
                });
            }
        }
        Ok(())
    }
}

/// Localize the corrupted column from the weighted/plain residual ratio:
/// a single corruption `δ` at column `j` gives `wres/res = j + 1`.
fn localize(wres: f64, res: f64, n: usize) -> Option<usize> {
    if res == 0.0 || !res.is_finite() || !wres.is_finite() {
        return None;
    }
    let col = (wres / res).round() - 1.0;
    (col >= 0.0 && col < n as f64).then_some(col as usize)
}

/// Flops charged for one block check `C_blk·1` vs `A_i·(A_jᵀ·1)`:
/// the column-sum of `A_j`, the product with `A_i`, and the row sums of
/// the checked block.
pub(crate) fn block_check_flops(rows_i: usize, rows_j: usize, n2: usize) -> u64 {
    (rows_j * n2 + 2 * rows_i * n2 + rows_i * rows_j) as u64
}

/// Row checksums of the product `A_i·A_jᵀ` under the row weights `w` of
/// `A_j`: `A_i·(A_jᵀ·w)`, the column sums of `A_j` accumulated in row
/// order, then one dot product per row of `A_i`.
fn weighted_rowsums(
    ai: MatrixView<'_, f64>,
    aj: MatrixView<'_, f64>,
    w: impl Fn(usize) -> f64,
) -> Vec<f64> {
    debug_assert_eq!(aj.cols(), ai.cols());
    let mut s = vec![0.0f64; ai.cols()];
    for r in 0..aj.rows() {
        let wr = w(r);
        for (j, &v) in aj.row(r).iter().enumerate() {
            s[j] += wr * v;
        }
    }
    (0..ai.rows())
        .map(|r| ai.row(r).iter().zip(&s).map(|(&x, &y)| x * y).sum())
        .collect()
}

/// The one checksum rule: a sum `got`, whose terms' magnitudes sum to
/// `scale`, passes when it lies within `REL_TOL·max(scale, |want|, 1)`
/// of `want`. A miss is metered as a detection and returns the residual.
fn off_by(got: f64, want: f64, scale: f64) -> Option<f64> {
    let residual = got - want;
    let detected = residual.abs() > REL_TOL * scale.max(want.abs()).max(1.0);
    if detected {
        ABFT_DETECTS.inc();
    }
    detected.then_some(residual)
}

/// Check one row's sum of a block against its expectation; `Err`
/// carries a human-readable detail string.
fn check_row(
    what: &str,
    block: (usize, usize),
    row: usize,
    got: f64,
    scale: f64,
    expect: f64,
) -> Result<(), String> {
    match off_by(got, expect, scale) {
        Some(residual) => Err(format!(
            "{what} block ({}, {}) row {row} checksum off by {residual:.3e}",
            block.0, block.1
        )),
        None => Ok(()),
    }
}

/// Verify an off-diagonal block `C_ij = A_i·A_jᵀ` row by row.
pub(crate) fn verify_offdiag_block(
    ai: MatrixView<'_, f64>,
    aj: MatrixView<'_, f64>,
    cij: &Matrix<f64>,
    bi: usize,
    bj: usize,
) -> Result<(), String> {
    ABFT_CHECKS.inc();
    let expect = weighted_rowsums(ai, aj, |_| 1.0);
    for (r, &want) in expect.iter().enumerate().take(cij.rows()) {
        let (mut sum, mut scale) = (0.0f64, 0.0f64);
        for &v in cij.row(r) {
            sum += v;
            scale += v.abs();
        }
        check_row("off-diagonal", (bi, bj), r, sum, scale, want)?;
    }
    Ok(())
}

/// Verify a diagonal block `C_ii = A_i·A_iᵀ` stored as an inclusive
/// packed lower triangle, without expanding it: entry `(r, s)` with
/// `s ≤ r` contributes to row `r`'s sum and (if off-diagonal) to row
/// `s`'s by symmetry.
pub(crate) fn verify_diag_block(
    ai: MatrixView<'_, f64>,
    packed: &PackedLower<f64>,
    bi: usize,
) -> Result<(), String> {
    ABFT_CHECKS.inc();
    let n = packed.n();
    let expect = weighted_rowsums(ai, ai, |_| 1.0);
    let mut sums = vec![0.0f64; n];
    let mut scales = vec![0.0f64; n];
    let mut it = packed.as_slice().iter();
    for r in 0..n {
        for s in 0..=r {
            let v = *it.next().expect("packed length matches n(n+1)/2");
            sums[r] += v;
            scales[r] += v.abs();
            if s != r {
                sums[s] += v;
                scales[s] += v.abs();
            }
        }
    }
    for r in 0..n {
        check_row("diagonal", (bi, bi), r, sums[r], scales[r], expect[r])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::{seeded_matrix, syrk_full_reference, syrk_packed_new, Diag};

    #[test]
    fn honest_c_passes_full_verification() {
        let a = seeded_matrix::<f64>(17, 9, 3);
        let c = syrk_full_reference(&a);
        AbftChecksums::new(&a).verify(&c).expect("honest C");
    }

    #[test]
    fn corruption_is_detected_and_localized() {
        let a = seeded_matrix::<f64>(17, 9, 3);
        let mut c = syrk_full_reference(&a);
        c[(5, 11)] += 0.5;
        let v = AbftChecksums::new(&a).verify(&c).unwrap_err();
        assert_eq!(v.row, 5);
        assert_eq!(v.col, Some(11));
        assert!((v.residual - 0.5).abs() < 1e-6);
    }

    #[test]
    fn block_checks_pass_honest_blocks_and_flag_tampered_ones() {
        let a = seeded_matrix::<f64>(12, 7, 4);
        let ai = a.block_owned(0, 0, 5, 7);
        let aj = a.block_owned(5, 0, 7, 7);
        let mut cij = syrk_dense::mul_nt(&ai, &aj);
        verify_offdiag_block(ai.view(), aj.view(), &cij, 1, 0).expect("honest block");
        cij[(2, 3)] -= 1.0;
        let detail = verify_offdiag_block(ai.view(), aj.view(), &cij, 1, 0).unwrap_err();
        assert!(detail.contains("row 2"), "{detail}");

        let packed = syrk_packed_new(&ai, Diag::Inclusive);
        verify_diag_block(ai.view(), &packed, 0).expect("honest diagonal");
        let mut bad = packed.as_slice().to_vec();
        bad[3] += 2.0;
        let tampered = PackedLower::from_vec(5, bad);
        verify_diag_block(ai.view(), &tampered, 0).unwrap_err();
    }

    #[test]
    fn checks_and_detects_are_metered() {
        use syrk_telemetry::registry;
        let before = registry::snapshot();
        let (c0, d0) = (
            before.counter("syrk_abft_checks").unwrap_or(0),
            before.counter("syrk_abft_detects").unwrap_or(0),
        );
        let a = seeded_matrix::<f64>(8, 5, 1);
        let mut c = syrk_full_reference(&a);
        AbftChecksums::new(&a).verify(&c).unwrap();
        c[(1, 2)] += 1.0;
        AbftChecksums::new(&a).verify(&c).unwrap_err();
        let after = registry::snapshot();
        assert!(after.counter("syrk_abft_checks").unwrap() >= c0 + 2);
        assert!(after.counter("syrk_abft_detects").unwrap() > d0);
    }
}
