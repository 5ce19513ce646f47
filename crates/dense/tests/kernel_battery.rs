//! Shape battery for the packed register-blocked kernels: every
//! combination of dimensions straddling the portable microkernel tile
//! size (`MR = NR = 4`), plus tall, wide, and square shapes, compared
//! against the scalar reference kernels to 1e-10 — plus a forced-ISA
//! battery that re-runs edge shapes derived from each available ISA's
//! own tile geometry, and a coverage check that the flop-balanced
//! triangular schedule tiles the packed triangle exactly once.

use syrk_dense::microkernel::{dispatch_for_isa_f64, MR, NR};
use syrk_dense::{
    available_isas, balanced_triangle_chunks, force_isa, gemm_nt, gemm_nt_ref, seeded_matrix,
    syrk_lower_ref, syrk_packed_new, Diag, Matrix, PackedLower,
};

/// Dimensions around the register-tile edges: 0, 1, MR−1, MR, MR+1 (NR
/// equals MR, so the same set straddles both tile dimensions).
const EDGE: [usize; 5] = [0, 1, MR - 1, MR, MR + 1];

fn max_abs(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
    assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn gemm_nt_matches_reference_on_edge_shapes() {
    // m, n, k each sweep the edge set independently — 125 shapes covering
    // every packing/microkernel fringe combination.
    for &m in &EDGE {
        for &n in &EDGE {
            for &k in &EDGE {
                let a = seeded_matrix::<f64>(m, k, (m * 31 + k) as u64 + 1);
                let b = seeded_matrix::<f64>(n, k, (n * 17 + k) as u64 + 2);
                let mut want = Matrix::zeros(m, n);
                gemm_nt_ref(&mut want, &a, &b);
                let mut got = Matrix::zeros(m, n);
                gemm_nt(&mut got, a.view(), b.view());
                let err = max_abs(&got, &want);
                assert!(err < 1e-10, "gemm_nt ({m},{n},{k}): err {err}");
            }
        }
    }
}

#[test]
fn gemm_nt_matches_reference_on_aspect_extremes() {
    // Tall (m ≫ n), wide (n ≫ m), deep (k ≫ m,n), and square — all sized
    // to cross the L2 panel boundaries (KC = 256, MC = 64, NC = 256).
    for &(m, n, k) in &[
        (300usize, 5usize, 70usize), // tall
        (5, 300, 70),                // wide
        (9, 11, 700),                // deep: several KC panels
        (130, 130, 130),             // square, off the tile grid
    ] {
        let a = seeded_matrix::<f64>(m, k, 5);
        let b = seeded_matrix::<f64>(n, k, 6);
        let mut want = Matrix::zeros(m, n);
        gemm_nt_ref(&mut want, &a, &b);
        let mut got = Matrix::zeros(m, n);
        gemm_nt(&mut got, a.view(), b.view());
        let err = max_abs(&got, &want);
        assert!(err < 1e-10, "gemm_nt ({m},{n},{k}): err {err}");
    }
}

fn syrk_reference_packed(a: &Matrix<f64>) -> PackedLower<f64> {
    let n = a.rows();
    let mut full = Matrix::zeros(n, n);
    syrk_lower_ref(&mut full, a);
    PackedLower::from_matrix(&full)
}

#[test]
fn syrk_packed_matches_reference_on_edge_shapes() {
    for &n in &EDGE {
        for &k in &EDGE {
            let a = seeded_matrix::<f64>(n, k, (n * 13 + k) as u64 + 3);
            let want = syrk_reference_packed(&a);
            let got = syrk_packed_new(&a, Diag::Inclusive);
            assert_eq!(got.len(), want.len());
            let err = want
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "syrk_packed (n={n},k={k}): err {err}");
        }
    }
}

#[test]
fn syrk_packed_matches_reference_on_aspect_extremes() {
    for &(n, k) in &[(130usize, 5usize), (5, 700), (130, 130)] {
        let a = seeded_matrix::<f64>(n, k, 7);
        let want = syrk_reference_packed(&a);
        let got = syrk_packed_new(&a, Diag::Inclusive);
        let err = want
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10, "syrk_packed (n={n},k={k}): err {err}");
    }
}

/// Forced-ISA shape battery: for every ISA this host can execute, edge
/// shapes derived from *that ISA's* tile geometry (0, 1, mr±1, nr±1,
/// one past a dual tile) run through gemm_nt and syrk_packed against
/// the scalar references. Tolerance-based on purpose: the comparison
/// must hold for any ISA, and this binary's other tests may run
/// concurrently with the force guard active.
#[test]
fn forced_isa_edge_shape_battery() {
    for isa in available_isas() {
        let spec = dispatch_for_isa_f64(isa).spec;
        let _f = force_isa(isa);
        let mut edges = vec![
            0,
            1,
            spec.mr - 1,
            spec.mr,
            spec.mr + 1,
            spec.nr - 1,
            spec.nr,
            spec.nr + 1,
            2 * spec.mr + 1,
        ];
        edges.sort_unstable();
        edges.dedup();
        for &m in &edges {
            for &n in &edges {
                for &k in &[0usize, 1, 7, 65] {
                    let a = seeded_matrix::<f64>(m, k, (m * 31 + k) as u64 + 1);
                    let b = seeded_matrix::<f64>(n, k, (n * 17 + k) as u64 + 2);
                    let mut want = Matrix::zeros(m, n);
                    gemm_nt_ref(&mut want, &a, &b);
                    let mut got = Matrix::zeros(m, n);
                    gemm_nt(&mut got, a.view(), b.view());
                    let err = max_abs(&got, &want);
                    assert!(err < 1e-10, "{isa} gemm_nt ({m},{n},{k}): err {err}");
                }
            }
        }
        for &n in &edges {
            for &k in &[1usize, 7, 65] {
                let a = seeded_matrix::<f64>(n, k, (n * 13 + k) as u64 + 3);
                let want = syrk_reference_packed(&a);
                let got = syrk_packed_new(&a, Diag::Inclusive);
                let err = want
                    .as_slice()
                    .iter()
                    .zip(got.as_slice())
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max);
                assert!(err < 1e-10, "{isa} syrk (n={n},k={k}): err {err}");
            }
        }
    }
}

/// The flop-balanced schedule must partition the packed triangle: writing
/// each chunk's packed row range exactly once touches every word exactly
/// once, with no gaps, overlaps, or misaligned boundaries.
#[test]
fn balanced_chunks_cover_packed_triangle_exactly_once() {
    for &n in &[1usize, 4, 7, 64, 257] {
        for parts in [1usize, 2, 3, 8] {
            let chunks = balanced_triangle_chunks(n, parts, MR.min(NR));
            let mut touched = vec![0u32; Diag::Inclusive.packed_len(n)];
            let mut covered_rows = 0;
            for r in &chunks {
                assert!(
                    r.start == covered_rows,
                    "gap or overlap at row {covered_rows}"
                );
                assert!(
                    r.start % MR == 0,
                    "chunk start {} not aligned to MR={MR}",
                    r.start
                );
                covered_rows = r.end;
                for i in r.clone() {
                    let off = i * (i + 1) / 2;
                    for w in &mut touched[off..=off + i] {
                        *w += 1;
                    }
                }
            }
            assert_eq!(covered_rows, n, "chunks must tile all {n} rows");
            assert!(
                touched.iter().all(|&w| w == 1),
                "n={n} parts={parts}: some packed word not covered exactly once"
            );
        }
    }
}
