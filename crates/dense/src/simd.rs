//! Explicit `std::arch` f64 FMA microkernels, one per ISA.
//!
//! Each kernel computes one fully-accumulated `MR × NR` register tile of
//! `Ap · Bpᵀ` from k-major packed panels (the layout contract of
//! [`crate::pack`]: `ap` holds `MR` row lanes per k-step, `bp` holds `NR`
//! column lanes; tails are zero-padded to the full tile, so these kernels
//! never see a fringe). The tile is written **row-major** into the
//! caller's `acc` scratch (`acc[i · NR + j]`), overwriting it — the same
//! contract as the portable kernel's wrapper in [`crate::microkernel`].
//!
//! Tile shapes fill each ISA's register file with accumulators while
//! leaving room for the A vectors and one B broadcast:
//!
//! * **AVX2 8×6** — 6 columns × 2 `__m256d` row vectors = 12 of 16 ymm
//!   registers accumulating, 2 for the A load pair, 1 for the broadcast.
//! * **AVX-512 16×14** — 14 × 2 `__m512d` = 28 of 32 zmm accumulating,
//!   2 + 1 for operands (31 live).
//! * **NEON 8×6** — 6 × 4 `float64x2_t` = 24 of 32 q-registers
//!   accumulating, 4 + 1 for operands.
//!
//! Determinism: every kernel accumulates in ascending-k order with a
//! fixed per-element op sequence (one fused multiply-add per k-step), so
//! for a fixed ISA the result is bitwise independent of how drivers
//! block, chunk, or place tasks. Across ISAs the *rounding* differs — FMA
//! skips the intermediate rounding the portable kernel's separate `*`
//! and `+` perform — which is why the dispatch is pinned per process
//! (see [`crate::isa`]) and tests compare ISAs by norm tolerance, never
//! bitwise.
//!
//! Safety: the public wrappers assert panel/scratch lengths and are only
//! reachable through the dispatch table, which offers an ISA solely when
//! [`crate::isa::Isa::available`] reported the required CPU features.

#![allow(dead_code)] // per-target: each arch compiles only its own kernels

/// Debug-check the panel/scratch contract shared by every kernel.
#[inline]
fn check_panels(kc: usize, ap: &[f64], bp: &[f64], acc: &[f64], mr: usize, nr: usize) {
    debug_assert!(ap.len() >= kc * mr, "A panel: {} < {}", ap.len(), kc * mr);
    debug_assert!(bp.len() >= kc * nr, "B panel: {} < {}", bp.len(), kc * nr);
    debug_assert!(acc.len() >= mr * nr, "acc: {} < {}", acc.len(), mr * nr);
}

#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use super::check_panels;
    use core::arch::x86_64::*;

    /// AVX2 + FMA 8×6 tile of `Ap · Bpᵀ` into row-major `acc`.
    ///
    /// Caller contract: the host supports AVX2 and FMA (guaranteed by the
    /// dispatch table; debug-asserted here).
    pub(crate) fn microkernel_avx2_8x6(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64]) {
        check_panels(kc, ap, bp, acc, 8, 6);
        debug_assert!(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"));
        // SAFETY: feature availability is the dispatch-table invariant;
        // panel and scratch bounds were checked above.
        unsafe { avx2_8x6(kc, ap.as_ptr(), bp.as_ptr(), acc.as_mut_ptr()) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_8x6(kc: usize, ap: *const f64, bp: *const f64, acc: *mut f64) {
        // c[j][h] accumulates rows 4h..4h+4 of column j.
        let mut c = [[_mm256_setzero_pd(); 2]; 6];
        for p in 0..kc {
            let a0 = _mm256_loadu_pd(ap.add(p * 8));
            let a1 = _mm256_loadu_pd(ap.add(p * 8 + 4));
            // Fixed j order per k-step: each element's accumulation is
            // one FMA per k in ascending-k order — deterministic under
            // any outer blocking.
            for (j, cj) in c.iter_mut().enumerate() {
                let b = _mm256_broadcast_sd(&*bp.add(p * 6 + j));
                cj[0] = _mm256_fmadd_pd(a0, b, cj[0]);
                cj[1] = _mm256_fmadd_pd(a1, b, cj[1]);
            }
        }
        // Transpose the column-vector accumulators into the row-major
        // tile. O(mr·nr) scalar stores once per kc-long k-sweep: noise.
        let mut lane = [0.0f64; 4];
        for (j, cj) in c.iter().enumerate() {
            for (h, &v) in cj.iter().enumerate() {
                _mm256_storeu_pd(lane.as_mut_ptr(), v);
                for (l, &x) in lane.iter().enumerate() {
                    *acc.add((h * 4 + l) * 6 + j) = x;
                }
            }
        }
    }

    /// AVX-512F 16×14 tile of `Ap · Bpᵀ` into row-major `acc`.
    pub(crate) fn microkernel_avx512_16x14(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64]) {
        check_panels(kc, ap, bp, acc, 16, 14);
        debug_assert!(is_x86_feature_detected!("avx512f"));
        // SAFETY: as for AVX2 — dispatch guarantees avx512f; bounds
        // checked above.
        unsafe { avx512_16x14(kc, ap.as_ptr(), bp.as_ptr(), acc.as_mut_ptr()) }
    }

    /// [`crate::direct::chains`] in AVX2 + FMA arithmetic: one `vfmadd`
    /// per step, as [`microkernel_avx2_8x6`] applies to every tile entry.
    pub(crate) fn chains_avx2(x: &[f64], y: &[f64], rs: usize, ps: usize, acc: &mut [f64]) {
        debug_assert!(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"));
        // SAFETY: the dispatch table offers this function only for
        // `Isa::Avx2`, which it selects only when `Isa::available` detected
        // AVX2 and FMA.
        unsafe { chains_fma(x, y, rs, ps, acc) }
    }

    #[target_feature(enable = "avx2,fma")]
    fn chains_fma(x: &[f64], y: &[f64], rs: usize, ps: usize, acc: &mut [f64]) {
        crate::direct::chains::<f64, true>(x, y, rs, ps, acc)
    }

    /// [`crate::direct::chains`] in AVX-512F arithmetic, the fused
    /// multiply-add of [`microkernel_avx512_16x14`].
    pub(crate) fn chains_avx512(x: &[f64], y: &[f64], rs: usize, ps: usize, acc: &mut [f64]) {
        debug_assert!(is_x86_feature_detected!("avx512f"));
        // SAFETY: the dispatch table offers this function only for
        // `Isa::Avx512`, which it selects only when `Isa::available`
        // detected AVX-512F.
        unsafe { chains_fma512(x, y, rs, ps, acc) }
    }

    #[target_feature(enable = "avx512f")]
    fn chains_fma512(x: &[f64], y: &[f64], rs: usize, ps: usize, acc: &mut [f64]) {
        crate::direct::chains::<f64, true>(x, y, rs, ps, acc)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_16x14(kc: usize, ap: *const f64, bp: *const f64, acc: *mut f64) {
        // 14 columns × 2 zmm (8 rows each) = 28 accumulators; with the
        // two A vectors and the broadcast, 31 of 32 zmm are live.
        let mut c = [[_mm512_setzero_pd(); 2]; 14];
        for p in 0..kc {
            let a0 = _mm512_loadu_pd(ap.add(p * 16));
            let a1 = _mm512_loadu_pd(ap.add(p * 16 + 8));
            for (j, cj) in c.iter_mut().enumerate() {
                let b = _mm512_set1_pd(*bp.add(p * 14 + j));
                cj[0] = _mm512_fmadd_pd(a0, b, cj[0]);
                cj[1] = _mm512_fmadd_pd(a1, b, cj[1]);
            }
        }
        let mut lane = [0.0f64; 8];
        for (j, cj) in c.iter().enumerate() {
            for (h, &v) in cj.iter().enumerate() {
                _mm512_storeu_pd(lane.as_mut_ptr(), v);
                for (l, &x) in lane.iter().enumerate() {
                    *acc.add((h * 8 + l) * 14 + j) = x;
                }
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub mod arm {
    use super::check_panels;
    use core::arch::aarch64::*;

    /// NEON 8×6 tile of `Ap · Bpᵀ` into row-major `acc`. NEON (with f64
    /// FMA) is baseline on aarch64, so no runtime feature check is
    /// needed.
    pub(crate) fn microkernel_neon_8x6(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64]) {
        check_panels(kc, ap, bp, acc, 8, 6);
        // SAFETY: NEON is mandatory on aarch64; bounds checked above.
        unsafe { neon_8x6(kc, ap.as_ptr(), bp.as_ptr(), acc.as_mut_ptr()) }
    }

    /// [`crate::direct::chains`] in NEON arithmetic, the fused
    /// multiply-add of [`microkernel_neon_8x6`]. The FPU is baseline on
    /// aarch64, so `mul_add` is one `fmadd` without a feature gate.
    pub(crate) fn chains_neon(x: &[f64], y: &[f64], rs: usize, ps: usize, acc: &mut [f64]) {
        crate::direct::chains::<f64, true>(x, y, rs, ps, acc)
    }

    #[target_feature(enable = "neon")]
    unsafe fn neon_8x6(kc: usize, ap: *const f64, bp: *const f64, acc: *mut f64) {
        // 6 columns × 4 two-lane vectors (rows 2h..2h+2) = 24 of the 32
        // q-registers accumulating.
        let mut c = [[vdupq_n_f64(0.0); 4]; 6];
        for p in 0..kc {
            let a = [
                vld1q_f64(ap.add(p * 8)),
                vld1q_f64(ap.add(p * 8 + 2)),
                vld1q_f64(ap.add(p * 8 + 4)),
                vld1q_f64(ap.add(p * 8 + 6)),
            ];
            for (j, cj) in c.iter_mut().enumerate() {
                let b = vdupq_n_f64(*bp.add(p * 6 + j));
                for (h, acc_v) in cj.iter_mut().enumerate() {
                    *acc_v = vfmaq_f64(*acc_v, a[h], b);
                }
            }
        }
        let mut lane = [0.0f64; 2];
        for (j, cj) in c.iter().enumerate() {
            for (h, &v) in cj.iter().enumerate() {
                vst1q_f64(lane.as_mut_ptr(), v);
                *acc.add((h * 2) * 6 + j) = lane[0];
                *acc.add((h * 2 + 1) * 6 + j) = lane[1];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::microkernel::dispatch_for_isa_f64;
    use crate::pack::pack_rows;
    use crate::rng::seeded_matrix;

    /// Every available SIMD kernel must agree with a plain dot-product
    /// evaluation of its tile to norm tolerance (FMA rounds differently
    /// from separate `*`/`+`, so the comparison is approximate), and
    /// padded tail lanes must come out exactly zero.
    #[test]
    fn simd_kernels_match_dot_products() {
        for isa in crate::isa::available_isas() {
            let d = dispatch_for_isa_f64(isa);
            let (mr, nr) = (d.spec.mr, d.spec.nr);
            for kc in [0usize, 1, 3, 7, 64, 257] {
                // Two live rows fewer than the tile on each side
                // exercises the zero-padded lanes.
                for (rows, cols) in [(mr, nr), (mr.saturating_sub(2), nr.saturating_sub(2))] {
                    let a = seeded_matrix::<f64>(rows, kc, 1000 + kc as u64);
                    let b = seeded_matrix::<f64>(cols, kc, 2000 + kc as u64);
                    let (mut ap, mut bp) = (Vec::new(), Vec::new());
                    pack_rows(&mut ap, a.view(), 0..rows, 0..kc, mr);
                    pack_rows(&mut bp, b.view(), 0..cols, 0..kc, nr);
                    // Zero-length packs still need one padded tile.
                    ap.resize(kc * mr, 0.0);
                    bp.resize(kc * nr, 0.0);
                    let mut acc = vec![f64::NAN; mr * nr];
                    (d.kernel)(kc, &ap, &bp, &mut acc);
                    for i in 0..mr {
                        for j in 0..nr {
                            let got = acc[i * nr + j];
                            if i >= rows || j >= cols {
                                assert_eq!(got, 0.0, "{isa} ({i},{j}): padded lane leaked");
                                continue;
                            }
                            let want: f64 = (0..kc).map(|p| a[(i, p)] * b[(j, p)]).sum();
                            assert!(
                                (got - want).abs() < 1e-10 * (kc.max(1) as f64),
                                "{isa} kc={kc} ({i},{j}): {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Same panels, same ISA, repeated calls: bitwise-identical tiles
    /// (the determinism contract drivers rely on).
    #[test]
    fn simd_kernels_are_bitwise_repeatable() {
        for isa in crate::isa::available_isas() {
            let d = dispatch_for_isa_f64(isa);
            let (mr, nr, kc) = (d.spec.mr, d.spec.nr, 129usize);
            let a = seeded_matrix::<f64>(mr, kc, 3);
            let b = seeded_matrix::<f64>(nr, kc, 4);
            let (mut ap, mut bp) = (Vec::new(), Vec::new());
            pack_rows(&mut ap, a.view(), 0..mr, 0..kc, mr);
            pack_rows(&mut bp, b.view(), 0..nr, 0..kc, nr);
            let mut first = vec![0.0; mr * nr];
            (d.kernel)(kc, &ap, &bp, &mut first);
            for _ in 0..3 {
                let mut again = vec![f64::NAN; mr * nr];
                (d.kernel)(kc, &ap, &bp, &mut again);
                assert!(
                    first
                        .iter()
                        .zip(&again)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{isa}: repeated kernel call diverged bitwise"
                );
            }
        }
    }
}
