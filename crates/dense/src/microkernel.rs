//! The register-blocked inner kernels and the per-ISA dispatch table.
//!
//! One kernel call computes a full `mr × nr` tile of the product of two
//! packed panels (see [`crate::pack`]). Two kernel families exist:
//!
//! * the **portable** `MR × NR = 4 × 4` kernel below — the accumulator
//!   lives in a fixed-size 2-D array that LLVM keeps in vector
//!   registers, the k-loop is unrolled by four, and the multiply-add is
//!   written as separate `*` and `+` so the autovectorizer can use
//!   packed mul/add instructions on every target (a call into a fused
//!   `mul_add` libm routine would serialize the loop on targets without
//!   a hardware FMA mapping);
//! * the **explicit SIMD** f64 kernels of the private `simd` module —
//!   8×6 AVX2, 16×14 AVX-512, 8×6 NEON — selected at runtime by
//!   [`crate::isa`].
//!
//! The tile geometry is therefore no longer a compile-time constant:
//! every driver resolves a [`Dispatch`] (a [`KernelSpec`] plus a kernel
//! function pointer) once per kernel invocation via
//! [`crate::scalar::Scalar::dispatch`] and sizes its packing, blocking,
//! and chunking from the spec. The portable kernel keeps `MR == NR`
//! deliberately: SYRK-shaped drivers then feed *one* packed copy of `A`
//! to both sides of the kernel, halving pack traffic; the SIMD specs
//! have `mr ≠ nr` and those drivers fall back to one pack per operand
//! side.

use crate::isa::Isa;
use crate::scalar::Scalar;

/// Register-tile rows per portable-microkernel call.
pub const MR: usize = 4;
/// Register-tile columns per portable-microkernel call.
pub const NR: usize = 4;

/// Largest `mr` any [`KernelSpec`] uses (the AVX-512 tile height).
pub(crate) const MAX_MR: usize = 16;
/// Largest `nr` any [`KernelSpec`] uses (the AVX-512 tile width).
pub(crate) const MAX_NR: usize = 14;
/// Scratch size (in scalars) that holds any spec's `mr × nr` tile —
/// drivers keep one stack buffer of this size per task.
pub(crate) const MAX_ACC: usize = MAX_MR * MAX_NR;

/// The tile geometry and cache blocking of one dispatched kernel.
///
/// Every field is a runtime value so the same drivers serve all ISAs:
///
/// * `mr`/`nr` — register-tile shape; packed-panel lane widths follow it
///   (row-side packs use `mr` lanes, column-side packs `nr`).
/// * `kc` — inner-dimension panel depth (one `kc`-deep strip of packed
///   A and B is live at a time, ≈ L2-resident for f64).
/// * `mc` — row-block height packed per task iteration; a multiple of
///   every `mr` so shared-pack publication blocks align with tiles.
/// * `nc` — column-block width swept per row block **and** the B-side
///   shared-pack publication granularity, so it must be a multiple of
///   `nr` (which is why the SIMD specs use 252, not 256).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// The ISA this spec belongs to.
    pub isa: Isa,
    /// Register-tile rows per kernel call.
    pub mr: usize,
    /// Register-tile columns per kernel call.
    pub nr: usize,
    /// Inner-dimension (k) panel depth.
    pub kc: usize,
    /// Row-block height per task pack iteration (multiple of `mr`).
    pub mc: usize,
    /// Column-block width / B-side publication block (multiple of `nr`).
    pub nc: usize,
}

/// The f64 tile geometry of each ISA.
pub(crate) fn spec_for_isa(isa: Isa) -> KernelSpec {
    match isa {
        Isa::Scalar => KernelSpec {
            isa,
            mr: MR,
            nr: NR,
            kc: 256,
            mc: 64,
            nc: 256,
        },
        // 12 of 16 ymm (AVX2) / 24 of 32 q-regs (NEON) accumulate.
        Isa::Avx2 | Isa::Neon => KernelSpec {
            isa,
            mr: 8,
            nr: 6,
            kc: 256,
            mc: 64,
            nc: 252,
        },
        // 28 of 32 zmm accumulate; 252 = 14 · 18 keeps NC | nr.
        Isa::Avx512 => KernelSpec {
            isa,
            mr: 16,
            nr: 14,
            kc: 256,
            mc: 64,
            nc: 252,
        },
    }
}

/// A dispatchable microkernel: `kernel(kc, ap, bp, acc)` overwrites the
/// row-major `spec.mr × spec.nr` tile `acc` with the fully accumulated
/// product of the two packed panels.
pub(crate) type KernelFn<T> = fn(usize, &[T], &[T], &mut [T]);

/// One resolved kernel dispatch: the tile/blocking geometry plus the
/// kernel function pointer that computes tiles of that shape.
#[derive(Debug, Clone, Copy)]
pub struct Dispatch<T: Scalar> {
    /// Tile geometry and cache blocking.
    pub spec: KernelSpec,
    /// The `mr × nr` tile kernel.
    pub kernel: KernelFn<T>,
    /// The same ISA's arithmetic one entry at a time, for products too
    /// small to pack: `chains(x, y, rs, ps, acc)` sets
    /// `acc[j] = Σ_p x[p]·y[j·rs + p·ps]`, each entry one chain from zero
    /// in ascending `p` (see `crate::direct`).
    pub(crate) chains: fn(&[T], &[T], usize, usize, &mut [T]),
}

/// The portable kernel behind the dispatchable slice interface: computes
/// the `MR × NR` tile and copies it row-major into `acc`
/// (`acc[i · NR + j] = tile[i][j]`).
pub(crate) fn portable_kernel<T: Scalar>(kc: usize, ap: &[T], bp: &[T], acc: &mut [T]) {
    let tile = microkernel(kc, ap, bp);
    for (row, dst) in tile.iter().zip(acc.chunks_exact_mut(NR)) {
        dst.copy_from_slice(row);
    }
}

/// The f64 dispatch for a specific ISA. The caller must only pass ISAs
/// the host can execute (see [`available_isas`](crate::available_isas)); asking for
/// a foreign-architecture ISA panics.
pub fn dispatch_for_isa_f64(isa: Isa) -> Dispatch<f64> {
    type ChainsFn = fn(&[f64], &[f64], usize, usize, &mut [f64]);
    let (kernel, chains): (KernelFn<f64>, ChainsFn) = match isa {
        Isa::Scalar => (portable_kernel, crate::direct::chains::<f64, false>),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => (
            crate::simd::x86::microkernel_avx2_8x6,
            crate::simd::x86::chains_avx2,
        ),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => (
            crate::simd::x86::microkernel_avx512_16x14,
            crate::simd::x86::chains_avx512,
        ),
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => (
            crate::simd::arm::microkernel_neon_8x6,
            crate::simd::arm::chains_neon,
        ),
        #[allow(unreachable_patterns)]
        other => panic!("ISA {other} has no kernel on this target architecture"),
    };
    Dispatch {
        spec: spec_for_isa(isa),
        kernel,
        chains,
    }
}

/// The f64 dispatch the process ISA selection picks (see
/// [`crate::isa::dispatched_isa`]). Drivers resolve this once per kernel
/// invocation, so a [`crate::isa::force_isa`] guard or `SYRK_FORCE_ISA`
/// pins every tile of a call to one kernel.
pub fn dispatch_f64() -> Dispatch<f64> {
    dispatch_for_isa_f64(crate::isa::dispatched_isa())
}

/// One fully-accumulated register tile.
pub(crate) type Acc<T> = [[T; NR]; MR];

/// Rank-1 update of the accumulator from one k-step of each panel.
#[inline(always)]
fn step<T: Scalar>(acc: &mut Acc<T>, a: &[T], b: &[T]) {
    let a: &[T; MR] = a.try_into().unwrap();
    let b: &[T; NR] = b.try_into().unwrap();
    for i in 0..MR {
        for j in 0..NR {
            acc[i][j] += a[i] * b[j];
        }
    }
}

/// `MR × NR` tile of `Ap · Bpᵀ` over `kc` inner iterations, where `ap`
/// is one k-major micro-panel of MR rows and `bp` one of NR rows.
/// Accumulation is in ascending k order, so results are deterministic
/// and independent of how callers block the surrounding loops.
#[inline]
pub fn microkernel<T: Scalar>(kc: usize, ap: &[T], bp: &[T]) -> Acc<T> {
    let mut acc = [[T::zero(); NR]; MR];
    let ap = &ap[..kc * MR];
    let bp = &bp[..kc * NR];
    let mut a4 = ap.chunks_exact(4 * MR);
    let mut b4 = bp.chunks_exact(4 * NR);
    for (a, b) in a4.by_ref().zip(b4.by_ref()) {
        step(&mut acc, &a[..MR], &b[..NR]);
        step(&mut acc, &a[MR..2 * MR], &b[NR..2 * NR]);
        step(&mut acc, &a[2 * MR..3 * MR], &b[2 * NR..3 * NR]);
        step(&mut acc, &a[3 * MR..], &b[3 * NR..]);
    }
    for (a, b) in a4
        .remainder()
        .chunks_exact(MR)
        .zip(b4.remainder().chunks_exact(NR))
    {
        step(&mut acc, a, b);
    }
    acc
}

/// Add the leading `rows × cols` corner of a row-major `mr × nr` tile
/// `acc` (row stride `nr`) into a row-major destination `dst` with row
/// stride `stride`, starting at `dst[0]`.
#[inline]
pub(crate) fn store_add<T: Scalar>(
    dst: &mut [T],
    stride: usize,
    rows: usize,
    cols: usize,
    acc: &[T],
    nr: usize,
) {
    for (i, arow) in acc.chunks_exact(nr).enumerate().take(rows) {
        let drow = &mut dst[i * stride..i * stride + cols];
        for (d, &v) in drow.iter_mut().zip(arow.iter()) {
            *d += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::pack::pack_rows;
    use crate::rng::seeded_matrix;

    #[test]
    fn kernel_matches_scalar_dot_products() {
        for kc in [0usize, 1, 3, 4, 5, 8, 17, 64] {
            let a = seeded_matrix::<f64>(MR, kc, 100 + kc as u64);
            let b = seeded_matrix::<f64>(NR, kc, 200 + kc as u64);
            let (mut ap, mut bp) = (Vec::new(), Vec::new());
            pack_rows(&mut ap, a.view(), 0..MR, 0..kc, MR);
            pack_rows(&mut bp, b.view(), 0..NR, 0..kc, NR);
            let acc = microkernel(kc, &ap, &bp);
            for i in 0..MR {
                for j in 0..NR {
                    let want: f64 = (0..kc).map(|p| a[(i, p)] * b[(j, p)]).sum();
                    assert!(
                        (acc[i][j] - want).abs() < 1e-12,
                        "kc={kc} ({i},{j}): {} vs {want}",
                        acc[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn padded_lanes_do_not_leak() {
        // Pack only 2 live rows on each side; lanes 2..4 are zeros and
        // the corresponding accumulator entries must be exactly zero.
        let a = seeded_matrix::<f64>(2, 9, 5);
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        pack_rows(&mut ap, a.view(), 0..2, 0..9, MR);
        pack_rows(&mut bp, a.view(), 0..2, 0..9, NR);
        let acc = microkernel(9, &ap, &bp);
        for (i, row) in acc.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if i >= 2 || j >= 2 {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn stores_clamp_and_accumulate() {
        let acc: Vec<f64> = (0..MR * NR).map(|x| x as f64).collect();
        let mut m = Matrix::from_fn(3, 5, |_, _| 1.0);
        let stride = m.cols();
        store_add(&mut m.as_mut_slice()[stride..], stride, 2, 3, &acc, NR);
        assert_eq!(m[(0, 0)], 1.0, "rows above the store untouched");
        assert_eq!(m[(1, 0)], 1.0 + acc[0]);
        assert_eq!(m[(2, 2)], 1.0 + acc[NR + 2]);
        assert_eq!(m[(1, 3)], 1.0, "clamped columns untouched");
    }

    #[test]
    fn portable_kernel_flattens_the_tile() {
        let kc = 11;
        let a = seeded_matrix::<f64>(MR, kc, 9);
        let b = seeded_matrix::<f64>(NR, kc, 10);
        let (mut ap, mut bp) = (Vec::new(), Vec::new());
        pack_rows(&mut ap, a.view(), 0..MR, 0..kc, MR);
        pack_rows(&mut bp, b.view(), 0..NR, 0..kc, NR);
        let tile = microkernel(kc, &ap, &bp);
        let mut flat = vec![f64::NAN; MR * NR];
        portable_kernel(kc, &ap, &bp, &mut flat);
        for i in 0..MR {
            for j in 0..NR {
                assert_eq!(flat[i * NR + j].to_bits(), tile[i][j].to_bits());
            }
        }
    }

    #[test]
    fn specs_satisfy_blocking_invariants() {
        for isa in Isa::ALL {
            let s = spec_for_isa(isa);
            assert_eq!(s.isa, isa);
            assert!(s.mr <= MAX_MR && s.nr <= MAX_NR, "{isa}: tile too big");
            assert!(s.mc.is_multiple_of(s.mr), "{isa}: mc must align to mr");
            assert!(s.nc.is_multiple_of(s.nr), "{isa}: nc must align to nr");
            assert!(s.kc > 0 && s.mc > 0 && s.nc > 0);
        }
    }
}
