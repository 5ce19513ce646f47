//! End-to-end tests of the work-stealing kernel runtime: thread-budget
//! nesting, bitwise determinism of every parallel kernel across thread
//! counts (the chunking and the steal schedule must be invisible in the
//! results), the scalar ISA's pinned bits, the arena's zero-allocation
//! steady state, and the shared pack's exact word count.
//!
//! The thread budget and the arena counters are process-global, and the
//! test harness runs tests on concurrent threads, so every test
//! serializes on one mutex: assertions about budget values or counter
//! deltas would otherwise race.

use std::sync::{Mutex, MutexGuard};
use syrk_dense::pack::packed_panel_len;
use syrk_dense::{
    available_isas, available_threads, balanced_triangle_chunks, dispatch_f64, dispatched_isa,
    force_isa, gemm_flops, kernel_stats, limit_threads, max_abs_diff, mul_nn, mul_nt,
    per_chunk_pack_words, seeded_matrix, steal_task_count, syr2k_packed_new, syrk_flops,
    syrk_packed_new, Diag, Isa, Matrix, PackedLower, SERIAL_FLOP_CUTOFF,
};
use syrk_telemetry::registry;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Ragged edge cases around the register tiles (scalar 4×4 up to
/// AVX-512 16×14) plus shapes that span mc/kc block boundaries.
const SIZES: [usize; 6] = [1, 4, 5, 64, 257, 13];

#[test]
fn budget_guard_nesting_restores_in_order() {
    let _s = serial();
    let ambient = available_threads();
    {
        let _outer = limit_threads(5);
        assert_eq!(available_threads(), 5);
        {
            let _inner = limit_threads(2);
            assert_eq!(available_threads(), 2);
            {
                let _innermost = limit_threads(7);
                assert_eq!(available_threads(), 7);
            }
            assert_eq!(available_threads(), 2, "innermost guard restores");
        }
        assert_eq!(available_threads(), 5, "inner guard restores");
    }
    assert_eq!(available_threads(), ambient, "outer guard restores");
}

#[test]
fn syrk_bitwise_identical_across_thread_counts() {
    let _s = serial();
    for &n in &SIZES {
        for &k in &[1usize, 5, 64, 257] {
            let a = seeded_matrix::<f64>(n, k, (31 * n + k) as u64);
            for diag in [Diag::Inclusive, Diag::Strict] {
                let baseline = {
                    let _g = limit_threads(1);
                    syrk_packed_new(&a, diag)
                };
                for threads in [2usize, 4] {
                    let _g = limit_threads(threads);
                    let got = syrk_packed_new(&a, diag);
                    assert_eq!(
                        got, baseline,
                        "syrk n={n} k={k} {diag:?} diverged at {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn gemm_bitwise_identical_across_thread_counts() {
    let _s = serial();
    for &(m, n, k) in &[
        (1usize, 1usize, 1usize),
        (5, 7, 5),
        (64, 64, 64),
        (257, 65, 129),
    ] {
        let a = seeded_matrix::<f64>(m, k, 3 * m as u64 + 1);
        let b = seeded_matrix::<f64>(n, k, 5 * n as u64 + 2);
        let bt = b.transpose();
        let (base_nt, base_nn) = {
            let _g = limit_threads(1);
            (mul_nt(&a, &b), mul_nn(&a, &bt))
        };
        for threads in [2usize, 4] {
            let _g = limit_threads(threads);
            assert_eq!(
                mul_nt(&a, &b),
                base_nt,
                "gemm_nt {m}x{n}x{k} at {threads} threads"
            );
            assert_eq!(
                mul_nn(&a, &bt),
                base_nn,
                "gemm_nn {m}x{n}x{k} at {threads} threads"
            );
        }
    }
}

#[test]
fn syr2k_bitwise_identical_across_thread_counts() {
    let _s = serial();
    // 2·n(n+1)·k flops, above the serial cutoff so workers really run.
    let (n, k) = (151usize, 131usize);
    let a = seeded_matrix::<f64>(n, k, 17);
    let b = seeded_matrix::<f64>(n, k, 18);
    let baseline = {
        let _g = limit_threads(1);
        syr2k_packed_new(&a, &b, Diag::Inclusive)
    };
    for threads in [2usize, 4] {
        let _g = limit_threads(threads);
        assert_eq!(
            syr2k_packed_new(&a, &b, Diag::Inclusive),
            baseline,
            "syr2k diverged at {threads} threads"
        );
    }
}

#[test]
fn repeated_stolen_runs_are_identical() {
    let _s = serial();
    // Same budget, four runs: the steal schedule differs run to run, the
    // bits must not.
    // (Above the serial cutoff: below it nothing is stolen at all.)
    let a = seeded_matrix::<f64>(257, 129, 23);
    let _g = limit_threads(4);
    let first = syrk_packed_new(&a, Diag::Inclusive);
    for run in 1..4 {
        assert_eq!(
            syrk_packed_new(&a, Diag::Inclusive),
            first,
            "run {run} diverged under identical budget"
        );
    }
}

#[test]
fn serial_cutoff_is_invisible_in_results_and_spawns_nothing_below_it() {
    let _s = serial();
    // One kernel on each side of the cutoff, per driver. gemm: 2·128·128·k;
    // syrk: 128·129·k (both within one kc = 256 inner panel).
    assert!(gemm_flops(128, 128, 127) < SERIAL_FLOP_CUTOFF);
    assert!(gemm_flops(128, 128, 128) >= SERIAL_FLOP_CUTOFF);
    assert!(syrk_flops(128, 254) < SERIAL_FLOP_CUTOFF);
    assert!(syrk_flops(128, 255) >= SERIAL_FLOP_CUTOFF);
    let counters = || {
        let snap = registry::snapshot();
        let get = |name| snap.counter(name).unwrap_or(0);
        (get("syrk_tasks_scheduled"), get("syrk_tasks_run"))
    };
    for (k_gemm, k_syrk, below) in [(127usize, 254usize, true), (128, 255, false)] {
        let a = seeded_matrix::<f64>(128, k_gemm, 51);
        let b = seeded_matrix::<f64>(128, k_gemm, 52);
        let s = seeded_matrix::<f64>(128, k_syrk, 53);
        let baseline = {
            let _g = limit_threads(1);
            (mul_nt(&a, &b), syrk_packed_new(&s, Diag::Inclusive))
        };
        for threads in [2usize, 4] {
            let _g = limit_threads(threads);
            let (stats, tasks) = (kernel_stats(), counters());
            let got = (mul_nt(&a, &b), syrk_packed_new(&s, Diag::Inclusive));
            let (stolen, (scheduled, run)) = (kernel_stats().since(&stats).steals, counters());
            assert_eq!(got, baseline, "k = {k_gemm}/{k_syrk} at {threads} threads");
            assert_eq!(run - tasks.1, scheduled - tasks.0, "every task ran");
            if below {
                // One task per kernel: the whole call stays on this thread.
                assert_eq!(scheduled - tasks.0, 2, "below the cutoff: one chunk each");
                assert_eq!(stolen, 0, "below the cutoff: nobody to steal");
            } else {
                assert!(scheduled - tasks.0 > 2, "above the cutoff: chunked");
            }
        }
    }
}

fn packed_max_abs_diff(a: &PackedLower<f64>, b: &PackedLower<f64>) -> f64 {
    assert_eq!(a.len(), b.len());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The full forced-ISA matrix: every ISA this host can execute ×
/// {syrk, gemm_nt, gemm_nn, syr2k} on ragged (off-tile-grid)
/// shapes. Per ISA the results must be bitwise identical across 1, 2,
/// and 4 threads; across ISAs they must agree with the scalar-forced
/// reference to norm tolerance (FMA kernels round differently, so
/// bitwise equality across ISAs is not expected and not asserted).
#[test]
fn forced_isa_matrix_is_deterministic_and_agrees_with_scalar() {
    let _s = serial();
    // Ragged shapes: prime-ish sizes off every ISA's tile grid, big
    // enough to span kc/mc block boundaries.
    let (n, k) = (83usize, 71usize);
    let a = seeded_matrix::<f64>(n, k, 91);
    let b = seeded_matrix::<f64>(n, k, 92);
    let bt = b.transpose();
    struct Results {
        syrk: PackedLower<f64>,
        nt: Matrix<f64>,
        nn: Matrix<f64>,
        syr2k: PackedLower<f64>,
    }
    let run_all = || Results {
        syrk: syrk_packed_new(&a, Diag::Inclusive),
        nt: mul_nt(&a, &b),
        nn: mul_nn(&a, &bt),
        syr2k: syr2k_packed_new(&a, &b, Diag::Inclusive),
    };
    let scalar = {
        let _f = force_isa(Isa::Scalar);
        let _g1 = limit_threads(1);
        run_all()
    };
    for isa in available_isas() {
        let _f = force_isa(isa);
        assert_eq!(dispatched_isa(), isa, "force guard must win the dispatch");
        let base = {
            let _g1 = limit_threads(1);
            run_all()
        };
        let tol = 1e-8;
        assert!(
            packed_max_abs_diff(&base.syrk, &scalar.syrk) < tol,
            "{isa}: syrk disagrees with scalar reference"
        );
        assert!(
            max_abs_diff(&base.nt, &scalar.nt) < tol,
            "{isa}: gemm_nt disagrees with scalar reference"
        );
        assert!(
            max_abs_diff(&base.nn, &scalar.nn) < tol,
            "{isa}: gemm_nn disagrees with scalar reference"
        );
        assert!(
            packed_max_abs_diff(&base.syr2k, &scalar.syr2k) < tol,
            "{isa}: syr2k disagrees with scalar reference"
        );
        for threads in [2usize, 4] {
            let _gt = limit_threads(threads);
            let got = run_all();
            assert_eq!(got.syrk, base.syrk, "{isa}: syrk at {threads} threads");
            assert_eq!(got.nt, base.nt, "{isa}: gemm_nt at {threads} threads");
            assert_eq!(got.nn, base.nn, "{isa}: gemm_nn at {threads} threads");
            assert_eq!(got.syr2k, base.syr2k, "{isa}: syr2k at {threads} threads");
        }
    }
}

/// FNV-1a over the bit patterns of `xs`.
fn digest(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The scalar ISA's bits, pinned: digests of each driver's output on the
/// forced-ISA matrix's ragged shapes plus one 512 × 512 SYRK, identical
/// at 1, 2 and 4 threads. They were recorded while the scalar path still
/// had a dual-panel 8×4 tile beside the 4×4 one, so they hold the 4×4
/// kernel to the bits the two-kernel path produced.
#[test]
fn scalar_isa_results_are_pinned() {
    let _s = serial();
    let _f = force_isa(Isa::Scalar);
    let (n, k) = (83usize, 71usize);
    let a = seeded_matrix::<f64>(n, k, 91);
    let b = seeded_matrix::<f64>(n, k, 92);
    let bt = b.transpose();
    let big = seeded_matrix::<f64>(512, 512, 1);
    let want = [
        ("syrk_packed_new", 0xd4c2_7a70_a848_cda4_u64),
        ("mul_nt", 0xcc66_78c0_5fd5_b57e),
        ("mul_nn", 0xcc66_78c0_5fd5_b57e),
        ("syr2k_packed_new", 0x207c_8949_5c61_83e0),
        ("syrk_packed_new 512", 0xf107_8be0_c4a6_2032),
    ];
    for threads in [1usize, 2, 4] {
        let _g = limit_threads(threads);
        let got = [
            (
                "syrk_packed_new",
                digest(syrk_packed_new(&a, Diag::Inclusive).as_slice()),
            ),
            ("mul_nt", digest(mul_nt(&a, &b).as_slice())),
            ("mul_nn", digest(mul_nn(&a, &bt).as_slice())),
            (
                "syr2k_packed_new",
                digest(syr2k_packed_new(&a, &b, Diag::Inclusive).as_slice()),
            ),
            (
                "syrk_packed_new 512",
                digest(syrk_packed_new(&big, Diag::Inclusive).as_slice()),
            ),
        ];
        assert_eq!(got, want, "scalar ISA at {threads} threads");
    }
}

#[test]
fn arena_steady_state_allocates_nothing() {
    let _s = serial();
    let a = seeded_matrix::<f64>(130, 300, 41);
    let _g = limit_threads(2);
    // Warm-up run populates the arena (its buffers return to the pool
    // when the workers exit).
    let warm = syrk_packed_new(&a, Diag::Inclusive);
    let before = kernel_stats();
    let again = syrk_packed_new(&a, Diag::Inclusive);
    let d = kernel_stats().since(&before);
    assert_eq!(again, warm);
    assert_eq!(
        d.arena_alloc_bytes, 0,
        "second identical kernel call must reuse every pack buffer"
    );
    assert_eq!(d.arena_misses, 0, "steady state must not miss the arena");
    assert!(d.arena_hits >= 1, "steady state must hit the arena");
}

#[test]
fn four_thread_syrk_packs_each_operand_side_exactly_once() {
    let _s = serial();
    // Each of the two kc = 256 inner panels is 512·513·256 flops, far
    // above the serial cutoff: sixteen chunks over four workers really
    // share the packs.
    let (n, k) = (512usize, 512usize);
    assert!(syrk_flops(n, k / 2) >= SERIAL_FLOP_CUTOFF);
    let a = seeded_matrix::<f64>(n, k, 1);
    let spec = dispatch_f64().spec;
    let (mr, nr) = (spec.mr, spec.nr);
    let _g = limit_threads(4);
    let before = kernel_stats();
    let _ = syrk_packed_new(&a, Diag::Inclusive);
    let packed = kernel_stats().since(&before).pack_words;
    // One full-height shared copy per operand side: a single pack at lane
    // width mr when the tile is square (both sides alias it), a second at
    // nr for a rectangular SIMD tile. Both counts are linear in the panel
    // width, so the totals use the full k.
    let sides: &[usize] = if mr == nr { &[mr] } else { &[mr, nr] };
    let shared: u64 = sides
        .iter()
        .map(|&r| packed_panel_len(n, k, r) as u64)
        .sum();
    assert_eq!(packed, shared, "spec {mr}x{nr}: every block packed once");
    // Against every chunk packing its own triangle prefix.
    let chunks = balanced_triangle_chunks(n, Diag::Inclusive, steal_task_count(4), mr);
    let per_chunk: u64 = sides
        .iter()
        .map(|&r| per_chunk_pack_words(&chunks, k, r))
        .sum();
    assert!(
        per_chunk as f64 >= 1.8 * packed as f64,
        "shared {packed} words vs per-chunk model {per_chunk} over {} chunks",
        chunks.len()
    );
}
