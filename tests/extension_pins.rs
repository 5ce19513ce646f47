//! The §6 extension drivers (`syr2k_1d`, `syr2k_2d`, `symm_2d`,
//! `syrk_2d_limited`) run Algorithm 2's row-block exchange instead of
//! hand copies of it. That changes which messages they send, and nothing
//! else: `C` and every rank's words, flops and peak buffer must be what
//! they were under the copies — and, for the two SYR2K drivers, whose
//! message schedule does not change, every rank's clock too. The expected
//! values below were printed by this file's test body run against the
//! commit before the change (PR 24).
//!
//! The GEMM and ScaLAPACK baselines are pinned the same way, clocks
//! included, with values printed before their operand gathers were
//! shared (PR 31's tree).

use syrk_repro::core::{
    gemm_1d, gemm_2d, gemm_3d, scalapack_syrk_2d, symm_2d, syr2k_1d, syr2k_2d, syrk_2d_limited,
    try_syrk_2d,
};
use syrk_repro::dense::{seeded_int_matrix, Matrix};
use syrk_repro::machine::CostReport;
use syrk_repro::CostModel;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// The shape and the bit pattern of every entry of `C`.
fn c_digest(c: &Matrix<f64>) -> u64 {
    let shape = [c.rows() as u64, c.cols() as u64];
    fnv(shape
        .into_iter()
        .chain(c.as_slice().iter().map(|x| x.to_bits())))
}

/// Each rank's `words_sent`, `words_recv`, `flops` and
/// `peak_buffer_words`, plus its clock bits when `clocks` is set.
fn rank_digest(cost: &CostReport, clocks: bool) -> u64 {
    fnv(cost.ranks.iter().flat_map(|r| {
        let clock = clocks.then_some(r.clock.to_bits());
        [r.words_sent, r.words_recv, r.flops, r.peak_buffer_words]
            .into_iter()
            .chain(clock)
    }))
}

/// Small-integer entries: every sum is exact in `f64`, so `C` is the same
/// bit pattern on every ISA and thread count.
fn input(n1: usize, n2: usize, seed: u64) -> Matrix<f64> {
    seeded_int_matrix::<f64>(n1, n2, 3, seed)
}

/// A symmetric integer matrix (both triangles stored).
fn symmetric(n: usize) -> Matrix<f64> {
    let raw = input(n, n, n as u64);
    Matrix::from_fn(n, n, |i, j| raw[(i.max(j), i.min(j))])
}

/// `[C digest, rank digest, words_total, flops_total, peak_buffer_max]`.
fn check(label: &str, c: &Matrix<f64>, cost: &CostReport, clocks: bool, want: [u64; 5]) {
    let got = [
        c_digest(c),
        rank_digest(cost, clocks),
        cost.total_words(),
        cost.total_flops(),
        cost.max_peak_buffer(),
    ];
    assert_eq!(
        got, want,
        "{label}: moved (C digest {:#018x}, rank digest {:#018x})",
        got[0], got[1]
    );
}

fn msgs(cost: &CostReport) -> Vec<u64> {
    cost.ranks.iter().map(|r| r.msgs_sent).collect()
}

#[test]
fn syr2k_drivers_are_pinned() {
    let model = CostModel::typical();
    let (a, b) = (input(48, 480, 1), input(48, 480, 2));
    let run = syr2k_1d(&a, &b, 8, model).unwrap();
    check(
        "syr2k_1d 48x480 p=8",
        &run.c,
        &run.cost,
        true,
        [
            0x547c_b2e8_ca78_762d,
            0xe4fa_b9c8_8835_4dd5,
            8232,
            2_266_152,
            1176,
        ],
    );
    for (n1, n2, want) in [
        (
            360,
            8,
            [
                0x3009_33d2_531f_648d,
                0xf55e_8402_2301_cb47,
                28_800,
                2_079_360,
                1000,
            ],
        ),
        (
            10,
            3,
            [0xdf4b_cfbc_4ffd_e8a5, 0x0598_f22b_cbdd_68a1, 300, 660, 20],
        ),
    ] {
        let (a, b) = (input(n1, n2, 3), input(n1, n2, 4));
        let run = syr2k_2d(&a, &b, 5, model).unwrap();
        check(
            &format!("syr2k_2d {n1}x{n2} c=5"),
            &run.c,
            &run.cost,
            true,
            want,
        );
    }
}

#[test]
fn symm_and_limited_are_pinned() {
    let model = CostModel::typical();
    let (a, b) = (symmetric(72), input(72, 8, 5));
    let run = symm_2d(&a, &b, 3, model).unwrap();
    check(
        "symm_2d 72x8 c=3",
        &run.c,
        &run.cost,
        false,
        [
            0xd982_b3e9_bf2c_960d,
            0x02af_81f1_4a3f_60e5,
            3456,
            84_672,
            144,
        ],
    );
    for (n1, n2, c, rounds, want) in [
        (
            72,
            96,
            3,
            1,
            [
                0xa39f_f3af_54c3_6acd,
                0x567b_faf4_556d_2179,
                20_736,
                504_576,
                2532,
            ],
        ),
        (
            72,
            96,
            3,
            4,
            [
                0xa39f_f3af_54c3_6acd,
                0x968a_df93_6d9b_c579,
                20_736,
                504_576,
                804,
            ],
        ),
        (
            3,
            4,
            4,
            1,
            [0xcfb8_0dd0_a173_2c59, 0x8008_8e3c_e272_ba97, 48, 48, 15],
        ),
    ] {
        let run = syrk_2d_limited(&input(n1, n2, 6), c, rounds, model).unwrap();
        let label = format!("syrk_2d_limited {n1}x{n2} c={c} rounds={rounds}");
        check(&label, &run.c, &run.cost, false, want);
    }
}

/// Every driver sends one message per partner that shares a nonempty
/// chunk, the way Algorithm 2 does. Before the change `syrk_2d_limited`
/// and `symm_2d` ran the dense pairwise schedule, which also sends a
/// zero-word lockstep message to every rank they share no block with, so
/// the last two assertions failed there.
#[test]
fn extension_messages_are_syrk_2d_messages() {
    let model = CostModel::typical();
    let syrk = |n1, n2, c| msgs(&try_syrk_2d(&input(n1, n2, 6), c, model, None).unwrap().cost);
    for (n1, n2) in [(360, 8), (10, 3)] {
        let (a, b) = (input(n1, n2, 3), input(n1, n2, 4));
        let got = msgs(&syr2k_2d(&a, &b, 5, model).unwrap().cost);
        assert_eq!(got, syrk(n1, n2, 5), "syr2k_2d {n1}x{n2}");
    }
    for (n1, n2, c, rounds) in [(72, 96, 3, 1), (72, 96, 3, 4), (3, 4, 4, 1)] {
        let got = msgs(
            &syrk_2d_limited(&input(n1, n2, 6), c, rounds, model)
                .unwrap()
                .cost,
        );
        let want: Vec<u64> = syrk(n1, n2, c).iter().map(|m| rounds as u64 * m).collect();
        assert_eq!(got, want, "syrk_2d_limited {n1}x{n2} c={c} rounds={rounds}");
    }
    let (a, b) = (symmetric(72), input(72, 8, 5));
    let got = msgs(&symm_2d(&a, &b, 3, model).unwrap().cost);
    let want: Vec<u64> = syrk(72, 8, 3).iter().map(|m| 2 * m).collect();
    assert_eq!(got, want, "symm_2d 72x8 c=3");
}

#[test]
fn gemm_baselines_are_pinned() {
    let model = CostModel::typical();
    let a = input(24, 40, 7);
    let run = gemm_1d(&a, 4, model).unwrap();
    check(
        "gemm_1d 24x40 p=4",
        &run.c,
        &run.cost,
        true,
        [
            0x2b4b_57f8_ffe1_998d,
            0x51a1_0196_47dc_e6d1,
            1728,
            47_808,
            576,
        ],
    );
    // An even split, then one where neither the row blocks nor the
    // flattened chunks divide evenly.
    for (n1, n2, r, want_gemm, want_scalapack) in [
        (
            24,
            10,
            3,
            [
                0xad8a_17f8_ffe1_998d,
                0x5200_9b48_605c_0e00,
                960,
                11_520,
                81,
            ],
            [0xad8a_17f8_ffe1_998d, 0x3645_d757_e8ca_a1c1, 960, 6000, 81],
        ),
        (
            11,
            7,
            3,
            [0x1a87_b7ad_a960_1a29, 0x032a_2faa_5071_91a6, 308, 1694, 30],
            [0x1a87_b7ad_a960_1a29, 0xd350_3532_98b4_2a75, 308, 924, 30],
        ),
    ] {
        let a = input(n1, n2, 8);
        let run = gemm_2d(&a, r, model).unwrap();
        let label = format!("gemm_2d {n1}x{n2} r={r}");
        check(&label, &run.c, &run.cost, true, want_gemm);
        let run = scalapack_syrk_2d(&a, r, model).unwrap();
        let label = format!("scalapack_syrk_2d {n1}x{n2} r={r}");
        check(&label, &run.c, &run.cost, true, want_scalapack);
    }
    for (n1, n2, r, p2, want) in [
        (
            20,
            12,
            2,
            3,
            [
                0x8277_e381_0571_2315,
                0x750a_8310_e971_14d9,
                1280,
                10_400,
                100,
            ],
        ),
        (
            11,
            7,
            3,
            2,
            [0x325a_b7ad_a960_1a29, 0x67e4_5929_d87d_0ddc, 429, 1815, 18],
        ),
    ] {
        let run = gemm_3d(&input(n1, n2, 9), r, p2, model).unwrap();
        let label = format!("gemm_3d {n1}x{n2} r={r} p2={p2}");
        check(&label, &run.c, &run.cost, true, want);
    }
}
