//! The §6 extension drivers (`syr2k`, `symm_2d`, `syrk_2d_limited`) run
//! Algorithm 2's row-block exchange instead of hand copies of it. That
//! changed which messages they send, and nothing else: `C` and every
//! rank's words, flops and peak buffer had to be what they were under
//! the copies — and, for SYR2K, whose message schedule did not change,
//! every rank's clock too. The expected values below were printed by
//! this file's test body run against the commit before that change.
//!
//! SYR2K then moved onto SYRK's grid driver. `syr2k_traffic_is_pinned`
//! was printed before that move and holds after it; of
//! `syr2k_drivers_are_pinned` only the peak buffer (and with it the rank
//! digest) moved, because a rank now notes every operand it holds: both
//! column blocks in 1D, both inputs' gathered blocks and chunks in 2D.
//!
//! Then every slice came to note its footprint by one rule, and the
//! panel variant moved onto the grid driver. That moved peaks only: the
//! panel variant's (and with them its rank digests), which now count the
//! operands each panel reads instead of the owned output, and SYR2K 1D's,
//! whose one-rank slices no longer count their output triangle.
//! `limited_traffic_is_pinned` and
//! `syr2k_1d_report_is_pinned_but_for_its_peaks` were printed before that
//! change and hold after it.
//!
//! The GEMM and ScaLAPACK baselines are pinned the same way, clocks
//! included, with values printed before their operand gathers were
//! shared; their messages, phase rows and the tall shapes whose `C`
//! outgrows `A` were printed before the four ran on one SUMMA grid.

use syrk_repro::core::{
    gemm_1d, gemm_2d, gemm_3d, scalapack_syrk_2d, symm_2d, syr2k, syrk_2d_limited, try_syrk_2d,
    Plan, SyrkRunResult,
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
    let run = syr2k(&a, &b, Plan::OneD { p: 8 }, model).unwrap();
    check(
        "syr2k_1d 48x480 p=8",
        &run.c,
        &run.cost,
        true,
        [
            0x547c_b2e8_ca78_762d,
            0x2399_8915_d01b_5fb5,
            8232,
            2_266_152,
            5760,
        ],
    );
    for (n1, n2, want) in [
        (
            360,
            8,
            [
                0x3009_33d2_531f_648d,
                0xfc12_d649_fe91_dc27,
                28_800,
                2_079_360,
                1400,
            ],
        ),
        (
            10,
            3,
            [0xdf4b_cfbc_4ffd_e8a5, 0x69c4_5c02_874a_d351, 300, 660, 30],
        ),
    ] {
        let (a, b) = (input(n1, n2, 3), input(n1, n2, 4));
        let run = syr2k(&a, &b, Plan::TwoD { c: 5 }, model).unwrap();
        check(
            &format!("syr2k_2d {n1}x{n2} c=5"),
            &run.c,
            &run.cost,
            true,
            want,
        );
    }
}

/// Each rank's `words_sent`, `words_recv`, `msgs_sent`, `flops` and
/// clock bits: what a run costs, without its buffer accounting.
fn traffic_digest(cost: &CostReport) -> u64 {
    fnv(cost.ranks.iter().flat_map(|r| {
        [
            r.words_sent,
            r.words_recv,
            r.msgs_sent,
            r.flops,
            r.clock.to_bits(),
        ]
    }))
}

/// `C` and every rank's traffic, flops and clock of both SYR2K grid
/// shapes, at full, uneven and single-rank shapes. No peak buffer: only
/// the footprint convention may move when the drivers change.
#[test]
fn syr2k_traffic_is_pinned() {
    let model = CostModel::typical();
    let check = |label: &str, c: &Matrix<f64>, cost: &CostReport, want: [u64; 2]| {
        let got = [c_digest(c), traffic_digest(cost)];
        assert_eq!(
            got, want,
            "{label}: moved (C digest {:#018x}, traffic digest {:#018x})",
            got[0], got[1]
        );
    };
    for (n1, n2, p, want) in [
        (48, 480, 8, [0x547c_b2e8_ca78_762d, 0xa155_1621_ec91_ad4d]),
        (5, 3, 4, [0xc62a_140d_d70e_190d, 0x01b2_3821_fa33_45da]),
        (7, 5, 1, [0x8f5f_cf89_bc2f_eaa9, 0x2096_92dc_c22a_9952]),
    ] {
        let (a, b) = (input(n1, n2, 1), input(n1, n2, 2));
        let run = syr2k(&a, &b, Plan::OneD { p }, model).unwrap();
        check(
            &format!("syr2k 1D {n1}x{n2} p={p}"),
            &run.c,
            &run.cost,
            want,
        );
    }
    for (n1, n2, c, want) in [
        (360, 8, 5, [0x3009_33d2_531f_648d, 0x3505_6e31_dcd2_cb41]),
        (10, 3, 5, [0xdf4b_cfbc_4ffd_e8a5, 0x63bd_ad22_9cc4_3d5b]),
        (36, 8, 3, [0x08f8_3a6e_071b_8fd5, 0x2c28_0e3a_adaf_6551]),
    ] {
        let (a, b) = (input(n1, n2, 3), input(n1, n2, 4));
        let run = syr2k(&a, &b, Plan::TwoD { c }, model).unwrap();
        check(
            &format!("syr2k 2D {n1}x{n2} c={c}"),
            &run.c,
            &run.cost,
            want,
        );
    }
}

/// Every per-rank and per-phase counter but `peak_buffer_words`, clock
/// bits included, and the phase names in first-use order.
fn report_digest_but_peak(cost: &CostReport) -> u64 {
    fnv(cost
        .ranks
        .iter()
        .zip(&cost.phases)
        .flat_map(|(rank, phases)| {
            let rows = std::iter::once(("", rank)).chain(phases.iter().map(|p| (p.name, &p.cost)));
            rows.flat_map(|(name, c)| {
                let counters = [
                    c.msgs_sent,
                    c.msgs_recv,
                    c.words_sent,
                    c.words_recv,
                    c.flops,
                    c.clock.to_bits(),
                ];
                name.bytes().map(u64::from).chain(counters)
            })
        }))
}

/// The one-rank-slice run of `syr2k_drivers_are_pinned`, SYR2K on
/// Algorithm 1's grid, by `C` and its whole cost report but the peaks.
/// Printed before every slice noted its footprint by one rule, which
/// moved only this run's peaks.
#[test]
fn syr2k_1d_report_is_pinned_but_for_its_peaks() {
    let (a, b) = (input(48, 480, 1), input(48, 480, 2));
    let run = syr2k(&a, &b, Plan::OneD { p: 8 }, CostModel::typical()).unwrap();
    let got = [c_digest(&run.c), report_digest_but_peak(&run.cost)];
    assert_eq!(
        got,
        [0x547c_b2e8_ca78_762d, 0x65b1_16b5_e127_f1b5],
        "syr2k_1d 48x480 p=8: moved (report digest {:#018x})",
        got[1]
    );
}

/// The panel variant's `C` and each rank's traffic, flops and clock at
/// E16's shape and every round count it prints, at `n1 < c²`, and with
/// more rounds than columns. Printed while the variant had a driver of
/// its own; only its peaks and phase rows may move when it runs on the
/// grid driver.
#[test]
fn limited_traffic_is_pinned() {
    let model = CostModel::typical();
    for (n1, n2, c, rounds, want) in [
        (72, 96, 3, 1, [0xa39f_f3af_54c3_6acd, 0xa67d_33fa_1e09_9b81]),
        (72, 96, 3, 2, [0xa39f_f3af_54c3_6acd, 0x14c1_190e_7a11_1346]),
        (72, 96, 3, 4, [0xa39f_f3af_54c3_6acd, 0xea32_f1ac_3a6a_8291]),
        (72, 96, 3, 8, [0xa39f_f3af_54c3_6acd, 0x460c_6543_9aa5_4538]),
        (
            72,
            96,
            3,
            16,
            [0xa39f_f3af_54c3_6acd, 0x02dd_84f1_369c_e5fd],
        ),
        (3, 4, 4, 1, [0xcfb8_0dd0_a173_2c59, 0x3782_26d0_88b6_e8bd]),
        (3, 4, 4, 4, [0xcfb8_0dd0_a173_2c59, 0x54ec_3bbd_13ba_62c7]),
        (8, 3, 2, 10, [0xf18d_f3f8_6fef_23cd, 0x52d2_19d9_fc1d_454f]),
    ] {
        let run = syrk_2d_limited(&input(n1, n2, 6), c, rounds, model).unwrap();
        let got = [c_digest(&run.c), traffic_digest(&run.cost)];
        assert_eq!(
            got, want,
            "syrk_2d_limited {n1}x{n2} c={c} rounds={rounds}: moved ({:#018x}, {:#018x})",
            got[0], got[1]
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
                0x60aa_59f7_4d4f_f2e5,
                20_736,
                504_576,
                2880,
            ],
        ),
        (
            72,
            96,
            3,
            4,
            [
                0xa39f_f3af_54c3_6acd,
                0xca6f_bed7_89b1_dfa5,
                20_736,
                504_576,
                720,
            ],
        ),
        (
            3,
            4,
            4,
            1,
            [0xcfb8_0dd0_a173_2c59, 0xf6ed_a53a_dbbe_03a5, 48, 48, 12],
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
        let got = msgs(&syr2k(&a, &b, Plan::TwoD { c: 5 }, model).unwrap().cost);
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

/// Each rank's message count, as a digest.
fn msgs_digest(cost: &CostReport) -> u64 {
    fnv(msgs(cost))
}

/// [`check`] with clocks, plus every rank's messages and the run's phase
/// rows in order of first use. A grid corner runs no collective over a
/// unit dimension — not even one that moves nothing, which would still
/// leave a phase row — and its peak buffer is what its ranks hold, not
/// a `C` block it never reduces.
fn check_baseline(label: &str, run: &SyrkRunResult, want: [u64; 5], msgs: u64, phases: &[&str]) {
    check(label, &run.c, &run.cost, true, want);
    assert_eq!(msgs_digest(&run.cost), msgs, "{label}: messages moved");
    assert_eq!(run.cost.phase_names(), phases, "{label}: phase rows moved");
}

#[test]
fn gemm_baselines_are_pinned() {
    let model = CostModel::typical();
    let one_d = ["(untagged)", "coll:reduce-scatter"];
    let two_d = ["coll:all-gather", "(untagged)"];
    // A wide input, then a tall one whose n1² words of C outweigh its
    // columns of A.
    for (n1, n2, p, want, want_msgs) in [
        (
            24,
            40,
            4,
            [
                0x2b4b_57f8_ffe1_998d,
                0x51a1_0196_47dc_e6d1,
                1728,
                47_808,
                576,
            ],
            0xe46c_7887_ef13_2d79,
        ),
        (
            40,
            8,
            5,
            [
                0x9a46_d06f_9cdb_6d0d,
                0x0113_b7a1_a999_f87e,
                6400,
                32_000,
                1600,
            ],
            0x0f53_1b50_7530_bd33,
        ),
    ] {
        let run = gemm_1d(&input(n1, n2, 7), p, model).unwrap();
        let label = format!("gemm_1d {n1}x{n2} p={p}");
        check_baseline(&label, &run, want, want_msgs, &one_d);
    }
    // An even split, then one where neither the row blocks nor the
    // flattened chunks divide evenly, then a C block that outgrows the
    // gathered operands.
    for (n1, n2, r, want_gemm, want_scalapack, want_msgs) in [
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
            0x9bec_b701_be5e_1b53,
        ),
        (
            11,
            7,
            3,
            [0x1a87_b7ad_a960_1a29, 0x032a_2faa_5071_91a6, 308, 1694, 30],
            [0x1a87_b7ad_a960_1a29, 0xd350_3532_98b4_2a75, 308, 924, 30],
            0x9bec_b701_be5e_1b53,
        ),
        (
            60,
            2,
            3,
            [
                0xa622_7535_127d_6ae5,
                0xf606_78ff_652a_8696,
                480,
                14_400,
                42,
            ],
            [0xa622_7535_127d_6ae5, 0xede8_1af8_d9ad_a571, 480, 7320, 42],
            0x9bec_b701_be5e_1b53,
        ),
    ] {
        let a = input(n1, n2, 8);
        let run = gemm_2d(&a, r, model).unwrap();
        let label = format!("gemm_2d {n1}x{n2} r={r}");
        check_baseline(&label, &run, want_gemm, want_msgs, &two_d);
        let run = scalapack_syrk_2d(&a, r, model).unwrap();
        let label = format!("scalapack_syrk_2d {n1}x{n2} r={r}");
        check_baseline(&label, &run, want_scalapack, want_msgs, &two_d);
    }
    for (n1, n2, r, p2, want, want_msgs) in [
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
            0x29c2_7163_8f72_0f45,
        ),
        (
            11,
            7,
            3,
            2,
            [0x325a_b7ad_a960_1a29, 0x67e4_5929_d87d_0ddc, 429, 1815, 18],
            0x1f47_805a_2ac5_496f,
        ),
    ] {
        let run = gemm_3d(&input(n1, n2, 9), r, p2, model).unwrap();
        let label = format!("gemm_3d {n1}x{n2} r={r} p2={p2}");
        let phases = ["coll:all-gather", "(untagged)", "coll:reduce-scatter"];
        check_baseline(&label, &run, want, want_msgs, &phases);
    }
}
