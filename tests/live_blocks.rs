//! The 2D body derives everything from the row blocks that *exist*
//! (`rows(i) > 0`) instead of walking all `c` blocks of `R_k` and all
//! `c(c−1)/2` pairs. That is a host-time change only: `C` and every number
//! of the cost report must be what they were when the body scanned
//! everything. The expected values below were printed by this file's
//! `digest` run against the commit before the live-block rule (PR 11).
//!
//! The shapes straddle the regimes of the rule: `n1 < c²` (most blocks
//! dead, some ranks' `D_k` dead), `n1 = c² ± 1`, `n1 = 4c`, a 3D grid with
//! more slices than columns (live blocks with zero words — the case that
//! separates `rows(i) > 0` from `block_len(i) > 0`), the padded variant,
//! and the 2256-rank shape of the `sim_ranks` benchmark workload.

use syrk_core::{
    run, try_syrk_2d, try_syrk_3d, Plan, RunSpec, SyrkRunResult, TriangleBlockDist, PHASE_ABFT,
};
use syrk_dense::{seeded_int_matrix, syrk_full_reference, Matrix, Partition1D};
use syrk_machine::{CostModel, CostReport};

/// FNV-1a over every rank row and every phase row of the report: all
/// counters, the clock bits, and the phase names in first-use order.
fn digest(cost: &CostReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (rank, phases) in cost.ranks.iter().zip(&cost.phases) {
        let rows = std::iter::once(("", rank)).chain(phases.iter().map(|p| (p.name, &p.cost)));
        for (name, c) in rows {
            name.bytes().for_each(|b| eat(b as u64));
            for x in [
                c.msgs_sent,
                c.msgs_recv,
                c.words_sent,
                c.words_recv,
                c.flops,
                c.clock.to_bits(),
                c.peak_buffer_words,
            ] {
                eat(x);
            }
        }
    }
    h
}

/// `[words_total, words_max, messages_max, peak_buffer, flops_total, digest]`.
fn summary(cost: &CostReport) -> [u64; 6] {
    [
        cost.total_words(),
        cost.max_words_sent(),
        cost.max_messages(),
        cost.max_peak_buffer(),
        cost.total_flops(),
        digest(cost),
    ]
}

/// The seeded small-integer input of every case here: all sums are exact
/// in `f64`, so `C` is the same bit pattern on every ISA and thread count.
fn input(n1: usize, n2: usize) -> Matrix<f64> {
    seeded_int_matrix::<f64>(n1, n2, 3, (n1 * 31 + n2) as u64)
}

/// `C` must be the reference bit for bit and the cost report the pinned one.
fn check(label: &str, a: &Matrix<f64>, run: SyrkRunResult, want: [u64; 6]) {
    let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&run.c),
        bits(&syrk_full_reference(a)),
        "{label}: C differs from the reference"
    );
    let got = summary(&run.cost);
    assert_eq!(
        got, want,
        "{label}: cost report moved (digest {:#018x})",
        got[5]
    );
}

#[test]
fn twod_cost_reports_are_pinned_across_live_block_regimes() {
    // c = 3: n1 ∈ {1, c, c²−1, c²+1, 4c}. With n1 = c only blocks 0..3
    // have rows, and eq. (6) hands six ranks a diagonal block ≥ 3: `D_k`
    // names a dead block.
    let dist = TriangleBlockDist::new(3);
    let rows = Partition1D::new(3, dist.num_blocks());
    let dead_diagonals = (0..dist.p())
        .filter(|&k| dist.d_block(k).is_some_and(|i| rows.len(i) == 0))
        .count();
    assert_eq!(dead_diagonals, 6);
    let want: [(usize, [u64; 6]); 5] = [
        (1, [15, 6, 3, 7, 10, 0x27c6_6a93_a885_4257]),
        (3, [45, 9, 9, 18, 60, 0x1fbe_0c0a_7797_b0fd]),
        (8, [120, 18, 9, 21, 360, 0x3529_5cfc_c613_4044]),
        (10, [150, 21, 9, 27, 550, 0x5a4a_c989_6336_2af4]),
        (12, [180, 21, 9, 36, 780, 0x1c38_78b7_b96f_8dea]),
    ];
    for (n1, want) in want {
        let a = input(n1, 5);
        let run = try_syrk_2d(&a, 3, CostModel::typical(), None).unwrap();
        check(&format!("2d c=3 n1={n1}"), &a, run, want);
    }
}

#[test]
fn twod_abft_cost_reports_are_pinned() {
    let want: [(usize, [u64; 6]); 5] = [
        (1, [15, 6, 3, 7, 26, 0xe7d4_189d_6162_7dbd]),
        (3, [45, 9, 9, 18, 156, 0xc863_f5fc_f6f5_5e97]),
        (8, [120, 18, 9, 21, 936, 0xf1de_759f_e554_4fc6]),
        (10, [150, 21, 9, 27, 1336, 0xe242_154a_1a1e_802c]),
        (12, [180, 21, 9, 36, 1716, 0xf51a_cdd8_868f_22e5]),
    ];
    for (n1, want) in want {
        let a = input(n1, 5);
        let spec = RunSpec {
            abft: true,
            ..RunSpec::new(Plan::TwoD { c: 3 }, CostModel::typical())
        };
        let out = run(&a, &spec).unwrap().result;
        check(&format!("2d+abft c=3 n1={n1}"), &a, out, want);
    }
    // Algorithm 3's slices check their blocks too, on every rank of both
    // (values printed when the slices first ran the checks).
    let want: [(usize, [u64; 6]); 2] = [
        (8, [156, 11, 10, 12, 1008, 0xe4ba_778c_e275_f110]),
        (12, [258, 17, 10, 21, 1875, 0x1198_1a9c_cfed_b1c6]),
    ];
    for (n1, want) in want {
        let a = input(n1, 5);
        let spec = RunSpec {
            abft: true,
            ..RunSpec::new(Plan::ThreeD { c: 3, p2: 2 }, CostModel::typical())
        };
        let out = run(&a, &spec).unwrap().result;
        for rank in 0..24 {
            let abft = out.cost.phase_cost(rank, PHASE_ABFT);
            assert!(abft.is_some_and(|c| c.flops > 0), "n1={n1} rank {rank}");
        }
        check(&format!("3d+abft c=3 p2=2 n1={n1}"), &a, out, want);
    }
}

#[test]
fn threed_cost_reports_are_pinned_including_empty_slices() {
    // p2 = 2 over n2 = 5, then p2 = 3 over n2 = 2: the third slice has no
    // columns, so its live blocks carry zero words and still owe their
    // zero-valued C blocks to the reduce-scatter layout.
    let want: [(usize, usize, usize, [u64; 6]); 7] = [
        (1, 5, 2, [16, 3, 4, 4, 11, 0x18bf_eaba_b569_72ac]),
        (3, 5, 2, [51, 4, 4, 9, 66, 0xf23b_da68_111c_278a]),
        (8, 5, 2, [156, 11, 10, 12, 396, 0x79f4_4357_897d_50df]),
        (10, 5, 2, [205, 14, 10, 16, 605, 0xf2c1_b770_68fc_fad2]),
        (12, 5, 2, [258, 17, 10, 21, 858, 0x90d0_fbb3_d8f2_7903]),
        (3, 2, 3, [30, 4, 5, 4, 36, 0xd9e1_58a2_3ae2_cd10]),
        (12, 2, 3, [228, 12, 11, 15, 468, 0xb10e_9508_28b0_ed48]),
    ];
    for (n1, n2, p2, want) in want {
        let a = input(n1, n2);
        let run = try_syrk_3d(&a, 3, p2, CostModel::typical(), None).unwrap();
        check(&format!("3d c=3 p2={p2} n1={n1} n2={n2}"), &a, run, want);
    }
}

#[test]
fn prime_power_and_padded_variants_are_pinned() {
    // c = 4 (affine plane), n1 = 4c; and the padded exchange, which ships
    // a fixed-size block to every partner whether or not a block is live.
    let a = input(16, 6);
    let plain = try_syrk_2d(&a, 4, CostModel::typical(), None).unwrap();
    check(
        "2d c=4 n1=16",
        &a,
        plain,
        [384, 32, 16, 32, 1632, 0x8ca7_957d_e17f_da2a],
    );
    let want: [(usize, [u64; 6]); 2] = [
        (3, [264, 22, 11, 22, 60, 0x6248_deb5_5477_ad0e]),
        (12, [396, 33, 11, 36, 780, 0x5268_6676_1b60_973c]),
    ];
    for (n1, want) in want {
        let a = input(n1, 5);
        let spec = RunSpec {
            padded: true,
            ..RunSpec::new(Plan::TwoD { c: 3 }, CostModel::typical())
        };
        let out = run(&a, &spec).unwrap().result;
        check(&format!("2d padded c=3 n1={n1}"), &a, out, want);
    }
}

#[test]
fn sim_ranks_shape_is_pinned() {
    // 188 × 96 on c = 47 (P = 2256): the benchmark's many-rank workload.
    let a = input(188, 96);
    let run = try_syrk_2d(&a, 47, CostModel::bandwidth_only(), None).unwrap();
    let want = [848_256, 4418, 2209, 4606, 3_411_072, 0xaae1_449a_07c5_ad63];
    check("2d c=47 188x96", &a, run, want);
}

#[test]
fn threed_c_k_marshalling_edge_shape_is_pinned() {
    // n1 = 4 < c² = 9 leaves five of nine row blocks dead; p2 = 5 exceeds
    // the C_k word count of the ranks that own one or two live blocks, so
    // their reduce-scatter segments include empty ones; and the grid rows
    // whose D_k is dead or absent carry no diagonal block.
    let a = input(4, 7);
    let run = try_syrk_3d(&a, 3, 5, CostModel::typical(), None).unwrap();
    let want = [124, 7, 10, 6, 180, 0x5bd1_8e3f_7c0e_2499];
    check("3d c=3 p2=5 n1=4 n2=7", &a, run, want);
}
