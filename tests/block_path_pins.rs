//! The block path borrows `A` through views and writes `C` once. That is
//! a host-time change only: `C` and every number of the cost report must
//! be what they were when every rank copied its column block and `C` was
//! expanded block by block and mirrored element-wise. The expected values
//! below were printed by this file's test body run against the commit
//! before the change (PR 15).
//!
//! The shapes are the ones the benchmark times: the three members of a
//! `sim_blocks` round and the five `/run` classes of `serve_mixed`
//! (`rcrash` crashes rank 3 on its second operation, shrinks and replans).

use syrk_repro::core::{
    plan, run, run_with_recovery, try_syrk_1d, try_syrk_2d, try_syrk_3d, RecoveryPolicy, RunSpec,
    SyrkRunResult, PHASE_ABFT,
};
use syrk_repro::dense::{seeded_int_matrix, Matrix};
use syrk_repro::machine::{CostReport, EventKind, FaultPlan, ReduceScatterAlg};
use syrk_repro::{run_auto, CostModel, Plan};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// `C` of the 338 × 64 input, whichever plan computes it.
const R2D_C_DIGEST: u64 = 0x9a50_02f5_9d4c_cdd5;

/// FNV-1a over every rank row and every phase row of the report: all
/// counters, the clock bits, and the phase names in first-use order (the
/// digest of `tests/live_blocks.rs`).
fn cost_digest(cost: &CostReport) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
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

/// FNV-1a over the shape and the bit pattern of every entry, a word at a
/// time: the upper triangle is part of `C`, so a wrong mirror shows.
fn c_digest(c: &Matrix<f64>) -> u64 {
    let words = [c.rows() as u64, c.cols() as u64]
        .into_iter()
        .chain(c.as_slice().iter().map(|x| x.to_bits()));
    words.fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Small-integer entries: every sum is exact in `f64`, so `C` is the same
/// bit pattern on every ISA and thread count.
fn input(n1: usize, n2: usize) -> Matrix<f64> {
    seeded_int_matrix::<f64>(n1, n2, 3, (n1 * 31 + n2) as u64)
}

fn plain(a: &Matrix<f64>, plan: Plan) -> SyrkRunResult {
    run(a, &RunSpec::new(plan, CostModel::bandwidth_only()))
        .expect("fault-free run")
        .result
}

/// `[words_total, words_max, messages_max, peak_buffer, flops_total,
/// cost digest, C digest]`.
fn check(label: &str, run: &SyrkRunResult, want: [u64; 7]) {
    let got = [
        run.cost.total_words(),
        run.cost.max_words_sent(),
        run.cost.max_messages(),
        run.cost.max_peak_buffer(),
        run.cost.total_flops(),
        cost_digest(&run.cost),
        c_digest(&run.c),
    ];
    assert_eq!(
        got, want,
        "{label}: run moved (cost digest {:#018x}, C digest {:#018x})",
        got[5], got[6]
    );
}

#[test]
fn sim_blocks_round_is_pinned() {
    let cases: [(usize, usize, Plan, [u64; 7]); 3] = [
        (
            768,
            4096,
            Plan::OneD { p: 4 },
            [
                885_888,
                221_472,
                3,
                1_081_728,
                2_419_950_720,
                0xef49_6437_1ef8_e95d,
                0x7e9e_f131_b694_41ed,
            ],
        ),
        (
            1536,
            512,
            Plan::TwoD { c: 2 },
            [
                1_572_864,
                262_144,
                4,
                524_288,
                1_208_745_984,
                0xfbc9_8cb3_ec1e_ab8d,
                0x2cfb_30a6_83fe_5bed,
            ],
        ),
        (
            1024,
            1024,
            Plan::ThreeD { c: 2, p2: 2 },
            [
                2_621_952,
                223_980,
                5,
                349_526,
                1_075_315_200,
                0x08a5_bc40_d9aa_2ac5,
                0xd00a_463d_8bbe_dfed,
            ],
        ),
    ];
    for (n1, n2, plan, want) in cases {
        let a = input(n1, n2);
        check(&format!("{n1}x{n2} {plan:?}"), &plain(&a, plan), want);
    }
}

#[test]
fn serve_mixed_classes_are_pinned() {
    let auto = plan(480, 480, 30).plan;
    assert_eq!(auto, Plan::TwoD { c: 5 }, "the planner's choice for rauto");
    let cases: [(usize, usize, Plan, [u64; 7]); 4] = [
        (
            256,
            2048,
            Plan::OneD { p: 8 },
            [
                230_272,
                28_784,
                7,
                98_432,
                134_972_288,
                0x13dc_ae2a_cb58_1745,
                0x2de2_26b9_76bd_f9ed,
            ],
        ),
        (
            338,
            64,
            Plan::TwoD { c: 13 },
            [
                281_216,
                1690,
                169,
                1794,
                7_333_248,
                0x4bdb_2ef1_52e7_ddee,
                R2D_C_DIGEST,
            ],
        ),
        (
            240,
            240,
            Plan::ThreeD { c: 3, p2: 2 },
            [
                201_720,
                8573,
                10,
                12_150,
                13_910_520,
                0xa4e2_bfe2_985e_1279,
                0x8280_249a_4c93_6ead,
            ],
        ),
        (
            480,
            480,
            auto,
            [
                1_152_000,
                40_000,
                25,
                56_000,
                110_822_400,
                0xc11c_e7ec_8bc6_0eb6,
                0x5d1e_4297_6c48_206d,
            ],
        ),
    ];
    for (n1, n2, plan, want) in cases {
        let a = input(n1, n2);
        check(&format!("{n1}x{n2} {plan:?}"), &plain(&a, plan), want);
    }

    // rcrash: r2d with rank 3 crashing on its second operation; the
    // default policy replans for 181 ranks (3D on 180) and verifies with
    // ABFT, in the slices' blocks as well as in the final `C`. Same input
    // as r2d, so the same `C`.
    let a = input(338, 64);
    let faults = FaultPlan::seeded(0).crash_rank(3, 2);
    let (run, report) = run_with_recovery(
        &a,
        Plan::TwoD { c: 13 },
        CostModel::bandwidth_only(),
        Some(&faults),
        &RecoveryPolicy::default(),
    )
    .expect("recovered run");
    assert_eq!(report.ranks_lost, [3]);
    assert_eq!(report.final_plan, Plan::ThreeD { c: 9, p2: 2 });
    check(
        "338x64 rcrash",
        &run,
        [
            306_011,
            2046,
            263,
            1584,
            10_136_925,
            0xeda3_ace3_07b4_732d,
            R2D_C_DIGEST,
        ],
    );
}

/// The Algorithm 1 variants the plain rounds above do not reach — ABFT,
/// the two log-latency Reduce-Scatters, ranks that own no columns — and
/// Algorithm 3 with the paper's padded exchange under recursive halving.
/// The values were printed while each algorithm still had a driver of its
/// own, before Algorithms 1 and 2 became corners of Algorithm 3's grid.
#[test]
fn oned_variants_and_padded_3d_are_pinned() {
    let spec = |plan, f: fn(&mut RunSpec)| {
        let mut spec = RunSpec::new(plan, CostModel::typical());
        f(&mut spec);
        spec
    };
    let p4 = Plan::OneD { p: 4 };
    let cases: [(usize, usize, RunSpec, [u64; 7]); 5] = [
        (
            40,
            24,
            spec(p4, |s| s.abft = true),
            [
                2460,
                615,
                3,
                1060,
                51_100,
                0x6024_8eb9_8cfc_bc9d,
                0xb0ea_506f_9cdb_6d0d,
            ],
        ),
        (
            40,
            24,
            spec(p4, |s| s.rs_alg = ReduceScatterAlg::RecursiveHalving),
            [
                2460,
                615,
                2,
                1060,
                41_820,
                0x2002_5d45_ccb3_2ff5,
                0xb0ea_506f_9cdb_6d0d,
            ],
        ),
        (
            40,
            24,
            spec(p4, |s| s.rs_alg = ReduceScatterAlg::TreeThenScatter),
            [
                3075,
                820,
                3,
                1060,
                41_820,
                0xa744_38e8_f0d2_1eed,
                0xb0ea_506f_9cdb_6d0d,
            ],
        ),
        (
            5,
            3,
            spec(p4, |_| {}),
            [
                45,
                12,
                3,
                20,
                135,
                0x8452_a899_6957_9f7c,
                0xbb42_140d_d70e_190d,
            ],
        ),
        (
            36,
            24,
            spec(Plan::ThreeD { c: 3, p2: 4 }, |s| {
                s.padded = true;
                s.rs_alg = ReduceScatterAlg::RecursiveHalving;
            }),
            [
                5166,
                110,
                13,
                90,
                33_966,
                0x5da6_8b14_902c_b129,
                0xa695_ba6e_071b_8fd5,
            ],
        ),
    ];
    for (n1, n2, spec, want) in cases {
        let a = input(n1, n2);
        let label = format!(
            "{n1}x{n2} {:?} abft={} {:?}",
            spec.plan, spec.abft, spec.rs_alg
        );
        let got = run(&a, &spec).expect("fault-free run").result;
        check(&label, &got, want);
    }
}

/// What the function matrix could not say: tracing and in-machine ABFT
/// in one run. Tracing charges nothing, and the checks only add `Flops`
/// events under their own phase.
#[test]
fn trace_and_abft_compose_on_the_2d_pin_shape() {
    let a = input(36, 8);
    let base = RunSpec::new(Plan::TwoD { c: 3 }, CostModel::typical());
    let traced = RunSpec {
        trace: true,
        ..base.clone()
    };
    let checked = RunSpec { abft: true, ..base };
    let both = RunSpec {
        trace: true,
        ..checked.clone()
    };
    let traced = run(&a, &traced).unwrap();
    let checked = run(&a, &checked).unwrap();
    let both = run(&a, &both).unwrap();
    assert!(checked.traces.is_none());
    assert_eq!(
        cost_digest(&both.result.cost),
        cost_digest(&checked.result.cost)
    );
    assert_eq!(c_digest(&both.result.c), c_digest(&checked.result.c));

    let (plain_tl, both_tl) = (traced.traces.unwrap(), both.traces.unwrap());
    assert_eq!(plain_tl.len(), 12);
    assert_eq!(both_tl.len(), 12);
    for (rank, (want, got)) in plain_tl.iter().zip(&both_tl).enumerate() {
        // `want` is a subsequence of `got`, clocks included; the rest is
        // verification.
        let mut want = want.iter().peekable();
        let mut extra = 0;
        for e in got {
            if want.next_if(|w| *w == e).is_none() {
                assert_eq!(
                    (e.kind, e.phase),
                    (EventKind::Flops, Some(PHASE_ABFT)),
                    "rank {rank}: unexpected extra event {e:?}"
                );
                extra += 1;
            }
        }
        assert!(want.next().is_none(), "rank {rank}: traced events missing");
        assert!(extra > 0, "rank {rank}: no verification event");
    }
}

/// Each kept wrapper is `run` of the spec its doc comment names: same
/// `C`, same cost report, to the bit.
#[test]
fn wrappers_equal_run_of_their_spec() {
    let model = CostModel::typical();
    let faults = FaultPlan::seeded(7).drop(0.2).duplicate(0.1);
    let faulted = |plan| RunSpec {
        faults: Some(faults.clone()),
        ..RunSpec::new(plan, model)
    };
    let (d1, d2, d3) = (
        Plan::OneD { p: 4 },
        Plan::TwoD { c: 3 },
        Plan::ThreeD { c: 2, p2: 2 },
    );
    let a = input(36, 8);
    let auto = plan(36, 8, 12).plan;
    let policy = RecoveryPolicy::default();
    let crash = FaultPlan::seeded(5).crash_rank(1, 1);
    let recovered = RunSpec {
        faults: Some(crash.clone()),
        recovery: Some(policy.clone()),
        ..RunSpec::new(d2, model)
    };
    let table: [(&str, SyrkRunResult, RunSpec); 5] = [
        (
            "try_syrk_1d",
            try_syrk_1d(&a, 4, model, Some(&faults)).unwrap(),
            faulted(d1),
        ),
        (
            "try_syrk_2d",
            try_syrk_2d(&a, 3, model, Some(&faults)).unwrap(),
            faulted(d2),
        ),
        (
            "try_syrk_3d",
            try_syrk_3d(&a, 2, 2, model, Some(&faults)).unwrap(),
            faulted(d3),
        ),
        (
            "run_with_recovery",
            run_with_recovery(&a, d2, model, Some(&crash), &policy)
                .unwrap()
                .0,
            recovered,
        ),
        (
            "run_auto",
            run_auto(&a, 12, model).unwrap().1,
            RunSpec::new(auto, model),
        ),
    ];
    for (name, got, spec) in table {
        let want = run(&a, &spec).unwrap().result;
        assert_eq!(cost_digest(&got.cost), cost_digest(&want.cost), "{name}");
        assert_eq!(c_digest(&got.c), c_digest(&want.c), "{name}");
    }
}
