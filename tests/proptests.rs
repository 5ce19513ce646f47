//! Property-based tests for the paper's invariants: Lemma 3 on arbitrary
//! strictly-lower point sets, Lemma 4 quasiconvexity, Lemma 6
//! analytic-vs-numeric agreement and KKT certificates, distribution
//! validity, partitions, packed storage, and the simulated collectives.
//!
//! Cases are drawn from the workspace's own deterministic generator
//! ([`DetRng`]) instead of a property-testing framework: every run
//! exercises the same case set, and a failure message pins the exact
//! inputs, which is all shrinking bought us for these small domains.

use syrk_repro::core::{
    check_lemma3_proof_steps, check_loomis_whitney, check_symmetric_lw, quasiconvex,
    syrk_lower_bound, Lemma6Problem, PointSet, TriangleBlockDist,
};
use syrk_repro::dense::{DetRng, PackedLower, Partition1D};
use syrk_repro::machine::Machine;

/// A random set of strictly-lower points (j < i) in a small box.
fn strictly_lower_points(rng: &mut DetRng) -> PointSet {
    let len = rng.gen_range(0, 200);
    PointSet::from_iter((0..len).filter_map(|_| {
        let a = rng.gen_range(0, 24) as i64;
        let b = rng.gen_range(0, 24) as i64;
        let k = rng.gen_range(0, 8) as i64;
        let (i, j) = (a.max(b), a.min(b));
        (i != j).then_some((i, j, k))
    }))
}

/// Lemma 3 holds for every strictly-lower point set.
#[test]
fn lemma3_holds() {
    let mut rng = DetRng::seed_from_u64(0x1e3);
    for case in 0..256 {
        let v = strictly_lower_points(&mut rng);
        assert!(check_symmetric_lw(&v), "case {case}");
        assert!(check_lemma3_proof_steps(&v), "case {case}");
    }
}

/// Plain Loomis–Whitney (Lemma 1) holds for arbitrary point sets.
#[test]
fn loomis_whitney_holds() {
    let mut rng = DetRng::seed_from_u64(0x11);
    for case in 0..256 {
        let len = rng.gen_range(0, 200);
        let v = PointSet::from_iter((0..len).map(|_| {
            (
                rng.gen_range(0, 16) as i64,
                rng.gen_range(0, 16) as i64,
                rng.gen_range(0, 16) as i64,
            )
        }));
        assert!(check_loomis_whitney(&v), "case {case}");
    }
}

/// Lemma 4: the quasiconvexity witness holds at random point pairs in
/// the positive quadrant, for random L.
#[test]
fn lemma4_quasiconvex() {
    let mut rng = DetRng::seed_from_u64(0x14);
    for case in 0..4096 {
        let l = rng.gen_range_f64(-100.0, 100.0);
        let x = (rng.gen_range_f64(0.01, 50.0), rng.gen_range_f64(0.01, 50.0));
        let y = (rng.gen_range_f64(0.01, 50.0), rng.gen_range_f64(0.01, 50.0));
        assert!(
            quasiconvex::quasiconvex_witness(l, x, y),
            "case {case}: L={l} x={x:?} y={y:?}"
        );
    }
}

/// Lemma 6: analytic optimum = numeric optimum, is feasible, and the
/// paper's KKT certificate verifies — for arbitrary instances.
#[test]
fn lemma6_analytic_numeric_kkt() {
    let mut rng = DetRng::seed_from_u64(0x16);
    for case in 0..256 {
        let n1 = rng.gen_range(2, 3000) as u64;
        let n2 = rng.gen_range(1, 3000) as u64;
        let p = rng.gen_range(1, 100_000) as u64;
        let pr = Lemma6Problem::new(n1, n2, p);
        let a = pr.analytic_solution();
        let n = pr.numeric_solution();
        assert!(
            pr.is_feasible(a, 1e-9),
            "case {case} ({n1},{n2},{p}): analytic infeasible: {a:?}"
        );
        let rel = (a.objective() - n.objective()).abs() / a.objective();
        assert!(
            rel < 1e-6,
            "case {case} ({n1},{n2},{p}): analytic {} vs numeric {}",
            a.objective(),
            n.objective()
        );
        assert!(pr.verify_kkt().holds(1e-9), "case {case} ({n1},{n2},{p})");
    }
}

/// The Theorem 1 bound is monotonically non-increasing in P and
/// non-negative after subtracting the resident term.
#[test]
fn bound_monotone_in_p() {
    let mut rng = DetRng::seed_from_u64(0x01);
    for case in 0..512 {
        let n1 = rng.gen_range(2, 500);
        let n2 = rng.gen_range(1, 500);
        let p = rng.gen_range(1, 5000);
        let b1 = syrk_lower_bound(n1, n2, p);
        let b2 = syrk_lower_bound(n1, n2, p + 1);
        assert!(b2.w <= b1.w * (1.0 + 1e-12), "case {case} ({n1},{n2},{p})");
        assert!(b1.communicated() >= 0.0, "case {case} ({n1},{n2},{p})");
    }
}

/// Partition1D tiles the interval with near-even, order-preserving
/// blocks and a consistent owner map.
#[test]
fn partition_invariants() {
    let mut rng = DetRng::seed_from_u64(0x1d);
    for case in 0..512 {
        let n = rng.gen_range(0, 500);
        let parts = rng.gen_range(1, 40);
        let part = Partition1D::new(n, parts);
        let mut next = 0;
        let mut sizes = Vec::new();
        for q in 0..parts {
            let r = part.range(q);
            assert_eq!(r.start, next, "case {case} ({n},{parts})");
            sizes.push(r.len());
            next = r.end;
        }
        assert_eq!(next, n, "case {case} ({n},{parts})");
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(mx - mn <= 1, "case {case} ({n},{parts})");
        for i in 0..n {
            assert!(
                part.range(part.owner(i)).contains(&i),
                "case {case} ({n},{parts}) i={i}"
            );
        }
    }
}

/// Packed lower storage round-trips through a full symmetric matrix.
#[test]
fn packed_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0x9a);
    for case in 0..128 {
        let n = rng.gen_range(1, 20);
        let seed = rng.next_u64();
        let m = syrk_repro::dense::seeded_matrix::<f64>(n, n, seed);
        let p = PackedLower::from_matrix(&m);
        let full = p.to_full_symmetric();
        for i in 0..n {
            for j in 0..=i {
                assert_eq!(full[(i, j)], m[(i, j)], "case {case} n={n}");
                assert_eq!(full[(j, i)], m[(i, j)], "case {case} n={n}");
            }
        }
        let p2 = PackedLower::from_matrix(&full);
        assert_eq!(p.as_slice(), p2.as_slice(), "case {case} n={n}");
    }
}

/// Simulated reduce-scatter equals the directly computed sum for
/// arbitrary inputs.
#[test]
fn reduce_scatter_matches_direct_sum() {
    let mut rng = DetRng::seed_from_u64(0x2c);
    for case in 0..48 {
        let p = rng.gen_range(1, 6);
        let seg = rng.gen_range(0, 8);
        let seed = rng.gen_range(0, 100) as u64;
        let out = Machine::new(p)
            .try_run(move |comm| {
                let me = comm.rank();
                let segments: Vec<Vec<f64>> = (0..p)
                    .map(|q| {
                        (0..seg)
                            .map(|t| ((me * 31 + q * 7 + t) as f64) + seed as f64)
                            .collect()
                    })
                    .collect();
                comm.try_reduce_scatter(segments)
            })
            .unwrap();
        for (q, got) in out.results.iter().enumerate() {
            for (t, &x) in got.iter().enumerate() {
                let want: f64 = (0..p)
                    .map(|me| ((me * 31 + q * 7 + t) as f64) + seed as f64)
                    .sum();
                assert!((x - want).abs() < 1e-9, "case {case} P={p} q={q} t={t}");
            }
        }
    }
}

/// Every prime c yields a valid Triangle Block Distribution whose
/// owner maps are mutually consistent.
#[test]
fn triangle_dist_valid() {
    for c in [2usize, 3, 5, 7, 11] {
        let d = TriangleBlockDist::new(c);
        assert!(d.validate().is_ok(), "c={c}");
        // owner_of ↔ blocks_of consistency.
        for k in 0..d.p() {
            for (i, j) in d.blocks_of(k) {
                assert_eq!(d.owner_of(i, j), k, "c={c}");
            }
        }
        // diag_owner_of ↔ d_block consistency.
        for i in 0..d.num_blocks() {
            let k = d.diag_owner_of(i);
            assert_eq!(d.d_block(k), Some(i), "c={c}");
        }
    }
}

/// Distributed SYRK via the planner is correct on arbitrary small
/// instances (failure-injection style fuzz over shapes and P).
#[test]
fn planned_syrk_fuzz() {
    let mut rng = DetRng::seed_from_u64(0x3d);
    for case in 0..24 {
        let n1 = rng.gen_range(2, 28);
        let n2 = rng.gen_range(1, 28);
        let p = rng.gen_range(1, 14);
        let seed = rng.gen_range(0, 50) as u64;
        let a = syrk_repro::dense::seeded_matrix::<f64>(n1, n2, seed);
        let (_, run) =
            syrk_repro::run_auto(&a, p, syrk_repro::CostModel::bandwidth_only()).unwrap();
        let want = syrk_repro::dense::syrk_full_reference(&a);
        let err = syrk_repro::dense::max_abs_diff(&run.c, &want);
        assert!(err < 1e-9, "case {case} ({n1},{n2},{p},{seed}): {err}");
    }
}

/// Every entry point that builds a machine is total: every small
/// configuration — empty matrices, zero rank counts, and grid orders with
/// no triangle block construction — yields `Ok` or a typed [`SyrkError`],
/// never a panic, and every `Ok` is numerically correct. That covers the
/// `try_syrk_*` wrappers, the §6 drivers (SYR2K, which fails with
/// SYRK's cause on every plan, SYMM, the panel variant) and the
/// GEMM/ScaLAPACK baselines, which take the grid order
/// `c` as their side `r`. So is `run_with_recovery` on one or two rows
/// with rank 1 crashing at its first operation: with one row the
/// replanned attempt plans for an empty strict triangle.
#[test]
fn try_api_is_total_over_random_configs() {
    use syrk_repro::core::{
        gemm_1d, gemm_2d, gemm_3d, run_with_recovery, scalapack_syrk_2d, symm_2d, symm_reference,
        syr2k, syrk_2d_limited, try_syrk_1d, try_syrk_2d, try_syrk_3d, Plan, RecoveryPolicy,
        SyrkError,
    };
    use syrk_repro::dense::{
        max_abs_diff, seeded_matrix, syr2k_full_reference, syrk_full_reference, Matrix,
    };
    use syrk_repro::machine::FaultPlan;

    /// Tally one outcome: an `Ok` must match `want`, an error must
    /// display a cause.
    fn check(
        tally: &mut (usize, usize),
        what: &str,
        res: Result<Matrix<f64>, SyrkError>,
        want: impl FnOnce() -> Matrix<f64>,
    ) {
        match res {
            Ok(got) => {
                tally.0 += 1;
                let err = max_abs_diff(&got, &want());
                assert!(err < 1e-9, "{what}: {err}");
            }
            Err(e) => {
                tally.1 += 1;
                assert!(!e.to_string().is_empty(), "{what}");
            }
        }
    }

    let mut rng = DetRng::seed_from_u64(0x5afe);
    let model = syrk_repro::CostModel::bandwidth_only();
    let mut tally = (0usize, 0usize);
    for case in 0..40 {
        let n1 = rng.gen_range(0, 10);
        let n2 = rng.gen_range(0, 10);
        let p = rng.gen_range(0, 8);
        let c = rng.gen_range(0, 7); // 0, 1, 6 have no construction
        let p2 = rng.gen_range(0, 4);
        let a = seeded_matrix::<f64>(n1, n2, case as u64);
        let b = seeded_matrix::<f64>(n1, n2, 100 + case as u64);
        let raw = seeded_matrix::<f64>(n1, n1, 200 + case as u64);
        let sym = Matrix::from_fn(n1, n1, |i, j| raw[(i, j)] + raw[(j, i)]);
        let rounds = 1 + case % 3;
        let rows = 1 + case % 2;
        let thin = seeded_matrix::<f64>(rows, n2, case as u64);
        let crash = FaultPlan::seeded(case as u64).crash_rank(1, 1);
        let recovered = |plan| {
            run_with_recovery(&thin, plan, model, Some(&crash), &RecoveryPolicy::default())
                .map(|(run, _)| run.c)
        };
        let t = &mut tally;
        let at = |alg: &str| format!("case {case} {alg} ({n1},{n2},{p},{c},{p2})");
        let syrk_a = || syrk_full_reference(&a);
        let syrk_thin = || syrk_full_reference(&thin);
        let c_of = |r: syrk_repro::SyrkRunResult| r.c;
        // SYR2K runs on the grid of the same plan, so it fails exactly
        // when SYRK does, with the same cause.
        let syr2k_ref = || syr2k_full_reference(&a, &b);
        for (alg, plan, syrk_run) in [
            ("1d", Plan::OneD { p }, try_syrk_1d(&a, p, model, None)),
            ("2d", Plan::TwoD { c }, try_syrk_2d(&a, c, model, None)),
            (
                "3d",
                Plan::ThreeD { c, p2 },
                try_syrk_3d(&a, c, p2, model, None),
            ),
        ] {
            let syr2k_run = syr2k(&a, &b, plan, model);
            let cause = |r: &Result<_, SyrkError>| r.as_ref().err().map(ToString::to_string);
            assert_eq!(cause(&syr2k_run), cause(&syrk_run), "{}", at(alg));
            check(t, &at(alg), syrk_run.map(c_of), syrk_a);
            check(
                t,
                &at(&format!("syr2k {alg}")),
                syr2k_run.map(c_of),
                syr2k_ref,
            );
        }
        check(t, &at("1d+crash"), recovered(Plan::OneD { p }), syrk_thin);
        check(t, &at("2d+crash"), recovered(Plan::TwoD { c }), syrk_thin);
        check(
            t,
            &at("3d+crash"),
            recovered(Plan::ThreeD { c, p2 }),
            syrk_thin,
        );
        let symm = symm_2d(&sym, &a, c, model).map(|r| r.c);
        check(t, &at("symm_2d"), symm, || symm_reference(&sym, &a));
        let limited = syrk_2d_limited(&a, c, rounds, model).map(c_of);
        check(t, &at("limited"), limited, syrk_a);
        // The baselines take the grid order as their side r.
        check(t, &at("gemm_1d"), gemm_1d(&a, p, model).map(c_of), syrk_a);
        check(t, &at("gemm_2d"), gemm_2d(&a, c, model).map(c_of), syrk_a);
        check(
            t,
            &at("gemm_3d"),
            gemm_3d(&a, c, p2, model).map(c_of),
            syrk_a,
        );
        let scalapack = scalapack_syrk_2d(&a, c, model).map(c_of);
        check(t, &at("scalapack"), scalapack, syrk_a);
    }
    // The domain must exercise both outcomes, or the test is vacuous.
    let (oks, errs) = tally;
    assert!(oks > 0, "no configuration succeeded");
    assert!(errs > 0, "no configuration was rejected");
}
