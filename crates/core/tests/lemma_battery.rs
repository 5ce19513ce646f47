//! A broad battery for the paper's lemmas: structured families of point
//! sets (the shapes the algorithms actually generate) for Lemma 3, and a
//! dense instance grid for Lemma 6 / KKT.

use syrk_core::{
    check_lemma3_proof_steps, check_symmetric_lw, symmetric_lw_sides, Lemma6Problem, PointSet,
    SyrkIterationSpace,
};

/// Minimal deterministic RNG (splitmix64): the battery's own stream, so
/// its point sets do not move with another generator.
struct TestRng(u64);

impl TestRng {
    fn seed_from_u64(seed: u64) -> Self {
        TestRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn gen_range(&mut self, r: std::ops::Range<i64>) -> i64 {
        r.start + (self.next_u64() % (r.end - r.start) as u64) as i64
    }
}

/// A union of triangle blocks over disjoint index sets × a k-range —
/// exactly what one processor of the 2D algorithm owns.
fn triangle_block_union(index_sets: &[Vec<i64>], krange: i64) -> PointSet {
    let mut v = PointSet::new();
    for set in index_sets {
        for (a, &i) in set.iter().enumerate() {
            for &j in &set[..a] {
                let (hi, lo) = (i.max(j), i.min(j));
                for k in 0..krange {
                    v.insert((hi, lo, k));
                }
            }
        }
    }
    v
}

#[test]
fn lemma3_on_processor_shaped_sets() {
    // Row block sets of the c = 3 distribution, lifted to point sets.
    let r_sets: [&[i64]; 4] = [&[0, 3, 6], &[1, 4, 8], &[2, 5, 7], &[0, 1, 2]];
    for rk in r_sets {
        let v = triangle_block_union(&[rk.to_vec()], 5);
        assert!(check_symmetric_lw(&v));
        assert!(check_lemma3_proof_steps(&v));
        // For a single triangle block the inequality is near-tight:
        // 2|V| = c(c−1)·m, rhs = c·m·√(c(c−1)).
        let (lhs, rhs) = symmetric_lw_sides(&v);
        let c = rk.len() as f64;
        let expect_ratio = (c / (c - 1.0)).sqrt();
        assert!((rhs / lhs - expect_ratio).abs() < 1e-9, "{rk:?}");
    }
}

#[test]
fn lemma3_on_random_triangle_unions() {
    let mut rng = TestRng::seed_from_u64(99);
    for _ in 0..50 {
        let sets: Vec<Vec<i64>> = (0..rng.gen_range(1..4))
            .map(|_| {
                let size = rng.gen_range(2..6);
                let mut s: Vec<i64> = (0..size).map(|_| rng.gen_range(0..30)).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .filter(|s| s.len() >= 2)
            .collect();
        if sets.is_empty() {
            continue;
        }
        let v = triangle_block_union(&sets, rng.gen_range(1..6));
        assert!(check_symmetric_lw(&v), "{sets:?}");
        assert!(check_lemma3_proof_steps(&v), "{sets:?}");
    }
}

#[test]
fn lemma3_on_sparse_random_columns() {
    // Sets where different (i, j) pairs use different k-subsets — the
    // general position Lemma 3 must cover (not just full prisms).
    let mut rng = TestRng::seed_from_u64(7);
    for trial in 0..30 {
        let mut v = PointSet::new();
        for _ in 0..rng.gen_range(1..300) {
            let i = rng.gen_range(1..20i64);
            let j = rng.gen_range(0..i);
            let k = rng.gen_range(0..8i64);
            v.insert((i, j, k));
        }
        assert!(check_symmetric_lw(&v), "trial {trial}");
    }
}

#[test]
fn lemma6_grid_sweep() {
    // A dense grid of instances spanning all cases and both boundaries;
    // each must pass analytic/numeric agreement and the KKT certificate.
    let mut checked = 0usize;
    for &n1 in &[2u64, 3, 8, 32, 129, 1024] {
        for &n2 in &[1u64, 2, 9, 33, 128, 1023] {
            for &p in &[1u64, 2, 3, 12, 56, 1000, 131072] {
                let pr = Lemma6Problem::new(n1, n2, p);
                let a = pr.analytic_solution();
                let n = pr.numeric_solution();
                let rel = (a.objective() - n.objective()).abs() / a.objective();
                assert!(rel < 1e-6, "({n1},{n2},{p}): {rel}");
                assert!(pr.is_feasible(a, 1e-9), "({n1},{n2},{p})");
                assert!(pr.verify_kkt().holds(1e-8), "({n1},{n2},{p})");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 6 * 6 * 7);
}

#[test]
fn prism_volumes_scale_quadratically_in_n1() {
    let m = 7usize;
    let mut prev = 0u64;
    for n1 in 2..40usize {
        let v = SyrkIterationSpace::new(n1, m).volume_strict();
        // Increment between consecutive n1: (n1−1)·m.
        assert_eq!(v - prev, ((n1 - 1) * m) as u64);
        prev = v;
    }
}

#[test]
fn lemma6_optimum_decreases_in_p_and_increases_in_n() {
    for p in 1..50u64 {
        let a = Lemma6Problem::new(64, 64, p).optimal_value();
        let b = Lemma6Problem::new(64, 64, p + 1).optimal_value();
        assert!(b <= a * (1.0 + 1e-12), "P={p}");
    }
    for n in 2..50u64 {
        let a = Lemma6Problem::new(n, 64, 8).optimal_value();
        let b = Lemma6Problem::new(n + 1, 64, 8).optimal_value();
        assert!(b >= a, "n={n}");
    }
}
