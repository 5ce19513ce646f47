//! The Loomis–Whitney inequality (Lemma 1) and the paper's symmetric
//! extension (Lemma 3), as checkable predicates over finite point sets.

use crate::points::PointSet;

/// Left- and right-hand sides of the Loomis–Whitney inequality
/// `|V| ≤ √(|φ_i(V)|·|φ_j(V)|·|φ_k(V)|)` (Lemma 1).
pub fn loomis_whitney_sides(v: &PointSet) -> (f64, f64) {
    let lhs = v.len() as f64;
    let rhs = ((v.proj_i().len() * v.proj_j().len() * v.proj_k().len()) as f64).sqrt();
    (lhs, rhs)
}

/// Check Lemma 1 for `v` (with a tiny epsilon for the square root).
pub fn check_loomis_whitney(v: &PointSet) -> bool {
    let (lhs, rhs) = loomis_whitney_sides(v);
    lhs <= rhs * (1.0 + 1e-12) + 1e-9
}

/// Left- and right-hand sides of the symmetric Loomis–Whitney extension
/// (Lemma 3): for `V ⊆ {(i,j,k) : j < i}`,
/// `2|V| ≤ |φ_i(V) ∪ φ_j(V)| · √(2|φ_k(V)|)`.
///
/// Panics if `v` contains a point with `j ≥ i` (the lemma's premise).
pub fn symmetric_lw_sides(v: &PointSet) -> (f64, f64) {
    assert!(
        v.is_strictly_lower(),
        "Lemma 3 requires j < i for every point"
    );
    let lhs = 2.0 * v.len() as f64;
    let rhs = v.proj_ij().len() as f64 * (2.0 * v.proj_k().len() as f64).sqrt();
    (lhs, rhs)
}

/// Check Lemma 3 for `v`.
pub fn check_symmetric_lw(v: &PointSet) -> bool {
    let (lhs, rhs) = symmetric_lw_sides(v);
    lhs <= rhs * (1.0 + 1e-12) + 1e-9
}

/// The three set identities established inside the proof of Lemma 3,
/// checked explicitly for `v` (strictly lower):
///
/// 1. `|Ṽ| = 2|V|`,
/// 2. `φ_i(Ṽ) = φ_j(Ṽ) = φ_i(V) ∪ φ_j(V)`,
/// 3. `|φ_k(Ṽ)| = 2|φ_k(V)|`.
pub fn check_lemma3_proof_steps(v: &PointSet) -> bool {
    assert!(
        v.is_strictly_lower(),
        "Lemma 3 requires j < i for every point"
    );
    let vt = v.symmetric_closure();
    let union = v.proj_ij();
    vt.len() == 2 * v.len()
        && vt.proj_i() == union
        && vt.proj_j() == union
        && vt.proj_k().len() == 2 * v.proj_k().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full a×b×c box: LW is tight (equality).
    fn boxed(a: i64, b: i64, c: i64) -> PointSet {
        let mut v = PointSet::new();
        for i in 0..a {
            for j in 0..b {
                for k in 0..c {
                    v.insert((i, j, k));
                }
            }
        }
        v
    }

    /// The strict-lower triangular prism of SYRK: j < i < n, k < m.
    fn prism(n: i64, m: i64) -> PointSet {
        let mut v = PointSet::new();
        for i in 0..n {
            for j in 0..i {
                for k in 0..m {
                    v.insert((i, j, k));
                }
            }
        }
        v
    }

    #[test]
    fn lw_tight_on_boxes() {
        for (a, b, c) in [(1, 1, 1), (2, 3, 4), (5, 5, 5)] {
            let v = boxed(a, b, c);
            let (lhs, rhs) = loomis_whitney_sides(&v);
            assert!((lhs - rhs).abs() < 1e-9, "box {a}x{b}x{c}: {lhs} vs {rhs}");
            assert!(check_loomis_whitney(&v));
        }
    }

    #[test]
    fn lw_holds_on_prisms_but_not_tight() {
        let v = prism(6, 4);
        assert!(check_loomis_whitney(&v));
        let (lhs, rhs) = loomis_whitney_sides(&v);
        // The gap that motivates Lemma 3: plain LW is slack on the prism.
        assert!(lhs < rhs * 0.95, "expected clear slack, got {lhs} vs {rhs}");
    }

    #[test]
    fn symmetric_lw_holds_on_prisms() {
        for (n, m) in [(2, 1), (3, 5), (6, 4), (10, 2), (8, 8)] {
            assert!(check_symmetric_lw(&prism(n, m)), "prism({n},{m})");
            assert!(
                check_lemma3_proof_steps(&prism(n, m)),
                "prism({n},{m}) steps"
            );
        }
    }

    #[test]
    fn symmetric_lw_near_tight_on_triangle_blocks() {
        // A triangle block (strict lower triangle of an s×s index square)
        // times a full k-range is where Lemma 3 approaches equality as s
        // grows: 2|V| = s(s-1)m, union = s·m, φ_k = s(s-1)/2, so
        // rhs = s·m·√(s(s-1)) ≈ lhs·√(s/(s-1)) → tight.
        let (s, m) = (30, 7);
        let mut v = PointSet::new();
        for i in 0..s {
            for j in 0..i {
                for k in 0..m {
                    v.insert((i, j, k));
                }
            }
        }
        let (lhs, rhs) = symmetric_lw_sides(&v);
        assert!(lhs <= rhs);
        assert!(
            rhs / lhs < 1.03,
            "should be within ~√(s/(s−1)) of equality: {}",
            rhs / lhs
        );
    }

    #[test]
    #[should_panic(expected = "requires j < i")]
    fn lemma3_rejects_diagonal_points() {
        let v = PointSet::from_iter([(1, 1, 0)]);
        let _ = symmetric_lw_sides(&v);
    }

    #[test]
    fn empty_set_trivially_satisfies_both() {
        let v = PointSet::new();
        assert!(check_loomis_whitney(&v));
        assert!(check_symmetric_lw(&v));
        assert!(check_lemma3_proof_steps(&v));
    }

    #[test]
    fn single_point_cases() {
        let v = PointSet::from_iter([(5, 2, 9)]);
        // LW: 1 ≤ √(1·1·1).
        assert!(check_loomis_whitney(&v));
        // Lemma 3: 2 ≤ 2·√2.
        let (lhs, rhs) = symmetric_lw_sides(&v);
        assert_eq!(lhs, 2.0);
        assert!((rhs - 2.0 * 2.0f64.sqrt()).abs() < 1e-12);
    }
}
