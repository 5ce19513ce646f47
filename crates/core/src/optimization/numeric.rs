//! Independent numerical solve of the Lemma 6 problem.
//!
//! At any optimum the volume constraint g1 is active (its dual variable is
//! strictly positive in every case of the paper's proof), so the problem
//! reduces to one dimension: with `x1²·x2 = K`,
//!
//! ```text
//! minimize  g(x2) = √(K/x2) + x2   over   x2 ∈ [n1(n1−1)/2P, n1(n1−1)/2].
//! ```
//!
//! `g` is strictly convex on `(0, ∞)` (sum of a convex power and a linear
//! term), so golden-section search converges to the global optimum. This
//! gives a solver that shares *no* formulas with the analytic solution —
//! experiment E11 cross-checks one against the other.

use crate::optimization::problem::{Lemma6Problem, Point};

/// Golden-section minimization of a unimodal function on `[lo, hi]`.
fn golden_section(mut lo: f64, mut hi: f64, f: impl Fn(f64) -> f64, iters: usize) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut c = hi - INV_PHI * (hi - lo);
    let mut d = lo + INV_PHI * (hi - lo);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..iters {
        if fc < fd {
            hi = d;
            d = c;
            fd = fc;
            c = hi - INV_PHI * (hi - lo);
            fc = f(c);
        } else {
            lo = c;
            c = d;
            fc = fd;
            d = lo + INV_PHI * (hi - lo);
            fd = f(d);
        }
    }
    0.5 * (lo + hi)
}

impl Lemma6Problem {
    /// Numerically solve the problem (independent of the analytic
    /// formulas). Accurate to ~12 significant digits.
    pub fn numeric_solution(&self) -> Point {
        let k = self.k();
        let (lo, hi) = (self.x2_lo(), self.x2_hi());
        let g = |x2: f64| (k / x2).sqrt() + x2;
        // With P = 1 the interval is one point, and the search returns it.
        let x2 = golden_section(lo, hi, g, 200);
        Point {
            x1: (k / x2).sqrt(),
            x2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_min() {
        let x = golden_section(-10.0, 10.0, |x| (x - 3.0) * (x - 3.0), 100);
        assert!((x - 3.0).abs() < 1e-9);
    }

    #[test]
    fn numeric_matches_analytic_across_cases() {
        for (n1, n2, p) in [
            (4, 100, 2),    // Case 1
            (4, 100, 29),   // near the 1↔3 boundary
            (4, 100, 60),   // Case 3
            (100, 4, 100),  // Case 2
            (100, 4, 618),  // near the 2↔3 boundary
            (100, 4, 1000), // Case 3
            (50, 50, 1),
            (50, 50, 49),
            (50, 50, 50),
            (50, 50, 12345),
            (2, 2, 1),
            (2, 7, 3),
        ] {
            let pr = Lemma6Problem::new(n1, n2, p);
            let a = pr.analytic_solution();
            let n = pr.numeric_solution();
            let rel = |u: f64, v: f64| (u - v).abs() / v.abs().max(1.0);
            assert!(
                rel(a.x1, n.x1) < 1e-6 && rel(a.x2, n.x2) < 1e-6,
                "({n1},{n2},{p}) case {:?}: analytic {:?} vs numeric {:?}",
                pr.case(),
                a,
                n
            );
            assert!(rel(a.objective(), n.objective()) < 1e-9);
        }
    }

    #[test]
    fn numeric_is_feasible() {
        for (n1, n2, p) in [(7, 3, 2), (30, 30, 900), (12, 240, 5)] {
            let pr = Lemma6Problem::new(n1, n2, p);
            assert!(pr.is_feasible(pr.numeric_solution(), 1e-6));
        }
    }

    #[test]
    fn p_equals_one_collapses_bounds() {
        // With P = 1, x2 is pinned: lo = hi = n1(n1−1)/2.
        let pr = Lemma6Problem::new(10, 10, 1);
        let n = pr.numeric_solution();
        assert!((n.x2 - pr.x2_hi()).abs() < 1e-9);
    }
}
