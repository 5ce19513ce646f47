//! The closed-form optimal solution of Lemma 6 (three cases).

use crate::bounds::BoundCase;
use crate::optimization::problem::{Lemma6Problem, Point};

impl Lemma6Problem {
    /// The optimal solution `x*` of Lemma 6, by the paper's case analysis:
    ///
    /// * Case 1: `x1* = n2·√(n1(n1−1))/P`,     `x2* = n1(n1−1)/2`
    /// * Case 2: `x1* = n2·√(n1(n1−1)/P)`,     `x2* = n1(n1−1)/(2P)`
    /// * Case 3: `x1* = (n1(n1−1)n2/P)^(2/3)`, `x2* = x1*/2`
    pub fn analytic_solution(&self) -> Point {
        let (n2, p) = (self.n2 as f64, self.p as f64);
        let t = self.t();
        match self.case() {
            BoundCase::Case1 => Point {
                x1: n2 * t.sqrt() / p,
                x2: t / 2.0,
            },
            BoundCase::Case2 => Point {
                x1: n2 * (t / p).sqrt(),
                x2: t / (2.0 * p),
            },
            BoundCase::Case3 => {
                let x1 = (t * n2 / p).powf(2.0 / 3.0);
                Point { x1, x2: x1 / 2.0 }
            }
        }
    }

    /// The optimal objective value `x1* + x2*`. Theorem 1's `W` equals it
    /// in Case 3 and exceeds it by `n2·(n1 − √(n1(n1−1)))` over `P` in
    /// Case 1 and over `√P` in Case 2.
    pub fn optimal_value(&self) -> f64 {
        self.analytic_solution().objective()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_solutions_are_feasible() {
        for (n1, n2, p) in [
            (4, 100, 2),
            (4, 100, 60),
            (100, 4, 100),
            (100, 4, 1000),
            (50, 50, 1),
            (50, 50, 7),
            (50, 50, 5000),
            (2, 2, 1),
        ] {
            let pr = Lemma6Problem::new(n1, n2, p);
            let x = pr.analytic_solution();
            assert!(
                pr.is_feasible(x, 1e-9),
                "({n1},{n2},{p}) case {:?}: {:?} infeasible, g = {:?}",
                pr.case(),
                x,
                pr.constraints(x)
            );
        }
    }

    #[test]
    fn case1_pins_x2_to_cap() {
        let pr = Lemma6Problem::new(4, 100, 2);
        let x = pr.analytic_solution();
        assert_eq!(x.x2, pr.x2_hi());
        // x1 = 100·√12/2 ≈ 173.2.
        assert!((x.x1 - 100.0 * 12f64.sqrt() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn case2_pins_x2_to_floor() {
        let pr = Lemma6Problem::new(100, 4, 100);
        let x = pr.analytic_solution();
        assert_eq!(x.x2, pr.x2_lo());
        assert!((x.x1 - 4.0 * (9900.0f64 / 100.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn case3_has_half_ratio() {
        let pr = Lemma6Problem::new(50, 50, 5000);
        let x = pr.analytic_solution();
        assert!((x.x2 / x.x1 - 0.5).abs() < 1e-12);
        // Objective = (3/2)(n1(n1−1)n2/P)^(2/3).
        let expect = 1.5 * (50.0 * 49.0 * 50.0 / 5000.0f64).powf(2.0 / 3.0);
        assert!((pr.optimal_value() - expect).abs() < 1e-9);
    }

    #[test]
    fn constraint1_is_tight_at_optimum_in_every_case() {
        // The dual variable µ1 is strictly positive in all three cases, so
        // g1 must be active: x1²·x2 = K.
        for (n1, n2, p) in [(4, 100, 2), (100, 4, 100), (50, 50, 5000)] {
            let pr = Lemma6Problem::new(n1, n2, p);
            let x = pr.analytic_solution();
            let g1 = pr.k() - x.x1 * x.x1 * x.x2;
            assert!(
                g1.abs() <= 1e-9 * pr.k(),
                "({n1},{n2},{p}): g1 = {g1} not tight (K = {})",
                pr.k()
            );
        }
    }

    #[test]
    fn solutions_continuous_at_case_boundaries() {
        // Lemma 6's note: optimal solutions coincide at boundary points.
        // Boundary between Case 1 and Case 3: P = n2/√(n1(n1−1)).
        // With n1 = 2, t = 2: pick n2 = 10·√2 impossible in integers, so
        // check near-boundary continuity numerically instead.
        let (n1, n2) = (10u64, 300u64);
        let t = (n1 * (n1 - 1)) as f64;
        let p_star = (n2 as f64 / t.sqrt()).floor() as u64; // just inside Case 1
        let before = Lemma6Problem::new(n1, n2, p_star).optimal_value();
        let after = Lemma6Problem::new(n1, n2, p_star + 1).optimal_value();
        let rel_jump = (before - after).abs() / before;
        // Crossing the boundary by ΔP = 1 moves the value by O(1/P), not a
        // jump: the two case formulas agree at the boundary.
        assert!(rel_jump < 0.15, "rel jump {rel_jump}");

        // Case 2 / Case 3 boundary: P = n1(n1−1)/n2².
        let (n1, n2) = (60u64, 3u64);
        let p_star = ((n1 * (n1 - 1)) as f64 / 9.0).floor() as u64;
        let before = Lemma6Problem::new(n1, n2, p_star).optimal_value();
        let after = Lemma6Problem::new(n1, n2, p_star + 1).optimal_value();
        let rel_jump = (before - after).abs() / before;
        assert!(rel_jump < 0.15, "rel jump {rel_jump}");
    }
}
