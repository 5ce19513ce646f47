//! KKT-condition verification for the Lemma 6 solution.
//!
//! Lemma 2 (from Al Daas et al. '22) says the KKT conditions are
//! *sufficient* for optimality here because the objective is convex and
//! every constraint is quasiconvex (Lemma 4 covers the nonlinear one).
//! This module reconstructs the paper's dual variables `µ*` for each case
//! and verifies the four KKT conditions numerically — i.e. it machine-
//! checks the proof of Lemma 6 for concrete instances.

use crate::optimization::problem::{BoundCase, Lemma6Problem, Point};

/// The four KKT residuals for a primal/dual pair.
#[derive(Debug, Clone, Copy)]
pub struct KktReport {
    /// Max positive constraint violation `max_i g_i(x)` (≤ 0 required).
    pub primal: f64,
    /// Most negative dual variable `min_i µ_i` (≥ 0 required).
    pub dual: f64,
    /// ∞-norm of the stationarity residual `∇f + µᵀ·Jg`.
    pub stationarity: f64,
    /// Max of `|µ_i·g_i(x)|` (complementary slackness).
    pub slackness: f64,
}

impl KktReport {
    /// Whether all four conditions hold within `tol` (relative to the
    /// instance scale supplied).
    pub fn holds(&self, tol: f64) -> bool {
        self.primal <= tol && self.dual >= -tol && self.stationarity <= tol && self.slackness <= tol
    }
}

impl Lemma6Problem {
    /// The paper's dual variables `µ*` for this instance's case
    /// (§4.3, proof of Lemma 6).
    pub fn paper_duals(&self) -> [f64; 4] {
        let (n2, p) = (self.n2 as f64, self.p as f64);
        let t = self.t();
        match self.case() {
            BoundCase::Case1 => [p / (t.powf(1.5) * n2), 0.0, 0.0, n2 / (t.sqrt() * p) - 1.0],
            BoundCase::Case2 => [
                p.powf(1.5) / (t.powf(1.5) * n2),
                0.0,
                1.0 - n2 * (p / t).sqrt(),
                0.0,
            ],
            BoundCase::Case3 => [(p / (t * n2)).powf(4.0 / 3.0), 0.0, 0.0, 0.0],
        }
    }

    /// Evaluate the KKT residuals at `(x, µ)`. Residuals are normalized by
    /// the natural scale of each row so `holds(1e-9)` is meaningful across
    /// wildly different instance sizes.
    pub(crate) fn kkt_report(&self, x: Point, mu: [f64; 4]) -> KktReport {
        let g = self.constraints(x);
        let scale_g = self.k().max(self.x2_hi()).max(1.0);
        let primal = g.iter().fold(f64::MIN, |a, &b| a.max(b)) / scale_g;
        let dual = mu.iter().fold(f64::MAX, |a, &b| a.min(b));

        // Jacobian rows of g at x (cf. the proof of Lemma 6):
        //   ∇g1 = (−2·x1·x2, −x1²), ∇g2 = (−1, 0), ∇g3 = (0, −1), ∇g4 = (0, 1).
        let jg = [
            [-2.0 * x.x1 * x.x2, -x.x1 * x.x1],
            [-1.0, 0.0],
            [0.0, -1.0],
            [0.0, 1.0],
        ];
        let mut station = [1.0, 1.0]; // ∇f = (1, 1)
        for (mi, row) in mu.iter().zip(&jg) {
            station[0] += mi * row[0];
            station[1] += mi * row[1];
        }
        let stationarity = station[0].abs().max(station[1].abs());

        let slackness = mu
            .iter()
            .zip(&g)
            .map(|(m, gi)| (m * gi).abs() / scale_g.max(1.0))
            .fold(0.0, f64::max);

        KktReport {
            primal,
            dual,
            stationarity,
            slackness,
        }
    }

    /// Machine-check the proof of Lemma 6 for this instance: the analytic
    /// solution together with the paper's duals must satisfy all four KKT
    /// conditions.
    pub fn verify_kkt(&self) -> KktReport {
        self.kkt_report(self.analytic_solution(), self.paper_duals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kkt_holds_in_all_three_cases() {
        for (n1, n2, p) in [
            (4, 100, 2),    // Case 1
            (4, 100, 28),   // Case 1, near boundary
            (4, 100, 60),   // Case 3 (short-wide branch)
            (100, 4, 100),  // Case 2
            (100, 4, 618),  // Case 2, near boundary
            (100, 4, 1000), // Case 3 (tall-skinny branch)
            (2, 2, 1),      // smallest legal instance (Case 1)
            (64, 64, 4032), // square, huge P (Case 3)
        ] {
            let pr = Lemma6Problem::new(n1, n2, p);
            let rep = pr.verify_kkt();
            assert!(
                rep.holds(1e-9),
                "({n1},{n2},{p}) case {:?}: {rep:?}",
                pr.case()
            );
        }
    }

    #[test]
    fn duals_match_paper_structure() {
        // Case 1: µ2 = µ3 = 0 and µ4 ≥ 0 exactly when P ≤ n2/√(n1(n1−1)).
        let pr = Lemma6Problem::new(4, 100, 2);
        let mu = pr.paper_duals();
        assert!(mu[0] > 0.0 && mu[1] == 0.0 && mu[2] == 0.0 && mu[3] >= 0.0);

        // Case 2: µ2 = µ4 = 0 and µ3 ≥ 0.
        let pr = Lemma6Problem::new(100, 4, 100);
        let mu = pr.paper_duals();
        assert!(mu[0] > 0.0 && mu[1] == 0.0 && mu[2] >= 0.0 && mu[3] == 0.0);

        // Case 3: only µ1 > 0.
        let pr = Lemma6Problem::new(50, 50, 5000);
        let mu = pr.paper_duals();
        assert!(mu[0] > 0.0 && mu[1..] == [0.0, 0.0, 0.0]);
    }

    #[test]
    fn wrong_point_fails_stationarity() {
        let pr = Lemma6Problem::new(4, 100, 2);
        let mut x = pr.analytic_solution();
        x.x1 *= 2.0; // feasible but suboptimal
        let rep = pr.kkt_report(x, pr.paper_duals());
        assert!(
            !rep.holds(1e-6),
            "perturbed point should violate KKT: {rep:?}"
        );
    }

    #[test]
    fn wrong_duals_fail() {
        let pr = Lemma6Problem::new(100, 4, 100);
        let rep = pr.kkt_report(pr.analytic_solution(), [0.0, 0.0, 0.0, 0.0]);
        // With all duals zero, stationarity is ∇f = (1,1) ≠ 0.
        assert!(rep.stationarity > 0.5);
    }
}
