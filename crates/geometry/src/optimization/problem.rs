//! The constrained optimization problem of Lemma 6.

/// An instance of the Lemma 6 problem:
///
/// ```text
/// min  x1 + x2
/// s.t. (n1(n1−1)n2 / (√2·P))² ≤ x1²·x2          (g1, from Lemma 3)
///      0 ≤ x1                                    (g2)
///      n1(n1−1)/(2P) ≤ x2 ≤ n1(n1−1)/2           (g3, g4, from Lemma 5)
/// ```
///
/// `x1` models the number of elements of `A` a processor accesses
/// (`|φ_i(F) ∪ φ_j(F)|`) and `x2` the number of elements of the strict
/// lower triangle of `C` it contributes to (`|φ_k(F)|`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lemma6Problem {
    /// Rows of `A`.
    pub n1: u64,
    /// Columns of `A`.
    pub n2: u64,
    /// Number of processors.
    pub p: u64,
}

/// Which of the three analytic cases an instance falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundCase {
    /// `n1 ≤ n2` and `P ≤ n2/√(n1(n1−1))`: short-wide `A`, few processors.
    Case1,
    /// `n1 > n2` and `P ≤ n1(n1−1)/n2²`: tall-skinny `A`, few processors.
    Case2,
    /// Everything else: enough processors that all three dimensions of the
    /// iteration space must be partitioned.
    Case3,
}

/// A candidate point for the problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Elements of `A` accessed.
    pub x1: f64,
    /// Elements of strict-lower `C` contributed to.
    pub x2: f64,
}

impl Point {
    /// Objective value `x1 + x2`.
    pub fn objective(&self) -> f64 {
        self.x1 + self.x2
    }
}

impl Lemma6Problem {
    /// Create an instance. Requires `n1 ≥ 2` (otherwise the strict lower
    /// triangle is empty and the problem degenerates), `n2 ≥ 1`, `P ≥ 1`.
    pub fn new(n1: u64, n2: u64, p: u64) -> Self {
        assert!(n1 >= 2, "Lemma 6 needs n1 ≥ 2 (nonempty strict triangle)");
        assert!(n2 >= 1 && p >= 1, "n2 and P must be positive");
        Lemma6Problem { n1, n2, p }
    }

    /// `n1(n1−1)` as `f64` — appears throughout the formulas.
    pub fn t(&self) -> f64 {
        (self.n1 * (self.n1 - 1)) as f64
    }

    /// The constant `K = (n1(n1−1)·n2 / (√2·P))²` of constraint g1.
    pub fn k(&self) -> f64 {
        let l = self.t() * self.n2 as f64 / (2f64.sqrt() * self.p as f64);
        l * l
    }

    /// Lower bound on `x2`: `n1(n1−1)/(2P)`.
    pub(crate) fn x2_lo(&self) -> f64 {
        self.t() / (2.0 * self.p as f64)
    }

    /// Upper bound on `x2`: `n1(n1−1)/2`.
    pub(crate) fn x2_hi(&self) -> f64 {
        self.t() / 2.0
    }

    /// The constraint vector `g(x) ≤ 0` at a point.
    pub(crate) fn constraints(&self, pt: Point) -> [f64; 4] {
        [
            self.k() - pt.x1 * pt.x1 * pt.x2,
            -pt.x1,
            self.x2_lo() - pt.x2,
            pt.x2 - self.x2_hi(),
        ]
    }

    /// Whether `pt` is feasible within relative tolerance `tol`.
    pub fn is_feasible(&self, pt: Point, tol: f64) -> bool {
        let scale = self.k().max(self.x2_hi()).max(1.0);
        self.constraints(pt).iter().all(|&g| g <= tol * scale)
    }

    /// Which analytic case this instance falls in (Lemma 6's trichotomy).
    pub fn case(&self) -> BoundCase {
        let (n1, n2, p) = (self.n1 as f64, self.n2 as f64, self.p as f64);
        if n1 <= n2 {
            if p <= n2 / self.t().sqrt() {
                BoundCase::Case1
            } else {
                BoundCase::Case3
            }
        } else if p <= self.t() / (n2 * n2) {
            BoundCase::Case2
        } else {
            BoundCase::Case3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let pr = Lemma6Problem::new(4, 6, 2);
        assert_eq!(pr.t(), 12.0);
        // K = (12·6 / (√2·2))² = (72/(2√2))² = (25.455…)² = 648.
        assert!((pr.k() - 648.0).abs() < 1e-9);
        assert_eq!(pr.x2_lo(), 3.0);
        assert_eq!(pr.x2_hi(), 6.0);
    }

    #[test]
    fn case_classification() {
        // n1=4 ≤ n2=100, P=2 ≤ 100/√12 ≈ 28.9 → Case 1.
        assert_eq!(Lemma6Problem::new(4, 100, 2).case(), BoundCase::Case1);
        // Same shape, P = 60 > 28.9 → Case 3.
        assert_eq!(Lemma6Problem::new(4, 100, 60).case(), BoundCase::Case3);
        // n1=100 > n2=4, P=100 ≤ 9900/16 ≈ 618 → Case 2.
        assert_eq!(Lemma6Problem::new(100, 4, 100).case(), BoundCase::Case2);
        // n1=100 > n2=4, P=1000 > 618 → Case 3.
        assert_eq!(Lemma6Problem::new(100, 4, 1000).case(), BoundCase::Case3);
    }

    #[test]
    fn feasibility() {
        let pr = Lemma6Problem::new(4, 6, 2);
        // Generous point: x1 huge, x2 at its cap.
        assert!(pr.is_feasible(Point { x1: 100.0, x2: 6.0 }, 1e-12));
        // x2 below its floor is infeasible.
        assert!(!pr.is_feasible(Point { x1: 100.0, x2: 1.0 }, 1e-12));
        // Violating the volume constraint is infeasible.
        assert!(!pr.is_feasible(Point { x1: 1.0, x2: 6.0 }, 1e-12));
    }

    #[test]
    #[should_panic(expected = "n1 ≥ 2")]
    fn tiny_n1_rejected() {
        let _ = Lemma6Problem::new(1, 5, 1);
    }
}
