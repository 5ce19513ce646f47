//! Optimal processor-grid selection (§5.4).
//!
//! Given `(n1, n2, P)`, pick the algorithm and grid that minimize the
//! predicted bandwidth cost:
//!
//! * Case 1 → 1D with all `P` ranks,
//! * Case 2 → 2D with `P = c(c+1)` (the largest prime `c` that fits),
//! * Case 3 → 3D with `p1 = (n1/n2)^{2/3}·P^{2/3}` and
//!   `p2 = (n2/n1)^{2/3}·P^{1/3}`, with `p1 = c(c+1)` rounded to a prime
//!   `c` and `p2` chosen to fit.
//!
//! Because `c` is constrained to primes, the planner enumerates all
//! feasible configurations and ranks them by predicted cost, rather than
//! trusting the closed-form split alone.

use crate::bounds::{
    alg1d_predicted_cost, alg2d_tight_cost, alg3d_predicted_cost, syrk_lower_bound,
};
use crate::dist::field_exists;

/// Why a requested algorithm/grid configuration is invalid — detected
/// before any simulated rank starts, so the fallible entry points
/// (`try_syrk_1d`/`_2d`/`_3d`) can reject it without panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The run was asked for zero ranks (`p = 0` or `p2 = 0`).
    ZeroRanks,
    /// No triangle block construction exists for the grid order `c`
    /// (`P = c(c+1)` requires `c` prime or a supported prime power).
    UnsupportedOrder {
        /// The rejected grid order.
        c: usize,
    },
    /// The input matrix has a zero dimension.
    EmptyMatrix {
        /// Rows of `A`.
        n1: usize,
        /// Columns of `A`.
        n2: usize,
    },
    /// A recovery policy with `max_attempts = 0`: not even the first
    /// try is allowed.
    ZeroAttempts,
    /// A `c(c+1) × p2` grid of more than `u32::MAX` ranks, the most a
    /// machine simulates (`c = 1` for Algorithm 1's `p2 = p` ranks).
    RankCountOverflow {
        /// The grid order of each slice.
        c: usize,
        /// The number of slices.
        p2: usize,
    },
    /// A baseline's `r × r × p2` SUMMA grid of more than `u32::MAX`
    /// ranks (`r = 1` for 1D GEMM's `p2 = p`, `p2 = 1` in 2D).
    SummaGridOverflow {
        /// The side of each slice.
        r: usize,
        /// The number of slices.
        p2: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PlanError::ZeroRanks => write!(f, "plan needs at least one rank"),
            PlanError::UnsupportedOrder { c } => {
                write!(
                    f,
                    "no triangle block construction for c = {c} (need a prime power)"
                )
            }
            PlanError::EmptyMatrix { n1, n2 } => {
                write!(
                    f,
                    "input matrix must have nonzero dimensions, got {n1}x{n2}"
                )
            }
            PlanError::ZeroAttempts => {
                write!(f, "recovery needs at least one attempt (max_attempts = 0)")
            }
            PlanError::RankCountOverflow { c, p2 } => {
                write!(
                    f,
                    "a c(c+1) x p2 grid with c = {c}, p2 = {p2} has more than u32::MAX ranks"
                )
            }
            PlanError::SummaGridOverflow { r, p2 } => {
                write!(
                    f,
                    "an r x r x p2 grid with r = {r}, p2 = {p2} has more than u32::MAX ranks"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A concrete algorithm + grid choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Algorithm 1 on `p` ranks (partitions the `n2` dimension only).
    OneD {
        /// Number of ranks.
        p: usize,
    },
    /// Algorithm 2 with `P = c(c+1)` ranks (partitions both `n1`
    /// dimensions via the Triangle Block Distribution).
    TwoD {
        /// The prime grid parameter.
        c: usize,
    },
    /// Algorithm 3 on a `c(c+1) × p2` grid (partitions all three
    /// dimensions).
    ThreeD {
        /// The prime grid parameter of each slice.
        c: usize,
        /// Number of slices (the `n2`-dimension partition).
        p2: usize,
    },
}

impl Plan {
    /// Ranks the plan actually uses (≤ the budget it was planned for).
    /// Saturates at `usize::MAX`, so a grid too large to count is still
    /// over every rank cap.
    pub fn ranks(&self) -> usize {
        match *self {
            Plan::OneD { p } => p,
            Plan::TwoD { c } => c.saturating_mul(c.saturating_add(1)),
            Plan::ThreeD { c, p2 } => Plan::TwoD { c }.ranks().saturating_mul(p2),
        }
    }
}

/// A plan with its predicted cost and the matching lower bound.
#[derive(Debug, Clone, Copy)]
pub struct RankedPlan {
    /// The algorithm/grid choice.
    pub plan: Plan,
    /// Predicted bandwidth cost (words at the busiest rank).
    pub predicted_cost: f64,
    /// Theorem 1 communicated lower bound at the plan's rank count.
    pub bound: f64,
}

/// Predicted bandwidth cost of a plan for an `(n1, n2)` instance.
pub fn predicted_cost(n1: usize, n2: usize, plan: Plan) -> f64 {
    match plan {
        Plan::OneD { p } => alg1d_predicted_cost(n1, p),
        Plan::TwoD { c } => alg2d_tight_cost(n1, n2, c),
        Plan::ThreeD { c, p2 } => alg3d_predicted_cost(n1, n2, c, p2),
    }
}

/// All orders `c ≤ cmax` with a known triangle block construction:
/// primes (the paper's cyclic scheme) and supported prime powers
/// (affine planes over GF(c)), without building any field.
pub fn constructible_orders(cmax: usize) -> Vec<usize> {
    (2..=cmax).filter(|&c| field_exists(c)).collect()
}

/// Enumerate every feasible plan within a budget of `p` ranks.
pub fn candidate_plans(p: usize) -> Vec<Plan> {
    let mut plans = vec![Plan::OneD { p }];
    for c in constructible_orders(((p as f64).sqrt() as usize) + 2) {
        let p1 = c * (c + 1);
        if p1 > p {
            continue;
        }
        plans.push(Plan::TwoD { c });
        for p2 in 2..=(p / p1) {
            plans.push(Plan::ThreeD { c, p2 });
        }
    }
    plans
}

/// A plan-cache size with no cache behind it: [`plan`] memoizes nothing.
/// The frozen `syrkbench` workload (`benchmark/src/workloads/serve_plan.rs`)
/// is its only reader; it goes when the harness stops asking.
#[doc(hidden)]
pub const PLAN_CACHE_CAP: usize = 4096;

/// Theorem 1's communicated bound at `plan`'s rank count; 0 when fewer
/// than two rows leave the strict lower triangle empty.
fn bound_at(n1: usize, n2: usize, plan: Plan) -> f64 {
    if n1 < 2 {
        0.0
    } else {
        syrk_lower_bound(n1, n2, plan.ranks()).communicated()
    }
}

/// Pick the feasible plan with the lowest predicted cost for
/// `(n1, n2)` on at most `p` ranks: one scan over [`candidate_plans`]
/// that keeps the first minimum, so the pick is always
/// `ranked_plans(n1, n2, p)[0]`.
///
/// With `n1 < 2` the strict lower triangle Theorem 1 speaks about is
/// empty: the plan is still the cheapest, and its `bound` is 0.
///
/// # Panics
///
/// If `p = 0` or `n2 = 0`.
pub fn plan(n1: usize, n2: usize, p: usize) -> RankedPlan {
    assert!(n2 >= 1 && p >= 1, "plan needs n2 ≥ 1 and P ≥ 1");
    let (best, cost) = candidate_plans(p)
        .into_iter()
        .map(|pl| (pl, predicted_cost(n1, n2, pl)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least the 1D plan is always feasible");
    RankedPlan {
        plan: best,
        predicted_cost: cost,
        bound: bound_at(n1, n2, best),
    }
}

/// Every feasible plan within a budget of `p` ranks, priced and bounded,
/// cheapest first; equal costs keep [`candidate_plans`] order (a stable
/// sort), so the first element is [`plan`]'s pick.
///
/// # Panics
///
/// If `p = 0` or `n2 = 0`.
pub fn ranked_plans(n1: usize, n2: usize, p: usize) -> Vec<RankedPlan> {
    assert!(n2 >= 1 && p >= 1, "plan needs n2 ≥ 1 and P ≥ 1");
    let mut ranked: Vec<RankedPlan> = candidate_plans(p)
        .into_iter()
        .map(|pl| RankedPlan {
            plan: pl,
            predicted_cost: predicted_cost(n1, n2, pl),
            bound: bound_at(n1, n2, pl),
        })
        .collect();
    ranked.sort_by(|a, b| a.predicted_cost.total_cmp(&b.predicted_cost));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's closed-form §5.4 grid for Case 3 (before prime rounding):
    /// `p1 = (n1/n2)^{2/3}·P^{2/3}`, `p2 = (n2/n1)^{2/3}·P^{1/3}`.
    fn ideal_case3_grid(n1: usize, n2: usize, p: usize) -> (f64, f64) {
        let (n1, n2, p) = (n1 as f64, n2 as f64, p as f64);
        (
            (n1 / n2).powf(2.0 / 3.0) * p.powf(2.0 / 3.0),
            (n2 / n1).powf(2.0 / 3.0) * p.cbrt(),
        )
    }

    #[test]
    fn plan_is_the_first_ranked_plan_and_repeats_bitwise() {
        let same = |a: &RankedPlan, b: &RankedPlan| {
            a.plan == b.plan
                && a.predicted_cost.to_bits() == b.predicted_cost.to_bits()
                && a.bound.to_bits() == b.bound.to_bits()
        };
        let n2 = 250;
        let mut probes = Vec::new();
        for n1 in [2, 3, 100, 1000, 4096, 10000] {
            probes.extend([1, 2, 12, 48, 181, 1200, 10302].map(|p| (n1, n2, p)));
            // Both sides of every Theorem 1 case boundary and of every
            // change of the chosen family, up to P = 1700.
            let key = |p| {
                let family = std::mem::discriminant(&plan(n1, n2, p).plan);
                (syrk_lower_bound(n1, n2, p).case, family)
            };
            let mut prev = key(1);
            for p in 2..=1700 {
                let cur = key(p);
                if cur != prev {
                    probes.extend([(n1, n2, p - 1), (n1, n2, p)]);
                }
                prev = cur;
            }
        }
        // Exact ties at the minimum, where candidate order decides.
        probes.extend((12..=17).map(|p| (2, 3, p)));
        probes.push((2, 12, 24));
        probes.extend((140..=143).map(|p| (11, 9, p)));
        probes.extend((192..=199).map(|p| (3, 10, p)));
        let mut tied = 0;
        for (n1, n2, p) in probes {
            let ranked = ranked_plans(n1, n2, p);
            assert_eq!(ranked.len(), candidate_plans(p).len(), "({n1}, {n2}, {p})");
            assert!(ranked
                .windows(2)
                .all(|w| w[0].predicted_cost <= w[1].predicted_cost));
            let runner_up = ranked.get(1).map(|r| r.predicted_cost.to_bits());
            tied += usize::from(runner_up == Some(ranked[0].predicted_cost.to_bits()));
            let pick = plan(n1, n2, p);
            let ctx = format!("({n1}, {n2}, {p}): {pick:?} vs {:?}", ranked[0]);
            assert!(same(&pick, &ranked[0]), "{ctx}");
            assert!(same(&pick, &plan(n1, n2, p)), "{ctx}");
            let again = ranked_plans(n1, n2, p);
            assert!(ranked.iter().zip(&again).all(|(a, b)| same(a, b)), "{ctx}");
        }
        assert_eq!(tied, 19);
    }

    #[test]
    fn orders_without_tables_match_the_fields_gf_builds() {
        // The oracle is the table-building definition: an order is
        // constructible when `Gf::new` builds GF(c).
        let oracle: Vec<bool> = (0..=1024).map(|q| crate::Gf::new(q).is_some()).collect();
        for (q, &builds) in oracle.iter().enumerate() {
            assert_eq!(field_exists(q), builds, "q = {q}");
        }
        let oracle_orders =
            |cmax: usize| -> Vec<usize> { (2..=cmax).filter(|&c| oracle[c]).collect() };
        for cmax in 0..=64 {
            assert_eq!(
                constructible_orders(cmax),
                oracle_orders(cmax),
                "cmax = {cmax}"
            );
        }
        // `Gf::new` gates on the same predicate, so pin the prime powers
        // it builds on their own as well.
        let prime_powers: Vec<usize> = (constructible_orders(64).into_iter())
            .filter(|&c| !crate::primes::is_prime(c))
            .collect();
        assert_eq!(prime_powers, [4, 8, 9, 16, 25, 27, 32, 49]);
        for p in [1, 2, 12, 48, 181, 1200, 10302] {
            let mut want = vec![Plan::OneD { p }];
            for c in oracle_orders(((p as f64).sqrt() as usize) + 2) {
                if c * (c + 1) <= p {
                    want.push(Plan::TwoD { c });
                    want.extend((2..=p / (c * (c + 1))).map(|p2| Plan::ThreeD { c, p2 }));
                }
            }
            assert_eq!(candidate_plans(p), want, "p = {p}");
        }
    }

    #[test]
    fn case1_shapes_choose_1d() {
        // Short-wide A, few processors: Case 1 ⇒ 1D.
        let rp = plan(100, 100_000, 8);
        assert_eq!(rp.plan, Plan::OneD { p: 8 });
        assert!(rp.predicted_cost >= rp.bound * 0.9);
    }

    #[test]
    fn case2_shapes_choose_2d() {
        // Tall-skinny A: Case 2 ⇒ 2D with the largest prime grid ≤ P.
        let rp = plan(100_000, 10, 30);
        assert_eq!(rp.plan, Plan::TwoD { c: 5 });
    }

    #[test]
    fn case3_shapes_choose_3d() {
        // Square A with many processors: Case 3 ⇒ 3D.
        let rp = plan(1000, 1000, 120);
        match rp.plan {
            Plan::ThreeD { c, p2 } => {
                assert!(c * (c + 1) * p2 <= 120);
                assert!(p2 >= 2);
            }
            other => panic!("expected 3D, got {other:?}"),
        }
    }

    #[test]
    fn ideal_grid_matches_cost_balance() {
        // With the ideal grid the two 3D cost terms are equal:
        // n1n2/(√p1·p2) = n1²/(2p1) ⟺ p1^{1/2}/p2 · n2/n1 = 1/2 · ... —
        // verify numerically instead: plug the ideal grid into the
        // leading cost and compare to (3/2)(n1(n1−1)n2/P)^{2/3}.
        let (n1, n2, p) = (4096, 1024, 4096);
        let (p1, p2) = ideal_case3_grid(n1, n2, p);
        assert!((p1 * p2 - p as f64).abs() < 1e-6 * p as f64);
        let cost = (n1 * n2) as f64 / (p1.sqrt() * p2) + (n1 * n1) as f64 / (2.0 * p1);
        let w = crate::bounds::syrk_lower_bound(n1, n2, p).w;
        assert!((cost / w - 1.0).abs() < 0.01, "cost {cost} vs W {w}");
    }

    #[test]
    fn plan_ranks_never_exceed_budget() {
        for &(n1, n2, p) in &[(50, 5000, 13), (5000, 50, 47), (300, 300, 97), (2, 2, 1)] {
            let rp = plan(n1, n2, p);
            assert!(rp.plan.ranks() <= p, "({n1},{n2},{p}) -> {:?}", rp.plan);
        }
    }

    #[test]
    fn fewer_than_two_rows_plan_with_a_zero_bound() {
        for (n1, n2, p) in [(1, 8, 4), (1, 8, 3), (0, 5, 12), (1, 1, 1), (1, 40, 30)] {
            let rp = plan(n1, n2, p);
            assert_eq!(rp.bound, 0.0, "({n1},{n2},{p})");
            assert!(rp.plan.ranks() <= p, "({n1},{n2},{p}) -> {:?}", rp.plan);
            assert_eq!(rp.predicted_cost, predicted_cost(n1, n2, rp.plan));
        }
    }

    #[test]
    fn candidates_include_all_three_kinds() {
        let plans = candidate_plans(60);
        assert!(plans.contains(&Plan::OneD { p: 60 }));
        assert!(plans.contains(&Plan::TwoD { c: 5 }));
        assert!(plans.contains(&Plan::ThreeD { c: 2, p2: 10 }));
        assert!(plans.contains(&Plan::ThreeD { c: 3, p2: 5 }));
        // 7·8 = 56 ≤ 60 but leaves no room for p2 ≥ 2.
        assert!(plans.contains(&Plan::TwoD { c: 7 }));
        assert!(!plans.iter().any(|p| matches!(p, Plan::ThreeD { c: 7, .. })));
    }

    #[test]
    fn crossover_moves_from_1d_to_3d_with_p() {
        // Fixed shape; as P grows past n2/√(n1(n1−1)) the best plan should
        // switch from 1D to 3D (E8).
        let (n1, n2) = (64, 4096);
        let small = plan(n1, n2, 16);
        assert!(matches!(small.plan, Plan::OneD { .. }), "{:?}", small.plan);
        let large = plan(n1, n2, 4000);
        assert!(
            matches!(large.plan, Plan::ThreeD { .. }),
            "{:?}",
            large.plan
        );
    }
}
