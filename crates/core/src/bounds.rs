//! Communication lower bounds: Theorem 1 for SYRK, the matching GEMM
//! bounds of Al Daas et al. (SPAA '22) for comparison, and the predicted
//! costs of Algorithms 1–3 (eqs. (3), (10)–(12)).

/// Which of Theorem 1's (and Lemma 6's) three cases an instance falls in.
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

/// The trichotomy of Lemma 6 and Theorem 1 for `(n1, n2, P)`. With
/// `n1 < 2` the strict lower triangle is empty and Case 1's threshold
/// `n2/√(n1(n1−1))` is infinite: Case 1.
pub(crate) fn bound_case(n1: usize, n2: usize, p: usize) -> BoundCase {
    let t = (n1 * n1.saturating_sub(1)) as f64;
    let (n1, n2, p) = (n1 as f64, n2 as f64, p as f64);
    if n1 < 2.0 || (n1 <= n2 && p <= n2 / t.sqrt()) {
        BoundCase::Case1
    } else if n1 > n2 && p <= t / (n2 * n2) {
        BoundCase::Case2
    } else {
        BoundCase::Case3
    }
}

/// The Theorem 1 lower bound for an `(n1, n2, P)` SYRK instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyrkBound {
    /// The data-access term `W` (three cases).
    pub w: f64,
    /// The resident-data term `(n1(n1−1)/2 + n1·n2)/P` subtracted from `W`.
    pub resident: f64,
    /// Which case of the trichotomy applies.
    pub case: BoundCase,
}

impl SyrkBound {
    /// Words that must cross the network at some processor: `W − resident`.
    pub fn communicated(&self) -> f64 {
        (self.w - self.resident).max(0.0)
    }
}

/// Theorem 1: any parallel algorithm on `P` processors starting with one
/// copy of `A` and ending with one copy of strict-lower `C`, load
/// balancing computation or data, must move at least
/// `W − (n1(n1−1)/2 + n1n2)/P` words at some processor, with
///
/// * Case 1: `W = n1n2/P + n1(n1−1)/2`
/// * Case 2: `W = n1n2/√P + n1(n1−1)/2P`
/// * Case 3: `W = (3/2)·(n1(n1−1)n2/P)^(2/3)`
///
/// With `n1 < 2` there is no strict lower triangle: Case 1, and nothing
/// to communicate.
///
/// ```
/// use syrk_core::{syrk_lower_bound, BoundCase};
/// let b = syrk_lower_bound(10_000, 50, 400); // tall-skinny, P = 400
/// assert_eq!(b.case, BoundCase::Case2);
/// assert!(b.communicated() > 0.0);
/// ```
pub fn syrk_lower_bound(n1: usize, n2: usize, p: usize) -> SyrkBound {
    assert!(n2 >= 1 && p >= 1, "need n2 ≥ 1, P ≥ 1");
    let case = bound_case(n1, n2, p);
    let (n1f, n2f, pf) = (n1 as f64, n2 as f64, p as f64);
    let t = n1f * (n1f - 1.0);
    let w = match case {
        BoundCase::Case1 => n1f * n2f / pf + t / 2.0,
        BoundCase::Case2 => n1f * n2f / pf.sqrt() + t / (2.0 * pf),
        BoundCase::Case3 => 1.5 * (t * n2f / pf).powf(2.0 / 3.0),
    };
    let resident = (t / 2.0 + n1f * n2f) / pf;
    SyrkBound { w, resident, case }
}

/// The matching memory-independent GEMM lower bound (Al Daas et al.,
/// SPAA '22) for the *same product* computed without exploiting symmetry:
/// `C = A·Bᵀ` with `A, B: n1 × n2` (so `C: n1 × n1`). Each case's leading
/// term is exactly twice the corresponding SYRK term — the paper's
/// headline factor of 2.
pub fn gemm_lower_bound(n1: usize, n2: usize, p: usize) -> SyrkBound {
    assert!(n1 >= 1 && n2 >= 1 && p >= 1);
    let (n1f, n2f, pf) = (n1 as f64, n2 as f64, p as f64);
    // Case conditions with the symmetric t = n1(n1−1) replaced by the full
    // output size n1² (aspect-ratio thresholds of the rectangular bound
    // specialized to m = n = n1, k = n2).
    let (w, case) = if n1 <= n2 && pf <= n2f / n1f {
        (2.0 * n1f * n2f / pf + n1f * n1f, BoundCase::Case1)
    } else if n1 > n2 && pf <= (n1f * n1f) / (n2f * n2f) {
        (
            2.0 * n1f * n2f / pf.sqrt() + n1f * n1f / pf,
            BoundCase::Case2,
        )
    } else {
        (
            3.0 * (n1f * n1f * n2f / pf).powf(2.0 / 3.0),
            BoundCase::Case3,
        )
    };
    let resident = (n1f * n1f + 2.0 * n1f * n2f) / pf;
    SyrkBound { w, resident, case }
}

/// The memory-dependent parallel lower bound obtained by extending the
/// sequential I/O bound of Beaumont et al. (SPAA '22) — which the paper
/// cites as `(1/√2)·n1²n2/√M` — to `P` processors with local memory `M`
/// words (§6: "an extension of the memory-dependent sequential bound to
/// the parallel case gives a tighter lower bound" when memory is
/// limited): a processor performing the balanced `n1(n1−1)n2/2P`
/// multiplications must move at least
///
/// ```text
/// W_mem = n1(n1−1)·n2 / (√2 · P · √M)
/// ```
///
/// words. The *effective* bound is `max(W_mem, Theorem-1 communicated)`;
/// `W_mem` dominates exactly when `M` is small relative to the
/// memory-independent regime's working set.
pub fn syrk_memory_dependent_bound(n1: usize, n2: usize, p: usize, m: usize) -> f64 {
    assert!(m >= 1, "local memory must be positive");
    let (n1f, n2f, pf) = (n1 as f64, n2 as f64, p as f64);
    n1f * (n1f - 1.0) * n2f / (2f64.sqrt() * pf * (m as f64).sqrt())
}

/// `max` of the memory-independent (Theorem 1) and memory-dependent
/// bounds — the §6 combined bound.
pub fn syrk_effective_bound(n1: usize, n2: usize, p: usize, m: usize) -> f64 {
    syrk_lower_bound(n1, n2, p)
        .communicated()
        .max(syrk_memory_dependent_bound(n1, n2, p, m))
}

/// Predicted bandwidth cost of Algorithm 1 (eq. (3)):
/// `(n1(n1+1)/2)·(1 − 1/P)` — the Reduce-Scatter of the packed triangle.
pub fn alg1d_predicted_cost(n1: usize, p: usize) -> f64 {
    let n1 = n1 as f64;
    let p = p as f64;
    n1 * (n1 + 1.0) / 2.0 * (1.0 - 1.0 / p)
}

/// Predicted bandwidth cost of Algorithm 2 as analyzed in eq. (10):
/// `(n1n2/c)·(1 − 1/P)` with `P = c(c+1)` — the All-to-All over the
/// padded buffer `B`.
pub fn alg2d_predicted_cost(n1: usize, n2: usize, c: usize) -> f64 {
    let p = (c * (c + 1)) as f64;
    (n1 * n2) as f64 / c as f64 * (1.0 - 1.0 / p)
}

/// Bandwidth cost of Algorithm 2 when only *meaningful* chunks are
/// exchanged (no padding): each processor sends its chunk of each of its
/// `c` row blocks to the other `c` members of that block's processor set,
/// `c²` chunks of `n1n2/(c²(c+1))` words: `n1n2/(c+1)`.
///
/// This equals `W − n1n2/P` exactly (the Theorem 1 communicated bound up
/// to the `C`-side resident term), slightly below eq. (10)'s padded cost;
/// both are `n1n2/√P` to leading order.
pub fn alg2d_tight_cost(n1: usize, n2: usize, c: usize) -> f64 {
    (n1 * n2) as f64 / (c + 1) as f64
}

/// The `A`-side term of eq. (12) with exact prefactors: the slice-level
/// All-to-All of `A` chunks (each slice works on `n2/p2` columns),
/// `n1n2/(c·p2)·(1 − 1/p1)` with `p1 = c(c+1)`.
pub(crate) fn alg3d_a_term(n1: usize, n2: usize, c: usize, p2: usize) -> f64 {
    let p1 = (c * (c + 1)) as f64;
    (n1 * n2) as f64 / (c as f64 * p2 as f64) * (1.0 - 1.0 / p1)
}

/// The `C`-side term of eq. (12) with exact prefactors: the Reduce-Scatter
/// of each `C_k` panel across `p2` ranks, `n1²/(2c²)·(1 − 1/p2)`.
pub(crate) fn alg3d_c_term(n1: usize, c: usize, p2: usize) -> f64 {
    let n1f = n1 as f64;
    0.5 * n1f * n1f / (c * c) as f64 * (1.0 - 1.0 / p2 as f64)
}

/// Predicted bandwidth cost of Algorithm 3 (eq. (12) with exact
/// prefactors): the slice-level 2D exchange on `n2/p2` columns plus the
/// Reduce-Scatter of `C_k` across `p2` ranks —
/// `alg3d_a_term` + `alg3d_c_term`.
pub fn alg3d_predicted_cost(n1: usize, n2: usize, c: usize, p2: usize) -> f64 {
    alg3d_a_term(n1, n2, c, p2) + alg3d_c_term(n1, c, p2)
}

/// Leading-order `A`-side term of eq. (12): `n1n2/(√p1·p2)`.
pub(crate) fn alg3d_leading_a_term(n1: usize, n2: usize, p1: usize, p2: usize) -> f64 {
    (n1 * n2) as f64 / ((p1 as f64).sqrt() * p2 as f64)
}

/// Leading-order `C`-side term of eq. (12): `n1²/(2p1)`.
pub(crate) fn alg3d_leading_c_term(n1: usize, p1: usize) -> f64 {
    let n1f = n1 as f64;
    n1f * n1f / (2.0 * p1 as f64)
}

/// Theorem 1 Case 1's output term `n1(n1−1)/2`: the strict lower triangle
/// of `C` that must leave whichever processor computes it — the term the
/// 1D algorithm's Reduce-Scatter of `C` pays.
pub(crate) fn thm1_case1_c_term(n1: usize) -> f64 {
    let n1f = n1 as f64;
    n1f * (n1f - 1.0) / 2.0
}

/// Theorem 1 Case 2's `A`-side term `n1·n2/√P`: the replication of `A`
/// that any algorithm in the tall-output regime must pay — the term the
/// 2D algorithm's All-to-All of `A` chunks (its allgather of `A` within
/// each processor set) pays.
pub(crate) fn thm1_case2_a_term(n1: usize, n2: usize, p: usize) -> f64 {
    (n1 * n2) as f64 / (p as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leading-order simplification of eq. (12): `n1n2/(√p1·p2) + n1²/(2p1)`.
    fn alg3d_leading_cost(n1: usize, n2: usize, p1: usize, p2: usize) -> f64 {
        alg3d_leading_a_term(n1, n2, p1, p2) + alg3d_leading_c_term(n1, p1)
    }

    /// Theorem 1 Case 2's `C`-side term `n1(n1−1)/2P`.
    fn thm1_case2_c_term(n1: usize, p: usize) -> f64 {
        thm1_case1_c_term(n1) / p as f64
    }

    #[test]
    fn bound_case1_formula() {
        // n1 = 10 ≤ n2 = 1000, P = 5 ≤ 1000/√90 ≈ 105.4.
        let b = syrk_lower_bound(10, 1000, 5);
        assert_eq!(b.case, BoundCase::Case1);
        assert!((b.w - (10.0 * 1000.0 / 5.0 + 45.0)).abs() < 1e-9);
        assert!((b.resident - (45.0 + 10_000.0) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn bound_case2_formula() {
        // n1 = 1000 > n2 = 10, P = 100 ≤ 999000/100 = 9990.
        let b = syrk_lower_bound(1000, 10, 100);
        assert_eq!(b.case, BoundCase::Case2);
        let expect = 1000.0 * 10.0 / 10.0 + 999_000.0 / 200.0;
        assert!((b.w - expect).abs() < 1e-9);
    }

    #[test]
    fn bound_case3_formula() {
        let b = syrk_lower_bound(100, 100, 10_000);
        assert_eq!(b.case, BoundCase::Case3);
        let expect = 1.5 * (100.0 * 99.0 * 100.0 / 10_000.0f64).powf(2.0 / 3.0);
        assert!((b.w - expect).abs() < 1e-9);
    }

    #[test]
    fn gemm_is_twice_syrk_in_every_case_leading_order() {
        // Case 1: SYRK W ≈ n1²/2 vs GEMM W ≈ n1² (the n1n2/P terms vanish
        // relative to the output term as n2 grows).
        let s = syrk_lower_bound(100, 100_000, 10);
        let g = gemm_lower_bound(100, 100_000, 10);
        let s_lead = 100.0 * 99.0 / 2.0;
        let g_lead = 100.0 * 100.0;
        assert!((s.w - 100.0 * 100_000.0 / 10.0 - s_lead).abs() < 1e-6);
        assert!((g.w - 2.0 * 100.0 * 100_000.0 / 10.0 - g_lead).abs() < 1e-6);

        // Case 2: SYRK ≈ n1n2/√P vs GEMM ≈ 2n1n2/√P.
        let s = syrk_lower_bound(10_000, 50, 400);
        let g = gemm_lower_bound(10_000, 50, 400);
        assert!(s.case == BoundCase::Case2 && g.case == BoundCase::Case2);
        // Both W terms (A exchange and C footprint) double: exact ratio 2
        // up to the n1−1 vs n1 discount.
        assert!(
            ((g.w - s.w * 2.0) / g.w).abs() < 0.01,
            "ratio {}",
            g.w / s.w
        );

        // Case 3: 3 vs 3/2 prefactor exactly (up to n1−1 vs n1).
        let s = syrk_lower_bound(1000, 1000, 1_000_000);
        let g = gemm_lower_bound(1000, 1000, 1_000_000);
        assert!(s.case == BoundCase::Case3 && g.case == BoundCase::Case3);
        let ratio = g.w / s.w;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn communicated_is_nonnegative() {
        for &(n1, n2, p) in &[
            (2, 1, 1),
            (10, 10, 1),
            (100, 3, 7),
            (4, 4000, 12),
            (50, 50, 2500),
        ] {
            let b = syrk_lower_bound(n1, n2, p);
            assert!(b.communicated() >= 0.0, "({n1},{n2},{p})");
        }
    }

    #[test]
    fn p_equals_one_needs_no_communication() {
        let b = syrk_lower_bound(64, 32, 1);
        // W = n1n2 + n1(n1−1)/2 = resident exactly: nothing to move.
        assert!(b.communicated() < 1e-9);
    }

    #[test]
    fn alg_costs_match_bounds_leading_terms() {
        // 1D (Case 1): cost ≈ n1²/2 = the W leading term for huge n2.
        let cost = alg1d_predicted_cost(1000, 50);
        let b = syrk_lower_bound(1000, 10_000_000, 50);
        assert_eq!(b.case, BoundCase::Case1);
        // W − n1n2/P = n1(n1−1)/2 ≈ cost.
        let lead = b.w - 1000.0 * 10_000_000.0 / 50.0;
        // cost = n1(n1+1)/2·(1−1/P) vs lead = n1(n1−1)/2: within
        // (n1+1)/(n1−1)·(1−1/P) of each other.
        assert!((cost / lead - 1.0).abs() < 0.03, "{cost} vs {lead}");

        // 2D (Case 2): tight cost = n1n2/(c+1); W − resident ≈ same.
        let (n1, n2, c) = (10_000, 20, 7);
        let p = c * (c + 1);
        let b = syrk_lower_bound(n1, n2, p);
        assert_eq!(b.case, BoundCase::Case2);
        let tight = alg2d_tight_cost(n1, n2, c);
        // W = n1n2/√P + t/2P; communicated bound subtracts resident.
        // tight = n1n2/(c+1) and n1n2/√(c(c+1)) − n1n2/(c(c+1)) =
        // n1n2·(√p − 1)/p ≈ n1n2/(c+1) for c not too small.
        assert!(
            (tight / b.communicated() - 1.0).abs() < 0.15,
            "{tight} vs {}",
            b.communicated()
        );
        // And the padded eq. (10) cost is slightly larger than tight.
        assert!(alg2d_predicted_cost(n1, n2, c) > tight);

        // 3D: leading cost with the optimal grid ≈ (3/2)(n1(n1−1)n2/P)^(2/3).
        let (n1, n2) = (512, 512);
        let (p1, p2) = (56, 8); // c = 7
        let p = p1 * p2;
        let lead = alg3d_leading_cost(n1, n2, p1, p2);
        let b = syrk_lower_bound(n1, n2, p);
        assert_eq!(b.case, BoundCase::Case3);
        // Not exactly the optimal grid (c is constrained to primes), so
        // allow some slack.
        assert!(
            lead >= b.w * 0.85 && lead <= b.w * 1.6,
            "{lead} vs W {}",
            b.w
        );
    }

    #[test]
    fn memory_dependent_bound_takes_over_for_small_m() {
        // Square Case 3 instance: with ample memory the Theorem 1 bound
        // governs; starve the memory and W_mem overtakes it.
        let (n1, n2, p) = (1024, 1024, 1056);
        let indep = syrk_lower_bound(n1, n2, p).communicated();
        // The 3D algorithm's per-rank working set is about
        // n1·n2/(√p1·p2) + n1²/(2p1); at M equal to that, the
        // memory-independent bound should still dominate.
        let ample = 1 << 20;
        assert!(syrk_memory_dependent_bound(n1, n2, p, ample) < indep);
        assert_eq!(syrk_effective_bound(n1, n2, p, ample), indep);
        // Tiny memory: W_mem dominates.
        let tiny = 64;
        assert!(syrk_memory_dependent_bound(n1, n2, p, tiny) > indep);
        assert!(syrk_effective_bound(n1, n2, p, tiny) > indep);
    }

    #[test]
    fn memory_dependent_matches_beaumont_at_p1() {
        // P = 1 reduces to the sequential I/O bound (1/√2)·n1(n1−1)n2/√M
        // (the paper quotes (1/√2)·n1²n2/√M with the same leading term).
        let (n1, n2, m) = (512, 256, 4096);
        let got = syrk_memory_dependent_bound(n1, n2, 1, m);
        let beaumont = (n1 * (n1 - 1) * n2) as f64 / (2f64.sqrt() * (m as f64).sqrt());
        assert!((got - beaumont).abs() < 1e-9);
    }

    #[test]
    fn per_term_helpers_sum_to_totals() {
        let (n1, n2, c, p2) = (512, 256, 7, 8);
        let sum = alg3d_a_term(n1, n2, c, p2) + alg3d_c_term(n1, c, p2);
        assert!((sum - alg3d_predicted_cost(n1, n2, c, p2)).abs() < 1e-9);
        let p1 = c * (c + 1);
        let lead = alg3d_leading_a_term(n1, n2, p1, p2) + alg3d_leading_c_term(n1, p1);
        assert!((lead - alg3d_leading_cost(n1, n2, p1, p2)).abs() < 1e-9);
        // Case-2 W decomposes into the A and C terms.
        let (n1, n2, p) = (1000, 10, 100);
        let b = syrk_lower_bound(n1, n2, p);
        assert_eq!(b.case, BoundCase::Case2);
        let sum = thm1_case2_a_term(n1, n2, p) + thm1_case2_c_term(n1, p);
        assert!((sum - b.w).abs() < 1e-9);
    }

    #[test]
    fn memory_dependent_scales_inverse_sqrt_m() {
        let a = syrk_memory_dependent_bound(100, 100, 10, 100);
        let b = syrk_memory_dependent_bound(100, 100, 10, 400);
        assert!((a / b - 2.0).abs() < 1e-12);
    }
}
