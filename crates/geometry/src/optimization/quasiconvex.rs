//! Lemma 4: quasiconvexity of `g0(x) = L − x1²·x2` on the positive
//! quadrant, as a checkable predicate (Definition 2).

/// Evaluate `g0(x) = L − x1²·x2`.
pub(crate) fn g0(l: f64, x: (f64, f64)) -> f64 {
    l - x.0 * x.0 * x.1
}

/// Gradient of `g0`: `(−2·x1·x2, −x1²)`.
pub(crate) fn grad_g0(x: (f64, f64)) -> (f64, f64) {
    (-2.0 * x.0 * x.1, -x.0 * x.0)
}

/// Definition 2 instanceal check: if `g0(y) ≤ g0(x)` then
/// `⟨∇g0(x), y − x⟩ ≤ 0` must hold (for `x`, `y` in the positive
/// quadrant). Returns `true` when the implication holds at `(x, y)`.
pub fn quasiconvex_witness(l: f64, x: (f64, f64), y: (f64, f64)) -> bool {
    assert!(
        x.0 > 0.0 && x.1 > 0.0 && y.0 > 0.0 && y.1 > 0.0,
        "positive quadrant only"
    );
    if g0(l, y) <= g0(l, x) {
        let g = grad_g0(x);
        let inner = g.0 * (y.0 - x.0) + g.1 * (y.1 - x.1);
        // Tiny epsilon absorbs rounding when g0(y) == g0(x) exactly.
        inner <= 1e-9 * (1.0 + inner.abs())
    } else {
        true // premise false ⇒ implication vacuously true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_formula() {
        let g = grad_g0((2.0, 3.0));
        assert_eq!(g, (-12.0, -4.0));
    }

    #[test]
    fn witness_holds_on_a_grid() {
        // Exhaustive small grid in the positive quadrant, for several L.
        let pts: Vec<(f64, f64)> = (1..=8)
            .flat_map(|a| (1..=8).map(move |b| (a as f64 * 0.7, b as f64 * 1.3)))
            .collect();
        for &l in &[0.0, 1.0, 100.0, -5.0] {
            for &x in &pts {
                for &y in &pts {
                    assert!(quasiconvex_witness(l, x, y), "L={l} x={x:?} y={y:?}");
                }
            }
        }
    }

    #[test]
    fn g0_is_not_convex() {
        // Why Lemma 4 (quasiconvexity) is needed: g0 itself fails the
        // convexity inequality f(y) ≥ f(x) + ⟨∇f(x), y−x⟩.
        let l = 0.0;
        let x = (1.0, 1.0);
        let y = (3.0, 3.0);
        let g = grad_g0(x);
        let linear = g0(l, x) + g.0 * (y.0 - x.0) + g.1 * (y.1 - x.1);
        assert!(
            g0(l, y) < linear,
            "g0 should dip below its tangent plane ({} vs {})",
            g0(l, y),
            linear
        );
    }

    #[test]
    #[should_panic(expected = "positive quadrant")]
    fn rejects_nonpositive_points() {
        let _ = quasiconvex_witness(1.0, (0.0, 1.0), (1.0, 1.0));
    }
}
