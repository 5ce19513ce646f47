//! Primality helpers for the triangle block distribution.
//!
//! The 2D and 3D algorithms assume `p1 = c(c+1)` for a *prime* `c` (§5):
//! primality of `c` is a sufficient condition for the cyclic triangle
//! block partition of the `c² × c²` block grid to be valid.

/// Deterministic primality test (trial division; `c` values in practice
/// are tiny — a few hundred at most).
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// If `p = c(c+1)` for a prime `c`, return that `c`.
pub fn triangle_c_for(p: usize) -> Option<usize> {
    // c = ⌊√p⌋ is the only candidate since c(c+1) is strictly monotone.
    let c = (p as f64).sqrt() as usize;
    [c.saturating_sub(1), c, c + 1]
        .into_iter()
        .find(|&cand| cand >= 1 && cand * (cand + 1) == p && is_prime(cand))
}

/// The largest prime `c` with `c(c+1) ≤ p`, if any (used by the planner
/// when `P` itself is not of the form `c(c+1)`).
pub fn largest_triangle_c_at_most(p: usize) -> Option<usize> {
    let mut c = (p as f64).sqrt() as usize + 1;
    while c >= 2 {
        if c * (c + 1) <= p && is_prime(c) {
            return Some(c);
        }
        c -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes: Vec<usize> = (0..30).filter(|&n| is_prime(n)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
    }

    #[test]
    fn triangle_c_roundtrip() {
        assert_eq!(triangle_c_for(6), Some(2));
        assert_eq!(triangle_c_for(12), Some(3));
        assert_eq!(triangle_c_for(30), Some(5));
        assert_eq!(triangle_c_for(56), Some(7));
        assert_eq!(triangle_c_for(20), None); // 4·5 but 4 is not prime
        assert_eq!(triangle_c_for(7), None);
        assert_eq!(triangle_c_for(0), None);
    }

    #[test]
    fn largest_c_at_most() {
        assert_eq!(largest_triangle_c_at_most(12), Some(3));
        assert_eq!(largest_triangle_c_at_most(29), Some(3)); // 5·6=30 > 29
        assert_eq!(largest_triangle_c_at_most(30), Some(5));
        assert_eq!(largest_triangle_c_at_most(100), Some(7)); // 7·8=56; 11·12=132
        assert_eq!(largest_triangle_c_at_most(5), None);
    }
}
