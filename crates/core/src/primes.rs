//! Primality helpers for the triangle block distribution.
//!
//! The 2D and 3D algorithms assume `p1 = c(c+1)` for a *prime* `c` (§5):
//! primality of `c` is a sufficient condition for the cyclic triangle
//! block partition of the `c² × c²` block grid to be valid.

/// Deterministic primality test (trial division; `c` values in practice
/// are tiny — a few hundred at most).
pub(crate) fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d <= n / d {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes: Vec<usize> = (0..30).filter(|&n| is_prime(n)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
    }
}
