//! Finite-field arithmetic GF(q) for prime powers `q = p^k`, used to
//! generalize the triangle block distribution beyond prime `c` (§5.2.1
//! notes primality is sufficient but *not* necessary; any affine plane of
//! order `c` yields a valid partition, and affine planes exist for every
//! prime power).
//!
//! Elements are represented as polynomial coefficient vectors over
//! GF(p) packed into a `usize` in base `p`; multiplication reduces modulo
//! a fixed irreducible polynomial. Fields are tiny (q ≤ 32 or so), so
//! full multiplication tables are precomputed.

use crate::primes::is_prime;

/// Irreducible monic polynomials over GF(p) for the supported prime
/// powers `p^k`, encoded as base-`p` digit strings, most significant
/// first, *without* the leading 1 coefficient implied.
/// E.g. GF(4) = GF(2)[x]/(x² + x + 1) → p = 2, k = 2, tail = [1, 1].
fn irreducible_tail(p: usize, k: usize) -> Option<&'static [usize]> {
    match (p, k) {
        (2, 2) => Some(&[1, 1]),          // x^2 + x + 1
        (2, 3) => Some(&[0, 1, 1]),       // x^3 + x + 1
        (2, 4) => Some(&[0, 0, 1, 1]),    // x^4 + x + 1
        (2, 5) => Some(&[0, 0, 1, 0, 1]), // x^5 + x^2 + 1
        (3, 2) => Some(&[0, 1]),          // x^2 + 1 (irreducible mod 3)
        (3, 3) => Some(&[0, 2, 1]),       // x^3 + 2x + 1
        (5, 2) => Some(&[0, 2]),          // x^2 + 2 (2 is a non-residue mod 5)
        (7, 2) => Some(&[0, 1]),          // x^2 + 1 (−1 is a non-residue mod 7)
        _ => None,
    }
}

/// Whether [`Gf::new`] builds GF(q): `q` is prime, or a prime power
/// with an entry in [`irreducible_tail`]. Answers without building the
/// field's tables.
pub(crate) fn field_exists(q: usize) -> bool {
    is_prime(q) || factor_prime_power(q).is_some_and(|(p, k)| irreducible_tail(p, k).is_some())
}

/// The finite field GF(q), `q = p^k`, with precomputed operation tables.
#[derive(Debug, Clone)]
pub struct Gf {
    q: usize,
    add: Vec<usize>,
    mul: Vec<usize>,
}

impl Gf {
    /// Construct GF(q). Supports all primes and the prime powers with an
    /// entry in the irreducible table (4, 8, 9, 16, 25, 27, 32, 49).
    /// Returns `None` for non-prime-powers or unsupported sizes.
    pub fn new(q: usize) -> Option<Gf> {
        if !field_exists(q) {
            return None;
        }
        if is_prime(q) {
            // Prime field: plain modular arithmetic.
            let mut add = vec![0; q * q];
            let mut mul = vec![0; q * q];
            for a in 0..q {
                for b in 0..q {
                    add[a * q + b] = (a + b) % q;
                    mul[a * q + b] = (a * b) % q;
                }
            }
            return Some(Gf { q, add, mul });
        }
        // Prime power: find p, k.
        let (p, k) = factor_prime_power(q)?;
        let tail = irreducible_tail(p, k)?;
        // Elements are vectors of k digits base p (digit 0 = constant
        // term). Precompute tables by polynomial arithmetic.
        let to_digits = |mut x: usize| -> Vec<usize> {
            let mut d = vec![0; k];
            for slot in d.iter_mut() {
                *slot = x % p;
                x /= p;
            }
            d
        };
        let from_digits = |d: &[usize]| -> usize { d.iter().rev().fold(0, |acc, &x| acc * p + x) };
        // The reduction rule: x^k ≡ −(tail polynomial). tail is given
        // most-significant-first for degrees k−1 … 0.
        let mut red = vec![0usize; k]; // red[i] = coefficient of x^i in x^k
        for (idx, &coef) in tail.iter().enumerate() {
            let deg = k - 1 - idx;
            red[deg] = (p - coef % p) % p;
        }
        let mut add = vec![0; q * q];
        let mut mul = vec![0; q * q];
        for a in 0..q {
            let da = to_digits(a);
            for b in 0..q {
                let db = to_digits(b);
                let sum: Vec<usize> = da.iter().zip(&db).map(|(&x, &y)| (x + y) % p).collect();
                add[a * q + b] = from_digits(&sum);
                // Schoolbook multiply into 2k−1 coefficients…
                let mut prod = vec![0usize; 2 * k - 1];
                for (i, &x) in da.iter().enumerate() {
                    for (j, &y) in db.iter().enumerate() {
                        prod[i + j] = (prod[i + j] + x * y) % p;
                    }
                }
                // …then reduce degrees ≥ k using x^k ≡ red.
                for deg in (k..2 * k - 1).rev() {
                    let coef = prod[deg];
                    if coef == 0 {
                        continue;
                    }
                    prod[deg] = 0;
                    // x^deg = x^(deg−k) · x^k ≡ x^(deg−k) · red.
                    for (i, &r) in red.iter().enumerate() {
                        prod[deg - k + i] = (prod[deg - k + i] + coef * r) % p;
                    }
                }
                mul[a * q + b] = from_digits(&prod[..k]);
            }
        }
        Some(Gf { q, add, mul })
    }

    /// Field size `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, a: usize, b: usize) -> usize {
        self.add[a * self.q + b]
    }

    /// Field multiplication.
    #[inline]
    pub(crate) fn mul(&self, a: usize, b: usize) -> usize {
        self.mul[a * self.q + b]
    }
}

/// If `q = p^k` for prime `p` and `k ≥ 2`, return `(p, k)`.
fn factor_prime_power(q: usize) -> Option<(usize, usize)> {
    for p in 2..=q {
        if !is_prime(p) {
            continue;
        }
        let mut x = q;
        let mut k = 0;
        while x.is_multiple_of(p) {
            x /= p;
            k += 1;
        }
        if x == 1 && k >= 2 {
            return Some((p, k));
        }
        if q.is_multiple_of(p) {
            return None; // divisible by p but not a pure power of it
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_field_axioms(gf: &Gf) {
        let q = gf.q();
        // Additive and multiplicative identities.
        for a in 0..q {
            assert_eq!(gf.add(a, 0), a);
            assert_eq!(gf.mul(a, 1), a);
            assert_eq!(gf.mul(a, 0), 0);
        }
        // Commutativity + associativity (exhaustive — q is tiny).
        for a in 0..q {
            for b in 0..q {
                assert_eq!(gf.add(a, b), gf.add(b, a));
                assert_eq!(gf.mul(a, b), gf.mul(b, a));
                for c in 0..q {
                    assert_eq!(gf.add(gf.add(a, b), c), gf.add(a, gf.add(b, c)));
                    assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
                    // Distributivity.
                    assert_eq!(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
                }
            }
        }
        // Every nonzero element has a multiplicative inverse.
        for a in 1..q {
            assert!(
                (1..q).any(|b| gf.mul(a, b) == 1),
                "no inverse for {a} in GF({q})"
            );
        }
        // Additive inverses.
        for a in 0..q {
            assert!((0..q).any(|b| gf.add(a, b) == 0));
        }
    }

    #[test]
    fn prime_fields() {
        for q in [2usize, 3, 5, 7, 11, 13] {
            check_field_axioms(&Gf::new(q).unwrap());
        }
    }

    #[test]
    fn prime_power_fields() {
        for q in [4usize, 8, 9, 16, 25, 27, 32, 49] {
            let gf = Gf::new(q).unwrap_or_else(|| panic!("GF({q}) should exist"));
            check_field_axioms(&gf);
        }
    }

    #[test]
    fn non_prime_powers_rejected() {
        for q in [0usize, 1, 6, 10, 12, 15, 20, 100] {
            assert!(Gf::new(q).is_none(), "GF({q}) must not exist");
        }
    }

    #[test]
    fn gf4_known_table() {
        // GF(4) with x² = x + 1: elements {0, 1, x=2, x+1=3}.
        let gf = Gf::new(4).unwrap();
        assert_eq!(gf.mul(2, 2), 3); // x·x = x+1
        assert_eq!(gf.mul(2, 3), 1); // x·(x+1) = x²+x = (x+1)+x = 1
        assert_eq!(gf.add(2, 3), 1); // x + (x+1) = 1
    }

    #[test]
    fn factor_prime_power_basics() {
        assert_eq!(factor_prime_power(4), Some((2, 2)));
        assert_eq!(factor_prime_power(27), Some((3, 3)));
        assert_eq!(factor_prime_power(7), None); // k = 1 handled as prime
        assert_eq!(factor_prime_power(12), None);
    }
}
