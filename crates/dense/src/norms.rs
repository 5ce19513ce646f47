//! Error norms for verifying distributed results against references.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Maximum absolute element-wise difference between two matrices.
pub fn max_abs_diff<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y).abs().to_f64())
        .fold(0.0, f64::max)
}

/// A relative tolerance suitable for verifying an `n1 × n2` SYRK in `T`:
/// roughly `n2 · ε · scale`, with head-room for reduction reordering.
pub fn syrk_tolerance<T: Scalar>(n2: usize, scale: f64) -> f64 {
    64.0 * n2 as f64 * T::epsilon().to_f64() * scale.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_finds_worst_entry() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let mut b = a.clone();
        b[(1, 2)] += 0.5;
        b[(0, 0)] -= 0.25;
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }

    #[test]
    fn tolerance_scales_with_k() {
        assert!(syrk_tolerance::<f64>(1000, 1.0) > syrk_tolerance::<f64>(10, 1.0));
        assert!(syrk_tolerance::<f64>(10, 1.0) > 0.0);
    }
}
